//! A simple Zipf sampler over ranks `1..=n`.

/// Zipf distribution with exponent `s` over `1..=n`, sampled by CDF
/// inversion.
///
/// # Example
///
/// ```
/// use lookaside_workload::Zipf;
///
/// let zipf = Zipf::new(100, 1.0);
/// assert_eq!(zipf.sample(0.0), 1); // lowest ranks dominate
/// assert!(zipf.sample_hash(u64::MAX / 2) <= 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `1..=n` from a uniform `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Samples from a hash value (uniform over `u64`).
    pub fn sample_hash(&self, h: u64) -> usize {
        self.sample(h as f64 / u64::MAX as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_ends_at_one() {
        let z = Zipf::new(100, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_bounds() {
        let z = Zipf::new(50, 0.8);
        assert_eq!(z.sample(0.0), 1);
        assert_eq!(z.sample(1.0), 50);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            let k = z.sample(u);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(1000, 1.0);
        let mut head = 0usize;
        for i in 0..10_000u64 {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            if z.sample_hash(h) <= 10 {
                head += 1;
            }
        }
        // Top-10 mass of Zipf(1) over 1000 ≈ 39%.
        assert!((2_500..5_500).contains(&head), "head draws {head}");
    }

    #[test]
    fn monotone_in_u() {
        let z = Zipf::new(20, 1.2);
        let mut last = 0;
        for i in 0..=100 {
            let k = z.sample(i as f64 / 100.0);
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zero_support_panics() {
        Zipf::new(0, 1.0);
    }
}
