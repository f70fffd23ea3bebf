//! A DITL-style recursive-resolver trace (Fig. 12 of the paper).
//!
//! The paper uses a 7-hour Day-In-The-Life capture: per-minute query rates
//! fluctuating between 160 000 and 360 000 queries/minute, totalling
//! 92 705 013 queries. The trace itself is unavailable, so this module
//! generates one with the same envelope and exact total.

use serde::{Deserialize, Serialize};

/// Total queries of the paper's trace.
pub const DITL_TOTAL_QUERIES: u64 = 92_705_013;
/// Trace length in minutes (7 hours).
pub const DITL_MINUTES: usize = 420;

const RATE_MIN: u64 = 160_000;
const RATE_MAX: u64 = 360_000;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A generated per-minute query-volume trace.
///
/// # Example
///
/// ```
/// use lookaside_workload::{DitlTrace, DITL_TOTAL_QUERIES};
///
/// let trace = DitlTrace::generate(1);
/// assert_eq!(trace.total(), DITL_TOTAL_QUERIES);
/// assert_eq!(trace.per_minute().len(), 420);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DitlTrace {
    per_minute: Vec<u64>,
}

impl DitlTrace {
    /// Generates a 420-minute trace with a diurnal-ish envelope plus noise,
    /// clipped to the paper's 160k–360k band, scaled to the exact total.
    pub fn generate(seed: u64) -> Self {
        let mut raw: Vec<f64> = (0..DITL_MINUTES)
            .map(|t| {
                let phase = t as f64 / DITL_MINUTES as f64 * std::f64::consts::TAU;
                let envelope = 250_000.0 + 70_000.0 * (phase - 0.8).sin();
                let noise = (mix(seed, t as u64) % 60_000) as f64 - 30_000.0;
                envelope + noise
            })
            .collect();
        // Scale to the target total, then clip and absorb the residue in a
        // few mid-range minutes so every value stays inside the band.
        let sum: f64 = raw.iter().sum();
        let scale = DITL_TOTAL_QUERIES as f64 / sum;
        for v in &mut raw {
            *v = (*v * scale).clamp((RATE_MIN + 1_000) as f64, (RATE_MAX - 1_000) as f64);
        }
        let mut per_minute: Vec<u64> = raw.iter().map(|v| *v as u64).collect();
        let mut diff = DITL_TOTAL_QUERIES as i64 - per_minute.iter().sum::<u64>() as i64;
        let mut idx = 0usize;
        while diff != 0 {
            let step = diff.signum();
            #[expect(clippy::indexing_slicing, reason = "per_minute has DITL_MINUTES entries")]
            let v = &mut per_minute[idx % DITL_MINUTES];
            let candidate = (*v as i64 + step) as u64;
            if (RATE_MIN..=RATE_MAX).contains(&candidate) {
                *v = candidate;
                diff -= step;
            }
            idx += 1;
        }
        DitlTrace { per_minute }
    }

    /// Per-minute query counts (420 entries).
    pub fn per_minute(&self) -> &[u64] {
        &self.per_minute
    }

    /// Total query count (always [`DITL_TOTAL_QUERIES`]).
    pub fn total(&self) -> u64 {
        self.per_minute.iter().sum()
    }

    /// Cumulative query counts per minute — Fig. 12b.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.per_minute
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Mean query rate per second.
    pub fn mean_qps(&self) -> f64 {
        self.total() as f64 / (DITL_MINUTES as f64 * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_exact() {
        let trace = DitlTrace::generate(1);
        assert_eq!(trace.total(), DITL_TOTAL_QUERIES);
        assert_eq!(trace.per_minute().len(), DITL_MINUTES);
    }

    #[test]
    fn rates_stay_in_the_paper_band() {
        let trace = DitlTrace::generate(2);
        for (t, &v) in trace.per_minute().iter().enumerate() {
            assert!((RATE_MIN..=RATE_MAX).contains(&v), "minute {t}: {v}");
        }
    }

    #[test]
    fn rates_fluctuate() {
        let trace = DitlTrace::generate(3);
        let min = *trace.per_minute().iter().min().unwrap();
        let max = *trace.per_minute().iter().max().unwrap();
        assert!(max - min > 50_000, "envelope should vary (min {min}, max {max})");
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let trace = DitlTrace::generate(4);
        let cum = trace.cumulative();
        assert!(cum.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*cum.last().unwrap(), DITL_TOTAL_QUERIES);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(DitlTrace::generate(7), DitlTrace::generate(7));
        assert_ne!(DitlTrace::generate(7), DitlTrace::generate(8));
    }

    #[test]
    fn mean_qps_matches_paper_range() {
        // Paper: 2,667–6,000 qps; 92.7M over 7h ≈ 3,678 qps.
        let qps = DitlTrace::generate(5).mean_qps();
        assert!((3_600.0..3_760.0).contains(&qps), "qps {qps}");
    }
}
