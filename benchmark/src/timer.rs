//! Dependency-free kernel timer: warm-up, then a fixed number of samples,
//! reported as median and median absolute deviation per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{mad, median};

/// Samples taken after warm-up.
pub const SAMPLES: usize = 1_000;
/// Untimed samples run first, so caches and the allocator settle.
const WARMUP: usize = 100;
/// A sample runs the kernel enough times to last at least this long, so
/// the clock's own cost stays negligible for sub-microsecond kernels.
const MIN_SAMPLE: Duration = Duration::from_micros(5);

/// Per-call time of one kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelTime {
    /// Median nanoseconds per call.
    pub median_ns: f64,
    /// Median absolute deviation, nanoseconds per call.
    pub mad_ns: f64,
}

/// Times `kernel`: calibrates how many calls one sample makes, runs
/// [`WARMUP`] untimed samples, then [`SAMPLES`] timed ones.
pub fn time_kernel<T>(mut kernel: impl FnMut() -> T) -> KernelTime {
    let mut run = |calls: usize| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(kernel());
        }
        start.elapsed()
    };
    let mut calls = 1usize;
    while run(calls) < MIN_SAMPLE && calls < 1 << 20 {
        calls *= 2;
    }
    for _ in 0..WARMUP {
        run(calls);
    }
    let per_call: Vec<f64> =
        (0..SAMPLES).map(|_| run(calls).as_nanos() as f64 / calls as f64).collect();
    KernelTime { median_ns: median(&per_call), mad_ns: mad(&per_call) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_kernels_time_longer() {
        let work = |n: u64| (0..n).fold(0u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x));
        let short = time_kernel(|| work(black_box(100)));
        let long = time_kernel(|| work(black_box(10_000)));
        assert!(short.median_ns > 0.0);
        assert!(long.median_ns > short.median_ns * 10.0, "{short:?} vs {long:?}");
        assert!(long.mad_ns >= 0.0);
    }
}
