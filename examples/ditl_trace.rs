//! DITL trace replay: generate the paper's 7-hour, 92.7M-query
//! recursive-resolver trace and compute the TXT-signaling overhead of
//! Fig. 12.
//!
//! ```text
//! cargo run --release -p lookaside --example ditl_trace [--full]
//! ```
//!
//! With `--full` the cache model runs on the entire trace volume
//! (~15 s); without it, a 1/200 sample smoke-tests the pipeline.

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use std::num::NonZeroU64;

use lookaside::engine::Executor;
use lookaside::experiments::fig12;
use lookaside_workload::{DitlTrace, DITL_TOTAL_QUERIES};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = NonZeroU64::new(if full { 1 } else { 200 }).expect("the divisor is not zero");

    let trace = DitlTrace::generate(23);
    println!("generated DITL-style trace:");
    println!("  total queries : {}", trace.total());
    assert_eq!(trace.total(), DITL_TOTAL_QUERIES);
    println!("  mean rate     : {:.0} queries/s", trace.mean_qps());
    let min = trace.per_minute().iter().min().unwrap();
    let max = trace.per_minute().iter().max().unwrap();
    println!("  rate envelope : {min}–{max} queries/min (paper: 160k–360k)");

    println!("\nper-minute volume (Fig. 12a), one sample every 30 minutes:");
    for (minute, volume) in trace.per_minute().iter().enumerate().step_by(30) {
        let bar = "#".repeat((volume / 12_000) as usize);
        println!("  t={minute:>3}m {volume:>7} {bar}");
    }

    println!("\ncomputing the TXT-signaling overhead (Fig. 12c, sampling 1/{scale}) ...");
    let data = fig12(&Executor::default(), 23, scale);
    let last = data.per_minute.len() - 1;
    println!("  cumulative queries  : {:>12}", data.cumulative_queries[last]);
    println!(
        "  baseline volume     : {:>9.2} GB",
        data.cumulative_baseline_bytes[last] as f64 / 1e9
    );
    println!(
        "  signaling overhead  : {:>9.2} GB  ({:.3} Mbps added at the recursive)",
        data.cumulative_overhead_bytes[last] as f64 / 1e9,
        data.overhead_mbps
    );
    println!("  (paper: ≈1.2 GB over 7 h ≈ 0.38 Mbps — small next to the baseline)");
    if scale.get() > 1 {
        println!(
            "  NOTE: sampled runs overstate the cache-miss rate; run with --full\n\
             \u{20}       for the calibrated figure (≈1.08 GB / 0.34 Mbps)."
        );
    }
}
