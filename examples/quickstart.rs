//! Quickstart: build a simulated Internet, resolve a few domains through a
//! correctly configured validating resolver, and watch what the DLV
//! registry gets to observe.
//!
//! ```text
//! cargo run --release -p lookaside --example quickstart
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside::internet::{Internet, InternetParams};
use lookaside::leakage::classify;
use lookaside_resolver::{BindConfig, ResolverConfig};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::RrType;
use lookaside_workload::PopulationParams;

fn main() {
    // A 5 000-domain synthetic population, no remedy deployed — the
    // baseline world the paper measures.
    let population = PopulationParams { size: 5_000, ..PopulationParams::default() };
    let params = InternetParams::for_top(200, population, RemedyMode::None);
    let mut internet = Internet::build(params);

    // A resolver configured exactly like the paper's Fig. 6 (correct BIND
    // config: validation on, trust anchor included, DLV enabled).
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 42);

    println!("resolving the top 25 domains (A records) ...\n");
    for rank in 1..=25usize {
        let qname = internet.population.domain(rank);
        match resolver.resolve(&mut internet.net, &qname, RrType::A) {
            Ok(res) => println!(
                "  {:<16} -> {:<9} status={:?}{}",
                qname.to_string(),
                res.rcode.to_string(),
                res.status,
                if res.secured_via_dlv { " (anchored via DLV!)" } else { "" }
            ),
            Err(e) => println!("  {qname} -> error: {e}"),
        }
    }

    // The privacy story is in the packet capture, not the answers:
    let report = classify(internet.net.capture(), &internet.dlv_apex);
    println!("\nwhat the DLV registry observed:");
    println!("  {} DLV queries", report.dlv_queries);
    println!("  {} answered NOERROR (Case 1: a record was deposited)", report.case1);
    println!("  {} answered NXDOMAIN (Case 2: pure privacy leakage)", report.case2);
    println!("  leaked names include:");
    for name in report.leaked_names.iter().take(8) {
        println!("    {name}");
    }
    println!(
        "\nresolver suppressed {} further lookups via aggressive NSEC caching",
        resolver.counters.dlv_suppressed_by_nsec
    );
    println!(
        "simulated wall clock: {:.2} s, upstream queries: {}",
        internet.net.now_ns() as f64 / 1e9,
        internet.net.stats().total_queries()
    );
}
