//! Registry-outage chaos sweep: degrade the `dlv.isc.org` link with seeded
//! packet loss (up to a full blackhole) and watch what the resolver's
//! timers do to privacy — the §7.3.2 "retries amplify leakage" mechanism.
//!
//! ```text
//! cargo run --release -p lookaside --example chaos_outage
//! ```

use lookaside::chaos::{chaos_outage, ChaosConfig, TimerProfile};
use lookaside::engine::Executor;
use lookaside::report::render_table;

fn main() {
    let config = ChaosConfig::quick(40);
    println!(
        "sweeping {} outage levels x {} timer profiles, {} fresh client queries each ...\n",
        config.outages.len(),
        config.profiles.len(),
        config.queries
    );
    let points = chaos_outage(&Executor::default(), &config);

    for profile in TimerProfile::ALL {
        println!("-- profile: {} --", profile.label());
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.profile == profile)
            .map(|p| {
                vec![
                    p.outage.label(),
                    format!("{:.2}", p.dlv_per_query),
                    format!("{:.0}%", p.success_rate * 100.0),
                    format!("{:.1}", p.p50_ms),
                    format!("{:.1}", p.p95_ms),
                    p.retransmissions.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["outage", "DLV pkts/query", "answered", "p50 ms", "p95 ms", "rexmit"],
                &rows
            )
        );
        println!();
    }

    println!(
        "the middle table is the paper's point: a degrading registry makes a\n\
         retrying resolver put *more* look-aside queries on the wire per client\n\
         query, not fewer — the outage amplifies the leak. the last table shows\n\
         the RFC 2308 SERVFAIL cache breaking the loop: once every registry\n\
         server has timed out, the zone is held dead and the walk stops\n\
         reaching the wire, so exposure and latency both recover."
    );
}
