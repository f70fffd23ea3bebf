//! Replay of the real-world DLV sunset against resolvers that still have
//! `dnssec-lookaside auto;` configured.
//!
//! ISC announced the end of DLV in 2015, emptied the `dlv.isc.org` zone on
//! 2017-03-30 (a signed zone with no deposits, so every lookup gets a
//! provable NXDOMAIN), and eventually turned the registry servers off
//! altogether. This example walks the full degradation ladder — including
//! the uglier endings ISC wisely avoided (blunt unsigned NXDOMAINs, blanket
//! SERVFAIL, a key compromise serving bogus signatures) — and shows what
//! each stage does to the two quantities this study cares about: how many
//! look-aside packets still leak per client query, and whether clients
//! still get answers.
//!
//! ```text
//! cargo run --release -p lookaside --example dlv_decommission
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside::byzantine::{byzantine_sweep, Adversary, ByzantineConfig, HardeningProfile};
use lookaside::engine::Executor;
use lookaside::report::render_table;
use lookaside::server::DecommissionStage;

fn main() {
    let stages = [
        (Adversary::Baseline, "2012-2016: registry populated"),
        (
            Adversary::Decommission(DecommissionStage::Emptied),
            "2017-03-30: zone emptied, signed NXDOMAINs",
        ),
        (
            Adversary::Decommission(DecommissionStage::NxDomainAll),
            "hypothetical: blunt unsigned NXDOMAIN",
        ),
        (Adversary::Decommission(DecommissionStage::ServFailAll), "hypothetical: blanket SERVFAIL"),
        (
            Adversary::Decommission(DecommissionStage::BogusSignatures),
            "hypothetical: compromised, bogus RRSIGs",
        ),
        (Adversary::Decommission(DecommissionStage::Offline), "endgame: servers unplugged"),
    ];

    let config = ByzantineConfig {
        adversaries: stages.iter().map(|(a, _)| *a).collect(),
        ..ByzantineConfig::quick(40)
    };
    println!(
        "replaying {} decommission stages x {} hardening profiles, {} fresh client queries each ...\n",
        stages.len(),
        config.profiles.len(),
        config.queries
    );
    let points = byzantine_sweep(&Executor::default(), &config);

    for profile in HardeningProfile::ALL {
        println!("-- resolver hardening: {} --", profile.label());
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.profile == profile)
            .map(|p| {
                let note = stages
                    .iter()
                    .find(|(a, _)| *a == p.adversary)
                    .map(|(_, n)| *n)
                    .unwrap_or_default();
                vec![
                    note.to_string(),
                    format!("{:.2}", p.dlv_per_query),
                    format!("{:.0}%", p.availability * 100.0),
                    p.dlv_secure.to_string(),
                    p.timeouts.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(&["stage", "DLV pkts/query", "answered", "DLV-secure", "timeouts"], &rows)
        );
        println!();
    }

    println!(
        "the emptied zone is the graceful exit: the look-aside walk still\n\
         reaches the wire (the privacy leak survives the sunset!) but every\n\
         probe gets a signed, cacheable NXDOMAIN, so validation quietly falls\n\
         back to the regular chain and availability never moves. the blunter\n\
         endings also keep clients answered — BIND's validator treats a dead\n\
         or lying registry as 'no covering DLV' rather than a hard failure —\n\
         but bogus signatures cost CPU round-trips and an offline registry\n\
         costs timeout-bounded latency until the SERVFAIL cache kicks in.\n\
         nothing a decommissioned registry serves is ever validated Secure."
    );
}
