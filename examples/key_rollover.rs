//! The 2018 root-KSK rollover, replayed against the look-aside registry.
//!
//! ICANN's KSK-2010 → KSK-2017 rollover was delayed a year because
//! telemetry showed resolvers that would *not* follow the roll: RFC 5011
//! tracking that never matured, stale baked-in anchors, images frozen
//! mid-hold-down. This example compresses that story into simulated time:
//! the same scripted double-signature rollover is replayed against a
//! resolver whose hold-down timer works, and against one whose hold-down
//! never elapses — the latter being the population that went dark on
//! 2018-10-11, except that *these* resolvers also carry
//! `dnssec-lookaside auto;`, so "dark" means "leaking every query to the
//! DLV registry" instead.
//!
//! ```text
//! cargo run --release -p lookaside --example key_rollover
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside::engine::Executor;
use lookaside::lifecycle::{lifecycle_sweep, LifecycleConfig, LifecycleScenario};
use lookaside::report::render_table;

fn main() {
    let config = LifecycleConfig {
        scenarios: vec![LifecycleScenario::KskRollTracked, LifecycleScenario::KskRollMissed],
        ..LifecycleConfig::quick(8)
    };
    println!(
        "replaying a double-signature root KSK rollover (activation t=7200 s, \
         old key revoked,\npre-publish lead 3600 s) against {} fresh anchored \
         names per event ...\n",
        config.queries_per_event
    );
    let points = lifecycle_sweep(&Executor::default(), &config);

    for point in &points {
        let note = match point.scenario {
            LifecycleScenario::KskRollTracked => "RFC 5011 hold-down elapses in time",
            LifecycleScenario::KskRollMissed => {
                "hold-down never elapses; manual install at t=13000"
            }
            _ => "",
        };
        println!("-- {} ({note}) --", point.scenario.label());
        let rows: Vec<Vec<String>> = point
            .events
            .iter()
            .map(|e| {
                vec![
                    e.at_secs.to_string(),
                    e.secure.to_string(),
                    e.insecure.to_string(),
                    e.bogus.to_string(),
                    e.missing_anchor.to_string(),
                    e.case2_leaks.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["t (s)", "secure", "insec", "bogus", "no-anchor", "case-2 leaks"],
                &rows
            )
        );
        println!();
    }

    println!(
        "the tracked resolver never notices the roll: the successor matures\n\
         during the pre-publish window and validation stays Secure through\n\
         activation, revocation, and cleanup. the resolver that misses the\n\
         window fails Bogus while the revoked key is still published (the\n\
         chain *ought* to verify and does not), then goes anchorless once the\n\
         old key is pulled — and that is the privacy failure: with no usable\n\
         anchor the validator turns to look-aside, and every fresh name it\n\
         resolves is shipped to dlv.isc.org until an operator re-installs an\n\
         anchor out of band."
    );
}
