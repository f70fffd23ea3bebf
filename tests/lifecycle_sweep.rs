//! Integration suite for the key-lifecycle sweep.
//!
//! The sweep shards scenario-by-scenario across the engine executor, so
//! its determinism contract is the same one the `repro lifecycle --jobs N`
//! byte-diff gate in CI enforces: every worker count reduces to the same
//! point list, in the configured scenario order.

use lookaside::engine::Executor;
use lookaside::lifecycle::{lifecycle_sweep, LifecycleConfig, LifecycleScenario, EVENT_TIMES};

/// Every worker count yields the identical point list — this backs the
/// `repro lifecycle --jobs 1` vs `--jobs 4` byte-diff gate in CI.
#[test]
fn lifecycle_sweep_is_worker_count_invariant() {
    let config = LifecycleConfig::quick(3);
    let reference = format!("{:?}", lifecycle_sweep(&Executor::serial(), &config));
    for jobs in [2, 4] {
        let parallel = format!("{:?}", lifecycle_sweep(&Executor::new(jobs), &config));
        assert_eq!(parallel, reference, "jobs={jobs}");
    }
}

/// Points come back in configured scenario order with the full event
/// schedule, regardless of which worker finished first.
#[test]
fn points_follow_the_configured_scenario_order() {
    let scenarios = vec![
        LifecycleScenario::KskRollMissed,
        LifecycleScenario::Steady,
        LifecycleScenario::ExpiryStorm,
    ];
    let config = LifecycleConfig { scenarios: scenarios.clone(), ..LifecycleConfig::quick(2) };
    let points = lifecycle_sweep(&Executor::new(3), &config);
    let got: Vec<LifecycleScenario> = points.iter().map(|p| p.scenario).collect();
    assert_eq!(got, scenarios);
    for point in &points {
        let times: Vec<u64> = point.events.iter().map(|e| e.at_secs).collect();
        assert_eq!(times, EVENT_TIMES.to_vec(), "{:?}", point.scenario);
        for event in &point.events {
            let outcomes = event.secure + event.insecure + event.bogus + event.indeterminate;
            assert_eq!(
                outcomes + event.errors,
                event.client_queries,
                "every query accounted for: {event:?}"
            );
        }
    }
}

/// The timelines the scenarios replay share generation 0 with the static
/// root, so the t=0 warm-up (and any experiment that never advances the
/// clock) is byte-identical to the frozen-root world.
#[test]
fn scenario_timelines_share_the_static_root_generation() {
    for scenario in LifecycleScenario::ALL {
        let timeline = scenario.timeline();
        let keys = timeline.initial_keys();
        let static_keys =
            lookaside::zone::SigningKeys::from_seed(lookaside::internet::ROOT_KEY_SEED);
        assert_eq!(keys.ksk.public(), static_keys.ksk.public(), "{scenario:?}");
        assert_eq!(keys.zsk.public(), static_keys.zsk.public(), "{scenario:?}");
    }
}
