//! Integration tests for the §7.3.2 chaos harness: the acceptance
//! properties of the loss-and-timeout fault plane, end to end through the
//! full simulated Internet and the real resolver.

use lookaside::chaos::{chaos_outage, ChaosConfig, Outage, TimerProfile};
use lookaside::engine::Executor;
use lookaside::internet::{Internet, InternetParams, DLV_ADDR};
use lookaside_netsim::{FaultPlane, LinkFaults};
use lookaside_resolver::{BindConfig, FeatureModel, ResolverConfig, RetryPolicy};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::RrType;
use lookaside_workload::PopulationParams;

fn sweep_config(queries: usize) -> ChaosConfig {
    ChaosConfig {
        queries,
        warmup: 8,
        seed: 0x0dd5,
        outages: vec![
            Outage::Loss(0),
            Outage::Loss(100),
            Outage::Loss(250),
            Outage::Loss(500),
            Outage::Blackhole,
        ],
        profiles: vec![TimerProfile::Retry, TimerProfile::RetryServfailCache],
    }
}

/// The headline acceptance property: with retries enabled, degrading the
/// registry link *increases* the leaked DLV queries per client query —
/// monotonically, and strictly beyond the zero-loss baseline from 10 %
/// loss on — and enabling the RFC 2308 SERVFAIL cache makes the
/// amplification disappear.
#[test]
fn retries_amplify_leakage_and_the_servfail_cache_collapses_it() {
    let points = chaos_outage(&Executor::default(), &sweep_config(30));
    let retry: Vec<_> = points.iter().filter(|p| p.profile == TimerProfile::Retry).collect();
    let cached: Vec<_> =
        points.iter().filter(|p| p.profile == TimerProfile::RetryServfailCache).collect();

    let baseline = retry[0].dlv_per_query;
    assert!(baseline > 0.0, "the healthy registry still sees look-aside queries");
    for pair in retry.windows(2) {
        assert!(
            pair[1].dlv_per_query >= pair[0].dlv_per_query,
            "amplification must be monotone in severity: {:?} {} -> {:?} {}",
            pair[0].outage,
            pair[0].dlv_per_query,
            pair[1].outage,
            pair[1].dlv_per_query
        );
    }
    for point in retry.iter().filter(|p| p.outage.severity() >= 100) {
        assert!(
            point.dlv_per_query > baseline,
            "{:?} with retries must strictly exceed the zero-loss baseline ({} vs {})",
            point.outage,
            point.dlv_per_query,
            baseline
        );
        assert!(point.retransmissions > 0, "the amplification comes from retransmission");
    }
    // With the SERVFAIL cache, a hard outage marks the registry zone dead
    // and the look-aside walk stops reaching the wire: per-query exposure
    // drops back to (below) the healthy baseline.
    for point in cached.iter().filter(|p| p.outage.severity() >= 500) {
        assert!(
            point.dlv_per_query <= baseline,
            "SERVFAIL cache must collapse {:?} amplification ({} vs baseline {})",
            point.outage,
            point.dlv_per_query,
            baseline
        );
        let (_, dead_zones) = point.servfail_entries;
        assert!(dead_zones > 0, "the registry zone must be held dead under {:?}", point.outage);
    }
}

/// Same seed ⇒ identical chaos report, cell for cell.
#[test]
fn chaos_reports_replay_identically() {
    let config = ChaosConfig {
        queries: 10,
        outages: vec![Outage::Loss(250), Outage::Blackhole],
        profiles: vec![TimerProfile::Retry],
        ..sweep_config(10)
    };
    let a = chaos_outage(&Executor::default(), &config);
    let b = chaos_outage(&Executor::default(), &config);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.outage, y.outage);
        assert_eq!(x.dlv_packets, y.dlv_packets);
        assert_eq!(x.answered, y.answered);
        assert_eq!(x.retransmissions, y.retransmissions);
        assert_eq!(x.timeouts, y.timeouts);
        assert_eq!(x.p50_ms, y.p50_ms);
        assert_eq!(x.p95_ms, y.p95_ms);
        assert_eq!(x.servfail_entries, y.servfail_entries);
    }
}

fn drive(internet: &mut Internet, queries: usize) -> String {
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 0x77);
    for rank in 1..=queries {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
    }
    internet.net.capture_text()
}

fn small_params(seed: u64) -> InternetParams {
    let population = PopulationParams { size: 1000, ..PopulationParams::default() };
    let mut params = InternetParams::for_top(30, population, RemedyMode::None);
    params.seed = seed;
    params
}

/// A fault plane with only quiet links is strictly additive: the capture
/// (packets *and* loss/retry counters) is byte-identical to a network that
/// was never given a fault plane at all.
#[test]
fn quiet_fault_plane_is_byte_identical_to_no_fault_plane() {
    let mut untouched = Internet::build(small_params(3));
    let baseline = drive(&mut untouched, 30);

    let mut explicit = Internet::build(small_params(3));
    let mut plane = FaultPlane::new(0xfau64);
    plane.set_link(DLV_ADDR, LinkFaults::quiet());
    explicit.net.set_fault_plane(plane);
    let quiet = drive(&mut explicit, 30);

    assert_eq!(baseline, quiet, "a quiet plane must not perturb a single byte");
}

/// The full stack — faulted registry link, retransmitting resolver —
/// replays byte-identically for the same seed.
#[test]
fn faulted_full_stack_replays_byte_identically() {
    let run = || {
        let mut internet = Internet::build(small_params(9));
        internet
            .net
            .fault_plane_mut()
            .set_link(DLV_ADDR, LinkFaults::quiet().with_loss_milli(300).with_jitter_ms(4));
        let features = FeatureModel { aggressive_nsec: false, ..FeatureModel::default() };
        let mut resolver = internet.resolver_with_features(
            ResolverConfig::Bind(BindConfig::correct()),
            features,
            0x99,
        );
        resolver.set_retry_policy(RetryPolicy::default());
        for rank in 1..=25usize {
            let qname = internet.population.domain(rank);
            let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
        }
        (internet.net.capture_text(), internet.net.stats().clone())
    };
    let (text_a, stats_a) = run();
    let (text_b, stats_b) = run();
    assert_eq!(text_a, text_b);
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.retransmissions > 0, "the faulted run must actually retransmit");
}
