//! The §7.3.2 chaos harness: DLV-registry loss and outage sweeps.
//!
//! The paper argues that DLV's centralization turns the privacy leak into
//! a *reliability* story: when `dlv.isc.org` degrades, resolvers retry and
//! re-leak, multiplying the queries an observer sees. This module drives
//! that mechanism end to end — it injects seeded packet loss (or a full
//! blackhole) on the registry link via the netsim
//! [`FaultPlane`](lookaside_netsim::FaultPlane), runs the real resolver
//! under different timer profiles, and reports *leakage amplification*
//! (leaked DLV query packets per client query) together with degradation
//! curves (success rate, p50/p95 resolution latency in simulated time).
//!
//! Three timer profiles bracket the mechanism:
//!
//! * **no-retry** — one transmission per server; loss silently *reduces*
//!   what the registry link carries,
//! * **retry** — the default retransmit/backoff policy; every lost leg is
//!   re-sent, so the same client workload puts strictly more DLV queries
//!   on the wire as loss grows,
//! * **retry + SERVFAIL cache** — RFC 2308 §7 caching: once a lookup
//!   times out on every registry server the zone is held dead for the
//!   cache TTL, so subsequent look-aside walks never reach the wire and
//!   the amplification collapses.
//!
//! Everything is a pure function of the configured seed: the fault
//! schedule, the latency draws, and the workload are all deterministic, so
//! two runs with the same [`ChaosConfig`] produce identical reports.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside_netsim::{CaptureFilter, DlvQueryCounter, LinkFaults};
use lookaside_resolver::{BindConfig, FeatureModel, ResolverConfig, RetryPolicy};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::RrType;
use lookaside_workload::PopulationParams;
use serde::Serialize;

use crate::internet::{Internet, InternetParams, DLV_ADDR};

/// One fault level applied to the resolver ↔ DLV-registry link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Outage {
    /// Per-leg packet loss, in thousandths (both legs drawn independently).
    Loss(u16),
    /// The registry is unreachable: every query leg is dropped.
    Blackhole,
}

impl Outage {
    /// Severity key for monotonicity checks: loss per-mille, with a
    /// blackhole ordered above every finite loss rate.
    pub fn severity(self) -> u16 {
        match self {
            Outage::Loss(milli) => milli.min(1000),
            Outage::Blackhole => 1001,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            Outage::Loss(milli) => format!("loss {:.0}%", f64::from(milli) / 10.0),
            Outage::Blackhole => "blackhole".to_string(),
        }
    }

    fn faults(self) -> LinkFaults {
        match self {
            Outage::Loss(milli) => LinkFaults::quiet().with_loss_milli(milli),
            Outage::Blackhole => LinkFaults::quiet().with_blackhole(),
        }
    }
}

/// Resolver timer configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TimerProfile {
    /// One transmission per server, no retransmission.
    NoRetry,
    /// Default retransmission and exponential backoff.
    Retry,
    /// Retransmission plus the RFC 2308 §7 SERVFAIL cache.
    RetryServfailCache,
}

impl TimerProfile {
    /// All three profiles, in increasing robustness order.
    pub const ALL: [TimerProfile; 3] =
        [TimerProfile::NoRetry, TimerProfile::Retry, TimerProfile::RetryServfailCache];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TimerProfile::NoRetry => "no-retry",
            TimerProfile::Retry => "retry",
            TimerProfile::RetryServfailCache => "retry+sfcache",
        }
    }

    /// The retry policy this profile selects.
    pub fn policy(self) -> RetryPolicy {
        match self {
            TimerProfile::NoRetry => RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            TimerProfile::Retry => RetryPolicy::default(),
            TimerProfile::RetryServfailCache => RetryPolicy::default().with_servfail_cache(900),
        }
    }
}

/// Configuration of one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Client queries measured per cell (fresh, previously-unseen names).
    pub queries: usize,
    /// Warm-up queries resolved against the healthy registry first, so the
    /// DLV zone keys and delegation infrastructure are cached and the
    /// faults hit only the look-aside lookups themselves.
    pub warmup: usize,
    /// Master seed: faults, latency, and workload all derive from it.
    pub seed: u64,
    /// Fault levels to sweep, typically in increasing severity.
    pub outages: Vec<Outage>,
    /// Timer profiles to cross with each fault level.
    pub profiles: Vec<TimerProfile>,
}

impl ChaosConfig {
    /// A small sweep over the canonical loss ladder and all three
    /// profiles.
    pub fn quick(queries: usize) -> Self {
        ChaosConfig {
            queries,
            warmup: 8,
            seed: 0xc4a05,
            outages: vec![
                Outage::Loss(0),
                Outage::Loss(100),
                Outage::Loss(250),
                Outage::Loss(500),
                Outage::Blackhole,
            ],
            profiles: TimerProfile::ALL.to_vec(),
        }
    }
}

/// One cell of the chaos sweep: a fault level crossed with a timer
/// profile.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosPoint {
    /// Fault level applied to the registry link.
    pub outage: Outage,
    /// Timer profile in force.
    pub profile: TimerProfile,
    /// Client queries measured.
    pub client_queries: usize,
    /// DLV query packets put on the wire (retransmissions included — each
    /// transmission exposes the name again).
    pub dlv_packets: usize,
    /// The headline amplification metric: leaked DLV query packets per
    /// client query.
    pub dlv_per_query: f64,
    /// Client queries that resolved to an answer.
    pub answered: usize,
    /// `answered / client_queries`.
    pub success_rate: f64,
    /// Median resolution latency, simulated milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile resolution latency, simulated milliseconds.
    pub p95_ms: f64,
    /// Retransmitted queries (from [`lookaside_netsim::TrafficStats`]).
    pub retransmissions: u64,
    /// Exchanges that timed out.
    pub timeouts: u64,
    /// SERVFAIL-cache occupancy after the run: `(tuples, dead zones)`.
    pub servfail_entries: (usize, usize),
}

/// Runs the full sweep on `exec`: every fault level crossed with every
/// timer profile, in profile-major order. Every grid cell already builds
/// a fresh Internet replica, so cells are natural shards: the point list
/// comes back in the same profile-major order the serial loop produced,
/// identical for every worker count.
///
/// A cell whose run panics aborts the sweep, named in the coverage table
/// on stderr.
pub fn chaos_outage(exec: &lookaside_engine::Executor, config: &ChaosConfig) -> Vec<ChaosPoint> {
    let mut cells = Vec::with_capacity(config.outages.len() * config.profiles.len());
    for &profile in &config.profiles {
        for &outage in &config.outages {
            cells.push((outage, profile));
        }
    }
    let shards = lookaside_engine::ShardPlan::new(config.seed).over(cells);
    crate::parallel::collect(exec, &shards, |shard| run_cell(config, shard.input.0, shard.input.1))
}

fn run_cell(config: &ChaosConfig, outage: Outage, profile: TimerProfile) -> ChaosPoint {
    let limit = config.warmup + config.queries;
    let population = PopulationParams { size: limit.max(1000), ..PopulationParams::default() };
    let mut params = InternetParams::for_top(limit, population, RemedyMode::None);
    params.seed = config.seed;
    params.capture = CaptureFilter::None;
    let mut internet = Internet::build(params);
    // Count DLV query packets as they happen instead of retaining them.
    // `reset_measurement` resets the sink along with the clock and
    // statistics, so the warm-up epoch is discarded.
    let counter = Rc::new(RefCell::new(DlvQueryCounter::new()));
    internet.net.set_observer(Box::new(Rc::clone(&counter)));

    // Aggressive NSEC caching would suppress most look-aside lookups for
    // fresh names; §7.3's point is precisely that without it "every query
    // to the resolver would trigger a query to the DLV server", which is
    // the regime where outages amplify. Turn it off so each measured name
    // exercises the registry link.
    let features = FeatureModel { aggressive_nsec: false, ..FeatureModel::default() };
    let mut resolver = internet.resolver_with_features(
        ResolverConfig::Bind(BindConfig::correct()),
        features,
        config.seed ^ 0x5eed,
    );
    resolver.set_retry_policy(profile.policy());

    // Warm-up against the healthy registry: caches the root/TLD
    // delegations, the registry's zone cut, and the validated DLV zone
    // keys, so the fault plane below degrades only the look-aside lookups.
    for rank in 1..=config.warmup {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
    }

    // Measurement epoch: clean counters, then break the link.
    internet.net.reset_measurement();
    internet.net.fault_plane_mut().set_link(DLV_ADDR, outage.faults());

    let mut latencies_ns = Vec::with_capacity(config.queries);
    let mut answered = 0usize;
    for rank in config.warmup + 1..=limit {
        let qname = internet.population.domain(rank);
        let before = internet.net.now_ns();
        if resolver.resolve(&mut internet.net, &qname, RrType::A).is_ok() {
            answered += 1;
        }
        latencies_ns.push(internet.net.now_ns() - before);
    }

    let dlv_packets = counter.borrow().queries as usize;
    let stats = internet.net.stats();
    latencies_ns.sort_unstable();
    ChaosPoint {
        outage,
        profile,
        client_queries: config.queries,
        dlv_packets,
        dlv_per_query: dlv_packets as f64 / config.queries.max(1) as f64,
        answered,
        success_rate: answered as f64 / config.queries.max(1) as f64,
        p50_ms: percentile_ms(&latencies_ns, 50),
        p95_ms: percentile_ms(&latencies_ns, 95),
        retransmissions: stats.retransmissions,
        timeouts: stats.timeouts,
        servfail_entries: resolver.servfail_cache().len(),
    }
}

fn percentile_ms(sorted_ns: &[u64], pct: usize) -> f64 {
    let rank = (sorted_ns.len() * pct).div_ceil(100).max(1);
    sorted_ns.get(rank - 1).or(sorted_ns.last()).map_or(0.0, |&ns| ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_engine::Executor;

    fn by(points: &[ChaosPoint], profile: TimerProfile) -> Vec<&ChaosPoint> {
        points.iter().filter(|p| p.profile == profile).collect()
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = ChaosConfig {
            outages: vec![Outage::Loss(0), Outage::Loss(250)],
            profiles: vec![TimerProfile::Retry],
            ..ChaosConfig::quick(12)
        };
        let a = chaos_outage(&Executor::default(), &config);
        let b = chaos_outage(&Executor::default(), &config);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dlv_packets, y.dlv_packets);
            assert_eq!(x.retransmissions, y.retransmissions);
            assert_eq!(x.p95_ms, y.p95_ms);
        }
    }

    #[test]
    fn retries_amplify_leakage_monotonically() {
        let points = chaos_outage(&Executor::default(), &ChaosConfig::quick(25));
        let retry = by(&points, TimerProfile::Retry);
        let baseline = retry[0].dlv_per_query;
        assert!(baseline > 0.0, "healthy run must still leak look-aside queries");
        // Monotone in outage severity…
        for pair in retry.windows(2) {
            assert!(
                pair[1].dlv_per_query >= pair[0].dlv_per_query,
                "amplification must not decrease with severity: {:?} -> {:?}",
                pair[0].outage,
                pair[1].outage
            );
        }
        // …and strictly above baseline from 10% loss on.
        for point in retry.iter().filter(|p| p.outage.severity() >= 100) {
            assert!(
                point.dlv_per_query > baseline,
                "{:?} must amplify beyond the zero-loss baseline",
                point.outage
            );
        }
        // Retransmission is the multiplier: at every degraded severity the
        // retry profile puts strictly more DLV packets on the wire than the
        // single-shot profile does for the same client workload. (The
        // no-retry profile still drifts above its own baseline — failed
        // lookups of shared walk targets are never negatively cached, so
        // later names re-send them — but retries amplify on top of that.)
        let noretry = by(&points, TimerProfile::NoRetry);
        for (r, n) in retry.iter().zip(&noretry).filter(|(r, _)| r.outage.severity() >= 100) {
            assert_eq!(r.outage, n.outage);
            assert!(
                r.dlv_per_query > n.dlv_per_query,
                "retries must out-leak single-shot at {:?}: {} vs {}",
                r.outage,
                r.dlv_per_query,
                n.dlv_per_query
            );
        }
    }

    #[test]
    fn servfail_cache_collapses_amplification() {
        let points = chaos_outage(&Executor::default(), &ChaosConfig::quick(25));
        let retry = by(&points, TimerProfile::Retry);
        let cached = by(&points, TimerProfile::RetryServfailCache);
        let baseline = retry[0].dlv_per_query;
        for point in cached.iter().filter(|p| p.outage.severity() >= 500) {
            assert!(
                point.dlv_per_query <= baseline,
                "SERVFAIL cache must collapse {:?} amplification to at most the \
                 healthy baseline, got {} vs {}",
                point.outage,
                point.dlv_per_query,
                baseline
            );
            let (_, dead) = point.servfail_entries;
            assert!(dead > 0, "the registry zone must be held dead under {:?}", point.outage);
        }
    }

    #[test]
    fn latency_degrades_under_outage() {
        let points = chaos_outage(
            &Executor::default(),
            &ChaosConfig {
                outages: vec![Outage::Loss(0), Outage::Blackhole],
                profiles: vec![TimerProfile::Retry],
                ..ChaosConfig::quick(15)
            },
        );
        assert!(points[1].p95_ms > points[0].p95_ms * 5.0, "{points:?}");
        assert!(points[1].timeouts > 0);
        // Registry outages must not take resolution down with them (§7.3.2):
        // look-aside failure degrades the status, not the answer.
        assert!(points[1].success_rate >= points[0].success_rate - 1e-9);
    }
}
