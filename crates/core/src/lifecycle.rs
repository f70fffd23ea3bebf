//! The simulated-time key-lifecycle sweep: rollovers, RRSIG-expiry
//! storms, and RFC 5011 trust-anchor survival.
//!
//! Every other sweep in this crate runs against a root frozen at one
//! signing epoch. This module replays the ranked population across a
//! scripted *timeline* instead: the root is served by an
//! [`lookaside_server::EpochAuthority`] replaying a
//! [`lookaside_zone::KeyTimeline`], and the resolver walks a fixed event
//! schedule, re-validating as RRSIG windows lapse, ZSKs and KSKs roll, and
//! trust anchors are (or are not) tracked via RFC 5011.
//!
//! The privacy angle is the paper's §5.2 misconfiguration arrived at
//! *dynamically*: a resolver that misses a root KSK rollover ends up with
//! no usable trust anchor, every validation goes Indeterminate, and a
//! DLV-configured resolver starts leaking *every* name it resolves to the
//! look-aside registry — the case-2 spike the sweep reports per event.
//!
//! Scenarios:
//!
//! * **steady** — correct periodic re-signing; the all-Secure control,
//! * **expiry-storm** — one re-sign arrives a full interval late; every
//!   cached RRSIG lapses and validation fails closed until the fresh
//!   window lands,
//! * **storm-corrupt-registry** — the same late re-sign, but the DLV
//!   registry itself serves corrupted signatures
//!   ([`DecommissionStage::BogusSignatures`]) through the storm window:
//!   the two fault planes cross. Corruption severs the registry's own
//!   chain of trust, so look-aside walks abort before a single DLV-type
//!   query leaves the resolver — privacy-wise a corrupt registry is an
//!   unplugged one, the leak channel goes dark until the registry heals
//!   and the resolver's bad-key judgement ages out,
//! * **zsk-abrupt** — a rushed ZSK rollover (pre-publish lead shorter
//!   than the DNSKEY TTL, predecessor deleted at activation): resolvers
//!   holding cached parent-side records signed by the vanished key go
//!   Bogus until those caches drain,
//! * **ksk-roll-tracked** — a 2018-style root KSK rollover followed by a
//!   resolver with a working RFC 5011 hold-down timer: Secure throughout,
//! * **ksk-roll-missed** — the same rollover against a resolver whose
//!   hold-down never elapses: Bogus through the revocation window,
//!   Indeterminate (and leaking to DLV) once the old key is pulled,
//!   recovering only by an out-of-band anchor install.
//!
//! Everything is a pure function of the configured seed; scenarios shard
//! across the engine executor and the report is byte-identical for every
//! `--jobs` value.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside_netsim::{CaptureFilter, PacketSink};
use lookaside_resolver::{BindConfig, FeatureModel, ResolverConfig, RetryPolicy, SecurityStatus};
use lookaside_server::DecommissionStage;
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::RrType;
use lookaside_workload::PopulationParams;
use lookaside_zone::{KeyTimeline, LifecycleFault, LifecycleTarget, RolloverPolicy};
use serde::Serialize;

use crate::internet::{Internet, InternetParams, ROOT_KEY_SEED};
use crate::leakage::LeakSink;

const NS_PER_SEC: u64 = 1_000_000_000;

/// The fixed measurement schedule (seconds of simulated time). Spacing is
/// deliberately *incommensurate* with the 3600 s DNSKEY/DS TTL and offset
/// from the re-sign grid, so cache expiries interleave with key events the
/// way unsynchronised real-world caches do, and no lookup races a TTL
/// boundary exactly.
pub const EVENT_TIMES: [u64; 8] = [123, 2_123, 4_123, 6_123, 8_123, 10_123, 12_123, 14_123];

/// Epoch horizon the root timelines are published out to.
pub const HORIZON_SECS: u32 = 16_000;

/// One scripted key-lifecycle scenario applied to the root zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LifecycleScenario {
    /// Correct periodic re-signing, no rollover — the control.
    Steady,
    /// Re-sign #1 lands a full interval late: the RRSIG-expiry storm.
    ExpiryStorm,
    /// The expiry storm with the registry *also* failing: the DLV zone
    /// serves corrupted signatures through the storm window and heals
    /// after the late re-sign lands.
    StormCorruptRegistry,
    /// Rushed ZSK rollover: 900 s pre-publish lead against a 3600 s TTL,
    /// predecessor removed at activation.
    ZskAbrupt,
    /// KSK double-signature rollover, resolver tracks it via RFC 5011.
    KskRollTracked,
    /// The same rollover, but the resolver's hold-down never elapses —
    /// the missed-window failure mode, healed by a manual anchor install.
    KskRollMissed,
}

impl LifecycleScenario {
    /// Every scenario, control first.
    pub const ALL: [LifecycleScenario; 6] = [
        LifecycleScenario::Steady,
        LifecycleScenario::ExpiryStorm,
        LifecycleScenario::StormCorruptRegistry,
        LifecycleScenario::ZskAbrupt,
        LifecycleScenario::KskRollTracked,
        LifecycleScenario::KskRollMissed,
    ];

    /// Human-readable label (stable: the `--jobs` diff gate compares it).
    pub fn label(self) -> &'static str {
        match self {
            LifecycleScenario::Steady => "steady",
            LifecycleScenario::ExpiryStorm => "expiry-storm",
            LifecycleScenario::StormCorruptRegistry => "storm-corrupt-registry",
            LifecycleScenario::ZskAbrupt => "zsk-abrupt",
            LifecycleScenario::KskRollTracked => "ksk-roll-tracked",
            LifecycleScenario::KskRollMissed => "ksk-roll-missed",
        }
    }

    /// The root-zone timeline this scenario replays.
    pub fn timeline(self) -> KeyTimeline {
        match self {
            LifecycleScenario::Steady => {
                KeyTimeline::correct(ROOT_KEY_SEED, RolloverPolicy::steady(3_600, 5_000))
            }
            LifecycleScenario::ExpiryStorm | LifecycleScenario::StormCorruptRegistry => {
                KeyTimeline {
                    base_seed: ROOT_KEY_SEED,
                    policy: RolloverPolicy::steady(3_600, 5_000),
                    fault: LifecycleFault::LateResign { resign_index: 1, delay_secs: 3_600 },
                }
            }
            LifecycleScenario::ZskAbrupt => KeyTimeline {
                base_seed: ROOT_KEY_SEED,
                policy: RolloverPolicy {
                    resign_every_secs: 1_800,
                    validity_secs: 7_200,
                    zsk_rollover_at: Some(7_200),
                    ksk_rollover_at: None,
                    rollover_lead_secs: 900,
                    revoke_old_ksk: false,
                },
                fault: LifecycleFault::PrematureZskRemoval,
            },
            LifecycleScenario::KskRollTracked | LifecycleScenario::KskRollMissed => {
                KeyTimeline::correct(
                    ROOT_KEY_SEED,
                    RolloverPolicy {
                        resign_every_secs: 1_800,
                        validity_secs: 7_200,
                        zsk_rollover_at: None,
                        ksk_rollover_at: Some(7_200),
                        rollover_lead_secs: 3_600,
                        revoke_old_ksk: true,
                    },
                )
            }
        }
    }

    /// RFC 5011 hold-down for this scenario's resolver, if the scenario
    /// manages anchors at all (`None` keeps the static configured anchor).
    fn hold_down_secs(self) -> Option<u64> {
        match self {
            LifecycleScenario::KskRollTracked => Some(1_800),
            // Longer than the whole horizon: the successor never graduates.
            LifecycleScenario::KskRollMissed => Some(1_000_000),
            _ => None,
        }
    }

    /// Simulated time at which the operator installs the successor anchor
    /// out of band (the RFC 5011 §5 last resort), if scripted.
    fn anchor_install_at_secs(self) -> Option<u64> {
        match self {
            LifecycleScenario::KskRollMissed => Some(13_000),
            _ => None,
        }
    }

    /// Scheduled DLV-registry stage transitions for this scenario, in
    /// simulated nanoseconds. The storm-crossing scenario corrupts the
    /// registry over the stale-RRSIG gap (cached signatures lapse at
    /// t=5000; the late re-sign lands at t=7200) and heals it at t=9000,
    /// after the root has recovered — so the t=8123 event sees a healthy
    /// root against a still-corrupt registry, and the resolver's cached
    /// bad-key judgement keeps the walk dark past the heal itself.
    fn registry_schedule(self) -> Vec<(u64, DecommissionStage)> {
        match self {
            LifecycleScenario::StormCorruptRegistry => vec![
                (5_000 * NS_PER_SEC, DecommissionStage::BogusSignatures),
                (9_000 * NS_PER_SEC, DecommissionStage::Populated),
            ],
            _ => Vec::new(),
        }
    }
}

/// Configuration of one lifecycle sweep.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Fresh (previously-unseen) names resolved at each event.
    pub queries_per_event: usize,
    /// Warm-up queries at t=0 so delegations and zone keys are cached
    /// before the timeline starts moving.
    pub warmup: usize,
    /// Master seed: population, latency, and workload all derive from it.
    pub seed: u64,
    /// Scenarios to replay.
    pub scenarios: Vec<LifecycleScenario>,
    /// The zone the timeline takes over. [`LifecycleTarget::Root`] is the
    /// original (PR 6) root-wide sweep; a [`LifecycleTarget::Tld`] scopes
    /// the fault's blast radius to one TLD's children. The KSK scenarios
    /// manage the *root* trust anchor, so they are only meaningful with
    /// the root target (a TLD KSK roll against the static root DS behaves
    /// as parent-DS-never-updated).
    pub target: LifecycleTarget,
}

impl LifecycleConfig {
    /// The canonical five-scenario schedule against the root.
    pub fn quick(queries_per_event: usize) -> Self {
        LifecycleConfig {
            queries_per_event,
            warmup: 6,
            seed: 0x11f_3cc,
            scenarios: LifecycleScenario::ALL.to_vec(),
            target: LifecycleTarget::Root,
        }
    }
}

/// Validation-outcome and leakage deltas for one measurement event.
#[derive(Debug, Clone, Serialize)]
pub struct LifecycleEventPoint {
    /// Simulated time of the event (seconds).
    pub at_secs: u64,
    /// Fresh names resolved at this event.
    pub client_queries: usize,
    /// Resolutions concluding `Secure`.
    pub secure: usize,
    /// Resolutions concluding `Insecure` (includes the DLV-walk fallout
    /// of an anchorless root).
    pub insecure: usize,
    /// Resolutions concluding `Bogus`.
    pub bogus: usize,
    /// Resolutions concluding `Indeterminate`.
    pub indeterminate: usize,
    /// Resolutions that failed outright (no usable answer).
    pub errors: usize,
    /// Validations that failed *specifically* on a lapsed RRSIG window
    /// (delta for this event).
    pub expired_rrsig_bogus: u64,
    /// Root validations that found no usable trust anchor (delta).
    pub missing_anchor: u64,
    /// DLV query packets on the wire during this event (delta).
    pub dlv_queries: usize,
    /// Case-2 look-aside leaks during this event (delta) — the §5.2
    /// privacy cost of the lifecycle failure.
    pub case2_leaks: usize,
}

/// One scenario's full event series.
#[derive(Debug, Clone, Serialize)]
pub struct LifecyclePoint {
    /// Scenario replayed.
    pub scenario: LifecycleScenario,
    /// One point per entry of [`EVENT_TIMES`], in order.
    pub events: Vec<LifecycleEventPoint>,
}

/// Runs the sweep on `exec`. Each scenario builds a fresh Internet
/// replica, so scenarios are natural shards; results come back in serial
/// order, identical for every worker count. A scenario whose run panics
/// aborts the sweep with that panic.
pub fn lifecycle_sweep(
    exec: &lookaside_engine::Executor,
    config: &LifecycleConfig,
) -> Vec<LifecyclePoint> {
    let shards = lookaside_engine::ShardPlan::new(config.seed).over(config.scenarios.clone());
    crate::parallel::collect(exec, &shards, |shard| run_cell(config, shard.input))
}

/// The measured workload: the first `needed` *anchored* ranks — signed
/// SLDs with a DS in a signed TLD, i.e. names that conclude `Secure` under
/// a healthy root. Only those names carry the lifecycle signal: unsigned
/// and island names walk into look-aside no matter what the root's keys
/// are doing, while an anchored name leaks to the registry *only* when a
/// lifecycle failure severs its chain of trust (the §5.2 case-2 spike).
fn anchored_ranks(internet: &Internet, needed: usize) -> Vec<usize> {
    let ranks: Vec<usize> = (1..=internet.params.population.size)
        .filter(|&rank| {
            let attrs = internet.population.attributes(rank);
            attrs.signed && attrs.ds_in_parent
        })
        .take(needed)
        .collect();
    assert_eq!(ranks.len(), needed, "population too small for the anchored workload");
    ranks
}

fn run_cell(config: &LifecycleConfig, scenario: LifecycleScenario) -> LifecyclePoint {
    let needed = config.warmup + EVENT_TIMES.len() * config.queries_per_event;
    // ~1.8 % of ranks are anchored (3 % signed × 60 % with DS), so leave
    // two orders of magnitude of headroom.
    let size = (needed * 100).max(1000);
    let population = PopulationParams { size, ..PopulationParams::default() };
    let mut params = InternetParams::for_top(size, population, RemedyMode::None);
    params.seed = config.seed;
    params.capture = CaptureFilter::None;
    params.dlv_schedule = scenario.registry_schedule();
    let mut internet = Internet::build(params);
    // DLV packets are classified as they are emitted; each event below
    // takes the report its own queries folded.
    let sink =
        Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
    internet.net.set_observer(Box::new(Rc::clone(&sink)));
    // Consumed in order: the warm-up, then each event's slice.
    let mut ranks = anchored_ranks(&internet, needed).into_iter();
    let mut timeline = scenario.timeline();
    timeline.base_seed = Internet::timeline_base_seed(&config.target);
    internet.install_timeline(&config.target, &timeline, HORIZON_SECS);

    // As in the chaos and Byzantine harnesses: aggressive NSEC caching
    // would suppress the look-aside lookups whose volume we measure.
    let features = FeatureModel { aggressive_nsec: false, ..FeatureModel::default() };
    let mut resolver = internet.resolver_with_features(
        ResolverConfig::Bind(BindConfig::correct()),
        features,
        config.seed ^ 0x5eed,
    );
    resolver.set_retry_policy(RetryPolicy::default().with_servfail_cache(900));
    if let Some(hold_down) = scenario.hold_down_secs() {
        resolver.enable_rfc5011(hold_down * NS_PER_SEC);
    }

    // Warm-up at t=0: epoch 0 serves exactly what the static root would.
    for rank in ranks.by_ref().take(config.warmup) {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
    }

    let mut installed = false;
    // The warm-up's DLV traffic belongs to no event.
    sink.borrow_mut().reset();
    let mut events = Vec::with_capacity(EVENT_TIMES.len());
    for at_secs in EVENT_TIMES {
        let target_ns = at_secs * NS_PER_SEC;
        let now_ns = internet.net.now_ns();
        internet.net.advance(target_ns.saturating_sub(now_ns));
        if !installed
            && config.target == LifecycleTarget::Root
            && scenario.anchor_install_at_secs().is_some_and(|t| at_secs >= t)
        {
            resolver.install_root_anchor(timeline.ksk_generation(1).public());
            installed = true;
        }
        // Model DNSKEY-TTL-driven revalidation: cached *records* survive
        // (that staleness is the experiment), cached security *judgements*
        // do not.
        resolver.flush_security_state();

        let counters_before = resolver.counters;
        let mut point = LifecycleEventPoint {
            at_secs,
            client_queries: config.queries_per_event,
            secure: 0,
            insecure: 0,
            bogus: 0,
            indeterminate: 0,
            errors: 0,
            expired_rrsig_bogus: 0,
            missing_anchor: 0,
            dlv_queries: 0,
            case2_leaks: 0,
        };
        for rank in ranks.by_ref().take(config.queries_per_event) {
            let qname = internet.population.domain(rank);
            match resolver.resolve(&mut internet.net, &qname, RrType::A) {
                Ok(res) => match res.status {
                    SecurityStatus::Secure => point.secure += 1,
                    SecurityStatus::Insecure => point.insecure += 1,
                    SecurityStatus::Bogus => point.bogus += 1,
                    SecurityStatus::Indeterminate => point.indeterminate += 1,
                },
                Err(_) => point.errors += 1,
            }
        }

        let c = &resolver.counters;
        point.expired_rrsig_bogus = c.expired_rrsig_bogus - counters_before.expired_rrsig_bogus;
        point.missing_anchor =
            c.missing_anchor_indeterminate - counters_before.missing_anchor_indeterminate;
        let leaks = std::mem::take(&mut sink.borrow_mut().report);
        point.dlv_queries = leaks.dlv_queries;
        point.case2_leaks = leaks.case2;
        events.push(point);
    }
    LifecyclePoint { scenario, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_engine::Executor;

    fn sweep(scenarios: Vec<LifecycleScenario>) -> Vec<LifecyclePoint> {
        lifecycle_sweep(
            &Executor::default(),
            &LifecycleConfig { scenarios, ..LifecycleConfig::quick(4) },
        )
    }

    fn point(points: &[LifecyclePoint], scenario: LifecycleScenario) -> &LifecyclePoint {
        points.iter().find(|p| p.scenario == scenario).expect("scenario present")
    }

    #[test]
    fn steady_control_stays_secure() {
        let points = sweep(vec![LifecycleScenario::Steady]);
        for event in &point(&points, LifecycleScenario::Steady).events {
            assert_eq!(
                event.secure, event.client_queries,
                "correct re-signing must stay Secure: {event:?}"
            );
            assert_eq!(event.expired_rrsig_bogus, 0, "{event:?}");
        }
    }

    #[test]
    fn late_resign_causes_a_bounded_expiry_storm() {
        let points = sweep(vec![LifecycleScenario::ExpiryStorm]);
        let events = &point(&points, LifecycleScenario::ExpiryStorm).events;
        // The stale window: cached RRSIGs from the missed re-sign lapse at
        // t=5000 and the late re-sign only lands at t=7200.
        let storm = &events[3];
        assert_eq!(storm.at_secs, 6_123);
        assert_eq!(storm.bogus, storm.client_queries, "expiry storm fails closed: {storm:?}");
        assert!(storm.expired_rrsig_bogus > 0, "counted as *expired*, not generic Bogus");
        // Before the window everything is Secure; after the late re-sign
        // lands, validation recovers without intervention.
        for event in events.iter().filter(|e| e.at_secs != 6_123) {
            assert_eq!(event.secure, event.client_queries, "bounded storm: {event:?}");
        }
    }

    #[test]
    fn missed_ksk_rollover_fails_then_leaks_then_recovers() {
        let points =
            sweep(vec![LifecycleScenario::KskRollTracked, LifecycleScenario::KskRollMissed]);
        // A resolver with a working hold-down timer rides the whole roll.
        for event in &point(&points, LifecycleScenario::KskRollTracked).events {
            assert_eq!(event.secure, event.client_queries, "RFC 5011 tracks the roll: {event:?}");
        }
        let missed = &point(&points, LifecycleScenario::KskRollMissed).events;
        // Revocation window (old key published+revoked, new key signing):
        // the chain *ought* to verify and does not -> Bogus.
        assert_eq!(missed[4].at_secs, 8_123);
        assert_eq!(missed[4].bogus, missed[4].client_queries, "{:?}", missed[4]);
        // Old key pulled: no anchor at all -> Indeterminate at the root,
        // and the §5.2 leak: every name walks into the DLV registry.
        let anchorless = &missed[6];
        assert_eq!(anchorless.at_secs, 12_123);
        assert!(anchorless.missing_anchor > 0, "{anchorless:?}");
        assert_eq!(anchorless.secure, 0, "{anchorless:?}");
        // The §5.2 case-2 spike: with no anchor, the *measured* anchored
        // names themselves walk into the DLV registry, on top of the
        // infrastructure-zone (hosting NS) leaks that a Secure resolver
        // also incurs. Contrast against the tracked resolver at the same
        // event — identical workload, working anchor.
        let tracked_same = &point(&points, LifecycleScenario::KskRollTracked).events[6];
        assert!(
            anchorless.case2_leaks > tracked_same.case2_leaks,
            "anchorless leak spike: missed {anchorless:?} vs tracked {tracked_same:?}"
        );
        // Out-of-band anchor install at t=13000 heals validation.
        let healed = missed.last().unwrap();
        assert_eq!(healed.at_secs, 14_123);
        assert_eq!(healed.secure, healed.client_queries, "manual install recovers: {healed:?}");
    }

    #[test]
    fn corrupt_registry_during_storm_silences_the_leak_channel() {
        let points =
            sweep(vec![LifecycleScenario::ExpiryStorm, LifecycleScenario::StormCorruptRegistry]);
        let storm = &point(&points, LifecycleScenario::ExpiryStorm).events;
        let crossed = &point(&points, LifecycleScenario::StormCorruptRegistry).events;
        // Inside the stale gap the two scenarios are indistinguishable:
        // anchored chains fail closed at the *root*, before the walk ever
        // considers look-aside — the corrupt registry cannot worsen (or
        // rescue) them.
        assert_eq!(crossed[3].at_secs, 6_123);
        assert_eq!(crossed[3].bogus, crossed[3].client_queries, "{:?}", crossed[3]);
        assert!(crossed[3].expired_rrsig_bogus > 0, "{:?}", crossed[3]);
        assert_eq!(crossed[3].dlv_queries, storm[3].dlv_queries, "{:?}", crossed[3]);
        // Once the late re-sign lands (t=7200) anchored validation heals
        // in both scenarios — but with the registry still corrupt, its
        // own chain of trust is severed and the look-aside walk aborts
        // before a single DLV-type query reaches the wire: the leak
        // channel goes dark while the healthy-registry storm keeps
        // leaking infrastructure names.
        for idx in [4, 5] {
            assert_eq!(crossed[idx].secure, crossed[idx].client_queries, "{:?}", crossed[idx]);
            assert_eq!(crossed[idx].dlv_queries, 0, "corrupt = unplugged: {:?}", crossed[idx]);
            assert_eq!(crossed[idx].case2_leaks, 0, "{:?}", crossed[idx]);
            assert!(storm[idx].dlv_queries > 0, "healthy registry keeps leaking: {:?}", storm[idx]);
        }
        // The registry heals at t=9000 but the resolver's bad-key
        // judgement must age out first; by t=12123 the walk — and the
        // leak — is back.
        assert!(crossed[6].dlv_queries > 0, "leak channel resumes: {:?}", crossed[6]);
    }

    #[test]
    fn tld_scoped_expiry_storm_strands_only_that_tld() {
        let config = LifecycleConfig {
            scenarios: vec![LifecycleScenario::ExpiryStorm],
            target: LifecycleTarget::Tld("com".to_string()),
            ..LifecycleConfig::quick(6)
        };
        let points = lifecycle_sweep(&Executor::default(), &config);
        let events = &point(&points, LifecycleScenario::ExpiryStorm).events;
        // In the stale gap only the .com share of the anchored workload
        // fails closed — the fault's blast radius is one TLD, not the
        // whole namespace as in the root-scoped storm.
        let storm = &events[3];
        assert_eq!(storm.at_secs, 6_123);
        assert!(storm.bogus > 0, "the faulted TLD's children fail: {storm:?}");
        assert!(
            storm.secure > 0 && storm.bogus < storm.client_queries,
            "other TLDs ride through the .com storm: {storm:?}"
        );
        // Outside the gap everything validates, exactly as with the root
        // target: the catch-up re-sign heals the TLD without intervention.
        for event in events.iter().filter(|e| e.at_secs != 6_123) {
            assert_eq!(event.secure, event.client_queries, "bounded storm: {event:?}");
        }
    }

    #[test]
    fn abrupt_zsk_removal_breaks_only_stale_caches() {
        let points = sweep(vec![LifecycleScenario::ZskAbrupt]);
        let events = &point(&points, LifecycleScenario::ZskAbrupt).events;
        // Some event strands *part* of its queries: only chains whose
        // parent-side records were cached under the vanished key break;
        // names whose caches happen to refresh after the removal are fine.
        assert!(
            events.iter().any(|e| e.bogus > 0 && e.bogus < e.client_queries),
            "a rushed roll must strand some (not all) cached chains: {events:?}"
        );
        // The damage is transient: once every cache outlives the vanished
        // key, validation is whole again.
        let healed = events.last().unwrap();
        assert_eq!(healed.secure, healed.client_queries, "caches drain and heal: {healed:?}");
    }
}
