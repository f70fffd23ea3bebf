//! The Byzantine data-plane sweep: wrong answers, not just lost ones.
//!
//! The chaos harness ([`crate::chaos`]) degrades the DLV path with loss
//! and blackholes; this module completes the threat model with *Byzantine*
//! faults — in-flight corruption, forced truncation, off-path spoofed
//! responses — and with the registry's actual end of life (the 2015–2017
//! `dlv.isc.org` decommission), each stage of which is a different kind of
//! wrong answer ([`DecommissionStage`]).
//!
//! Each adversary is crossed with a resolver hardening profile:
//!
//! * **off** — the 2016-era subject resolvers of the paper: no RFC 5452
//!   transaction checks beyond what the simulator always did, no BAD
//!   cache, no serve-stale,
//! * **full** — RFC 5452 qid/source checks, the RFC 4035 §4.7 bounded BAD
//!   cache, and RFC 8767 serve-stale.
//!
//! The sweep reports, per cell, the privacy metric the paper cares about
//! (DLV query packets leaked per client query — Byzantine faults trigger
//! retries and TCP fallbacks, each a fresh leak) next to the robustness
//! metrics the hardening ladder trades on: answer availability, how often
//! validation concluded `Secure` via DLV, stale serves, BAD-cache hits,
//! and how many forgeries were accepted versus discarded.
//!
//! Everything is a pure function of the configured seed; the sweep runs on
//! the sharded executor and is byte-identical for every `--jobs` value.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside_netsim::{CaptureFilter, DlvQueryCounter, LinkFaults};
use lookaside_resolver::{
    BindConfig, FeatureModel, Hardening, Lookaside, ResolverConfig, RetryPolicy, SecurityStatus,
};
use lookaside_server::DecommissionStage;
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Rcode, RrType};
use lookaside_workload::PopulationParams;
use serde::Serialize;

use crate::internet::{Internet, InternetParams, DLV_ADDR};

/// One adversary model applied to the DLV path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Adversary {
    /// Healthy populated registry, look-aside enabled — the reference.
    Baseline,
    /// Control cell: look-aside disabled entirely (`dnssec-lookaside no`).
    /// Whatever availability this cell achieves, a hardened resolver under
    /// registry decommission must not do worse.
    NoDlv,
    /// Seeded bit-flip corruption of DLV-link UDP payloads, per-mille.
    Corrupt(u16),
    /// Forced truncation (TC=1, clipped answers) on the DLV link,
    /// per-mille; every hit provokes a TCP retry.
    Truncate(u16),
    /// Off-path spoofed responses racing the genuine answer on the DLV
    /// link, per-mille (wrong qid and/or wrong source address).
    Spoof(u16),
    /// The registry itself misbehaves: one stage of the decommission
    /// timeline or its failure variants.
    Decommission(DecommissionStage),
}

impl Adversary {
    /// Human-readable label (stable: the `--jobs` diff gate compares it).
    pub fn label(self) -> String {
        match self {
            Adversary::Baseline => "baseline".to_string(),
            Adversary::NoDlv => "no-dlv".to_string(),
            Adversary::Corrupt(milli) => format!("corrupt {:.0}%", f64::from(milli) / 10.0),
            Adversary::Truncate(milli) => format!("truncate {:.0}%", f64::from(milli) / 10.0),
            Adversary::Spoof(milli) => format!("spoof {:.0}%", f64::from(milli) / 10.0),
            Adversary::Decommission(stage) => match stage {
                DecommissionStage::Populated => "decomm:populated".to_string(),
                DecommissionStage::Emptied => "decomm:emptied".to_string(),
                DecommissionStage::NxDomainAll => "decomm:nxdomain".to_string(),
                DecommissionStage::ServFailAll => "decomm:servfail".to_string(),
                DecommissionStage::BogusSignatures => "decomm:bogus-sigs".to_string(),
                DecommissionStage::Offline => "decomm:offline".to_string(),
            },
        }
    }
}

/// Resolver hardening profile under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HardeningProfile {
    /// All defences off ([`Hardening::off`]) — the paper's subjects.
    Off,
    /// All defences on ([`Hardening::full`]).
    Full,
}

impl HardeningProfile {
    /// Both profiles, weakest first.
    pub const ALL: [HardeningProfile; 2] = [HardeningProfile::Off, HardeningProfile::Full];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            HardeningProfile::Off => "off",
            HardeningProfile::Full => "full",
        }
    }

    /// The hardening flags this profile selects.
    pub fn hardening(self) -> Hardening {
        match self {
            HardeningProfile::Off => Hardening::off(),
            HardeningProfile::Full => Hardening::full(),
        }
    }
}

/// Configuration of one Byzantine sweep.
#[derive(Debug, Clone)]
pub struct ByzantineConfig {
    /// Client queries measured per cell (fresh, previously-unseen names).
    pub queries: usize,
    /// Warm-up queries resolved first so root/TLD delegations and zone
    /// keys are cached; data-plane faults are installed only afterwards.
    pub warmup: usize,
    /// Master seed: faults, latency, and workload all derive from it.
    pub seed: u64,
    /// Adversaries to sweep.
    pub adversaries: Vec<Adversary>,
    /// Hardening profiles to cross with each adversary.
    pub profiles: Vec<HardeningProfile>,
}

impl ByzantineConfig {
    /// The canonical adversary ladder crossed with both profiles.
    pub fn quick(queries: usize) -> Self {
        ByzantineConfig {
            queries,
            warmup: 8,
            seed: 0xb1_2a17,
            adversaries: vec![
                Adversary::Baseline,
                Adversary::NoDlv,
                Adversary::Corrupt(400),
                Adversary::Truncate(400),
                Adversary::Spoof(400),
                Adversary::Decommission(DecommissionStage::Emptied),
                Adversary::Decommission(DecommissionStage::NxDomainAll),
                Adversary::Decommission(DecommissionStage::ServFailAll),
                Adversary::Decommission(DecommissionStage::BogusSignatures),
                Adversary::Decommission(DecommissionStage::Offline),
            ],
            profiles: HardeningProfile::ALL.to_vec(),
        }
    }
}

/// One cell of the sweep: an adversary crossed with a hardening profile.
#[derive(Debug, Clone, Serialize)]
pub struct ByzantinePoint {
    /// Adversary in force.
    pub adversary: Adversary,
    /// Hardening profile in force.
    pub profile: HardeningProfile,
    /// Client queries measured.
    pub client_queries: usize,
    /// DLV query packets on the wire (retransmissions and TCP retries
    /// included — every transmission exposes the name again).
    pub dlv_packets: usize,
    /// Leaked DLV query packets per client query.
    pub dlv_per_query: f64,
    /// Client queries that produced a usable answer (NOERROR with data).
    pub answered: usize,
    /// `answered / client_queries` — the availability metric.
    pub availability: f64,
    /// Resolutions that concluded `Secure` *via the DLV chain*. Must be
    /// zero whenever the registry serves bogus signatures or forged data.
    pub dlv_secure: usize,
    /// Expired answers served under RFC 8767.
    pub stale_serves: u64,
    /// `stale_serves / client_queries`.
    pub stale_rate: f64,
    /// Lookups answered SERVFAIL straight from the RFC 4035 §4.7 BAD
    /// cache (no wire traffic).
    pub bad_cache_hits: u64,
    /// Validation failures observed.
    pub bogus: u64,
    /// Off-path forgeries accepted as the answer (unhardened resolvers).
    pub spoofs_accepted: u64,
    /// Off-path forgeries discarded by qid/source checks.
    pub spoofs_discarded: u64,
    /// Responses that failed to decode and were retried.
    pub malformed_retries: u64,
    /// Responses truncated in flight by the fault plane.
    pub forced_truncations: u64,
    /// Retransmitted queries.
    pub retransmissions: u64,
    /// Exchanges that timed out.
    pub timeouts: u64,
}

/// Runs the full sweep on `exec`: every adversary crossed with every
/// hardening profile, in profile-major order. Each cell builds a fresh
/// Internet replica, so cells are natural shards; the point list comes
/// back in serial order, identical for every worker count. A cell whose
/// run panics aborts the sweep with that panic.
pub fn byzantine_sweep(
    exec: &lookaside_engine::Executor,
    config: &ByzantineConfig,
) -> Vec<ByzantinePoint> {
    let mut cells = Vec::with_capacity(config.adversaries.len() * config.profiles.len());
    for &profile in &config.profiles {
        for &adversary in &config.adversaries {
            cells.push((adversary, profile));
        }
    }
    let shards = lookaside_engine::ShardPlan::new(config.seed).over(cells);
    crate::parallel::collect(exec, &shards, |shard| run_cell(config, shard.input.0, shard.input.1))
}

/// The measured workload: mostly sequential ranks (fresh names, as in the
/// chaos harness), with every fourth slot replaced by a deposited island
/// so each cell exercises the *positive* DLV path too — without islands in
/// the mix, `dlv_secure` could not distinguish a healthy registry from a
/// bogus one. Purely rank-arithmetic, so identical for every worker count.
fn measured_ranks(internet: &Internet, config: &ByzantineConfig) -> Vec<usize> {
    let mut used: std::collections::BTreeSet<usize> = (1..=config.warmup).collect();
    let mut deposited = internet
        .population
        .deposited_ranks(internet.params.query_limit)
        .filter(|&r| r > config.warmup);
    let mut ranks = Vec::with_capacity(config.queries);
    let mut next_seq = config.warmup + 1;
    for i in 0..config.queries {
        if i % 4 == 3 {
            if let Some(r) = deposited.find(|&r| !used.contains(&r)) {
                used.insert(r);
                ranks.push(r);
                continue;
            }
        }
        while !used.insert(next_seq) {
            next_seq += 1;
        }
        ranks.push(next_seq);
    }
    ranks
}

fn run_cell(
    config: &ByzantineConfig,
    adversary: Adversary,
    profile: HardeningProfile,
) -> ByzantinePoint {
    let size = (config.warmup + config.queries).max(1000);
    let population = PopulationParams { size, ..PopulationParams::default() };
    // query_limit covers the whole population: the workload below pulls
    // deposited islands from anywhere in it, and their registry deposits
    // must be materialised.
    let mut params = InternetParams::for_top(size, population, RemedyMode::None);
    params.seed = config.seed;
    params.capture = CaptureFilter::None;
    if let Adversary::Decommission(stage) = adversary {
        params.dlv_stage = stage;
    }
    let mut internet = Internet::build(params);
    // DLV query packets are counted as they are emitted; the
    // `reset_measurement` after the warm-up zeroes the count.
    let counter = Rc::new(RefCell::new(DlvQueryCounter::new()));
    internet.net.set_observer(Box::new(Rc::clone(&counter)));

    // As in the chaos harness: aggressive NSEC caching would suppress most
    // look-aside lookups for fresh names, hiding exactly the traffic the
    // adversary attacks. Turn it off so every measured name walks the
    // registry path.
    let features = FeatureModel { aggressive_nsec: false, ..FeatureModel::default() };
    let bind = match adversary {
        Adversary::NoDlv => BindConfig { lookaside: Lookaside::No, ..BindConfig::correct() },
        _ => BindConfig::correct(),
    };
    let mut resolver =
        internet.resolver_with_features(ResolverConfig::Bind(bind), features, config.seed ^ 0x5eed);
    // All cells run the robust timer profile from the chaos study — the
    // Byzantine sweep isolates the *hardening* axis, not the timer axis.
    resolver.set_retry_policy(RetryPolicy::default().with_servfail_cache(900));
    resolver.set_hardening(profile.hardening());

    // Warm-up: caches root/TLD delegations and validated zone keys. The
    // decommission stages are in force from the first packet (the registry
    // was built that way); link-level faults start after warm-up.
    for rank in 1..=config.warmup {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
    }
    internet.net.reset_measurement();
    let link_faults = match adversary {
        Adversary::Corrupt(milli) => Some(LinkFaults::quiet().with_corrupt_milli(milli)),
        Adversary::Truncate(milli) => Some(LinkFaults::quiet().with_truncate_milli(milli)),
        Adversary::Spoof(milli) => Some(LinkFaults::quiet().with_spoof_milli(milli)),
        _ => None,
    };
    if let Some(faults) = link_faults {
        internet.net.fault_plane_mut().set_link(DLV_ADDR, faults);
    }

    let counters_before = resolver.counters;
    let mut answered = 0usize;
    let mut dlv_secure = 0usize;
    for rank in measured_ranks(&internet, config) {
        let qname = internet.population.domain(rank);
        if let Ok(res) = resolver.resolve(&mut internet.net, &qname, RrType::A) {
            if res.rcode == Rcode::NoError && !res.answers.is_empty() {
                answered += 1;
            }
            if res.status == SecurityStatus::Secure && res.secured_via_dlv {
                dlv_secure += 1;
            }
        }
    }

    let dlv_packets = counter.borrow().queries as usize;
    let stats = internet.net.stats();
    let c = &resolver.counters;
    ByzantinePoint {
        adversary,
        profile,
        client_queries: config.queries,
        dlv_packets,
        dlv_per_query: dlv_packets as f64 / config.queries.max(1) as f64,
        answered,
        availability: answered as f64 / config.queries.max(1) as f64,
        dlv_secure,
        stale_serves: stats.stale_serves,
        stale_rate: stats.stale_serves as f64 / config.queries.max(1) as f64,
        bad_cache_hits: c.bad_cache_hits - counters_before.bad_cache_hits,
        bogus: c.bogus - counters_before.bogus,
        spoofs_accepted: c.spoofs_accepted - counters_before.spoofs_accepted,
        spoofs_discarded: c.spoofs_discarded - counters_before.spoofs_discarded,
        malformed_retries: c.malformed_retries - counters_before.malformed_retries,
        forced_truncations: stats.forced_truncations,
        retransmissions: stats.retransmissions,
        timeouts: stats.timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_engine::Executor;

    fn cell(
        points: &[ByzantinePoint],
        adversary: Adversary,
        profile: HardeningProfile,
    ) -> &ByzantinePoint {
        points
            .iter()
            .find(|p| p.adversary == adversary && p.profile == profile)
            .expect("cell present")
    }

    fn small() -> ByzantineConfig {
        ByzantineConfig { warmup: 6, ..ByzantineConfig::quick(12) }
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = ByzantineConfig {
            adversaries: vec![Adversary::Baseline, Adversary::Spoof(500)],
            profiles: vec![HardeningProfile::Full],
            ..small()
        };
        let a = byzantine_sweep(&Executor::default(), &config);
        let b = byzantine_sweep(&Executor::default(), &config);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dlv_packets, y.dlv_packets);
            assert_eq!(x.answered, y.answered);
            assert_eq!(x.spoofs_discarded, y.spoofs_discarded);
        }
    }

    #[test]
    fn hardening_survives_decommission_at_no_dlv_availability() {
        let points = byzantine_sweep(&Executor::default(), &small());
        let no_dlv = cell(&points, Adversary::NoDlv, HardeningProfile::Off);
        assert!(no_dlv.availability > 0.9, "control cell must resolve: {no_dlv:?}");
        // Graceful degradation: every decommission stage under full
        // hardening keeps availability at least at the no-DLV control —
        // look-aside failure costs the security status, never the answer.
        for stage in [
            DecommissionStage::Emptied,
            DecommissionStage::NxDomainAll,
            DecommissionStage::ServFailAll,
            DecommissionStage::BogusSignatures,
            DecommissionStage::Offline,
        ] {
            let p = cell(&points, Adversary::Decommission(stage), HardeningProfile::Full);
            assert!(
                p.availability >= no_dlv.availability - 1e-9,
                "{stage:?} under full hardening must not lose answers: {} vs control {}",
                p.availability,
                no_dlv.availability
            );
        }
    }

    #[test]
    fn forged_and_bogus_data_is_never_secure() {
        let points = byzantine_sweep(
            &Executor::default(),
            &ByzantineConfig {
                adversaries: vec![
                    Adversary::Baseline,
                    Adversary::Spoof(1000),
                    Adversary::Decommission(DecommissionStage::BogusSignatures),
                ],
                ..small()
            },
        );
        let baseline = cell(&points, Adversary::Baseline, HardeningProfile::Off);
        assert!(baseline.dlv_secure > 0, "deposited islands must secure via DLV: {baseline:?}");
        // Accepted forgeries carry no valid signatures: an unhardened
        // resolver that swallows every spoof must never conclude Secure.
        let spoofed = cell(&points, Adversary::Spoof(1000), HardeningProfile::Off);
        assert!(spoofed.spoofs_accepted > 0, "unhardened resolver accepts spoofs: {spoofed:?}");
        assert_eq!(spoofed.dlv_secure, 0, "forged data must never be Secure: {spoofed:?}");
        // A hardened resolver discards the forgeries and still validates
        // the *genuine* answer — Secure via DLV survives the attack.
        let hardened = cell(&points, Adversary::Spoof(1000), HardeningProfile::Full);
        assert_eq!(hardened.spoofs_accepted, 0, "{hardened:?}");
        assert!(hardened.dlv_secure > 0, "genuine path survives the spoof storm: {hardened:?}");
        // A registry serving broken signatures yields Secure for no one.
        for &profile in &HardeningProfile::ALL {
            let p =
                cell(&points, Adversary::Decommission(DecommissionStage::BogusSignatures), profile);
            assert_eq!(
                p.dlv_secure, 0,
                "bogus registry signatures must never validate ({profile:?}): {p:?}"
            );
        }
    }

    #[test]
    fn qid_and_source_checks_discard_forgeries() {
        let points = byzantine_sweep(
            &Executor::default(),
            &ByzantineConfig { adversaries: vec![Adversary::Spoof(1000)], ..small() },
        );
        let off = cell(&points, Adversary::Spoof(1000), HardeningProfile::Off);
        let full = cell(&points, Adversary::Spoof(1000), HardeningProfile::Full);
        assert!(off.spoofs_accepted > 0, "unhardened resolver accepts forgeries: {off:?}");
        assert_eq!(full.spoofs_accepted, 0, "hardened resolver accepts none: {full:?}");
        assert!(full.spoofs_discarded > 0, "hardened resolver saw and discarded them: {full:?}");
    }

    #[test]
    fn corruption_triggers_retries_and_amplifies_leakage() {
        let points = byzantine_sweep(
            &Executor::default(),
            &ByzantineConfig {
                adversaries: vec![Adversary::Baseline, Adversary::Corrupt(500)],
                profiles: vec![HardeningProfile::Off],
                ..small()
            },
        );
        let baseline = cell(&points, Adversary::Baseline, HardeningProfile::Off);
        let corrupt = cell(&points, Adversary::Corrupt(500), HardeningProfile::Off);
        assert!(corrupt.malformed_retries > 0, "corruption must be detected: {corrupt:?}");
        assert!(
            corrupt.dlv_per_query > baseline.dlv_per_query,
            "every retry re-leaks the name: {} vs {}",
            corrupt.dlv_per_query,
            baseline.dlv_per_query
        );
    }

    #[test]
    fn truncation_forces_tcp_fallback_without_losing_answers() {
        let points = byzantine_sweep(
            &Executor::default(),
            &ByzantineConfig {
                adversaries: vec![Adversary::Truncate(1000)],
                profiles: vec![HardeningProfile::Off],
                ..small()
            },
        );
        let p = cell(&points, Adversary::Truncate(1000), HardeningProfile::Off);
        assert!(p.forced_truncations > 0, "truncation fault must fire: {p:?}");
        assert!(p.availability > 0.9, "TCP fallback keeps answers flowing: {p:?}");
        assert!(p.dlv_secure > 0, "TCP retry carries the full signed answer: {p:?}");
    }
}
