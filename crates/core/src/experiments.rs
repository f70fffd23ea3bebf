//! One experiment runner per table and figure of the paper's evaluation.
//!
//! Every experiment is deterministic given its seed, builds a fresh
//! simulated Internet (cold caches, like the paper's per-dataset runs),
//! drives the resolver, and classifies the DLV packets the run emits.

use std::cell::RefCell;
use std::num::NonZeroU64;
use std::rc::Rc;

use lookaside_engine::{Executor, Shard, ShardPlan};
use lookaside_netsim::{CaptureFilter, TrafficStats};
use lookaside_resolver::{BindConfig, Counters, InstallMethod, ResolverConfig};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Name, RrType};
use lookaside_workload::{DitlTrace, PopulationParams, Zipf};
use serde::Serialize;

use crate::internet::{Internet, InternetParams};
use crate::leakage::{classify, LeakSink, LeakageReport};
use crate::parallel::collect;

/// Which names a run queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySet {
    /// The top-`n` ranked domains, in rank order.
    Top(usize),
    /// Specific ranks, in the given order.
    Ranks(Vec<usize>),
    /// Top-`n`, shuffled with a seed (§5.1 "order matters").
    Shuffled {
        /// How many domains.
        n: usize,
        /// Shuffle seed.
        seed: u64,
    },
    /// The 45 DNSSEC-secured domains (§5.2).
    Huque,
}

impl QuerySet {
    pub(crate) fn max_rank(&self) -> usize {
        match self {
            QuerySet::Top(n) | QuerySet::Shuffled { n, .. } => *n,
            QuerySet::Ranks(ranks) => ranks.iter().copied().max().unwrap_or(0),
            QuerySet::Huque => 0,
        }
    }

    pub(crate) fn names(&self, internet: &Internet) -> Vec<Name> {
        match self {
            QuerySet::Top(n) => internet.population.top(*n),
            QuerySet::Ranks(ranks) => {
                ranks.iter().map(|&r| internet.population.domain(r)).collect()
            }
            QuerySet::Shuffled { n, seed } => {
                let mut names = internet.population.top(*n);
                // Fisher–Yates with a splitmix stream.
                let mut state = *seed;
                let mut next = || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                for i in (1..names.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    names.swap(i, j);
                }
                names
            }
            QuerySet::Huque => {
                lookaside_workload::huque45().iter().map(|d| d.name.clone()).collect()
            }
        }
    }
}

/// A full experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Population parameters.
    pub population: PopulationParams,
    /// Names to query.
    pub queries: QuerySet,
    /// Resolver configuration (install-method preset or custom).
    pub resolver: ResolverConfig,
    /// Active remedy.
    pub remedy: RemedyMode,
    /// Master seed (latency, behavioural probabilities).
    pub seed: u64,
    /// DLV registry NSEC span TTL.
    pub dlv_span_ttl: u32,
    /// DLV registry denial mechanism (NSEC by default; NSEC3 for the §7.3
    /// trade-off experiment).
    pub dlv_denial: lookaside_zone::DenialMode,
}

impl RunConfig {
    /// A correctly configured BIND resolver querying the top-`n` of a small
    /// population — cheap enough for unit tests.
    pub fn quick(n: usize) -> Self {
        RunConfig {
            population: PopulationParams { size: n.max(1000), ..PopulationParams::default() },
            queries: QuerySet::Top(n),
            resolver: ResolverConfig::Bind(BindConfig::correct()),
            remedy: RemedyMode::None,
            seed: 1,
            dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
            dlv_denial: lookaside_zone::DenialMode::Nsec,
        }
    }

    /// Top-`n` of the full-size population under the given remedy.
    pub fn for_top(n: usize, remedy: RemedyMode) -> Self {
        RunConfig {
            population: PopulationParams { size: n.max(1000), ..PopulationParams::default() },
            queries: QuerySet::Top(n),
            resolver: ResolverConfig::Bind(BindConfig::correct()),
            remedy,
            seed: 1,
            dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
            dlv_denial: lookaside_zone::DenialMode::Nsec,
        }
    }
}

/// Validation-status tallies over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StatusTally {
    /// Resolutions ending Secure.
    pub secure: usize,
    /// …of which through DLV (Case 1 utility).
    pub secure_via_dlv: usize,
    /// Insecure.
    pub insecure: usize,
    /// Bogus (stub saw SERVFAIL).
    pub bogus: usize,
    /// Indeterminate.
    pub indeterminate: usize,
    /// Resolution errors (lame servers etc.).
    pub errors: usize,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregate upstream traffic.
    pub stats: TrafficStats,
    /// DLV leakage classification.
    pub leakage: LeakageReport,
    /// Resolver-internal counters.
    pub counters: Counters,
    /// Validation statuses.
    pub statuses: StatusTally,
    /// Simulated wall-clock of the run, nanoseconds.
    pub elapsed_ns: u64,
    /// Number of names queried.
    pub queried: usize,
}

/// Executes one run.
pub fn run(config: &RunConfig) -> RunOutcome {
    run_with(config, |_| {})
}

/// [`run`] with `prepare` applied to the freshly built Internet before
/// the resolver is created — the one place a [`RunConfig`] becomes an
/// Internet and a resolver (the §6.2.3 attacks install their tamper hook
/// here). The network retains no packets: a [`LeakSink`] observer
/// classifies the DLV traffic as it is emitted.
pub(crate) fn run_with(config: &RunConfig, prepare: impl FnOnce(&mut Internet)) -> RunOutcome {
    let limit = config.queries.max_rank().max(1);
    let mut params = InternetParams::for_top(limit, config.population, config.remedy);
    params.dlv_span_ttl = config.dlv_span_ttl;
    params.dlv_denial = config.dlv_denial;
    params.seed = config.seed;
    params.capture = CaptureFilter::None;
    let mut internet = Internet::build(params);
    let sink =
        Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
    internet.net.set_observer(Box::new(Rc::clone(&sink)));
    prepare(&mut internet);
    let mut resolver = internet.resolver(config.resolver, config.seed ^ 0x5a17);
    let names = config.queries.names(&internet);
    let mut statuses = StatusTally::default();
    for name in &names {
        let result = resolver.resolve(&mut internet.net, name, RrType::A);
        crate::parallel::tally(&mut statuses, &result);
    }
    let leakage = std::mem::take(&mut sink.borrow_mut().report);
    RunOutcome {
        stats: internet.net.stats().clone(),
        leakage,
        counters: resolver.counters,
        statuses,
        elapsed_ns: internet.net.now_ns(),
        queried: names.len(),
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Table 3: does the secured (huque45) corpus leak to DLV under each
/// install method?
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Install method label (`apt-get`, `apt-get†`, `yum`, `manual`).
    pub method: String,
    /// Whether *fully secured* domains (DS present) were sent to the DLV
    /// server — the paper's "DLV: Yes/No" row.
    pub secured_leaked: bool,
    /// How many of the 5 islands were sent to DLV (always ≥ 1 when DLV is
    /// on; this is expected behaviour, not the Table 3 signal).
    pub islands_to_dlv: usize,
}

/// Runs Table 3 for the given population seed.
pub fn table3(seed: u64) -> Vec<Table3Row> {
    InstallMethod::ALL
        .iter()
        .map(|method| {
            let config = RunConfig {
                population: PopulationParams { size: 1000, ..PopulationParams::default() },
                queries: QuerySet::Huque,
                resolver: ResolverConfig::Bind(method.bind_config()),
                remedy: RemedyMode::None,
                seed,
                dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
                dlv_denial: lookaside_zone::DenialMode::Nsec,
            };
            let outcome = run(&config);
            let corpus = lookaside_workload::huque45();
            let secured_leaked = corpus
                .iter()
                .filter(|d| d.ds_in_parent)
                .any(|d| outcome.leakage.leaked_names.iter().any(|l| *l == d.name));
            let islands_to_dlv = corpus
                .iter()
                .filter(|d| !d.ds_in_parent)
                .filter(|d| {
                    outcome.leakage.leaked_names.iter().any(|l| *l == d.name)
                        || internet_case1_contains(&outcome, &d.name)
                })
                .count();
            Table3Row { method: method.label().to_string(), secured_leaked, islands_to_dlv }
        })
        .collect()
}

fn internet_case1_contains(outcome: &RunOutcome, _name: &Name) -> bool {
    // Case-1 names are not recorded individually; approximate via count.
    outcome.leakage.case1 > 0
}

/// One row of Table 4: query counts by type.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table4Row {
    /// Dataset size.
    pub n: usize,
    /// A queries.
    pub a: u64,
    /// AAAA queries.
    pub aaaa: u64,
    /// DNSKEY queries.
    pub dnskey: u64,
    /// DS queries.
    pub ds: u64,
    /// NS queries.
    pub ns: u64,
    /// PTR queries.
    pub ptr: u64,
}

impl Table4Row {
    /// The paper's "# Issued Queries" total (sum of the six columns).
    pub fn total(&self) -> u64 {
        self.a + self.aaaa + self.dnskey + self.ds + self.ns + self.ptr
    }
}

/// Runs Table 4 for the given dataset sizes.
pub fn table4(sizes: &[usize], seed: u64) -> Vec<Table4Row> {
    sizes
        .iter()
        .map(|&n| {
            let mut config = RunConfig::for_top(n, RemedyMode::None);
            config.seed = seed;
            let outcome = run(&config);
            let s = &outcome.stats;
            Table4Row {
                n,
                a: s.queries_of(RrType::A),
                aaaa: s.queries_of(RrType::Aaaa),
                dnskey: s.queries_of(RrType::Dnskey),
                ds: s.queries_of(RrType::Ds),
                ns: s.queries_of(RrType::Ns),
                ptr: s.queries_of(RrType::Ptr),
            }
        })
        .collect()
}

/// One row of Table 5 / Fig. 10: TXT-remedy overhead on one dataset size.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table5Row {
    /// Dataset size.
    pub n: usize,
    /// Baseline response time, seconds.
    pub base_seconds: f64,
    /// Added response time, seconds.
    pub overhead_seconds: f64,
    /// Baseline traffic, MB.
    pub base_mb: f64,
    /// Added traffic, MB.
    pub overhead_mb: f64,
    /// Baseline issued queries (six ambient types).
    pub base_queries: u64,
    /// Added queries (TXT probes).
    pub overhead_queries: u64,
}

impl Table5Row {
    /// Latency overhead ratio.
    pub fn time_ratio(&self) -> f64 {
        self.overhead_seconds / self.base_seconds
    }
    /// Traffic overhead ratio.
    pub fn traffic_ratio(&self) -> f64 {
        self.overhead_mb / self.base_mb
    }
    /// Query-count overhead ratio.
    pub fn query_ratio(&self) -> f64 {
        self.overhead_queries as f64 / self.base_queries as f64
    }
}

fn six_type_total(stats: &TrafficStats) -> u64 {
    [RrType::A, RrType::Aaaa, RrType::Dnskey, RrType::Ds, RrType::Ns, RrType::Ptr]
        .iter()
        .map(|&t| stats.queries_of(t))
        .sum()
}

/// Runs Table 5 (and Fig. 10): baseline vs TXT remedy per dataset size.
pub fn table5(sizes: &[usize], seed: u64) -> Vec<Table5Row> {
    sizes
        .iter()
        .map(|&n| {
            let mut base_cfg = RunConfig::for_top(n, RemedyMode::None);
            base_cfg.seed = seed;
            let base = run(&base_cfg);
            let mut txt_cfg = RunConfig::for_top(n, RemedyMode::TxtSignal);
            txt_cfg.seed = seed;
            let txt = run(&txt_cfg);
            // The paper's §6.2.3 method inserts TXT probes and compares
            // against "DLV alone": the overhead is the TXT-attributable
            // traffic itself (the remedy *also* saves DLV traffic, but that
            // saving is not part of Table 5's accounting).
            Table5Row {
                n,
                base_seconds: base.stats.total_seconds(),
                overhead_seconds: txt.stats.time_of(RrType::Txt) as f64 / 1e9,
                base_mb: base.stats.total_megabytes(),
                overhead_mb: txt.stats.bytes_of(RrType::Txt) as f64 / 1e6,
                base_queries: six_type_total(&base.stats),
                overhead_queries: txt.stats.queries_of(RrType::Txt),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// One point of Figs. 8–9.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LeakPoint {
    /// Number of domains queried.
    pub n: usize,
    /// DLV queries observed (Fig. 8).
    pub dlv_queries: usize,
    /// Distinct leaked domains.
    pub leaked_domains: usize,
    /// Proportion of queried domains leaked (Fig. 9).
    pub proportion: f64,
    /// DLV lookups suppressed by aggressive negative caching.
    pub suppressed: u64,
}

/// Runs the Fig. 8 / Fig. 9 sweep on `exec`. Each dataset size is one
/// shard — a full cold-cache run, exactly as the serial sweep performed
/// them — so the point list is identical for every worker count. A size
/// whose run panics aborts the sweep with that panic.
pub fn fig8_9(exec: &Executor, sizes: &[usize], seed: u64) -> Vec<LeakPoint> {
    let shards = ShardPlan::new(seed).over(sizes.iter().copied());
    collect(exec, &shards, |shard| {
        let n = shard.input;
        let mut config = RunConfig::for_top(n, RemedyMode::None);
        config.seed = seed;
        let outcome = run(&config);
        LeakPoint {
            n,
            dlv_queries: outcome.leakage.dlv_queries,
            leaked_domains: count_leaked_ranked(&outcome),
            proportion: count_leaked_ranked(&outcome) as f64 / n as f64,
            suppressed: outcome.counters.dlv_suppressed_by_nsec,
        }
    })
}

/// Distinct leaked *ranked domains* (TLD-level strip leaks and hoster-zone
/// leaks excluded), matching the paper's "leaked domains" notion.
fn count_leaked_ranked(outcome: &RunOutcome) -> usize {
    outcome
        .leakage
        .leaked_names
        .iter()
        .filter(|name| {
            name.label_count() == 2 && {
                let sld = name.label(0).to_string();
                sld.len() == 8 && sld.starts_with('d')
            }
        })
        .count()
}

/// §5.1 "order matters": leaked percentage for each shuffle seed.
pub fn order_matters(n: usize, shuffle_seeds: &[u64], seed: u64) -> Vec<(u64, f64)> {
    shuffle_seeds
        .iter()
        .map(|&shuffle| {
            let mut config = RunConfig::for_top(n, RemedyMode::None);
            config.seed = seed;
            config.queries = QuerySet::Shuffled { n, seed: shuffle };
            // A finite span TTL lets order interact with expiry, the way
            // the paper's live runs did.
            config.dlv_span_ttl = 30;
            let outcome = run(&config);
            (shuffle, count_leaked_ranked(&outcome) as f64 / n as f64)
        })
        .collect()
}

/// §5.3 validation utility: run under the §5.2 misconfiguration so every
/// domain consults DLV, then measure what fraction of DLV queries the
/// registry could answer.
pub fn utility(n: usize, seed: u64) -> LeakageReport {
    let mut config = RunConfig::for_top(n, RemedyMode::None);
    config.seed = seed;
    config.resolver = ResolverConfig::Bind(InstallMethod::AptGetCompliant.bind_config());
    run(&config).leakage
}

/// One bar group of Fig. 11: totals per remedy.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Row {
    /// Remedy label.
    pub remedy: String,
    /// Total response time, seconds.
    pub seconds: f64,
    /// Total traffic, MB.
    pub megabytes: f64,
    /// Total issued queries.
    pub queries: u64,
    /// Case-2 leaks remaining.
    pub leaks: usize,
}

/// Runs the Fig. 11 comparison (standard DLV vs TXT vs Z-bit; hashed DLV
/// included as the §6.2.2 extension).
pub fn fig11(n: usize, seed: u64) -> Vec<Fig11Row> {
    [RemedyMode::None, RemedyMode::TxtSignal, RemedyMode::ZBit, RemedyMode::HashedDlv]
        .iter()
        .map(|&remedy| {
            let mut config = RunConfig::for_top(n, remedy);
            config.seed = seed;
            let outcome = run(&config);
            Fig11Row {
                remedy: remedy.label().to_string(),
                seconds: outcome.stats.total_seconds(),
                megabytes: outcome.stats.total_megabytes(),
                queries: outcome.stats.total_queries(),
                leaks: outcome.leakage.case2,
            }
        })
        .collect()
}

/// Per-TLD leakage (mechanism slice: a broken link at the TLD dooms every
/// child).
#[derive(Debug, Clone, Serialize)]
pub struct TldBreakdownRow {
    /// TLD label.
    pub tld: &'static str,
    /// Whether the TLD zone is signed.
    pub tld_signed: bool,
    /// Queried domains under this TLD.
    pub domains: usize,
    /// How many of them leaked to the registry.
    pub leaked: usize,
    /// Fully-secured children (signed + DS) under this TLD that leaked —
    /// nonzero only where the TLD itself is unsigned.
    pub secure_children_leaked: usize,
}

impl TldBreakdownRow {
    /// Leak fraction for this TLD.
    pub fn fraction(&self) -> f64 {
        if self.domains == 0 {
            return 0.0;
        }
        self.leaked as f64 / self.domains as f64
    }
}

/// Slices the top-`n` leakage per TLD. Under a *signed* TLD only unsigned
/// children and islands leak; under an *unsigned* TLD the chain of trust
/// breaks at the TLD, so even children with DS records go to the DLV
/// server — the island-of-security mechanism of §2.3 acting one level up.
pub fn tld_breakdown(n: usize, seed: u64) -> Vec<TldBreakdownRow> {
    let mut config = RunConfig::for_top(n, RemedyMode::None);
    config.seed = seed;
    let limit = n.max(1);
    let population = lookaside_workload::DomainPopulation::new(config.population);
    let outcome = run(&config);
    lookaside_workload::TLDS
        .iter()
        .map(|tld| {
            let mut domains = 0usize;
            let mut leaked = 0usize;
            let mut secure_children_leaked = 0usize;
            for rank in 1..=limit {
                let attrs = population.attributes(rank);
                if attrs.tld != tld.label {
                    continue;
                }
                domains += 1;
                if outcome.leakage.leaked_names.contains(&attrs.name) {
                    leaked += 1;
                    if attrs.signed && attrs.ds_in_parent {
                        secure_children_leaked += 1;
                    }
                }
            }
            TldBreakdownRow {
                tld: tld.label,
                tld_signed: tld.signed,
                domains,
                leaked,
                secure_children_leaked,
            }
        })
        .collect()
}

/// One vantage point's results (§7.1 "Experiment Generality").
#[derive(Debug, Clone, Serialize)]
pub struct VantageRow {
    /// Vantage label.
    pub vantage: String,
    /// Case-2 leaks observed.
    pub leaks: usize,
    /// Distinct leaked names.
    pub distinct_leaked: usize,
    /// Total simulated response time, seconds.
    pub seconds: f64,
}

/// §7.1: the paper ran from a campus network and from DigitalOcean/EC2 and
/// found "results among different platforms remain the same". Runs the same
/// workload from each vantage (only the latency profile differs) and
/// returns the leakage per vantage — identical by construction of the
/// mechanism, which is the point being verified. Runs on `exec`, one shard
/// per vantage, each building its own Internet replica with that
/// vantage's latency profile.
pub fn vantage_sweep(exec: &Executor, n: usize, seed: u64) -> Vec<VantageRow> {
    let shards = ShardPlan::new(seed).over(crate::internet::VantagePoint::ALL);
    collect(exec, &shards, |shard| {
        let vantage = shard.input;
        let population = PopulationParams { size: n.max(1000), ..PopulationParams::default() };
        let mut params = InternetParams::for_top(n, population, RemedyMode::None);
        params.seed = seed;
        params.vantage = vantage;
        params.capture = CaptureFilter::None;
        let mut internet = Internet::build(params);
        let sink =
            Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
        internet.net.set_observer(Box::new(Rc::clone(&sink)));
        let mut resolver =
            internet.resolver(ResolverConfig::Bind(BindConfig::correct()), seed ^ 0x7a);
        for rank in 1..=n {
            let qname = internet.population.domain(rank);
            let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
        }
        let leakage = &sink.borrow().report;
        VantageRow {
            vantage: vantage.label().to_string(),
            leaks: leakage.case2,
            distinct_leaked: leakage.distinct_leaked(),
            seconds: internet.net.stats().total_seconds(),
        }
    })
}

/// One side of the §7.3 NSEC-vs-NSEC3 trade-off.
#[derive(Debug, Clone, Serialize)]
pub struct Nsec3TradeoffRow {
    /// Denial mechanism label.
    pub denial: String,
    /// DLV queries that reached the registry.
    pub dlv_queries: usize,
    /// Lookups suppressed by aggressive negative caching.
    pub suppressed: u64,
    /// Case-2 leaks.
    pub leaks: usize,
}

/// §7.3: an NSEC3 DLV registry resists zone enumeration but its denials
/// cannot be aggressively cached (RFC 5074 §5 permits that only for NSEC),
/// so "every query to the resolver would trigger a query to the DLV
/// server". Runs the same workload against both registry flavours.
pub fn nsec3_tradeoff(n: usize, seed: u64) -> Vec<Nsec3TradeoffRow> {
    [lookaside_zone::DenialMode::Nsec, lookaside_zone::DenialMode::Nsec3]
        .iter()
        .map(|&denial| {
            let mut config = RunConfig::for_top(n, RemedyMode::None);
            config.seed = seed;
            config.dlv_denial = denial;
            let outcome = run(&config);
            Nsec3TradeoffRow {
                denial: format!("{denial:?}"),
                dlv_queries: outcome.leakage.dlv_queries,
                suppressed: outcome.counters.dlv_suppressed_by_nsec,
                leaks: outcome.leakage.case2,
            }
        })
        .collect()
}

/// Per-party name exposure with and without QNAME minimisation (an RFC
/// 7816 extension of the §3 threat model).
#[derive(Debug, Clone, Serialize)]
pub struct ExposureRow {
    /// Whether minimisation was on.
    pub minimized: bool,
    /// Full (SLD-or-deeper) query names the root observed.
    pub root_full_names: usize,
    /// Sub-SLD (three-or-more-label) query names TLD servers observed —
    /// host names inside zones, which a TLD has no business seeing.
    pub tld_full_names: usize,
    /// Full names the DLV registry observed (Case-2 leaks) — unchanged by
    /// minimisation, which is the point.
    pub dlv_leaks: usize,
}

/// Measures how much of the query stream each uninvolved-ish party sees,
/// with QNAME minimisation off and on. Minimisation protects the on-path
/// upper servers of §3's threat model but does nothing about DLV leakage.
pub fn qmin_exposure(n: usize, seed: u64) -> Vec<ExposureRow> {
    use lookaside_resolver::FeatureModel;

    [false, true]
        .iter()
        .map(|&minimized| {
            let population = PopulationParams { size: n.max(1000), ..PopulationParams::default() };
            let mut params = InternetParams::for_top(n, population, RemedyMode::None);
            params.seed = seed;
            params.capture = CaptureFilter::All;
            let mut internet = Internet::build(params);
            let features =
                FeatureModel { qname_minimization: minimized, ..FeatureModel::default() };
            let mut resolver = internet.resolver_with_features(
                ResolverConfig::Bind(BindConfig::correct()),
                features,
                seed ^ 0x9,
            );
            for rank in 1..=n {
                let qname = internet.population.domain(rank);
                let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
            }
            let mut root_full = std::collections::BTreeSet::new();
            let mut tld_full = std::collections::BTreeSet::new();
            for p in internet.net.capture().packets() {
                if p.direction != lookaside_netsim::Direction::Query
                    || !matches!(p.qtype, RrType::A | RrType::Ns | RrType::Aaaa)
                    || p.qname.label_count() < 2
                {
                    continue;
                }
                if p.dst == crate::internet::ROOT_ADDR {
                    root_full.insert(p.qname.clone());
                } else if p.qname.label_count() >= 3
                    && internet
                        .net
                        .label_of(p.dst)
                        .is_some_and(|l| lookaside_workload::TLDS.iter().any(|t| t.label == l))
                {
                    tld_full.insert(p.qname.clone());
                }
            }
            let leakage = classify(internet.net.capture(), &internet.dlv_apex);
            ExposureRow {
                minimized,
                root_full_names: root_full.len(),
                tld_full_names: tld_full.len(),
                dlv_leaks: leakage.case2,
            }
        })
        .collect()
}

/// One point of the §7.1 deployment sweep: leakage as a function of how
/// many zones actually deposit DLV records.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentPoint {
    /// Per-mille of islands that deposited a record.
    pub deposited_given_island_milli: u16,
    /// Case-1 (useful) DLV answers.
    pub case1: usize,
    /// Case-2 leaks.
    pub case2: usize,
    /// Leak fraction of DLV queries.
    pub leak_fraction: f64,
}

/// §7.1 "Impact of DLV Increased Deployment": the paper argues the findings
/// become less significant as more domains are populated in the registry.
/// Sweeps the deposit density and measures the leak fraction on `exec`,
/// one shard per density.
pub fn deployment_sweep(
    exec: &Executor,
    n: usize,
    densities_milli: &[u16],
    seed: u64,
) -> Vec<DeploymentPoint> {
    let shards = ShardPlan::new(seed).over(densities_milli.iter().copied());
    collect(exec, &shards, |shard| {
        let density = shard.input;
        let mut config = RunConfig::for_top(n, RemedyMode::None);
        config.seed = seed;
        config.population.deposited_given_island_milli = density;
        let outcome = run(&config);
        DeploymentPoint {
            deposited_given_island_milli: density,
            case1: outcome.leakage.case1,
            case2: outcome.leakage.case2,
            leak_fraction: outcome.leakage.leak_fraction(),
        }
    })
}

/// Results of replaying a repeat-heavy query trace through the *real*
/// resolver — the cross-check for Fig. 12's analytic cache model.
#[derive(Debug, Clone, Serialize)]
pub struct TraceReplayRow {
    /// Remedy in force.
    pub remedy: String,
    /// Stub queries replayed.
    pub stub_queries: usize,
    /// Distinct domains among them.
    pub distinct_domains: usize,
    /// Upstream queries the resolver issued.
    pub upstream_queries: u64,
    /// Upstream queries per stub query (cache efficiency).
    pub upstream_per_query: f64,
    /// TXT probes issued (TxtSignal remedy only).
    pub txt_probes: u64,
}

/// Replays `draws` Zipf-distributed stub queries over the top-`support`
/// domains through the full resolver, with and without the TXT remedy.
/// Validates the cache assumptions behind [`fig12`]: upstream traffic and
/// TXT probes are driven by *distinct* domains, not query volume.
pub fn trace_replay(draws: usize, support: usize, seed: u64) -> Vec<TraceReplayRow> {
    [RemedyMode::None, RemedyMode::TxtSignal]
        .iter()
        .map(|&remedy| {
            let population =
                PopulationParams { size: support.max(1000), ..PopulationParams::default() };
            let mut params = InternetParams::for_top(support, population, remedy);
            params.seed = seed;
            params.capture = CaptureFilter::None;
            let mut internet = Internet::build(params);
            let mut resolver =
                internet.resolver(ResolverConfig::Bind(BindConfig::correct()), seed ^ 0x77);
            let zipf = Zipf::new(support, 0.9);
            let mut state = seed ^ 0x7ace;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut distinct = std::collections::BTreeSet::new();
            for _ in 0..draws {
                let rank = zipf.sample_hash(next());
                distinct.insert(rank);
                let qname = internet.population.domain(rank);
                let _ = resolver.resolve(&mut internet.net, &qname, RrType::A);
            }
            let stats = internet.net.stats();
            TraceReplayRow {
                remedy: remedy.label().to_string(),
                stub_queries: draws,
                distinct_domains: distinct.len(),
                upstream_queries: stats.total_queries(),
                upstream_per_query: stats.total_queries() as f64 / draws as f64,
                txt_probes: stats.queries_of(RrType::Txt),
            }
        })
        .collect()
}

/// Fig. 12 data: the DITL trace and the modelled TXT-signaling overhead.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Data {
    /// Queries per minute (Fig. 12a).
    pub per_minute: Vec<u64>,
    /// Cumulative queries (Fig. 12b).
    pub cumulative_queries: Vec<u64>,
    /// Cumulative baseline bytes at the recursive (Fig. 12c).
    pub cumulative_baseline_bytes: Vec<u64>,
    /// Cumulative TXT-signaling overhead bytes (Fig. 12c).
    pub cumulative_overhead_bytes: Vec<u64>,
    /// Mean added bandwidth, Mbit/s.
    pub overhead_mbps: f64,
}

/// Builds Fig. 12 from a generated DITL trace on `exec`.
///
/// Per-query byte costs are *measured* from two calibration runs of the
/// full simulator, one without a remedy and one with the TXT remedy; the
/// trace is then aggregated analytically (92.7M queries are not resolved
/// one by one — the paper's own Fig. 12 likewise replays aggregate
/// volumes). `scale` divides the trace volume for cheap test runs; use 1
/// for the full figure.
///
/// Parallel decomposition: the cache model resets its TTL window every 60
/// minutes, so the 420-minute trace is seven *independent* windows. Each
/// window is one shard with its own splitmix draw stream (seeded from the
/// shard seed), simulated in isolation; the sweep folds each window's
/// minute triples into the cumulative prefix sums as windows complete,
/// in shard order — the same totals at any worker count, holding one
/// window's triples at a time. The calibration runs precede the sweep,
/// one after the other.
pub fn fig12(exec: &Executor, seed: u64, scale: NonZeroU64) -> Fig12Data {
    let model = Fig12Model::calibrate(seed, scale);
    let acc = exec.sweep(&model.windows, |w| model.window(w), model.start(), Fig12Acc::push);
    model.finish(acc)
}

/// One minute of the Fig. 12 replay: queries, baseline bytes, and TXT
/// overhead bytes.
type Minute = (u64, u64, u64);

/// The calibrated cache model Fig. 12 replays, one window shard at a time.
struct Fig12Model {
    trace: DitlTrace,
    windows: Vec<Shard<Vec<u64>>>,
    /// The domain popularity every window draws from, built once. Its
    /// table is 16 MB at 2M ranks; one per window put a table on every
    /// busy worker and made peak memory swing with thread scheduling.
    zipf: Zipf,
    scale: NonZeroU64,
    cold_bytes_per_resolution: f64,
    txt_bytes_per_probe: f64,
}

impl Fig12Model {
    fn calibrate(seed: u64, scale: NonZeroU64) -> Self {
        let trace = DitlTrace::generate(seed);

        // Calibration: measure average upstream bytes per cold resolution
        // and per TXT probe from a small real run of each configuration.
        let calibration = |remedy| {
            let mut cfg = RunConfig::quick(60);
            cfg.remedy = remedy;
            run(&cfg)
        };
        let base = calibration(RemedyMode::None);
        let cold_bytes_per_resolution = base.stats.total_bytes() as f64 / base.queried as f64;
        let txt = calibration(RemedyMode::TxtSignal);
        let txt_probes = txt.stats.queries_of(RrType::Txt).max(1);
        let txt_bytes_per_probe = txt.stats.bytes_of(RrType::Txt) as f64 / txt_probes as f64;

        let windows: Vec<Vec<u64>> =
            trace.per_minute().chunks(60).map(|chunk| chunk.to_vec()).collect();
        let windows = ShardPlan::new(seed ^ 0xd17f).over(windows);
        let zipf = Zipf::new(2_000_000, 0.92);
        Fig12Model { trace, windows, zipf, scale, cold_bytes_per_resolution, txt_bytes_per_probe }
    }

    /// Cache model over one window: domains drawn Zipf over 2M; a cache
    /// miss pays the cold upstream cost and (with the remedy) one TXT
    /// probe. The exponent is calibrated so the full-scale (scale = 1)
    /// run lands near the paper's ≈1.2 GB / 0.38 Mbps signaling overhead;
    /// sampled runs (scale > 1) overstate the miss rate and are for
    /// smoke-testing only.
    fn window(&self, shard: &Shard<Vec<u64>>) -> Vec<Minute> {
        // Stub-side cost of answering one query (query + typical answer).
        let stub_bytes_per_query = 130.0;
        let scale = self.scale.get();
        let zipf = &self.zipf;
        let mut seen = vec![false; zipf.n() + 1];
        let mut rng_state = shard.seed;
        let mut next = || {
            rng_state = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut minutes = Vec::with_capacity(shard.input.len());
        for &volume in &shard.input {
            let sampled = volume / scale;
            let mut misses = 0u64;
            for _ in 0..sampled {
                let domain = zipf.sample_hash(next());
                #[expect(
                    clippy::indexing_slicing,
                    reason = "sample_hash returns a rank in 1..=n and `seen` has n + 1 slots"
                )]
                if !seen[domain] {
                    seen[domain] = true;
                    misses += 1;
                }
            }
            let scaled_misses = misses * scale;
            let base_bytes = (volume as f64 * stub_bytes_per_query) as u64
                + (scaled_misses as f64 * self.cold_bytes_per_resolution) as u64;
            let overhead_bytes = (scaled_misses as f64 * self.txt_bytes_per_probe) as u64;
            minutes.push((volume, base_bytes, overhead_bytes));
        }
        minutes
    }

    /// The empty prefix-sum accumulator for the window fold.
    fn start(&self) -> Fig12Acc {
        let minutes_total = self.trace.per_minute().len();
        Fig12Acc {
            cum_q: 0,
            cum_base: 0,
            cum_overhead: 0,
            queries: Vec::with_capacity(minutes_total),
            baseline: Vec::with_capacity(minutes_total),
            overhead: Vec::with_capacity(minutes_total),
        }
    }

    fn finish(self, acc: Fig12Acc) -> Fig12Data {
        let overhead_mbps = acc.cum_overhead as f64 * 8.0 / (420.0 * 60.0) / 1e6;
        Fig12Data {
            per_minute: self.trace.per_minute().to_vec(),
            cumulative_queries: acc.queries,
            cumulative_baseline_bytes: acc.baseline,
            cumulative_overhead_bytes: acc.overhead,
            overhead_mbps,
        }
    }
}

/// Prefix-sum accumulator for the Fig. 12 cumulative series — the fold
/// state threaded through the window shards.
struct Fig12Acc {
    cum_q: u64,
    cum_base: u64,
    cum_overhead: u64,
    queries: Vec<u64>,
    baseline: Vec<u64>,
    overhead: Vec<u64>,
}

impl Fig12Acc {
    /// Folds one window's minutes onto the cumulative series.
    fn push(mut self, minutes: Vec<Minute>) -> Self {
        for (volume, base_bytes, overhead_bytes) in minutes {
            self.cum_q += volume;
            self.cum_base += base_bytes;
            self.cum_overhead += overhead_bytes;
            self.queries.push(self.cum_q);
            self.baseline.push(self.cum_base);
            self.overhead.push(self.cum_overhead);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_leaks_and_accounts() {
        let outcome = run(&RunConfig::quick(40));
        assert_eq!(outcome.queried, 40);
        assert!(outcome.leakage.case2 > 0, "popular domains leak");
        assert!(outcome.stats.total_queries() > 40, "ambient traffic present");
        assert!(outcome.elapsed_ns > 0);
        assert_eq!(
            outcome.statuses.secure
                + outcome.statuses.insecure
                + outcome.statuses.bogus
                + outcome.statuses.indeterminate
                + outcome.statuses.errors,
            40
        );
        assert_eq!(outcome.statuses.errors, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&RunConfig::quick(25));
        let b = run(&RunConfig::quick(25));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.leakage, b.leakage);
    }

    #[test]
    fn table3_matches_paper_pattern() {
        let rows = table3(3);
        let flags: Vec<(String, bool)> =
            rows.iter().map(|r| (r.method.clone(), r.secured_leaked)).collect();
        assert_eq!(flags[0], ("apt-get".to_string(), false));
        assert!(flags[1].1, "apt-get† leaks secured domains");
        assert_eq!(flags[2], ("yum".to_string(), false));
        assert!(flags[3].1, "manual leaks secured domains");
        // Islands go to DLV even under correct configs (§5.2's 5 domains).
        assert!(rows[2].islands_to_dlv >= 1);
    }

    #[test]
    fn table4_counts_grow_with_n() {
        let rows = table4(&[30, 120], 5);
        assert!(rows[1].a > rows[0].a);
        assert!(rows[1].ds > rows[0].ds);
        assert!(rows[0].total() > 0);
    }

    #[test]
    fn table5_overheads_are_positive_and_modest() {
        let rows = table5(&[60], 7);
        let row = &rows[0];
        assert!(row.overhead_queries >= 60, "≈1 TXT probe per domain");
        assert!(row.query_ratio() > 0.05 && row.query_ratio() < 0.4, "{}", row.query_ratio());
        assert!(row.traffic_ratio() > 0.0 && row.traffic_ratio() < 0.3);
        assert!(row.time_ratio() > 0.0 && row.time_ratio() < 0.5);
    }

    #[test]
    fn fig8_9_proportion_decays() {
        let points = fig8_9(&Executor::default(), &[50, 400], 11);
        assert!(points[0].proportion > points[1].proportion, "{points:?}");
        assert!(points[1].dlv_queries > points[0].dlv_queries);
    }

    #[test]
    fn utility_is_mostly_leakage() {
        let report = utility(150, 13);
        assert!(report.leak_fraction() > 0.9, "leak fraction {}", report.leak_fraction());
        // Aggressive negative caching still suppresses repeats, so the wire
        // sees fewer queries than domains — but a large fraction gets out.
        assert!(report.dlv_queries >= 75, "got {}", report.dlv_queries);
    }

    #[test]
    fn fig11_remedies_eliminate_leaks() {
        let rows = fig11(80, 17);
        let by_label = |l: &str| rows.iter().find(|r| r.remedy == l).unwrap();
        assert!(by_label("DLV").leaks > 0);
        assert_eq!(by_label("TXT").leaks, 0);
        assert_eq!(by_label("Z-bit").leaks, 0);
        // TXT costs more queries than Z-bit, which is ≈ the baseline.
        assert!(by_label("TXT").queries > by_label("Z-bit").queries);
        // Hashed DLV still leaks *queries* but only digests.
        assert!(by_label("hashed-DLV").leaks > 0);
    }

    #[test]
    fn fig12_shapes_hold() {
        let data = fig12(&Executor::default(), 23, NonZeroU64::new(2000).unwrap());
        assert_eq!(data.per_minute.len(), lookaside_workload::DITL_MINUTES);
        assert_eq!(
            *data.cumulative_queries.last().unwrap(),
            lookaside_workload::DITL_TOTAL_QUERIES
        );
        let base = *data.cumulative_baseline_bytes.last().unwrap();
        let over = *data.cumulative_overhead_bytes.last().unwrap();
        assert!(over > 0);
        assert!(over < base / 5, "overhead {over} must be small vs baseline {base}");
        assert!(data.overhead_mbps > 0.01 && data.overhead_mbps < 10.0);
    }

    #[test]
    fn qmin_protects_upper_servers_but_not_dlv() {
        let rows = qmin_exposure(40, 37);
        let off = &rows[0];
        let on = &rows[1];
        assert!(!off.minimized && on.minimized);
        // The root is consulted once per uncached TLD, so its exposure is a
        // handful of names even without minimisation — but strictly more
        // than the zero qmin leaves it.
        assert!(off.root_full_names >= 3, "without qmin the root sees names ({off:?})");
        assert_eq!(on.root_full_names, 0, "qmin hides full names from the root");
        assert!(off.tld_full_names > 0, "without qmin TLDs see host names ({off:?})");
        assert_eq!(on.tld_full_names, 0, "qmin keeps sub-SLD names from TLDs");
        // DLV leakage is untouched: the look-aside query *is* the name.
        assert!(on.dlv_leaks > 0);
        assert_eq!(on.dlv_leaks, off.dlv_leaks);
    }

    #[test]
    fn deployment_sweep_improves_utility() {
        let points = deployment_sweep(&Executor::default(), 150, &[0, 300, 1000], 39);
        assert_eq!(points[0].case1, 0, "no deposits, no utility");
        assert!(points[2].case1 > points[1].case1);
        assert!(
            points[2].leak_fraction < points[0].leak_fraction,
            "more deployment, smaller leak share"
        );
    }

    #[test]
    fn unsigned_tlds_leak_even_their_secure_children() {
        let rows = tld_breakdown(600, 49);
        let signed_total: usize =
            rows.iter().filter(|r| r.tld_signed).map(|r| r.secure_children_leaked).sum();
        assert_eq!(signed_total, 0, "secure children under signed TLDs never leak");
        // No TLD is spared: every TLD with a meaningful sample shows leaks
        // (under unsigned TLDs, *no* child can be secure — the population
        // model never grants a DS through an unsigned parent, which is the
        // chain-break-at-the-TLD mechanism expressed structurally).
        for row in rows.iter().filter(|r| r.domains > 5) {
            assert!(row.leaked > 0, "tld {} leaked nothing: {row:?}", row.tld);
        }
        let com = rows.iter().find(|r| r.tld == "com").unwrap();
        assert!(com.domains > 200, "com dominates the sample");
    }

    #[test]
    fn trace_replay_scales_with_distinct_not_volume() {
        let rows = trace_replay(400, 80, 47);
        let base = &rows[0];
        let txt = &rows[1];
        assert!(base.distinct_domains < base.stub_queries, "zipf repeats domains");
        // Cache efficiency: far fewer upstream queries than a cold resolve
        // per stub query would cost (~8).
        assert!(base.upstream_per_query < 4.0, "upstream per query {}", base.upstream_per_query);
        // TXT probes track distinct zones (domains + their hosters + TLD
        // probes), not the 400 stub queries.
        assert!(txt.txt_probes >= base.distinct_domains as u64);
        assert!(
            txt.txt_probes < base.stub_queries as u64,
            "probes {} must stay below stub volume",
            txt.txt_probes
        );
    }

    #[test]
    fn leakage_is_vantage_independent() {
        let rows = vantage_sweep(&Executor::default(), 60, 43);
        assert_eq!(rows.len(), 3);
        // §7.1: identical findings across vantage points…
        assert!(rows.windows(2).all(|w| w[0].leaks == w[1].leaks));
        assert!(rows.windows(2).all(|w| w[0].distinct_leaked == w[1].distinct_leaked));
        // …even though the latency profiles genuinely differ.
        assert!(rows.windows(2).any(|w| (w[0].seconds - w[1].seconds).abs() > 0.01));
    }

    #[test]
    fn nsec3_registry_leaks_more_than_nsec() {
        let rows = nsec3_tradeoff(120, 29);
        let nsec = &rows[0];
        let nsec3 = &rows[1];
        assert!(nsec.suppressed > 0, "NSEC spans suppress lookups");
        assert_eq!(nsec3.suppressed, 0, "NSEC3 denials are not cacheable");
        assert!(
            nsec3.dlv_queries > nsec.dlv_queries,
            "NSEC3 must leak more ({} vs {})",
            nsec3.dlv_queries,
            nsec.dlv_queries
        );
    }

    #[test]
    fn order_matters_runs_all_seeds() {
        let results = order_matters(60, &[1, 2, 3], 19);
        assert_eq!(results.len(), 3);
        for (_, prop) in &results {
            assert!(*prop > 0.0 && *prop <= 1.0);
        }
    }
}
