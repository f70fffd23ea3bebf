//! The resolver farm: a million-stub client plane in front of a
//! configurable fleet of recursive caches, with topology-aware,
//! cache-hit-aware, per-client leak accounting.
//!
//! The paper measures what the DLV registry sees from *one* resolver
//! replaying a ranked list. Real DLV exposure was an aggregation
//! phenomenon: millions of stubs funnel through shared recursive caches,
//! and every cache hit is a query the registry never sees. This module
//! closes that gap analytically. A [`StubPlane`] emits per-client query
//! events (Zipf interest, session churn, TTL-driven re-query); the farm
//! model reduces them against two cache layers:
//!
//! * the **answer cache** of the resolver the client is routed to —
//!   distinct `(cache, domain, answer-TTL bucket)` keys are the upstream
//!   misses,
//! * the registry-facing **NSEC-span cache** — for every domain whose
//!   chain of trust is not secure (unsigned, or an island without a DS),
//!   a DLV-configured resolver asks the registry once per
//!   `(cache, domain, span-TTL bucket)`. With the registry's week-long
//!   span TTL that is *once per cache per domain*: aggregation is the
//!   privacy remedy nobody designed.
//!
//! Both reductions are order-free: a key either exists or it doesn't,
//! and the client *attributed* with a leak is the minimum `(time,
//! client)` pair that touched the key — an associative, commutative
//! reduction. That is why the farm shards by **client cohort**, a
//! contiguous range of client ids, instead of rank ranges: any partition
//! of clients, processed by any number of workers, merges to the same
//! bytes. Client attributes are hash-derived, so contiguous ranges carry
//! equal expected load. The determinism suite pins down both
//! worker-count and cohort-count invariance.
//!
//! The tallies are dense, one rank-indexed row per cache and TTL bucket:
//! a bitset of misses, and one earliest-toucher slot per span key. A
//! cohort shard returns the keys it touched, and the fold ORs and
//! min-merges them in.
//!
//! Four topologies re-score the paper's threat model (§PAPERS.md):
//!
//! * [`FarmTopology::PerResolver`] — anycast-style client→resolver
//!   assignment, one answer/span cache per resolver,
//! * [`FarmTopology::SharedCache`] — the farm fronts one shared/tiered
//!   cache: maximum aggregation, minimum registry exposure,
//! * [`FarmTopology::Odoh`] — an ODoH-style proxy/target split: the
//!   caches (and the registry's view) behave exactly like per-resolver,
//!   but no single party sees both client identity and qname, so no
//!   case-2 query is *linkable* to a client,
//! * [`FarmTopology::ResolverLess`] — Resolver-Less DNS: records arrive
//!   with the content, no recursive exists, the registry sees nothing —
//!   and every query exposes the client directly to the content server
//!   instead.

use std::ops::Range;

use lookaside_engine::{Executor, ShardPlan};
use lookaside_population::{PlaneParams, QueryEvent, StubPlane};
use lookaside_server::DLV_SPAN_TTL;
use lookaside_workload::{DitlTrace, DomainPopulation, PopulationParams, Zipf, DITL_MINUTES};
use serde::Serialize;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const SALT_ANYCAST: u64 = 0x616e_7963;
const SALT_DLV_CONF: u64 = 0x646c_7663;
const SALT_DITL_CLIENT: u64 = 0x6463_6c69;
const SALT_DITL_RANK: u64 = 0x6472_616e;

/// How the farm's caches and trust boundaries are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FarmTopology {
    /// Anycast assignment, one cache per resolver instance.
    PerResolver,
    /// All instances front one shared/tiered cache.
    SharedCache,
    /// ODoH-style proxy/target split: per-target caches, but the proxy
    /// sees identity without qname and the target sees qname without
    /// identity — leaks stop being linkable.
    Odoh,
    /// Resolver-Less DNS: no recursive at all; records ride along with
    /// content, so the registry sees nothing and the content server sees
    /// everything.
    ResolverLess,
}

impl FarmTopology {
    /// All topologies, in report order.
    pub const ALL: [FarmTopology; 4] = [
        FarmTopology::PerResolver,
        FarmTopology::SharedCache,
        FarmTopology::Odoh,
        FarmTopology::ResolverLess,
    ];

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            FarmTopology::PerResolver => "per-resolver",
            FarmTopology::SharedCache => "shared-cache",
            FarmTopology::Odoh => "odoh",
            FarmTopology::ResolverLess => "resolver-less",
        }
    }
}

/// Parameters of a farm experiment.
#[derive(Debug, Clone, Serialize)]
pub struct FarmConfig {
    /// The stub-client plane.
    pub plane: PlaneParams,
    /// The ranked domain population behind the queries (must cover the
    /// plane's `domain_support`).
    pub population: PopulationParams,
    /// Number of resolver instances in the farm.
    pub resolvers: usize,
    /// Number of client cohorts the plane shards into. Results are
    /// invariant under this knob (and under `--jobs`); it only bounds
    /// per-shard memory.
    pub cohorts: usize,
    /// Seed of farm-level rolls (anycast routing, per-resolver DLV
    /// configuration) and of the cohort plan.
    pub seed: u64,
    /// Answer-cache TTL, seconds.
    pub answer_ttl_secs: u32,
    /// Registry NSEC-span TTL, seconds (the aggressive-negative-caching
    /// suppressor).
    pub dlv_span_ttl_secs: u32,
    /// Per-mille of resolver instances configured with DLV (the paper's
    /// §5.2 survey: not every operator turned it on).
    pub dlv_enabled_milli: u16,
}

impl FarmConfig {
    /// The flagship configuration: one million stubs over an
    /// eight-resolver farm.
    pub fn paper_scale() -> Self {
        FarmConfig {
            plane: PlaneParams::default(),
            population: PopulationParams { size: 50_000, ..PopulationParams::default() },
            resolvers: 8,
            cohorts: 64,
            seed: 0xfa12,
            answer_ttl_secs: 300,
            dlv_span_ttl_secs: DLV_SPAN_TTL,
            dlv_enabled_milli: 1000,
        }
    }

    /// A small configuration for tests: `clients` stubs over 2 000
    /// domains and 8 cohorts.
    pub fn quick(clients: usize) -> Self {
        FarmConfig {
            plane: PlaneParams { clients, domain_support: 2_000, ..PlaneParams::default() },
            population: PopulationParams { size: 2_000, ..PopulationParams::default() },
            resolvers: 8,
            cohorts: 8,
            seed: 0xfa12,
            answer_ttl_secs: 300,
            dlv_span_ttl_secs: DLV_SPAN_TTL,
            dlv_enabled_milli: 1000,
        }
    }
}

/// What the registry (and everyone else) sees under one topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TopologyReport {
    /// The topology measured.
    pub topology: FarmTopology,
    /// Resolver instances in the farm for this row.
    pub resolvers: usize,
    /// Clients that issued at least one query.
    pub active_clients: u64,
    /// Stub queries that left a client (after its own cache).
    pub stub_queries: u64,
    /// Answer-cache misses — queries that went upstream at all.
    pub upstream_misses: u64,
    /// Queries the DLV registry received.
    pub dlv_queries: u64,
    /// Case 1: the registry answered from a deposit (validation utility).
    pub case1: u64,
    /// Case 2: NXDOMAIN/empty — pure privacy leak.
    pub case2: u64,
    /// Case-2 queries some single party can link to a client identity.
    pub linkable_case2: u64,
    /// Clients with at least one linkable case-2 leak attributed to them.
    pub leaked_clients: u64,
    /// The worst-off client's linkable case-2 count.
    pub max_client_case2: u64,
    /// Queries exposing client identity directly to content servers
    /// (Resolver-Less: all of them; resolver topologies hide the client
    /// behind the farm).
    pub content_exposed: u64,
}

impl TopologyReport {
    /// Mean linkable case-2 leaks per active client.
    pub fn leaks_per_client(&self) -> f64 {
        if self.active_clients == 0 {
            return 0.0;
        }
        self.linkable_case2 as f64 / self.active_clients as f64
    }

    /// Share of active clients with at least one linkable leak.
    pub fn leaked_share(&self) -> f64 {
        if self.active_clients == 0 {
            return 0.0;
        }
        self.leaked_clients as f64 / self.active_clients as f64
    }
}

/// Leak classification of one domain rank, precomputed so event
/// processing never touches name parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeakClass {
    /// Full chain of trust: the resolver never consults the registry.
    Secure,
    /// Not chained, deposit present: registry answers usefully.
    Case1,
    /// Not chained, no deposit: the registry learns the name for nothing.
    Case2,
}

/// The keys one cohort (or trace window) touched, duplicates allowed;
/// each span key comes with its toucher's `time << 32 | client`.
#[derive(Default)]
struct Keys {
    stub_queries: u64,
    clients: Vec<u64>,
    misses: Vec<usize>,
    dlv: Vec<(usize, u64)>,
}

/// Bitsets of querying clients and answer-cache keys, and per span key the
/// earliest `time << 32 | client` (`u64::MAX`: none), which orders by
/// `(time, client)` because client ids stay below 2³² (see [`Farm::new`]).
struct Tally {
    stub_queries: u64,
    clients: Vec<u64>,
    misses: Vec<u64>,
    dlv: Vec<u64>,
}

impl Tally {
    #[expect(
        clippy::indexing_slicing,
        reason = "client ids are below the plane's size, keys below the lengths `Farm::tally` sets"
    )]
    fn absorb(mut self, keys: Keys) -> Self {
        self.stub_queries += keys.stub_queries;
        for client in keys.clients {
            self.clients[client as usize / 64] |= 1 << (client % 64);
        }
        for key in keys.misses {
            self.misses[key / 64] |= 1 << (key % 64);
        }
        for (key, toucher) in keys.dlv {
            self.dlv[key] = self.dlv[key].min(toucher);
        }
        self
    }
}

/// The farm: a built client plane plus the domain population's leak
/// classification, reusable across topologies and farm sizes.
pub struct Farm {
    config: FarmConfig,
    plane: StubPlane,
    classes: Vec<LeakClass>,
}

impl Farm {
    /// Builds the farm model.
    ///
    /// # Panics
    ///
    /// Panics if the domain population does not cover the plane's
    /// support, if `resolvers`/`cohorts` is zero, or if client ids do not
    /// fit in 32 bits.
    pub fn new(config: FarmConfig) -> Self {
        assert!(config.resolvers > 0, "a farm needs at least one resolver");
        assert!(config.cohorts > 0, "a farm needs at least one cohort");
        assert!(config.plane.clients as u64 <= 1 << 32, "client ids must fit in 32 bits");
        assert!(
            config.population.size >= config.plane.domain_support,
            "population must cover the plane's domain support"
        );
        let plane = StubPlane::new(config.plane);
        let population = DomainPopulation::new(config.population);
        // Rank classification: chain-secure domains never reach the
        // registry; islands and unsigned domains do, and only deposits
        // make the trip useful. `ds_in_parent` already folds in whether
        // the TLD itself is signed.
        let classes = std::iter::once(LeakClass::Secure) // rank 0 unused
            .chain((1..=config.plane.domain_support).map(|rank| {
                let attrs = population.attributes(rank);
                if attrs.signed && attrs.ds_in_parent {
                    LeakClass::Secure
                } else if attrs.deposited {
                    LeakClass::Case1
                } else {
                    LeakClass::Case2
                }
            }))
            .collect();
        Farm { config, plane, classes }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// The resolver cache `client` is routed to in a farm of `resolvers`;
    /// none under Resolver-Less DNS, which has no recursive.
    fn route(&self, topology: FarmTopology, client: u64, resolvers: usize) -> Option<usize> {
        match topology {
            FarmTopology::SharedCache => Some(0),
            // ODoH targets are picked by the proxy the same way anycast
            // picks a resolver: hash routing. Same caches, same registry
            // view — only linkability differs.
            FarmTopology::PerResolver | FarmTopology::Odoh => {
                Some((mix(self.config.seed ^ SALT_ANYCAST, client) % resolvers as u64) as usize)
            }
            FarmTopology::ResolverLess => None,
        }
    }

    /// Whether resolver instance `cache` is DLV-configured.
    fn dlv_configured(&self, cache: usize) -> bool {
        mix(self.config.seed ^ SALT_DLV_CONF, cache as u64) % 1000
            < u64::from(self.config.dlv_enabled_milli)
    }

    /// The key of `rank` at `time` in `cache`'s layer of `ttl`-second buckets
    /// before `horizon`: one row of `domain_support + 1` ranks (rank 0 unused)
    /// per cache and bucket, so the key is `(cache · buckets + bucket) · width + rank`.
    fn key(&self, horizon: u32, ttl: u32, cache: usize, time: u32, rank: u32) -> usize {
        let ttl = ttl.max(1);
        let buckets = horizon.div_ceil(ttl) as usize;
        (cache * buckets + (time / ttl) as usize) * self.classes.len() + rank as usize
    }

    /// Records the keys query `q` from `client` through `cache` touches.
    fn feed(
        &self,
        keys: &mut Keys,
        horizon: u32,
        cache: Option<usize>,
        client: u64,
        q: QueryEvent,
    ) {
        keys.stub_queries += 1;
        // No recursive: nothing is cached farm-side, nothing reaches the
        // registry; the content server sees the client directly.
        let Some(cache) = cache else { return };
        let key = |ttl| self.key(horizon, ttl, cache, q.time_secs, q.rank);
        keys.misses.push(key(self.config.answer_ttl_secs));
        #[expect(
            clippy::indexing_slicing,
            reason = "ranks are Zipf samples in 1..=domain_support, the span `classes` covers"
        )]
        if self.classes[q.rank as usize] == LeakClass::Secure || !self.dlv_configured(cache) {
            return;
        }
        keys.dlv.push((key(self.config.dlv_span_ttl_secs), u64::from(q.time_secs) << 32 | client));
    }

    /// An empty tally of `caches` caches over events before `horizon`.
    fn tally(&self, caches: usize, horizon: u32) -> Tally {
        // Cache `caches`' first key is one past the last real key.
        let len = |ttl| self.key(horizon, ttl, caches, 0, 0);
        Tally {
            stub_queries: 0,
            clients: vec![0; self.config.plane.clients.div_ceil(64)],
            misses: vec![0; len(self.config.answer_ttl_secs).div_ceil(64)],
            dlv: vec![u64::MAX; len(self.config.dlv_span_ttl_secs)],
        }
    }

    /// Splits `0..units` into at most `cohorts` contiguous ranges, one shard
    /// each on `exec`, and absorbs their keys into `tally`: a set union plus a
    /// min-merge, so any partition and any worker count give the same bytes.
    fn merged<F>(&self, tally: Tally, units: usize, exec: &Executor, work: F) -> Tally
    where
        F: Fn(Range<usize>) -> Keys + Sync,
    {
        let cohorts = self.config.cohorts.min(units);
        let ranges = (0..cohorts).map(|k| k * units / cohorts..(k + 1) * units / cohorts);
        let plan = ShardPlan::new(self.config.seed).over(ranges);
        exec.sweep(&plan, |shard| work(shard.input.clone()), tally, Tally::absorb)
    }

    /// Runs one topology at `resolvers` instances on `exec`, one shard
    /// per cohort of contiguous client ids. Output is a pure function of
    /// `(config, topology, resolvers)` — invariant under worker count
    /// *and* cohort count, because the reduction is a set union plus a
    /// min-merge.
    pub fn run(&self, topology: FarmTopology, resolvers: usize, exec: &Executor) -> TopologyReport {
        let horizon = self.plane.horizon_secs();
        let tally = self.tally(resolvers, horizon);
        let merged = self.merged(tally, self.config.plane.clients, exec, |members| {
            let mut keys = Keys::default();
            for client in members.map(|c| c as u64).filter(|&c| self.plane.is_active(c)) {
                keys.clients.push(client);
                let cache = self.route(topology, client, resolvers);
                for event in self.plane.events(client) {
                    self.feed(&mut keys, horizon, cache, client, event);
                }
            }
            keys
        });
        self.reduce(topology, resolvers, merged)
    }

    /// All four topologies at the configured farm size.
    pub fn sweep(&self, exec: &Executor) -> Vec<TopologyReport> {
        FarmTopology::ALL
            .iter()
            .map(|&topology| self.run(topology, self.config.resolvers, exec))
            .collect()
    }

    /// The aggregation curve: per-resolver caches at each farm size —
    /// how per-client leak rates grow as the client base fragments across
    /// more caches (and collapse as it concentrates).
    pub fn scaling(&self, sizes: &[usize], exec: &Executor) -> Vec<TopologyReport> {
        sizes.iter().map(|&n| self.run(FarmTopology::PerResolver, n.max(1), exec)).collect()
    }

    /// Replays the Fig. 12 DITL-scale trace through the farm instead of a
    /// single resolver, sampling one in `scale` queries. The trace is
    /// partitioned into per-cohort minute windows; because the reduction
    /// is partition-free, the window decomposition cannot perturb output.
    pub fn ditl(&self, scale: u64, exec: &Executor) -> Vec<TopologyReport> {
        let trace = DitlTrace::generate(self.config.seed);
        let zipf = Zipf::new(self.config.plane.domain_support, self.config.plane.zipf_s);
        let resolvers = self.config.resolvers;
        let horizon = DITL_MINUTES as u32 * 60;
        FarmTopology::ALL
            .iter()
            .map(|&topology| {
                let tally = self.tally(resolvers, horizon);
                let merged = self.merged(tally, DITL_MINUTES, exec, |minutes| {
                    let mut keys = Keys::default();
                    let volumes = trace.per_minute().get(minutes.clone()).unwrap_or_default();
                    for (minute, volume) in minutes.zip(volumes) {
                        for q in 0..volume / scale.max(1) {
                            let key = ((minute as u64) << 32) | q;
                            let client = mix(self.config.seed ^ SALT_DITL_CLIENT, key)
                                % self.config.plane.clients as u64;
                            let rank = zipf.sample_hash(mix(self.config.seed ^ SALT_DITL_RANK, key))
                                as u32;
                            let time_secs = minute as u32 * 60 + (q % 60) as u32;
                            let cache = self.route(topology, client, resolvers);
                            keys.clients.push(client);
                            let event = QueryEvent { time_secs, rank };
                            self.feed(&mut keys, horizon, cache, client, event);
                        }
                    }
                    keys
                });
                self.reduce(topology, resolvers, merged)
            })
            .collect()
    }

    /// Classifies the registry's view of the merged tally.
    fn reduce(&self, topology: FarmTopology, resolvers: usize, merged: Tally) -> TopologyReport {
        let popcount = |bits: &[u64]| bits.iter().map(|word| u64::from(word.count_ones())).sum();
        let mut case1 = 0;
        // The attributed client of every case-2 key.
        let mut case2_clients = Vec::new();
        for row in merged.dlv.chunks(self.classes.len()) {
            for (&slot, class) in row.iter().zip(&self.classes).filter(|p| *p.0 != u64::MAX) {
                #[expect(
                    clippy::unreachable,
                    reason = "`feed` keys only ranks it looked up in `classes` and found not Secure"
                )]
                match class {
                    LeakClass::Secure => unreachable!("secure ranks never enter the DLV tally"),
                    LeakClass::Case1 => case1 += 1,
                    LeakClass::Case2 => case2_clients.push(slot as u32),
                }
            }
        }
        let case2 = case2_clients.len() as u64;
        // Sorted, each client's run of equal ids is its case-2 count.
        case2_clients.sort_unstable();
        let runs = case2_clients.chunk_by(|a, b| a == b).map(|run| run.len() as u64);
        // Linkability: per-resolver and shared farms see identity+qname at
        // the resolver, so every case-2 query is attributable. Under the
        // ODoH split no single party holds both halves.
        let linked = |n: u64| if topology == FarmTopology::Odoh { 0 } else { n };
        let resolver_less = topology == FarmTopology::ResolverLess;
        TopologyReport {
            topology,
            resolvers,
            active_clients: popcount(&merged.clients),
            stub_queries: merged.stub_queries,
            upstream_misses: popcount(&merged.misses),
            dlv_queries: case1 + case2,
            case1,
            case2,
            linkable_case2: linked(case2),
            leaked_clients: linked(runs.clone().count() as u64),
            max_client_case2: linked(runs.max().unwrap_or(0)),
            content_exposed: if resolver_less { merged.stub_queries } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn farm(clients: usize) -> Farm {
        Farm::new(FarmConfig::quick(clients))
    }

    /// The naive reference for the dense tallies: every stub query
    /// replayed on one thread into a `BTreeSet` of `(cache, rank, answer
    /// bucket)` misses and a `BTreeMap` from `(cache, rank, span bucket)`
    /// to its earliest `(time, client)`, then classified key by key.
    #[derive(Default)]
    struct TreeTally {
        clients: BTreeSet<u64>,
        stub_queries: u64,
        misses: BTreeSet<(usize, u32, u32)>,
        dlv: BTreeMap<(usize, u32, u32), (u32, u64)>,
    }

    impl TreeTally {
        fn feed(&mut self, farm: &Farm, cache: Option<usize>, client: u64, time: u32, rank: u32) {
            self.clients.insert(client);
            self.stub_queries += 1;
            let Some(cache) = cache else { return };
            self.misses.insert((cache, rank, time / farm.config.answer_ttl_secs.max(1)));
            if farm.classes[rank as usize] == LeakClass::Secure || !farm.dlv_configured(cache) {
                return;
            }
            let slot = self
                .dlv
                .entry((cache, rank, time / farm.config.dlv_span_ttl_secs.max(1)))
                .or_insert((u32::MAX, u64::MAX));
            *slot = (*slot).min((time, client));
        }

        fn report(&self, farm: &Farm, topology: FarmTopology, resolvers: usize) -> TopologyReport {
            let (mut case1, mut case2) = (0, 0);
            let mut per_client: BTreeMap<u64, u64> = BTreeMap::new();
            for (&(_, rank, _), &(_, client)) in &self.dlv {
                match farm.classes[rank as usize] {
                    LeakClass::Secure => unreachable!("secure ranks never reach the registry"),
                    LeakClass::Case1 => case1 += 1,
                    LeakClass::Case2 => {
                        case2 += 1;
                        *per_client.entry(client).or_insert(0) += 1;
                    }
                }
            }
            let linkable = topology != FarmTopology::Odoh;
            let resolver_less = topology == FarmTopology::ResolverLess;
            TopologyReport {
                topology,
                resolvers,
                active_clients: self.clients.len() as u64,
                stub_queries: self.stub_queries,
                upstream_misses: self.misses.len() as u64,
                dlv_queries: case1 + case2,
                case1,
                case2,
                linkable_case2: if linkable { case2 } else { 0 },
                leaked_clients: if linkable { per_client.len() as u64 } else { 0 },
                max_client_case2: if linkable {
                    per_client.values().copied().max().unwrap_or(0)
                } else {
                    0
                },
                content_exposed: if resolver_less { self.stub_queries } else { 0 },
            }
        }
    }

    fn reference_run(farm: &Farm, topology: FarmTopology, resolvers: usize) -> TopologyReport {
        let mut tree = TreeTally::default();
        for client in 0..farm.config.plane.clients as u64 {
            let cache = farm.route(topology, client, resolvers);
            for event in farm.plane.events(client) {
                tree.feed(farm, cache, client, event.time_secs, event.rank);
            }
        }
        tree.report(farm, topology, resolvers)
    }

    fn reference_ditl(farm: &Farm, scale: u64) -> Vec<TopologyReport> {
        let config = &farm.config;
        let trace = DitlTrace::generate(config.seed);
        let zipf = Zipf::new(config.plane.domain_support, config.plane.zipf_s);
        let mut trees: Vec<TreeTally> =
            FarmTopology::ALL.iter().map(|_| TreeTally::default()).collect();
        for (minute, &volume) in trace.per_minute().iter().enumerate() {
            for q in 0..volume / scale {
                let key = ((minute as u64) << 32) | q;
                let client = mix(config.seed ^ SALT_DITL_CLIENT, key) % config.plane.clients as u64;
                let rank = zipf.sample_hash(mix(config.seed ^ SALT_DITL_RANK, key)) as u32;
                let time = minute as u32 * 60 + (q % 60) as u32;
                for (tree, &topology) in trees.iter_mut().zip(&FarmTopology::ALL) {
                    let cache = farm.route(topology, client, config.resolvers);
                    tree.feed(farm, cache, client, time, rank);
                }
            }
        }
        trees
            .iter()
            .zip(FarmTopology::ALL)
            .map(|(tree, topology)| tree.report(farm, topology, config.resolvers))
            .collect()
    }

    #[test]
    fn dense_tallies_match_the_tree_reference() {
        const DITL_SCALE: u64 = 20_000;
        // The last farm turns DLV on at about half its resolvers.
        for (seed, dlv_enabled_milli) in [(0xfa12, 1000), (7, 1000), (0xbeef, 500)] {
            let mut config = FarmConfig::quick(1_500);
            config.seed = seed;
            config.plane.seed = seed ^ 0x9d;
            config.dlv_enabled_milli = dlv_enabled_milli;
            let reference = Farm::new(config.clone());
            let sweep: Vec<_> =
                FarmTopology::ALL.iter().map(|&t| reference_run(&reference, t, 8)).collect();
            let scaling: Vec<_> = [1, 3, 8]
                .iter()
                .map(|&n| reference_run(&reference, FarmTopology::PerResolver, n))
                .collect();
            let ditl = reference_ditl(&reference, DITL_SCALE);
            assert!(sweep[0].case1 > 0 && sweep[0].leaked_clients > 0 && ditl[0].case2 > 0);
            for cohorts in [1, 3, 8] {
                config.cohorts = cohorts;
                let farm = Farm::new(config.clone());
                for jobs in [1, 3] {
                    let exec = Executor::new(jobs);
                    let at = format!("seed {seed}, {cohorts} cohorts, {jobs} workers");
                    assert_eq!(farm.sweep(&exec), sweep, "sweep at {at}");
                    assert_eq!(farm.scaling(&[1, 3, 8], &exec), scaling, "scaling at {at}");
                    assert_eq!(farm.ditl(DITL_SCALE, &exec), ditl, "ditl at {at}");
                }
            }
        }
    }

    #[test]
    fn shared_cache_aggregation_collapses_leaks() {
        let farm = farm(4_000);
        let exec = Executor::serial();
        let per = farm.run(FarmTopology::PerResolver, 8, &exec);
        let shared = farm.run(FarmTopology::SharedCache, 8, &exec);
        // Every (rank, bucket) the shared cache leaks is leaked by at
        // least one per-resolver cache too, so aggregation can only
        // reduce the registry's view.
        assert!(shared.case2 <= per.case2, "shared {} vs per {}", shared.case2, per.case2);
        assert!(shared.case2 > 0, "a DLV-configured farm leaks");
        assert!(shared.upstream_misses <= per.upstream_misses);
    }

    #[test]
    fn odoh_matches_per_resolver_caches_but_unlinks_clients() {
        let farm = farm(3_000);
        let exec = Executor::serial();
        let per = farm.run(FarmTopology::PerResolver, 8, &exec);
        let odoh = farm.run(FarmTopology::Odoh, 8, &exec);
        assert_eq!(odoh.dlv_queries, per.dlv_queries);
        assert_eq!(odoh.case2, per.case2);
        assert_eq!(odoh.linkable_case2, 0);
        assert_eq!(odoh.leaked_clients, 0);
        assert!(per.linkable_case2 > 0 && per.leaked_clients > 0);
    }

    #[test]
    fn resolver_less_trades_registry_for_content_exposure() {
        let farm = farm(2_000);
        let report = farm.run(FarmTopology::ResolverLess, 8, &Executor::serial());
        assert_eq!(report.dlv_queries, 0);
        assert_eq!(report.upstream_misses, 0);
        assert_eq!(report.content_exposed, report.stub_queries);
        assert!(report.stub_queries > 0);
    }

    #[test]
    fn fragmentation_grows_per_client_leak_rates() {
        let farm = farm(4_000);
        let exec = Executor::serial();
        let curve = farm.scaling(&[1, 8], &exec);
        assert!(curve[0].case2 <= curve[1].case2, "one cache aggregates at least as well");
        assert!(curve[0].leaks_per_client() <= curve[1].leaks_per_client());
    }

    #[test]
    fn output_is_invariant_under_workers_and_cohorts() {
        let mut config = FarmConfig::quick(2_000);
        let serial = Farm::new(config.clone()).sweep(&Executor::serial());
        let parallel = Farm::new(config.clone()).sweep(&Executor::new(4));
        assert_eq!(serial, parallel);
        config.cohorts = 3;
        let recohorted = Farm::new(config).sweep(&Executor::new(2));
        assert_eq!(serial, recohorted);
    }

    #[test]
    fn ditl_replay_is_deterministic_and_scaled() {
        let farm = farm(2_000);
        let a = farm.ditl(200_000, &Executor::serial());
        let b = farm.ditl(200_000, &Executor::new(3));
        assert_eq!(a, b);
        let per = &a[0];
        assert_eq!(per.topology, FarmTopology::PerResolver);
        assert!(per.stub_queries > 0);
        assert!(per.dlv_queries > 0);
    }

    #[test]
    fn case_split_accounts_every_registry_query() {
        let farm = farm(3_000);
        let report = farm.run(FarmTopology::PerResolver, 8, &Executor::serial());
        assert_eq!(report.dlv_queries, report.case1 + report.case2);
        assert!(report.case1 > 0, "deposited islands produce case-1 traffic");
        assert!(report.upstream_misses <= report.stub_queries);
        assert!(report.dlv_queries <= report.upstream_misses);
    }
}
