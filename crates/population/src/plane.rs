//! Pure-function stub clients: profiles, sessions, and query events.

use lookaside_workload::Zipf;
use serde::{Deserialize, Serialize};

/// splitmix64-style mixing, identical in spirit to the population model's
/// attribute derivation: every client attribute is `mix(seed ^ salt, key)`
/// so the plane carries no state at all.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const SALT_ACTIVE: u64 = 0x6163_7469;
const SALT_START: u64 = 0x7374_6172;
const SALT_PACE: u64 = 0x7061_6365;
const SALT_COUNT: u64 = 0x636f_756e;
const SALT_FAVSET: u64 = 0x6661_7673;
const SALT_FAVROLL: u64 = 0x6661_7672;
const SALT_FAVPICK: u64 = 0x6661_7670;
const SALT_FRESH: u64 = 0x6672_6573;

/// A client's pace is `PACE_MIN_SECS` plus less than `PACE_SPREAD_SECS`.
const PACE_MIN_SECS: u32 = 15;
const PACE_SPREAD_SECS: u32 = 120;

/// Parameters of a stub-client plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaneParams {
    /// Number of stub clients (client ids are `0..clients`).
    pub clients: usize,
    /// Master seed; every per-client attribute derives from it.
    pub seed: u64,
    /// Clients draw domains from ranks `1..=domain_support`.
    pub domain_support: usize,
    /// Zipf exponent of domain interest (global popularity skew).
    pub zipf_s: f64,
    /// Size of each client's personal favourite pool.
    pub favourites: usize,
    /// Per-mille of queries that go to a favourite rather than a fresh
    /// Zipf draw — the "everyone has their own bubble" skew.
    pub favourite_milli: u16,
    /// Mean queries an active client issues in the window; actual counts
    /// are uniform in `1..=2·mean`.
    pub mean_queries: u32,
    /// Observation window in seconds; session starts spread across it.
    pub window_secs: u32,
    /// Per-mille of clients with an active session in the window (churn:
    /// the rest are silent).
    pub active_milli: u16,
    /// The stub's own cache TTL: re-queries of the same domain within
    /// this span are answered locally and never reach a resolver.
    pub stub_ttl_secs: u32,
}

impl Default for PlaneParams {
    fn default() -> Self {
        PlaneParams {
            clients: 1_000_000,
            seed: 0xfa3,
            domain_support: 50_000,
            zipf_s: 0.9,
            favourites: 6,
            favourite_milli: 650,
            mean_queries: 6,
            window_secs: 3600,
            active_milli: 700,
            stub_ttl_secs: 300,
        }
    }
}

/// One stub query: the client asked for domain `rank` at `time_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueryEvent {
    /// Seconds since the window opened.
    pub time_secs: u32,
    /// 1-based domain popularity rank queried.
    pub rank: u32,
}

/// A plane of synthetic stub clients (see crate docs).
///
/// # Example
///
/// ```
/// use lookaside_population::{PlaneParams, StubPlane};
///
/// let plane = StubPlane::new(PlaneParams { clients: 1000, ..Default::default() });
/// let events = plane.events(42);
/// // Event streams are deterministic and time-ascending.
/// assert_eq!(events, StubPlane::new(*plane.params()).events(42));
/// assert!(events.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
/// ```
#[derive(Debug, Clone)]
pub struct StubPlane {
    params: PlaneParams,
    zipf: Zipf,
}

impl StubPlane {
    /// Builds the plane. Cheap: nothing per-client is materialised.
    ///
    /// # Panics
    ///
    /// Panics if `clients`, `domain_support`, or `favourites` is zero.
    pub fn new(params: PlaneParams) -> Self {
        assert!(params.clients > 0, "empty client plane");
        assert!(params.favourites > 0, "favourite pool must be non-empty");
        let zipf = Zipf::new(params.domain_support, params.zipf_s);
        StubPlane { params, zipf }
    }

    /// The parameters in force.
    pub fn params(&self) -> &PlaneParams {
        &self.params
    }

    /// Whether `client` has an active session in the window (churn roll).
    pub fn is_active(&self, client: u64) -> bool {
        mix(self.params.seed ^ SALT_ACTIVE, client) % 1000 < u64::from(self.params.active_milli)
    }

    /// When `client`'s session starts, seconds into the window.
    pub fn session_start(&self, client: u64) -> u32 {
        (mix(self.params.seed ^ SALT_START, client) % u64::from(self.params.window_secs.max(1)))
            as u32
    }

    /// Seconds between `client`'s successive queries (their browsing pace).
    pub fn pace_secs(&self, client: u64) -> u32 {
        PACE_MIN_SECS
            + (mix(self.params.seed ^ SALT_PACE, client) % u64::from(PACE_SPREAD_SECS)) as u32
    }

    /// An exclusive bound on every event's `time_secs`: the latest session
    /// start plus `2·mean_queries` steps at the slowest pace.
    pub fn horizon_secs(&self) -> u32 {
        self.params.window_secs.max(1)
            + 2 * self.params.mean_queries * (PACE_MIN_SECS + PACE_SPREAD_SECS)
    }

    /// How many queries `client` issues when active: uniform in
    /// `1..=2·mean_queries`.
    pub fn query_count(&self, client: u64) -> u32 {
        1 + (mix(self.params.seed ^ SALT_COUNT, client) % u64::from(2 * self.params.mean_queries))
            as u32
    }

    /// The `slot`-th favourite domain rank of `client` — a personal Zipf
    /// draw, so favourite pools are popularity-skewed but differ per
    /// client.
    pub fn favourite(&self, client: u64, slot: u32) -> usize {
        self.zipf.sample_hash(mix(mix(self.params.seed ^ SALT_FAVSET, client), u64::from(slot)))
    }

    /// The domain rank of `client`'s `i`-th query: a favourite with
    /// probability `favourite_milli`, otherwise a fresh global Zipf draw.
    pub fn query_rank(&self, client: u64, i: u32) -> usize {
        let key = mix(client, u64::from(i));
        if mix(self.params.seed ^ SALT_FAVROLL, key) % 1000 < u64::from(self.params.favourite_milli)
        {
            let slot =
                (mix(self.params.seed ^ SALT_FAVPICK, key) % self.params.favourites as u64) as u32;
            self.favourite(client, slot)
        } else {
            self.zipf.sample_hash(mix(self.params.seed ^ SALT_FRESH, key))
        }
    }

    /// The queries `client` actually sends upstream in the window,
    /// time-ascending. Re-draws of a domain whose previous answer is still
    /// live in the stub's own cache (within `stub_ttl_secs`) are served
    /// locally and omitted — the TTL-driven re-query model: favourites
    /// re-surface only once their answers expire.
    pub fn events(&self, client: u64) -> Vec<QueryEvent> {
        if !self.is_active(client) {
            return Vec::new();
        }
        let start = self.session_start(client);
        let pace = self.pace_secs(client);
        let count = self.query_count(client);
        let ttl = self.params.stub_ttl_secs.max(1);
        let mut out: Vec<QueryEvent> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let time_secs = start + i * pace;
            let rank = self.query_rank(client, i) as u32;
            let cached = |e: &QueryEvent| e.rank == rank && e.time_secs / ttl == time_secs / ttl;
            if !out.iter().any(cached) {
                out.push(QueryEvent { time_secs, rank });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn small() -> StubPlane {
        StubPlane::new(PlaneParams { clients: 2000, domain_support: 500, ..PlaneParams::default() })
    }

    #[test]
    fn events_are_deterministic_and_ascending() {
        let a = small();
        let b = small();
        for client in 0..200u64 {
            let ev = a.events(client);
            assert_eq!(ev, b.events(client), "client {client}");
            assert!(ev.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
        }
    }

    #[test]
    fn churn_matches_active_milli() {
        let plane = small();
        let active = (0..2000u64).filter(|&c| plane.is_active(c)).count();
        // 70% ± sampling slack.
        assert!((1300..1500).contains(&active), "active {active}");
        for c in 0..200u64 {
            assert_eq!(plane.events(c).is_empty(), !plane.is_active(c));
        }
    }

    #[test]
    fn stub_cache_suppresses_within_ttl() {
        let plane = small();
        for client in 0..300u64 {
            let ev = plane.events(client);
            let mut seen = BTreeSet::new();
            for e in &ev {
                assert!(
                    seen.insert((e.rank, e.time_secs / plane.params().stub_ttl_secs)),
                    "client {client} re-queried rank {} within the stub TTL",
                    e.rank
                );
            }
        }
    }

    #[test]
    fn interest_is_zipf_skewed() {
        let plane = small();
        let mut head = 0usize;
        let mut total = 0usize;
        for client in 0..2000u64 {
            for e in plane.events(client) {
                total += 1;
                head += usize::from(e.rank <= 50);
            }
        }
        // Top-10% ranks of Zipf(0.9) carry well over a third of the draws.
        assert!(head * 3 > total, "head {head} of {total}");
    }

    #[test]
    fn favourites_concentrate_per_client_interest() {
        let plane = small();
        // With favourite_milli = 650 and a 6-slot pool, an active client's
        // distinct-domain count stays well below its query count on
        // average.
        let mut queries = 0usize;
        let mut distinct = 0usize;
        for client in 0..500u64 {
            let mut domains = BTreeSet::new();
            for i in 0..plane.query_count(client) {
                queries += 1;
                domains.insert(plane.query_rank(client, i));
            }
            distinct += domains.len();
        }
        assert!(distinct * 10 < queries * 9, "distinct {distinct} of {queries}");
    }

    #[test]
    fn ranks_stay_in_support() {
        let plane = small();
        for client in 0..300u64 {
            for e in plane.events(client) {
                assert!((1..=500).contains(&(e.rank as usize)));
            }
        }
    }
}
