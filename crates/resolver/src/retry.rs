//! Loss recovery: retransmission policy, per-server RTT estimation, the
//! lame/dead server holddown cache, and RFC 2308 §7 SERVFAIL caching.
//!
//! The paper's §7.3.2 observation — a degrading DLV registry makes every
//! configured resolver retry into it, multiplying the leak — only
//! reproduces if the resolver has real timers. This module supplies them:
//!
//! * [`RetryPolicy`] — initial retransmission timeout, exponential backoff
//!   with a cap, and a per-query/per-server attempt budget,
//! * [`InfraCache`] — Jacobson/Karels smoothed RTT per server address
//!   (driving both the adaptive RTO and best-server-first selection) plus
//!   lame/dead holddowns so a misbehaving server is left alone for a while,
//! * [`ServfailCache`] — RFC 2308 §7.1 per-`(name, type)` failure entries
//!   and §7.2 zone-level "dead servers" entries, the mechanism that stops a
//!   resolver from re-walking an unreachable registry on every query.
//!
//! Everything here is driven by the simulated clock; nothing consults wall
//! time, so runs stay deterministic.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use lookaside_wire::{Name, NameMap, RrType};

use crate::ring::TimerRing;

/// Nanoseconds per second.
const SEC: u64 = 1_000_000_000;

/// Timer and budget configuration for upstream queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmission timeout for a server with no RTT history, and the
    /// lower clamp for adaptive RTOs, nanoseconds.
    pub initial_timeout_ns: u64,
    /// Backoff multiplier applied to the timeout after each loss.
    pub backoff_multiplier: u32,
    /// Upper clamp for the (backed-off or adaptive) timeout, nanoseconds.
    pub max_timeout_ns: u64,
    /// Transmissions per server per query (1 = no retransmission).
    pub max_attempts: u32,
    /// How long a lame or unresponsive server is skipped when siblings are
    /// available, nanoseconds.
    pub holddown_ns: u64,
    /// RFC 2308 §7 SERVFAIL cache TTL; `None` disables the cache (the
    /// resolver re-tries a failed name on every stub query, which is what
    /// amplifies registry-outage leakage).
    pub servfail_ttl_ns: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_timeout_ns: SEC,
            backoff_multiplier: 2,
            max_timeout_ns: 8 * SEC,
            max_attempts: 3,
            holddown_ns: 60 * SEC,
            servfail_ttl_ns: None,
        }
    }
}

impl RetryPolicy {
    /// The policy with RFC 2308 §7 SERVFAIL caching enabled at `secs`.
    #[must_use]
    pub fn with_servfail_cache(mut self, secs: u64) -> Self {
        self.servfail_ttl_ns = Some(secs * SEC);
        self
    }

    /// Clamps a proposed timeout into the policy's window.
    pub fn clamp(&self, timeout_ns: u64) -> u64 {
        timeout_ns.clamp(self.initial_timeout_ns, self.max_timeout_ns)
    }

    /// The timeout after one more loss at the current `timeout_ns`.
    pub fn backed_off(&self, timeout_ns: u64) -> u64 {
        self.clamp(timeout_ns.saturating_mul(u64::from(self.backoff_multiplier.max(1))))
    }
}

/// Per-server RTT estimate, Jacobson/Karels (RFC 6298 with the classic
/// integer shifts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RttEstimate {
    srtt_ns: u64,
    rttvar_ns: u64,
}

/// Per-server infrastructure state: smoothed RTT and holddown.
#[derive(Debug, Clone, Default)]
pub struct InfraCache {
    rtt: BTreeMap<Ipv4Addr, RttEstimate>,
    /// Holddown timers in a fixed-capacity ring (see [`TimerRing`]):
    /// expired slots are reclaimed in place, so steady-state memory is the
    /// ring capacity no matter how many servers a replay touches.
    held: TimerRing,
}

impl InfraCache {
    /// An empty cache.
    pub fn new() -> Self {
        InfraCache::default()
    }

    /// Feeds one RTT measurement for `addr` into the estimator.
    pub fn note_rtt(&mut self, addr: Ipv4Addr, rtt_ns: u64) {
        match self.rtt.get_mut(&addr) {
            None => {
                self.rtt.insert(addr, RttEstimate { srtt_ns: rtt_ns, rttvar_ns: rtt_ns / 2 });
            }
            Some(est) => {
                let err = est.srtt_ns.abs_diff(rtt_ns);
                est.rttvar_ns = (3 * est.rttvar_ns + err) / 4;
                est.srtt_ns = (7 * est.srtt_ns + rtt_ns) / 8;
            }
        }
    }

    /// The smoothed RTT for `addr`, if any exchange has completed.
    pub fn srtt_ns(&self, addr: Ipv4Addr) -> Option<u64> {
        self.rtt.get(&addr).map(|e| e.srtt_ns)
    }

    /// The retransmission timeout for `addr`: `SRTT + 4·RTTVAR` clamped
    /// into the policy window, or the initial timeout with no history.
    pub fn rto_ns(&self, addr: Ipv4Addr, policy: &RetryPolicy) -> u64 {
        match self.rtt.get(&addr) {
            Some(est) => policy.clamp(est.srtt_ns + 4 * est.rttvar_ns),
            None => policy.initial_timeout_ns,
        }
    }

    /// Holds `addr` down (lame or unresponsive) until `now_ns +
    /// policy.holddown_ns`. Re-holding keeps the later expiry.
    pub fn hold_down(&mut self, addr: Ipv4Addr, now_ns: u64, policy: &RetryPolicy) {
        self.held.arm(addr, now_ns + policy.holddown_ns, now_ns);
    }

    /// Whether `addr` is currently held down.
    pub fn is_held_down(&self, addr: Ipv4Addr, now_ns: u64) -> bool {
        self.held.active(addr, now_ns)
    }

    /// Clears a holddown (a successful exchange redeems the server).
    pub fn redeem(&mut self, addr: Ipv4Addr) {
        self.held.disarm(addr);
    }

    /// Orders candidate servers best-RTT-first, preserving the incoming
    /// order among servers with no (or equal) history — so a fresh resolver
    /// behaves exactly like one with no estimator.
    pub fn order_by_srtt(&self, addrs: &mut [Ipv4Addr]) {
        addrs.sort_by_key(|&a| self.srtt_ns(a).unwrap_or(u64::MAX));
    }
}

/// RFC 2308 §7 negative caching of resolution failures.
#[derive(Debug, Clone, Default)]
pub struct ServfailCache {
    /// §7.1: per-`(qname, qtype)` failure entries, keyed by name so the
    /// per-resolution probe takes the qname by reference.
    tuples: NameMap<Vec<(RrType, u64)>>,
    /// §7.2: zones whose entire server set proved unreachable; lookups at
    /// or below such a cut fail instantly until expiry.
    dead_zones: NameMap<u64>,
}

impl ServfailCache {
    /// An empty cache.
    pub fn new() -> Self {
        ServfailCache::default()
    }

    /// Caches a resolution failure for one tuple.
    pub fn put(&mut self, qname: Name, qtype: RrType, now_ns: u64, ttl_ns: u64) {
        let until = now_ns + ttl_ns;
        let types = self.tuples.entry(qname).or_default();
        match types.iter_mut().find(|(t, _)| *t == qtype) {
            Some(slot) => *slot = (qtype, until),
            None => types.push((qtype, until)),
        }
    }

    /// Whether a tuple has an unexpired failure entry.
    pub fn contains(&self, qname: &Name, qtype: RrType, now_ns: u64) -> bool {
        self.tuples
            .get(qname)
            .is_some_and(|types| types.iter().any(|&(t, until)| t == qtype && until > now_ns))
    }

    /// Marks every server of `zone` dead (§7.2).
    pub fn mark_zone_dead(&mut self, zone: Name, now_ns: u64, ttl_ns: u64) {
        self.dead_zones.insert(zone, now_ns + ttl_ns);
    }

    /// Whether `zone` is currently marked dead.
    pub fn zone_dead(&self, zone: &Name, now_ns: u64) -> bool {
        self.dead_zones.get(zone).is_some_and(|&until| until > now_ns)
    }

    /// Live entry counts `(tuples, dead_zones)` for diagnostics.
    pub fn len(&self) -> (usize, usize) {
        (self.tuples.values().map(Vec::len).sum(), self.dead_zones.len())
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.dead_zones.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn first_sample_initialises_jacobson_state() {
        let mut cache = InfraCache::new();
        cache.note_rtt(addr(1), 40_000_000);
        assert_eq!(cache.srtt_ns(addr(1)), Some(40_000_000));
        // RTO = srtt + 4*rttvar = 40ms + 4*20ms = 120ms, clamped up to the
        // policy floor of 1s.
        assert_eq!(cache.rto_ns(addr(1), &RetryPolicy::default()), SEC);
    }

    #[test]
    fn srtt_converges_toward_stable_rtt() {
        let mut cache = InfraCache::new();
        for _ in 0..50 {
            cache.note_rtt(addr(1), 30_000_000);
        }
        let srtt = cache.srtt_ns(addr(1)).unwrap();
        assert!((29_000_000..=30_000_000).contains(&srtt), "srtt {srtt}");
    }

    #[test]
    fn rto_tracks_variance() {
        let mut cache = InfraCache::new();
        let policy = RetryPolicy {
            initial_timeout_ns: 1_000_000, // low floor to observe the raw RTO
            ..RetryPolicy::default()
        };
        for i in 0..50 {
            cache.note_rtt(addr(1), if i % 2 == 0 { 20_000_000 } else { 60_000_000 });
        }
        let rto = cache.rto_ns(addr(1), &policy);
        assert!(rto > 60_000_000, "jittery link must get a padded RTO, got {rto}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy::default();
        let t1 = policy.initial_timeout_ns;
        let t2 = policy.backed_off(t1);
        let t3 = policy.backed_off(t2);
        let t4 = policy.backed_off(t3);
        let t5 = policy.backed_off(t4);
        assert_eq!([t2, t3, t4], [2 * SEC, 4 * SEC, 8 * SEC]);
        assert_eq!(t5, policy.max_timeout_ns, "capped");
    }

    #[test]
    fn holddown_expires_and_redeems() {
        let policy = RetryPolicy::default();
        let mut cache = InfraCache::new();
        cache.hold_down(addr(1), 0, &policy);
        assert!(cache.is_held_down(addr(1), 10 * SEC));
        assert!(!cache.is_held_down(addr(1), 61 * SEC));
        cache.hold_down(addr(1), 0, &policy);
        cache.redeem(addr(1));
        assert!(!cache.is_held_down(addr(1), 0));
        assert!(!cache.is_held_down(addr(2), 0), "unknown servers are live");
    }

    #[test]
    fn srtt_ordering_is_stable_for_unknown_servers() {
        let mut cache = InfraCache::new();
        let mut addrs = vec![addr(3), addr(1), addr(2)];
        cache.order_by_srtt(&mut addrs);
        assert_eq!(addrs, vec![addr(3), addr(1), addr(2)], "no history, no reorder");
        cache.note_rtt(addr(2), 10_000_000);
        cache.note_rtt(addr(3), 50_000_000);
        cache.order_by_srtt(&mut addrs);
        assert_eq!(addrs, vec![addr(2), addr(3), addr(1)]);
    }

    #[test]
    fn servfail_cache_tuple_expiry() {
        let mut cache = ServfailCache::new();
        cache.put(n("dead.example."), RrType::A, 0, 30 * SEC);
        assert!(cache.contains(&n("dead.example."), RrType::A, 29 * SEC));
        assert!(!cache.contains(&n("dead.example."), RrType::A, 30 * SEC));
        assert!(!cache.contains(&n("dead.example."), RrType::Aaaa, 0));
        assert!(!cache.is_empty());
    }

    #[test]
    fn servfail_cache_dead_zone_expiry() {
        let mut cache = ServfailCache::new();
        cache.mark_zone_dead(n("dlv.isc.org."), SEC, 30 * SEC);
        assert!(cache.zone_dead(&n("dlv.isc.org."), 2 * SEC));
        assert!(!cache.zone_dead(&n("dlv.isc.org."), 31 * SEC + 1));
        assert!(!cache.zone_dead(&n("isc.org."), 2 * SEC));
        assert_eq!(cache.len(), (0, 1));
    }
}
