//! Resolver caches: positive RRsets, negative answers, zone servers, and
//! the aggressive NSEC span cache.
//!
//! The aggressive NSEC cache ([`NsecSpanCache`]) is the star of the paper's
//! Figs. 8–9: once a validated NSEC from the DLV registry proves a span
//! empty, every later DLV query falling inside that span is answered
//! locally and never reaches (= never leaks to) the DLV server.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Bound;
use std::sync::Arc;

use lookaside_wire::{Name, NameMap, Rcode, Record, RrSet, RrType};

/// A cached positive RRset with optional signature and validation state.
///
/// Data and signature are behind `Arc` so cache hits, `IterOutcome`s, and
/// validation all share one allocation instead of deep-copying the records.
#[derive(Debug, Clone)]
pub struct CachedRrSet {
    /// The data.
    pub rrset: Arc<RrSet>,
    /// Covering RRSIG, if one was received.
    pub rrsig: Option<Arc<Record>>,
    /// Absolute expiry, simulated nanoseconds.
    pub expires_ns: u64,
}

/// Positive and negative answer caches with TTL handling.
///
/// Keyed by owner name alone, with the handful of types per name in a flat
/// vector — so probes borrow the query name instead of materialising a
/// `(Name, RrType)` tuple per lookup. The maps are [`NameMap`]s: a probe
/// compares fingerprints, not label walks.
///
/// Expired entries are purged opportunistically every
/// [`AnswerCache::PURGE_INTERVAL`] insertions so million-domain runs do not
/// accumulate unbounded dead state.
#[derive(Debug, Default)]
pub struct AnswerCache {
    positive: NameMap<Vec<(RrType, CachedRrSet)>>,
    negative: NameMap<Vec<(RrType, Rcode, u64)>>,
    puts_since_purge: usize,
    /// RFC 8767 serve-stale window: expired positive entries are retained
    /// (and servable via [`AnswerCache::get_stale`]) for this long past
    /// their TTL. Zero disables staleness entirely.
    stale_window_ns: u64,
}

impl AnswerCache {
    /// Insertions between opportunistic purges of expired entries.
    pub const PURGE_INTERVAL: usize = 65_536;

    /// Creates an empty cache.
    pub fn new() -> Self {
        AnswerCache::default()
    }

    /// Sets the RFC 8767 serve-stale window. Expired positive entries stay
    /// resident (and retrievable via [`AnswerCache::get_stale`]) for this
    /// long past their expiry; ordinary [`AnswerCache::get`] never returns
    /// them.
    pub fn set_stale_window(&mut self, window_ns: u64) {
        self.stale_window_ns = window_ns;
    }

    fn maybe_purge(&mut self, now_ns: u64) {
        self.puts_since_purge += 1;
        if self.puts_since_purge >= Self::PURGE_INTERVAL {
            self.puts_since_purge = 0;
            let keep_after = self.stale_window_ns;
            self.positive.retain(|_, types| {
                types.retain(|(_, c)| c.expires_ns + keep_after > now_ns);
                !types.is_empty()
            });
            self.negative.retain(|_, types| {
                types.retain(|&(_, _, exp)| exp > now_ns);
                !types.is_empty()
            });
        }
    }

    /// Stores a positive RRset.
    pub fn put(&mut self, rrset: Arc<RrSet>, rrsig: Option<Arc<Record>>, now_ns: u64) {
        self.maybe_purge(now_ns);
        let expires_ns = now_ns + u64::from(rrset.ttl) * 1_000_000_000;
        let rrtype = rrset.rrtype;
        let entry = CachedRrSet { rrset: Arc::clone(&rrset), rrsig, expires_ns };
        let types = self.positive.entry(rrset.name.clone()).or_default();
        match types.iter_mut().find(|(t, _)| *t == rrtype) {
            Some((_, slot)) => *slot = entry,
            None => types.push((rrtype, entry)),
        }
    }

    /// Fetches an unexpired positive RRset.
    pub fn get(&self, name: &Name, rrtype: RrType, now_ns: u64) -> Option<&CachedRrSet> {
        self.positive
            .get(name)?
            .iter()
            .find(|(t, _)| *t == rrtype)
            .map(|(_, c)| c)
            .filter(|c| c.expires_ns > now_ns)
    }

    /// Fetches an *expired* positive RRset still inside the serve-stale
    /// window (RFC 8767). Returns `None` when the entry is fresh (use
    /// [`AnswerCache::get`]), past the window, or absent — or when no
    /// window is configured.
    pub fn get_stale(&self, name: &Name, rrtype: RrType, now_ns: u64) -> Option<&CachedRrSet> {
        if self.stale_window_ns == 0 {
            return None;
        }
        self.positive
            .get(name)?
            .iter()
            .find(|(t, _)| *t == rrtype)
            .map(|(_, c)| c)
            .filter(|c| c.expires_ns <= now_ns && c.expires_ns + self.stale_window_ns > now_ns)
    }

    /// Evicts a positive entry — the resolver removes answers whose RRSIGs
    /// failed validation so a bogus RRset can never be served again (not
    /// even stale).
    pub fn remove(&mut self, name: &Name, rrtype: RrType) {
        if let Some(types) = self.positive.get_mut(name) {
            types.retain(|(t, _)| *t != rrtype);
            if types.is_empty() {
                self.positive.remove(name);
            }
        }
    }

    /// Stores a negative (NODATA/NXDOMAIN) result.
    pub fn put_negative(
        &mut self,
        name: Name,
        rrtype: RrType,
        rcode: Rcode,
        ttl: u32,
        now_ns: u64,
    ) {
        self.maybe_purge(now_ns);
        let expires = now_ns + u64::from(ttl) * 1_000_000_000;
        let types = self.negative.entry(name).or_default();
        match types.iter_mut().find(|(t, _, _)| *t == rrtype) {
            Some(slot) => *slot = (rrtype, rcode, expires),
            None => types.push((rrtype, rcode, expires)),
        }
    }

    /// Fetches an unexpired negative result.
    pub fn get_negative(&self, name: &Name, rrtype: RrType, now_ns: u64) -> Option<Rcode> {
        self.negative
            .get(name)?
            .iter()
            .find(|(t, _, exp)| *t == rrtype && *exp > now_ns)
            .map(|(_, rcode, _)| *rcode)
    }

    /// Number of live positive entries (for diagnostics).
    pub fn len(&self) -> usize {
        self.positive.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }
}

/// Cache of which servers are authoritative for which zone cut, seeded with
/// the root hint.
#[derive(Debug, Default)]
pub struct ZoneServerCache {
    zones: NameMap<Vec<Ipv4Addr>>,
}

impl ZoneServerCache {
    /// Creates a cache holding only the root hint.
    pub fn with_root_hint(root: Ipv4Addr) -> Self {
        let mut zones = NameMap::new();
        zones.insert(Name::root(), vec![root]);
        ZoneServerCache { zones }
    }

    /// Records the servers for a zone cut.
    pub fn put(&mut self, cut: Name, addrs: Vec<Ipv4Addr>) {
        if !addrs.is_empty() {
            self.zones.insert(cut, addrs);
        }
    }

    /// The deepest known cut at or above `qname`, with its servers.
    ///
    /// Probes `qname`'s suffixes longest-first — O(labels) map lookups, so
    /// the cache can hold a million cuts without resolution slowing down.
    pub fn deepest_for(&self, qname: &Name) -> (Name, &[Ipv4Addr]) {
        for n in (0..=qname.label_count()).rev() {
            let candidate = qname.suffix(n);
            if let Some(addrs) = self.zones.get(&candidate) {
                return (candidate, addrs.as_slice());
            }
        }
        // The root hint is inserted at construction; if the cache is
        // somehow empty anyway, degrade to "no servers known" and let the
        // resolver surface a typed error instead of aborting the run.
        (Name::root(), &[])
    }

    /// Whether a cut is known.
    pub fn contains(&self, cut: &Name) -> bool {
        self.zones.contains_key(cut)
    }
}

/// One validated NSEC span: `owner` → `next` proves nothing exists between.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    next: Name,
    expires_ns: u64,
}

/// The aggressive negative cache of validated NSEC spans (per zone —
/// in this study, the DLV registry zone).
#[derive(Debug, Default)]
pub struct NsecSpanCache {
    spans: BTreeMap<Name, Span>,
    /// Hits answered from the cache (suppressed queries) — the quantity
    /// that separates Fig. 8's two curves.
    pub suppressed: u64,
}

impl NsecSpanCache {
    /// Creates an empty span cache.
    pub fn new() -> Self {
        NsecSpanCache::default()
    }

    /// Inserts a validated span.
    pub fn insert(&mut self, owner: Name, next: Name, ttl: u32, now_ns: u64) {
        let expires_ns = now_ns + u64::from(ttl) * 1_000_000_000;
        self.spans.insert(owner, Span { next, expires_ns });
    }

    /// Whether a cached, unexpired span proves `name` non-existent.
    pub fn covers(&self, name: &Name, now_ns: u64) -> bool {
        // Candidate: the greatest owner canonically <= name. The bound
        // borrows `name` — probing allocates nothing.
        if let Some((owner, span)) =
            self.spans.range((Bound::Unbounded, Bound::Included(name))).next_back()
        {
            if span.expires_ns > now_ns && lookaside_zone::covers(owner, &span.next, name) {
                return true;
            }
        }
        // Wrap-around span: the canonically greatest owner may cover names
        // before the apex span's start.
        if let Some((owner, span)) = self.spans.iter().next_back() {
            if span.expires_ns > now_ns && lookaside_zone::covers(owner, &span.next, name) {
                return true;
            }
        }
        false
    }

    /// Records a suppressed query (cache hit).
    pub fn note_suppressed(&mut self) {
        self.suppressed += 1;
    }

    /// Number of cached spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans are cached.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::RData;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a_set(name: &str, ttl: u32) -> RrSet {
        RrSet::single(n(name), ttl, RData::A(Ipv4Addr::new(192, 0, 2, 1)))
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn positive_cache_respects_ttl() {
        let mut cache = AnswerCache::new();
        cache.put(Arc::new(a_set("x.com", 10)), None, 0);
        assert!(cache.get(&n("x.com"), RrType::A, 5 * SEC).is_some());
        assert!(cache.get(&n("x.com"), RrType::A, 10 * SEC).is_none());
        assert!(cache.get(&n("x.com"), RrType::Aaaa, 0).is_none());
    }

    #[test]
    fn stale_entries_serve_only_inside_the_window() {
        let mut cache = AnswerCache::new();
        cache.set_stale_window(30 * SEC);
        cache.put(Arc::new(a_set("x.com", 10)), None, 0);
        // Fresh: normal hit, no stale hit.
        assert!(cache.get(&n("x.com"), RrType::A, 5 * SEC).is_some());
        assert!(cache.get_stale(&n("x.com"), RrType::A, 5 * SEC).is_none());
        // Expired but within the window: stale hit only.
        assert!(cache.get(&n("x.com"), RrType::A, 20 * SEC).is_none());
        assert!(cache.get_stale(&n("x.com"), RrType::A, 20 * SEC).is_some());
        // Past the window: gone for good.
        assert!(cache.get_stale(&n("x.com"), RrType::A, 41 * SEC).is_none());
        // Without a window there is no staleness at all.
        let mut plain = AnswerCache::new();
        plain.put(Arc::new(a_set("y.com", 10)), None, 0);
        assert!(plain.get_stale(&n("y.com"), RrType::A, 20 * SEC).is_none());
    }

    #[test]
    fn remove_evicts_positive_entries() {
        let mut cache = AnswerCache::new();
        cache.set_stale_window(3600 * SEC);
        cache.put(Arc::new(a_set("bogus.com", 300)), None, 0);
        assert!(cache.get(&n("bogus.com"), RrType::A, 0).is_some());
        cache.remove(&n("bogus.com"), RrType::A);
        assert!(cache.get(&n("bogus.com"), RrType::A, 0).is_none());
        assert!(cache.get_stale(&n("bogus.com"), RrType::A, 301 * SEC).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn negative_cache_stores_rcode() {
        let mut cache = AnswerCache::new();
        cache.put_negative(n("gone.com"), RrType::A, Rcode::NxDomain, 60, 0);
        assert_eq!(cache.get_negative(&n("gone.com"), RrType::A, SEC), Some(Rcode::NxDomain));
        assert_eq!(cache.get_negative(&n("gone.com"), RrType::A, 61 * SEC), None);
    }

    #[test]
    fn zone_server_cache_finds_deepest() {
        let root = Ipv4Addr::new(198, 41, 0, 4);
        let mut cache = ZoneServerCache::with_root_hint(root);
        cache.put(n("com"), vec![Ipv4Addr::new(192, 5, 6, 30)]);
        cache.put(n("example.com"), vec![Ipv4Addr::new(192, 0, 2, 53)]);
        let (cut, addrs) = cache.deepest_for(&n("www.example.com"));
        assert_eq!(cut, n("example.com"));
        assert_eq!(addrs[0], Ipv4Addr::new(192, 0, 2, 53));
        let (cut, _) = cache.deepest_for(&n("other.org"));
        assert!(cut.is_root());
    }

    #[test]
    fn nsec_cache_covers_inside_span() {
        let mut cache = NsecSpanCache::new();
        cache.insert(n("alpha.dlv"), n("omega.dlv"), 3600, 0);
        assert!(cache.covers(&n("beta.dlv"), 0));
        assert!(!cache.covers(&n("alpha.dlv"), 0), "owner itself exists");
        assert!(!cache.covers(&n("omega.dlv"), 0), "next itself exists");
        assert!(!cache.covers(&n("zz.dlv"), 0), "outside span");
    }

    #[test]
    fn nsec_cache_expires() {
        let mut cache = NsecSpanCache::new();
        cache.insert(n("alpha.dlv"), n("omega.dlv"), 10, 0);
        assert!(cache.covers(&n("beta.dlv"), 9 * SEC));
        assert!(!cache.covers(&n("beta.dlv"), 11 * SEC));
    }

    #[test]
    fn nsec_cache_wraparound_span() {
        let mut cache = NsecSpanCache::new();
        // Last NSEC of the chain: next wraps to the apex.
        cache.insert(n("zeta.dlv"), n("dlv"), 3600, 0);
        assert!(cache.covers(&n("zz.dlv"), 0), "after the last owner");
        assert!(!cache.covers(&n("aaa.dlv"), 0));
    }

    #[test]
    fn nsec_cache_multiple_spans() {
        let mut cache = NsecSpanCache::new();
        cache.insert(n("a.dlv"), n("f.dlv"), 3600, 0);
        cache.insert(n("m.dlv"), n("t.dlv"), 3600, 0);
        assert!(cache.covers(&n("c.dlv"), 0));
        assert!(cache.covers(&n("p.dlv"), 0));
        assert!(!cache.covers(&n("h.dlv"), 0), "gap between spans");
        assert_eq!(cache.len(), 2);
    }
}
