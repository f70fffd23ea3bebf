//! Aggregate traffic statistics.
//!
//! These counters feed the paper's overhead metrics directly: Table 4
//! (queries by type), Table 5 and Fig. 10 (response time, traffic volume,
//! issued queries), and Fig. 12 (cumulative bytes).
//!
//! Merge safety: every stored field is a primary additive counter, so
//! [`TrafficStats::merge`] is plain component-wise addition and sharded
//! runs reduce to exactly the totals a single run would have produced.
//! Derived quantities — total queries, accumulated time, byte/ratio
//! summaries — are computed on read from the per-type maps rather than
//! stored, so there is no cached value a merge could leave stale.

use std::collections::BTreeMap;

use lookaside_wire::{Rcode, RrType};
use serde::{Deserialize, Serialize};

/// Running totals over every exchange a [`crate::Network`] carried.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Queries issued, by question type.
    pub queries_by_type: BTreeMap<RrType, u64>,
    /// Octets exchanged (both directions), by question type.
    pub bytes_by_type: BTreeMap<RrType, u64>,
    /// Round-trip time spent, by question type (nanoseconds).
    pub time_by_type: BTreeMap<RrType, u64>,
    /// Responses received, by rcode.
    pub responses_by_rcode: BTreeMap<Rcode, u64>,
    /// Octets sent in queries.
    pub query_bytes: u64,
    /// Octets received in responses.
    pub response_bytes: u64,
    /// Exchanges that got no response before the caller's timeout.
    pub timeouts: u64,
    /// Exchanges that were retransmissions of an earlier query.
    pub retransmissions: u64,
    /// Queries delivered to a server more than once by the fault plane.
    pub duplicates: u64,
    /// Responses that arrived but failed to decode (Byzantine bit-flip
    /// corruption that broke the wire format).
    #[serde(default)]
    pub malformed_responses: u64,
    /// Off-path spoofed responses injected ahead of the genuine answer.
    #[serde(default)]
    pub spoofed_responses: u64,
    /// Responses forcibly truncated in flight by the fault plane.
    #[serde(default)]
    pub forced_truncations: u64,
    /// Client answers served from expired cache entries (RFC 8767
    /// serve-stale), noted by the resolver via
    /// [`crate::Network::note_stale_serve`].
    #[serde(default)]
    pub stale_serves: u64,
}

impl TrafficStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records one query/response exchange.
    pub fn record(
        &mut self,
        qtype: RrType,
        rcode: Rcode,
        query_bytes: usize,
        response_bytes: usize,
        rtt_ns: u64,
    ) {
        *self.queries_by_type.entry(qtype).or_insert(0) += 1;
        *self.bytes_by_type.entry(qtype).or_insert(0) += (query_bytes + response_bytes) as u64;
        *self.time_by_type.entry(qtype).or_insert(0) += rtt_ns;
        *self.responses_by_rcode.entry(rcode).or_insert(0) += 1;
        self.query_bytes += query_bytes as u64;
        self.response_bytes += response_bytes as u64;
    }

    /// Records one exchange that timed out after `waited_ns`. The query
    /// was issued (it counts toward query totals and its wait toward
    /// accumulated time) but no response arrived.
    pub fn record_timeout(&mut self, qtype: RrType, query_bytes: usize, waited_ns: u64) {
        *self.queries_by_type.entry(qtype).or_insert(0) += 1;
        *self.bytes_by_type.entry(qtype).or_insert(0) += query_bytes as u64;
        *self.time_by_type.entry(qtype).or_insert(0) += waited_ns;
        self.query_bytes += query_bytes as u64;
        self.timeouts += 1;
    }

    /// Records one exchange whose response arrived corrupted beyond
    /// decoding. The query was issued and the round trip elapsed, but no
    /// usable response (and no rcode) was received.
    pub fn record_malformed(&mut self, qtype: RrType, query_bytes: usize, rtt_ns: u64) {
        *self.queries_by_type.entry(qtype).or_insert(0) += 1;
        *self.bytes_by_type.entry(qtype).or_insert(0) += query_bytes as u64;
        *self.time_by_type.entry(qtype).or_insert(0) += rtt_ns;
        self.query_bytes += query_bytes as u64;
        self.malformed_responses += 1;
    }

    /// Queries of a given type.
    pub fn queries_of(&self, qtype: RrType) -> u64 {
        self.queries_by_type.get(&qtype).copied().unwrap_or(0)
    }

    /// Octets exchanged on queries of a given type (both directions).
    pub fn bytes_of(&self, qtype: RrType) -> u64 {
        self.bytes_by_type.get(&qtype).copied().unwrap_or(0)
    }

    /// Round-trip time spent on queries of a given type, nanoseconds.
    pub fn time_of(&self, qtype: RrType) -> u64 {
        self.time_by_type.get(&qtype).copied().unwrap_or(0)
    }

    /// Total queries issued — the sum over [`TrafficStats::queries_by_type`].
    /// Computed on read so merged shards can never disagree with the maps.
    pub fn total_queries(&self) -> u64 {
        self.queries_by_type.values().sum()
    }

    /// Accumulated round-trip time in nanoseconds — the sum over
    /// [`TrafficStats::time_by_type`] (timeout waits included).
    pub fn total_time_ns(&self) -> u64 {
        self.time_by_type.values().sum()
    }

    /// Total traffic volume in octets (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.query_bytes + self.response_bytes
    }

    /// Total traffic volume in megabytes (10⁶ octets, as the paper's MB).
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes() as f64 / 1e6
    }

    /// Accumulated response time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_time_ns() as f64 / 1e9
    }

    /// Component-wise difference (`self - baseline`), for overhead tables.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `baseline` exceeds `self` in total query
    /// count (overhead must be non-negative).
    pub fn overhead_versus(&self, baseline: &TrafficStats) -> TrafficStats {
        debug_assert!(self.total_queries() >= baseline.total_queries());
        let mut queries_by_type = self.queries_by_type.clone();
        for (t, n) in &baseline.queries_by_type {
            let e = queries_by_type.entry(*t).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        let mut bytes_by_type = self.bytes_by_type.clone();
        for (t, n) in &baseline.bytes_by_type {
            let e = bytes_by_type.entry(*t).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        let mut time_by_type = self.time_by_type.clone();
        for (t, n) in &baseline.time_by_type {
            let e = time_by_type.entry(*t).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        let mut responses_by_rcode = self.responses_by_rcode.clone();
        for (c, n) in &baseline.responses_by_rcode {
            let e = responses_by_rcode.entry(*c).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        TrafficStats {
            queries_by_type,
            bytes_by_type,
            time_by_type,
            responses_by_rcode,
            query_bytes: self.query_bytes.saturating_sub(baseline.query_bytes),
            response_bytes: self.response_bytes.saturating_sub(baseline.response_bytes),
            timeouts: self.timeouts.saturating_sub(baseline.timeouts),
            retransmissions: self.retransmissions.saturating_sub(baseline.retransmissions),
            duplicates: self.duplicates.saturating_sub(baseline.duplicates),
            malformed_responses: self
                .malformed_responses
                .saturating_sub(baseline.malformed_responses),
            spoofed_responses: self.spoofed_responses.saturating_sub(baseline.spoofed_responses),
            forced_truncations: self.forced_truncations.saturating_sub(baseline.forced_truncations),
            stale_serves: self.stale_serves.saturating_sub(baseline.stale_serves),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrafficStats {
        let mut s = TrafficStats::new();
        s.record(RrType::A, Rcode::NoError, 30, 100, 1_000_000);
        s.record(RrType::A, Rcode::NxDomain, 30, 80, 2_000_000);
        s.record(RrType::Dlv, Rcode::NxDomain, 50, 120, 3_000_000);
        s
    }

    #[test]
    fn record_accumulates() {
        let s = sample();
        assert_eq!(s.total_queries(), 3);
        assert_eq!(s.queries_of(RrType::A), 2);
        assert_eq!(s.queries_of(RrType::Dlv), 1);
        assert_eq!(s.queries_of(RrType::Mx), 0);
        assert_eq!(s.total_bytes(), 30 + 100 + 30 + 80 + 50 + 120);
        assert_eq!(s.total_time_ns(), 6_000_000);
        assert_eq!(s.responses_by_rcode.get(&Rcode::NxDomain), Some(&2));
    }

    #[test]
    fn timeout_counts_query_and_wait() {
        let mut s = TrafficStats::new();
        s.record_timeout(RrType::Dlv, 40, 5_000_000_000);
        assert_eq!(s.total_queries(), 1);
        assert_eq!(s.total_time_ns(), 5_000_000_000);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.response_bytes, 0);
    }

    #[test]
    fn unit_conversions() {
        let mut s = TrafficStats::new();
        s.record(RrType::A, Rcode::NoError, 500_000, 500_000, 2_500_000_000);
        assert!((s.total_megabytes() - 1.0).abs() < 1e-9);
        assert!((s.total_seconds() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn overhead_subtracts_componentwise() {
        let base = sample();
        let mut with_remedy = sample();
        with_remedy.record(RrType::Txt, Rcode::NoError, 40, 90, 4_000_000);
        let overhead = with_remedy.overhead_versus(&base);
        assert_eq!(overhead.total_queries(), 1);
        assert_eq!(overhead.queries_of(RrType::Txt), 1);
        assert_eq!(overhead.queries_of(RrType::A), 0);
        assert_eq!(overhead.total_bytes(), 130);
        assert_eq!(overhead.total_time_ns(), 4_000_000);
    }
}
