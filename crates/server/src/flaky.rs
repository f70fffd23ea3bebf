//! Failure injection: servers that misbehave before (or instead of)
//! recovering.
//!
//! The paper's §7.3.2/§8.4 discuss DLV registry outages; this wrapper lets
//! tests and experiments inject exactly that kind of partial failure into
//! any node. [`FaultyServer`] composes several behaviours — answering with
//! an error rcode, dropping the query outright (the resolver times out),
//! delaying or truncating responses, and seeded probabilistic variants of
//! each — on top of any inner [`DnsHandler`].
//!
//! All probabilistic schedules are pure functions of `(seed, query count)`,
//! so two runs with the same seed misbehave identically.

use lookaside_netsim::{DnsHandler, ServerAction, Transport};
use lookaside_wire::{Message, MessageBuilder, Rcode};

/// Wraps a handler and injects configurable faults into its responses.
///
/// Deterministic behaviours (`fail_first`, `drop_first`) act on the first
/// N queries; probabilistic ones (`fail_milli`, `drop_milli`,
/// `truncate_milli`) roll a seeded die per query. Dropped queries still
/// count toward [`FaultyServer::seen`] — the server received them, it just
/// never answered.
pub struct FaultyServer {
    inner: Box<dyn DnsHandler>,
    seed: u64,
    fail_first: usize,
    fail_rcode: Rcode,
    drop_first: usize,
    fail_milli: u16,
    drop_milli: u16,
    truncate_milli: u16,
    delay_ns: u64,
    seen: usize,
}

impl FaultyServer {
    /// A fault-free wrapper around `inner` (configure with the `with_*`
    /// builders).
    pub fn wrap(inner: Box<dyn DnsHandler>) -> Self {
        FaultyServer {
            inner,
            seed: 0,
            fail_first: 0,
            fail_rcode: Rcode::ServFail,
            drop_first: 0,
            fail_milli: 0,
            drop_milli: 0,
            truncate_milli: 0,
            delay_ns: 0,
            seen: 0,
        }
    }

    /// Fails the first `fail_first` queries with `rcode`, then recovers.
    pub fn new(inner: Box<dyn DnsHandler>, fail_first: usize, rcode: Rcode) -> Self {
        FaultyServer::wrap(inner).with_fail_first(fail_first, rcode)
    }

    /// A server that is permanently lame (always `REFUSED`).
    pub fn always_lame(inner: Box<dyn DnsHandler>) -> Self {
        FaultyServer::new(inner, usize::MAX, Rcode::Refused)
    }

    /// Seeds the probabilistic schedules (defaults to 0).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Answers the first `n` queries with `rcode` instead of resolving.
    #[must_use]
    pub fn with_fail_first(mut self, n: usize, rcode: Rcode) -> Self {
        self.fail_first = n;
        self.fail_rcode = rcode;
        self
    }

    /// Drops the first `n` queries (no response; the resolver times out).
    #[must_use]
    pub fn with_drop_first(mut self, n: usize) -> Self {
        self.drop_first = n;
        self
    }

    /// Answers with `rcode` with probability `milli`/1000 per query.
    #[must_use]
    pub fn with_fail_milli(mut self, milli: u16, rcode: Rcode) -> Self {
        self.fail_milli = milli.min(1000);
        self.fail_rcode = rcode;
        self
    }

    /// Drops each query with probability `milli`/1000.
    #[must_use]
    pub fn with_drop_milli(mut self, milli: u16) -> Self {
        self.drop_milli = milli.min(1000);
        self
    }

    /// Truncates each UDP response with probability `milli`/1000: the TC
    /// bit is set and the answer/authority/additional sections are clipped
    /// (RFC 1035 §4.1.1 — a truncated response carries no usable partial
    /// data here), forcing the resolver to retry over TCP. The TCP leg of
    /// the retry is never truncated.
    #[must_use]
    pub fn with_truncate_milli(mut self, milli: u16) -> Self {
        self.truncate_milli = milli.min(1000);
        self
    }

    /// Adds fixed server-side processing delay to every response.
    #[must_use]
    pub fn with_delay_ms(mut self, ms: u64) -> Self {
        self.delay_ns = ms * 1_000_000;
        self
    }

    /// Queries observed so far, including dropped ones.
    pub fn seen(&self) -> usize {
        self.seen
    }

    fn roll(&self, channel: u64) -> u64 {
        splitmix64(
            self.seed
                ^ (self.seen as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ channel.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        )
    }

    fn decide(&mut self, query: &Message, now_ns: u64, transport: Transport) -> ServerAction {
        self.seen += 1;
        if self.seen <= self.drop_first {
            return ServerAction::Drop;
        }
        if self.drop_milli > 0 && self.roll(1) % 1000 < u64::from(self.drop_milli) {
            return ServerAction::Drop;
        }
        let mut response = if self.seen <= self.fail_first
            || (self.fail_milli > 0 && self.roll(2) % 1000 < u64::from(self.fail_milli))
        {
            MessageBuilder::respond_to(query).rcode(self.fail_rcode).build()
        } else {
            self.inner.handle(query, now_ns)
        };
        // Truncation is a datagram phenomenon: the TCP retry the TC bit
        // provokes must see the full answer, or the resolver would loop.
        if transport == Transport::Udp
            && self.truncate_milli > 0
            && self.roll(3) % 1000 < u64::from(self.truncate_milli)
        {
            response.header.flags.tc = true;
            response.answers.clear();
            response.authorities.clear();
            response.additionals.clear();
        }
        if self.delay_ns > 0 {
            ServerAction::DelayedRespond { response, extra_ns: self.delay_ns }
        } else {
            ServerAction::Respond(response)
        }
    }
}

impl DnsHandler for FaultyServer {
    fn handle(&mut self, query: &Message, now_ns: u64) -> Message {
        match self.decide(query, now_ns, Transport::Udp) {
            ServerAction::Respond(m) | ServerAction::DelayedRespond { response: m, .. } => m,
            // Direct callers can't observe silence; a drop surfaces as
            // SERVFAIL. Networked callers go through `handle_transport`.
            ServerAction::Drop => MessageBuilder::respond_to(query).rcode(Rcode::ServFail).build(),
        }
    }

    fn handle_faulty(&mut self, query: &Message, now_ns: u64) -> ServerAction {
        self.decide(query, now_ns, Transport::Udp)
    }

    fn handle_transport(
        &mut self,
        query: &Message,
        now_ns: u64,
        transport: Transport,
    ) -> ServerAction {
        self.decide(query, now_ns, transport)
    }
}

impl std::fmt::Debug for FaultyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyServer")
            .field("fail_first", &self.fail_first)
            .field("fail_rcode", &self.fail_rcode)
            .field("drop_first", &self.drop_first)
            .field("fail_milli", &self.fail_milli)
            .field("drop_milli", &self.drop_milli)
            .field("truncate_milli", &self.truncate_milli)
            .field("delay_ns", &self.delay_ns)
            .field("seen", &self.seen)
            .finish_non_exhaustive()
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuthoritativeServer;
    use lookaside_wire::{Name, RData, RrType};
    use lookaside_zone::{PublishedZone, Zone};

    fn inner() -> Box<dyn DnsHandler> {
        let apex = Name::parse("x.test.").unwrap();
        let mut zone = Zone::new(apex.clone(), apex.prepend("ns1").unwrap());
        zone.add(apex, 60, RData::A("192.0.2.1".parse().unwrap()));
        Box::new(AuthoritativeServer::single(PublishedZone::unsigned(zone)))
    }

    fn q() -> Message {
        Message::query(1, Name::parse("x.test.").unwrap(), RrType::A)
    }

    #[test]
    fn fails_then_recovers() {
        let mut flaky = FaultyServer::new(inner(), 2, Rcode::ServFail);
        assert_eq!(flaky.handle(&q(), 0).rcode(), Rcode::ServFail);
        assert_eq!(flaky.handle(&q(), 0).rcode(), Rcode::ServFail);
        assert_eq!(flaky.handle(&q(), 0).rcode(), Rcode::NoError);
        assert_eq!(flaky.seen(), 3);
    }

    #[test]
    fn always_lame_never_recovers() {
        let mut flaky = FaultyServer::always_lame(inner());
        for _ in 0..10 {
            assert_eq!(flaky.handle(&q(), 0).rcode(), Rcode::Refused);
        }
    }

    #[test]
    fn dropped_queries_still_count_as_seen() {
        let mut faulty = FaultyServer::wrap(inner()).with_drop_first(2);
        assert!(matches!(faulty.handle_faulty(&q(), 0), ServerAction::Drop));
        assert!(matches!(faulty.handle_faulty(&q(), 0), ServerAction::Drop));
        assert!(matches!(faulty.handle_faulty(&q(), 0), ServerAction::Respond(_)));
        assert_eq!(faulty.seen(), 3);
    }

    #[test]
    fn probabilistic_drop_is_seeded_and_roughly_calibrated() {
        let run = |seed: u64| {
            let mut faulty = FaultyServer::wrap(inner()).with_seed(seed).with_drop_milli(300);
            (0..1000)
                .map(|_| matches!(faulty.handle_faulty(&q(), 0), ServerAction::Drop))
                .collect::<Vec<_>>()
        };
        let a = run(5);
        assert_eq!(a, run(5), "same seed must reproduce the same schedule");
        assert_ne!(a, run(6), "different seeds must differ");
        let dropped = a.iter().filter(|&&d| d).count();
        assert!((200..400).contains(&dropped), "expected ~300 drops, got {dropped}");
    }

    #[test]
    fn truncation_clips_udp_but_never_tcp() {
        let mut faulty = FaultyServer::wrap(inner()).with_truncate_milli(1000);
        match faulty.handle_transport(&q(), 0, Transport::Udp) {
            ServerAction::Respond(m) => {
                assert!(m.header.flags.tc, "TC bit set on truncated UDP response");
                assert!(m.answers.is_empty(), "truncated response carries no answers");
            }
            other => panic!("expected truncated response, got {other:?}"),
        }
        match faulty.handle_transport(&q(), 0, Transport::Tcp) {
            ServerAction::Respond(m) => {
                assert!(!m.header.flags.tc, "TCP retry is never truncated");
                assert!(!m.answers.is_empty(), "TCP retry carries the full answer");
            }
            other => panic!("expected full TCP response, got {other:?}"),
        }
    }

    #[test]
    fn delay_wraps_response() {
        let mut faulty = FaultyServer::wrap(inner()).with_delay_ms(40);
        match faulty.handle_faulty(&q(), 0) {
            ServerAction::DelayedRespond { response, extra_ns } => {
                assert_eq!(response.rcode(), Rcode::NoError);
                assert_eq!(extra_ns, 40_000_000);
            }
            other => panic!("expected delayed response, got {other:?}"),
        }
    }

    #[test]
    fn drop_surfaces_as_servfail_when_called_directly() {
        let mut faulty = FaultyServer::wrap(inner()).with_drop_first(1);
        assert_eq!(faulty.handle(&q(), 0).rcode(), Rcode::ServFail);
    }
}
