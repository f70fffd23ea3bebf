//! The message-routing core of the simulator.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use lookaside_wire::{Message, MessageBuilder, RData, Rcode, Record, RenderArena, RrType};

use crate::capture::{Capture, CaptureFilter, Direction, Packet};
use crate::fault::{splitmix64, FaultPlane, GOLDEN};
use crate::latency::LatencyModel;
use crate::observe::PacketSink;
use crate::stats::TrafficStats;

/// How a server treats one incoming query — the hook [`crate::FaultPlane`]
/// companions like `FaultyServer` use to model server-side misbehaviour.
#[derive(Debug, Clone)]
pub enum ServerAction {
    /// Answer normally.
    Respond(Message),
    /// Answer, but only after an extra server-side delay. If the delay
    /// pushes the exchange past the caller's timeout, the resolver gives
    /// up and the (late) response is wasted.
    DelayedRespond {
        /// The response eventually sent.
        response: Message,
        /// Server-side processing delay added to the round trip,
        /// nanoseconds.
        extra_ns: u64,
    },
    /// Swallow the query: the resolver times out.
    Drop,
}

/// A node that answers DNS queries (an authoritative server, a DLV server,
/// or a synthetic authority).
pub trait DnsHandler {
    /// Produces the response to `query` at simulated time `now_ns`.
    fn handle(&mut self, query: &Message, now_ns: u64) -> Message;

    /// Produces the response together with a server-side fault decision.
    ///
    /// The default implementation always answers via [`DnsHandler::handle`];
    /// fault-injecting servers override this to drop or delay.
    fn handle_faulty(&mut self, query: &Message, now_ns: u64) -> ServerAction {
        ServerAction::Respond(self.handle(query, now_ns))
    }

    /// Like [`DnsHandler::handle_faulty`], but told which transport the
    /// query arrived over. Transport-sensitive misbehaviour (a server that
    /// truncates UDP answers but serves TCP correctly, per RFC 7766)
    /// overrides this; everything else inherits the transport-blind
    /// default.
    fn handle_transport(
        &mut self,
        query: &Message,
        now_ns: u64,
        transport: Transport,
    ) -> ServerAction {
        let _ = transport;
        self.handle_faulty(query, now_ns)
    }
}

/// Errors surfaced by the network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// No node is registered at the destination address.
    NoRoute(Ipv4Addr),
    /// No response arrived before the caller's timeout: the query or the
    /// response was lost, or the server dropped or over-delayed it.
    Timeout(Ipv4Addr),
    /// A response arrived but was corrupted in flight and no longer
    /// decodes as a DNS message. Unlike [`NetError::Timeout`] the
    /// resolver learns this as soon as the datagram lands (only the round
    /// trip is charged, not a timeout wait) and should retry.
    Malformed(Ipv4Addr),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoRoute(addr) => write!(f, "no server registered at {addr}"),
            NetError::Timeout(addr) => write!(f, "query to {addr} timed out"),
            NetError::Malformed(addr) => {
                write!(f, "response from {addr} was corrupted in flight")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Transport used for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Datagram transport: responses above the advertised payload limit
    /// come back truncated (TC bit set, sections emptied).
    #[default]
    Udp,
    /// Stream transport: no size limit; costs an extra round trip for the
    /// handshake plus per-segment overhead.
    Tcp,
}

/// Maximum UDP payload for queries without EDNS (RFC 1035).
pub const UDP_LIMIT_NO_EDNS: u16 = 512;
/// Timeout charged to lost exchanges when the caller does not specify one
/// (callers implementing retransmission pass their own RTO instead).
pub const DEFAULT_TIMEOUT_NS: u64 = 5_000_000_000;
/// Modelled byte overhead of a TCP exchange (SYN/ACK/FIN segments, length
/// prefixes).
pub const TCP_OVERHEAD_BYTES: usize = 80;

/// An off-path spoofed response that raced (and beat) the genuine answer.
///
/// The network delivers it alongside the real response; it is the
/// *resolver's* job to notice the wrong transaction id or source address
/// and discard it (RFC 5452). A resolver that skips those checks accepts
/// the forgery as its answer.
#[derive(Debug, Clone)]
pub struct SpoofedResponse {
    /// The forged message, delivered before the genuine response.
    pub response: Message,
    /// The forgery carries a transaction id that does not match the query.
    pub wrong_qid: bool,
    /// The forgery arrived from an address other than the one queried.
    pub wrong_source: bool,
}

impl SpoofedResponse {
    /// Whether a resolver performing RFC 5452 qid/source checks would
    /// reject this forgery.
    pub fn detectable(&self, check_qid: bool, check_source: bool) -> bool {
        (check_qid && self.wrong_qid) || (check_source && self.wrong_source)
    }
}

/// The result of one query/response exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The server's response.
    pub response: Message,
    /// Round-trip time charged, nanoseconds.
    pub rtt_ns: u64,
    /// Query wire size, octets.
    pub query_bytes: usize,
    /// Response wire size, octets.
    pub response_bytes: usize,
    /// An off-path forgery that arrived ahead of [`Exchange::response`],
    /// when the fault plane injected one.
    pub spoof: Option<SpoofedResponse>,
}

/// A hook that can rewrite messages in flight — the man-in-the-middle of
/// the paper's §6.2.3 attack analysis (TXT rewriting, Z-bit flipping).
pub type Tamper = Box<dyn FnMut(&mut Message, Direction)>;

/// Routes queries to registered nodes, charging latency and recording
/// traffic.
pub struct Network {
    nodes: BTreeMap<Ipv4Addr, Box<dyn DnsHandler>>,
    default_route: Option<Box<dyn DnsHandler>>,
    labels: BTreeMap<Ipv4Addr, String>,
    latency: LatencyModel,
    tcp_latency: Option<LatencyModel>,
    capture: Capture,
    stats: TrafficStats,
    observer: Option<Box<dyn PacketSink>>,
    arena: RenderArena,
    clock_ns: u64,
    seq: u64,
    next_id: u16,
    tamper: Option<Tamper>,
    faults: FaultPlane,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.labels)
            .field("clock_ns", &self.clock_ns)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates a network with default latency and a DLV-only capture.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: BTreeMap::new(),
            default_route: None,
            labels: BTreeMap::new(),
            latency: LatencyModel::new(seed),
            tcp_latency: None,
            capture: Capture::new(CaptureFilter::DlvOnly),
            stats: TrafficStats::new(),
            observer: None,
            arena: RenderArena::new(),
            clock_ns: 0,
            seq: 0,
            next_id: 1,
            tamper: None,
            faults: FaultPlane::new(seed),
        }
    }

    /// Replaces the fault plane (a quiet plane keyed by the network seed is
    /// installed at construction).
    pub fn set_fault_plane(&mut self, faults: FaultPlane) {
        self.faults = faults;
    }

    /// The fault plane.
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutable access to the fault plane, for degrading or healing links
    /// mid-run.
    pub fn fault_plane_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// Replaces the latency model.
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Installs a separate latency model for TCP exchanges. Until one is
    /// installed TCP shares the UDP model (the handshake round trip is
    /// charged either way); a separate model captures middlebox paths
    /// where stream traffic takes a different route.
    pub fn set_tcp_latency(&mut self, latency: LatencyModel) {
        self.tcp_latency = Some(latency);
    }

    /// Replaces the capture filter (clears retained packets).
    pub fn set_capture_filter(&mut self, filter: CaptureFilter) {
        self.capture = Capture::new(filter);
    }

    /// Installs a streaming packet observer (see [`PacketSink`]). The sink
    /// is shown every packet the capture would see — unfiltered, in
    /// capture order — so a fold over it can replace the capture entirely.
    /// Streaming runs pair this with [`CaptureFilter::None`].
    pub fn set_observer(&mut self, sink: Box<dyn PacketSink>) {
        self.observer = Some(sink);
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn PacketSink>> {
        self.observer.take()
    }

    /// Installs a man-in-the-middle hook (§6.2.3 attacks).
    pub fn set_tamper(&mut self, tamper: Option<Tamper>) {
        self.tamper = tamper;
    }

    /// Registers a node at an address.
    ///
    /// # Panics
    ///
    /// Panics if the address is already taken — experiment topologies are
    /// static and a collision is a construction bug.
    pub fn register(&mut self, addr: Ipv4Addr, label: &str, node: Box<dyn DnsHandler>) {
        let prev = self.nodes.insert(addr, node);
        assert!(prev.is_none(), "address {addr} registered twice");
        self.labels.insert(addr, label.to_string());
    }

    /// Replaces the handler at an already-registered address — chaos
    /// scenarios swap or wrap a live server mid-run (e.g. a registry
    /// moving through its decommission stages). Returns whether a node
    /// was previously present.
    pub fn replace_node(&mut self, addr: Ipv4Addr, label: &str, node: Box<dyn DnsHandler>) -> bool {
        let prev = self.nodes.insert(addr, node).is_some();
        self.labels.insert(addr, label.to_string());
        prev
    }

    /// Installs a handler for addresses with no registered node.
    ///
    /// The million-domain workloads use this: one synthetic authority serves
    /// every long-tail SLD zone, addressed by deterministically derived
    /// (but never individually registered) server addresses.
    pub fn set_default_route(&mut self, node: Box<dyn DnsHandler>) {
        self.default_route = Some(node);
    }

    /// Whether a node is registered at `addr`.
    pub fn has_node(&self, addr: Ipv4Addr) -> bool {
        self.nodes.contains_key(&addr)
    }

    /// The label a node was registered under.
    pub fn label_of(&self, addr: Ipv4Addr) -> Option<&str> {
        self.labels.get(&addr).map(String::as_str)
    }

    /// Fresh query id (wraps).
    pub fn allocate_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Sends `query` to the node at `dst` over UDP (see
    /// [`Network::exchange_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] when nothing is registered at `dst`.
    pub fn exchange(&mut self, dst: Ipv4Addr, query: &Message) -> Result<Exchange, NetError> {
        self.exchange_with(dst, query, Transport::Udp)
    }

    /// Sends `query` to the node at `dst` over the given transport,
    /// returning its response together with the latency and byte
    /// accounting. Advances the simulated clock.
    ///
    /// UDP responses larger than the advertised payload size (the EDNS
    /// size, or [`UDP_LIMIT_NO_EDNS`] without EDNS) come back truncated
    /// with the TC bit set; callers retry over [`Transport::Tcp`], which
    /// carries any size at the cost of an extra handshake round trip and
    /// [`TCP_OVERHEAD_BYTES`] of framing.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] when nothing is registered at `dst`,
    /// or [`NetError::Timeout`] when the fault plane or server loses the
    /// exchange (the simulated clock then advances by
    /// [`DEFAULT_TIMEOUT_NS`]).
    pub fn exchange_with(
        &mut self,
        dst: Ipv4Addr,
        query: &Message,
        transport: Transport,
    ) -> Result<Exchange, NetError> {
        self.exchange_with_opts(dst, query, transport, DEFAULT_TIMEOUT_NS)
    }

    /// Sends `query` with an explicit retransmission timeout.
    ///
    /// When the exchange is lost — the fault plane drops a leg, the server
    /// swallows the query, or delays push the round trip past `timeout_ns`
    /// — the caller waits out its timer: the clock advances by
    /// `timeout_ns` and [`NetError::Timeout`] is returned. The transmitted
    /// query is still captured and counted (it was on the wire; for DLV
    /// traffic it leaked regardless of the answer's fate).
    ///
    /// With a quiet fault plane and well-behaved servers this is identical
    /// to [`Network::exchange_with`] on every byte of capture and stats.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] when nothing is registered at `dst`,
    /// or [`NetError::Timeout`] as described above.
    pub fn exchange_with_opts(
        &mut self,
        dst: Ipv4Addr,
        query: &Message,
        transport: Transport,
        timeout_ns: u64,
    ) -> Result<Exchange, NetError> {
        let plan = match transport {
            Transport::Udp => self.faults.plan(dst, self.seq),
            Transport::Tcp => self.faults.tcp_plan(dst, self.seq),
        };
        let mut query = query.clone();
        if let Some(tamper) = &mut self.tamper {
            tamper(&mut query, Direction::Query);
        }
        let mut query_bytes = self.arena.measure(&query);
        let mut rtt_ns = match (transport, &self.tcp_latency) {
            (Transport::Tcp, Some(tcp)) => tcp.rtt_ns(dst, self.seq),
            _ => self.latency.rtt_ns(dst, self.seq),
        };
        if transport == Transport::Tcp {
            // Handshake before the query can flow.
            rtt_ns *= 2;
            query_bytes += TCP_OVERHEAD_BYTES;
        }
        rtt_ns += plan.extra_delay_ns;
        self.seq += 1;

        let (qname, qtype) = match query.question() {
            Some(q) => (q.name.clone(), q.rrtype),
            None => (lookaside_wire::Name::root(), RrType::Unknown(0)),
        };
        let query_packet = Packet {
            time_ns: self.clock_ns,
            dst,
            direction: Direction::Query,
            qname: qname.clone(),
            qtype,
            rcode: Rcode::NoError,
            answers: 0,
            size: query_bytes,
        };
        if let Some(sink) = &mut self.observer {
            sink.observe(&query_packet);
        }
        self.capture.record(query_packet);

        if plan.query_lost {
            return Err(self.time_out(dst, qtype, query_bytes, timeout_ns));
        }

        let node = match self.nodes.get_mut(&dst) {
            Some(node) => node,
            None => self.default_route.as_mut().ok_or(NetError::NoRoute(dst))?,
        };
        let action = node.handle_transport(&query, self.clock_ns, transport);
        if plan.duplicate {
            // The spare copy reaches the server too; its response loses the
            // transaction-id race at the resolver and is discarded.
            let _ = node.handle_transport(&query, self.clock_ns, transport);
            self.stats.duplicates += 1;
        }
        let mut response = match action {
            ServerAction::Respond(response) => response,
            ServerAction::DelayedRespond { response, extra_ns } => {
                rtt_ns += extra_ns;
                response
            }
            ServerAction::Drop => return Err(self.time_out(dst, qtype, query_bytes, timeout_ns)),
        };
        if let Some(tamper) = &mut self.tamper {
            tamper(&mut response, Direction::Response);
        }
        if transport == Transport::Udp {
            let limit = query.edns.map_or(UDP_LIMIT_NO_EDNS, |e| e.udp_size) as usize;
            if self.arena.measure(&response) > limit || plan.truncate {
                // Truncate: keep the header + question, raise TC. The fault
                // plane can force this on fitting responses too (a
                // middlebox or rate-limiter clipping the datagram).
                response.answers.clear();
                response.authorities.clear();
                response.additionals.clear();
                response.header.flags.tc = true;
                if plan.truncate {
                    self.stats.forced_truncations += 1;
                }
            }
        }
        if plan.response_lost || rtt_ns >= timeout_ns {
            return Err(self.time_out(dst, qtype, query_bytes, timeout_ns));
        }
        // Byzantine corruption: flip seeded bits in the rendered datagram
        // and deliver whatever the bytes now decode to — a subtly wrong
        // message, or an undecodable one the resolver must classify.
        if let (Transport::Udp, Some(salt)) = (transport, plan.corrupt_salt) {
            match corrupt_message(&response, salt) {
                Some(mangled) => response = mangled,
                None => {
                    self.clock_ns += rtt_ns;
                    self.stats.record_malformed(qtype, query_bytes, rtt_ns);
                    return Err(NetError::Malformed(dst));
                }
            }
        }
        let spoof = match (transport, plan.spoof_salt) {
            (Transport::Udp, Some(salt)) => {
                self.stats.spoofed_responses += 1;
                Some(forge_response(&query, &qname, salt))
            }
            _ => None,
        };
        let response_bytes = self.arena.measure(&response);
        self.clock_ns += rtt_ns;

        let response_packet = Packet {
            time_ns: self.clock_ns,
            dst,
            direction: Direction::Response,
            qname,
            qtype,
            rcode: response.rcode(),
            answers: response.answers.len() as u16,
            size: response_bytes,
        };
        if let Some(sink) = &mut self.observer {
            sink.observe(&response_packet);
        }
        self.capture.record(response_packet);
        self.stats.record(qtype, response.rcode(), query_bytes, response_bytes, rtt_ns);

        Ok(Exchange { response, rtt_ns, query_bytes, response_bytes, spoof })
    }

    /// Counts one answer served from an expired cache entry (RFC 8767).
    /// Called by the resolver so staleness lands in the same additive
    /// stats that shard merging reduces.
    pub fn note_stale_serve(&mut self) {
        self.stats.stale_serves += 1;
    }

    /// Charges a full timeout wait for a lost exchange.
    fn time_out(
        &mut self,
        dst: Ipv4Addr,
        qtype: RrType,
        query_bytes: usize,
        timeout_ns: u64,
    ) -> NetError {
        self.clock_ns += timeout_ns;
        self.stats.record_timeout(qtype, query_bytes, timeout_ns);
        NetError::Timeout(dst)
    }

    /// Convenience: build and send a DNSSEC (`DO`-bit) query.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] when nothing is registered at `dst`.
    pub fn dnssec_query(
        &mut self,
        dst: Ipv4Addr,
        qname: lookaside_wire::Name,
        qtype: RrType,
    ) -> Result<Exchange, NetError> {
        let id = self.allocate_id();
        // `Message::query` already asks in class IN.
        self.exchange(dst, &Message::dnssec_query(id, qname, qtype))
    }

    /// Simulated time, nanoseconds since the run started.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the simulated clock without traffic — idle time between
    /// client queries, or a test waiting out cache TTLs. There are no wall
    /// clocks anywhere in the simulator; this is the only way time passes
    /// outside an exchange.
    pub fn advance(&mut self, ns: u64) {
        self.clock_ns += ns;
    }

    /// Counts one resolver-side retransmission (the retried exchange
    /// itself is recorded when it happens; this counter tracks how many
    /// exchanges were repeats of an earlier transmission).
    pub fn note_retransmission(&mut self) {
        self.stats.retransmissions += 1;
    }

    /// The packet capture.
    pub fn capture(&self) -> &Capture {
        &self.capture
    }

    /// The capture's text export, annotated with the loss/retry counters
    /// (see [`Capture::to_text_with_stats`]).
    pub fn capture_text(&self) -> String {
        self.capture.to_text_with_stats(&self.stats)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets clock, capture, statistics, and any installed observer's
    /// accumulated state (topology unchanged).
    pub fn reset_measurement(&mut self) {
        self.clock_ns = 0;
        self.seq = 0;
        self.capture.clear();
        self.stats = TrafficStats::new();
        if let Some(sink) = &mut self.observer {
            sink.reset();
        }
    }

    /// Rendering-arena occupancy: `(messages rendered, high-water octets)`
    /// — the streaming bench reports these to show the arena stops growing
    /// once the largest message has been seen.
    pub fn arena_stats(&self) -> (u64, usize) {
        (self.arena.renders(), self.arena.high_water())
    }
}

/// Renders `response`, flips `1 + salt % 7` seeded bits (skipping the
/// 12-byte header so the mutation hits names, counts-of-records'
/// payloads, and rdata rather than mostly the id), and re-decodes.
/// Returns the mangled message, or `None` when the bytes no longer parse.
fn corrupt_message(response: &Message, salt: u64) -> Option<Message> {
    let mut bytes = response.to_bytes();
    if bytes.len() <= 12 {
        return Message::from_bytes(&bytes).ok();
    }
    let body = bytes.len() - 12;
    let flips = 1 + (salt % 7) as usize;
    for i in 0..flips {
        let roll = splitmix64(salt.wrapping_add((i as u64).wrapping_mul(GOLDEN)));
        let pos = 12 + (roll as usize) % body;
        let bit = (roll >> 32) % 8;
        if let Some(byte) = bytes.get_mut(pos) {
            *byte ^= 1 << bit;
        }
    }
    Message::from_bytes(&bytes).ok()
}

/// Builds the off-path forgery for a spoof-injection fault: a plausible
/// positive answer an attacker who saw only the query could fabricate,
/// with a wrong transaction id and/or wrong source address (at least one
/// is always wrong — the attacker is off-path).
fn forge_response(query: &Message, qname: &lookaside_wire::Name, salt: u64) -> SpoofedResponse {
    let wrong_source = salt & 2 == 2;
    let wrong_qid = salt & 1 == 1 || !wrong_source;
    let forged_addr = std::net::Ipv4Addr::from(0x0a0a_0000_u32 | (salt as u32 & 0xffff));
    let mut response = MessageBuilder::respond_to(query)
        .rcode(Rcode::NoError)
        .authoritative(true)
        .answer(Record::new(qname.clone(), 60, RData::A(forged_addr)))
        .build();
    if wrong_qid {
        response.header.id = response.header.id.wrapping_add(((salt >> 8) as u16) | 1);
    }
    SpoofedResponse { response, wrong_qid, wrong_source }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::Name;

    struct Echo;

    impl DnsHandler for Echo {
        fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
            MessageBuilder::respond_to(query).rcode(Rcode::NoError).build()
        }
    }

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    fn net_with_echo() -> Network {
        let mut net = Network::new(11);
        net.register(addr(1), "echo", Box::new(Echo));
        net
    }

    fn q(name: &str, qtype: RrType) -> Message {
        Message::dnssec_query(9, Name::parse(name).unwrap(), qtype)
    }

    #[test]
    fn exchange_routes_and_accounts() {
        let mut net = net_with_echo();
        let ex = net.exchange(addr(1), &q("example.com", RrType::A)).unwrap();
        assert_eq!(ex.response.rcode(), Rcode::NoError);
        assert!(ex.query_bytes > 12);
        assert_eq!(net.stats().total_queries(), 1);
        assert_eq!(net.stats().queries_of(RrType::A), 1);
        assert_eq!(net.now_ns(), ex.rtt_ns);
    }

    #[test]
    fn no_route_is_error() {
        let mut net = net_with_echo();
        let err = net.exchange(addr(99), &q("example.com", RrType::A)).unwrap_err();
        assert_eq!(err, NetError::NoRoute(addr(99)));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut net = net_with_echo();
        net.register(addr(1), "dup", Box::new(Echo));
    }

    #[test]
    fn capture_default_keeps_only_dlv() {
        let mut net = net_with_echo();
        net.exchange(addr(1), &q("example.com", RrType::A)).unwrap();
        net.exchange(addr(1), &q("example.com.dlv.isc.org", RrType::Dlv)).unwrap();
        assert_eq!(net.capture().len(), 2, "dlv query + response");
        assert_eq!(net.capture().dlv_queries().count(), 1);
    }

    #[test]
    fn clock_accumulates_over_exchanges() {
        let mut net = net_with_echo();
        let a = net.exchange(addr(1), &q("a.com", RrType::A)).unwrap();
        let b = net.exchange(addr(1), &q("b.com", RrType::A)).unwrap();
        assert_eq!(net.now_ns(), a.rtt_ns + b.rtt_ns);
        assert_eq!(net.stats().total_time_ns(), net.now_ns());
    }

    #[test]
    fn tamper_hook_rewrites_responses() {
        let mut net = net_with_echo();
        net.set_tamper(Some(Box::new(|msg: &mut Message, dir: Direction| {
            if dir == Direction::Response {
                msg.header.flags.z = true;
            }
        })));
        let ex = net.exchange(addr(1), &q("a.com", RrType::A)).unwrap();
        assert!(ex.response.header.flags.z);
    }

    #[test]
    fn reset_measurement_zeroes_but_keeps_topology() {
        let mut net = net_with_echo();
        net.exchange(addr(1), &q("a.com", RrType::A)).unwrap();
        net.reset_measurement();
        assert_eq!(net.now_ns(), 0);
        assert_eq!(net.stats().total_queries(), 0);
        assert!(net.has_node(addr(1)));
        assert!(net.exchange(addr(1), &q("b.com", RrType::A)).is_ok());
    }

    struct Bloated;

    impl DnsHandler for Bloated {
        fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
            let mut resp = MessageBuilder::respond_to(query).build();
            // ~40 TXT records of 64 bytes: far beyond 512, beyond 2048 too.
            for i in 0..40 {
                resp.answers.push(lookaside_wire::Record::new(
                    query.question().unwrap().name.clone(),
                    60,
                    lookaside_wire::RData::Txt(vec![format!("{i:064}")]),
                ));
            }
            resp
        }
    }

    #[test]
    fn oversized_udp_response_is_truncated() {
        let mut net = Network::new(11);
        net.register(addr(7), "bloated", Box::new(Bloated));
        // Non-EDNS query: 512-byte limit applies.
        let q = Message::query(1, Name::parse("big.test.").unwrap(), RrType::Txt);
        let ex = net.exchange(addr(7), &q).unwrap();
        assert!(ex.response.header.flags.tc, "oversized response must truncate");
        assert!(ex.response.answers.is_empty());
        assert!(ex.response_bytes <= 512);
    }

    #[test]
    fn tcp_carries_oversized_responses_at_extra_cost() {
        let mut net = Network::new(11);
        net.register(addr(7), "bloated", Box::new(Bloated));
        let q = Message::query(2, Name::parse("big.test.").unwrap(), RrType::Txt);
        let udp = net.exchange_with(addr(7), &q, Transport::Udp).unwrap();
        let tcp = net.exchange_with(addr(7), &q, Transport::Tcp).unwrap();
        assert!(!tcp.response.header.flags.tc);
        assert_eq!(tcp.response.answers.len(), 40);
        assert!(tcp.response_bytes > 512);
        assert!(tcp.rtt_ns > udp.rtt_ns, "handshake costs a round trip");
        assert!(tcp.query_bytes > udp.query_bytes, "framing overhead");
    }

    #[test]
    fn edns_raises_the_udp_limit() {
        let mut net = Network::new(11);
        net.register(addr(7), "bloated", Box::new(Bloated));
        let q = Message::dnssec_query(3, Name::parse("big.test.").unwrap(), RrType::Txt);
        // EDNS advertises 4096: the ~3 KiB response fits.
        let ex = net.exchange(addr(7), &q).unwrap();
        assert!(!ex.response.header.flags.tc);
        assert_eq!(ex.response.answers.len(), 40);
    }

    #[test]
    fn forced_truncation_clips_and_raises_tc() {
        let mut net = net_with_echo();
        net.fault_plane_mut()
            .set_link(addr(1), crate::LinkFaults::quiet().with_truncate_milli(1000));
        let ex = net.exchange(addr(1), &q("example.com", RrType::A)).unwrap();
        assert!(ex.response.header.flags.tc);
        assert!(ex.response.answers.is_empty());
        assert_eq!(net.stats().forced_truncations, 1);
        // TCP is immune: truncation is a datagram fault.
        let ex = net.exchange_with(addr(1), &q("example.com", RrType::A), Transport::Tcp).unwrap();
        assert!(!ex.response.header.flags.tc);
    }

    #[test]
    fn corruption_mangles_or_malforms_but_never_panics() {
        let mut net = Network::new(31);
        net.register(addr(7), "bloated", Box::new(Bloated));
        net.fault_plane_mut()
            .set_link(addr(7), crate::LinkFaults::quiet().with_corrupt_milli(1000));
        let mut delivered = 0u32;
        let mut malformed = 0u32;
        for i in 0..200 {
            let query = Message::dnssec_query(i, Name::parse("big.test.").unwrap(), RrType::Txt);
            match net.exchange(addr(7), &query) {
                Ok(ex) => {
                    delivered += 1;
                    // The mangled message may differ from the original in
                    // any field; it only has to have decoded.
                    let _ = ex.response.rcode();
                }
                Err(NetError::Malformed(a)) => {
                    malformed += 1;
                    assert_eq!(a, addr(7));
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(delivered > 0, "some corruptions must still decode");
        assert!(malformed > 0, "some corruptions must break the format");
        assert_eq!(net.stats().malformed_responses, u64::from(malformed));
        // Malformed exchanges charge a round trip, not a timeout.
        assert_eq!(net.stats().timeouts, 0);
    }

    #[test]
    fn spoofed_responses_race_the_genuine_answer() {
        let mut net = net_with_echo();
        net.fault_plane_mut().set_link(addr(1), crate::LinkFaults::quiet().with_spoof_milli(1000));
        for i in 0..50 {
            let query = Message::dnssec_query(i + 100, Name::parse("a.com.").unwrap(), RrType::A);
            let ex = net.exchange(addr(1), &query).unwrap();
            let spoof = ex.spoof.expect("spoof_milli=1000 always injects");
            assert!(spoof.wrong_qid || spoof.wrong_source, "off-path forgery is always wrong");
            assert!(spoof.detectable(true, true));
            assert!(!spoof.response.answers.is_empty(), "forgery looks like an answer");
            if spoof.wrong_qid {
                assert_ne!(spoof.response.header.id, query.header.id);
            }
        }
        assert_eq!(net.stats().spoofed_responses, 50);
    }

    #[test]
    fn tcp_uses_its_own_latency_model_when_installed() {
        let mut slow = net_with_echo();
        let mut tcp_model = LatencyModel::new(5);
        tcp_model.pin(addr(1), 200, 200);
        slow.set_tcp_latency(tcp_model);
        let mut udp_model = LatencyModel::new(5);
        udp_model.pin(addr(1), 10, 10);
        slow.set_latency(udp_model);
        let udp = slow.exchange_with(addr(1), &q("a.com", RrType::A), Transport::Udp).unwrap();
        let tcp = slow.exchange_with(addr(1), &q("a.com", RrType::A), Transport::Tcp).unwrap();
        assert!(
            tcp.rtt_ns >= 20 * udp.rtt_ns,
            "pinned TCP model must dominate: {} vs {}",
            tcp.rtt_ns,
            udp.rtt_ns
        );
    }

    #[test]
    fn default_route_serves_unregistered_addresses() {
        let mut net = net_with_echo();
        assert!(net.exchange(addr(50), &q("a.com", RrType::A)).is_err());
        net.set_default_route(Box::new(Echo));
        let ex = net.exchange(addr(50), &q("a.com", RrType::A)).unwrap();
        assert_eq!(ex.response.rcode(), Rcode::NoError);
        // Registered nodes still take precedence.
        assert!(net.exchange(addr(1), &q("a.com", RrType::A)).is_ok());
    }

    #[test]
    fn allocate_id_increments() {
        let mut net = net_with_echo();
        let a = net.allocate_id();
        let b = net.allocate_id();
        assert_ne!(a, b);
    }
}
