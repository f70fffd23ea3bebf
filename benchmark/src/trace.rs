//! Spans recorded from outside the program: each `resolve_into` call is a
//! parent span, and each authoritative exchange inside it a child span,
//! stamped by a [`PacketSink`] that sees the query packet before the
//! server handles it and the response packet after.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use lookaside::netsim::{Direction, Network, Packet, PacketSink};
use lookaside::workload::TLDS;
use lookaside::LeakSink;

/// Server classes exchanges are attributed to.
pub const SERVER_CLASSES: [&str; 4] = ["root", "tld", "sld", "dlv"];

/// Resolutions whose raw spans are kept for the JSONL trace.
pub const RAW_RESOLUTIONS: u64 = 10_000;

/// The class of the node at `addr`, from the label it was registered
/// under; unregistered addresses are served by the SLD default route.
pub fn class_of(net: &Network, addr: Ipv4Addr) -> usize {
    match net.label_of(addr) {
        Some("root") => 0,
        Some("dlv-registry") => 3,
        Some(label) if TLDS.iter().any(|t| t.label == label) => 1,
        _ => 2,
    }
}

#[derive(Debug, Clone, Copy)]
enum SpanKind {
    Resolve,
    Exchange(Ipv4Addr),
}

#[derive(Debug, Clone, Copy)]
struct Span {
    resolution: u64,
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder and per-resolution aggregator.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    resolution: u64,
    pending: Option<(Instant, Ipv4Addr)>,
    exchanges_now: u64,
    /// Resolutions traced.
    pub resolutions: u64,
    /// Wall nanoseconds inside `resolve_into`, summed.
    pub resolve_ns: u64,
    /// Resolutions that made no exchange.
    pub no_exchange: u64,
    /// `(nanoseconds, exchanges)` per server address.
    by_addr: BTreeMap<Ipv4Addr, (u64, u64)>,
    raw: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            resolution: 0,
            pending: None,
            exchanges_now: 0,
            resolutions: 0,
            resolve_ns: 0,
            no_exchange: 0,
            by_addr: BTreeMap::new(),
            raw: Vec::new(),
        }
    }

    /// Opens the next resolution.
    pub fn start(&mut self) {
        self.resolution += 1;
        self.exchanges_now = 0;
        self.pending = None;
    }

    /// Closes the open resolution, which ran from `start` to `end`.
    pub fn finish(&mut self, start: Instant, end: Instant) {
        self.resolutions += 1;
        self.resolve_ns += (end - start).as_nanos() as u64;
        self.no_exchange += u64::from(self.exchanges_now == 0);
        self.keep(SpanKind::Resolve, start, end);
    }

    fn keep(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        if self.resolution <= RAW_RESOLUTIONS {
            self.raw.push(Span {
                resolution: self.resolution,
                kind,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }

    fn observe(&mut self, packet: &Packet, at: Instant) {
        match packet.direction {
            Direction::Query => self.pending = Some((at, packet.dst)),
            Direction::Response => {
                // A query that timed out has no response; its stamp is
                // replaced by the next query's and never becomes a span.
                if let Some((start, addr)) = self.pending.take().filter(|p| p.1 == packet.dst) {
                    let entry = self.by_addr.entry(addr).or_insert((0, 0));
                    entry.0 += (at - start).as_nanos() as u64;
                    entry.1 += 1;
                    self.exchanges_now += 1;
                    self.keep(SpanKind::Exchange(addr), start, at);
                }
            }
        }
    }

    /// `(nanoseconds, exchanges)` per server class of `net`.
    pub fn by_class(&self, net: &Network) -> [(u64, u64); 4] {
        let mut classes = [(0, 0); 4];
        for (&addr, &(ns, count)) in &self.by_addr {
            let class = &mut classes[class_of(net, addr)];
            class.0 += ns;
            class.1 += count;
        }
        classes
    }

    /// The kept spans as JSON lines, children after their parent.
    pub fn jsonl(&self, net: &Network) -> String {
        let mut text = String::new();
        let mut children = Vec::new();
        for span in &self.raw {
            match span.kind {
                SpanKind::Exchange(addr) => children.push((span, addr)),
                SpanKind::Resolve => {
                    let _ = writeln!(
                        text,
                        "{{\"resolution\": {}, \"span\": \"resolve_into\", \"start_ns\": {}, \"end_ns\": {}}}",
                        span.resolution, span.start_ns, span.end_ns
                    );
                    for (child, addr) in children.drain(..) {
                        let _ = writeln!(
                            text,
                            "{{\"resolution\": {}, \"span\": \"exchange\", \"parent\": \"resolve_into\", \
                             \"server\": \"{}\", \"addr\": \"{addr}\", \"start_ns\": {}, \"end_ns\": {}}}",
                            child.resolution,
                            SERVER_CLASSES[class_of(net, addr)],
                            child.start_ns,
                            child.end_ns
                        );
                    }
                }
            }
        }
        text
    }
}

/// Forwards every packet to the run's [`LeakSink`] and stamps exchanges
/// for the [`Tracer`]. The stamps bracket the leak fold of both packets,
/// so an exchange span covers everything the network does for it.
pub struct TraceSink {
    /// The recorder.
    pub tracer: Rc<RefCell<Tracer>>,
    /// The sink the untraced run installs.
    pub leaks: Rc<RefCell<LeakSink>>,
}

impl PacketSink for TraceSink {
    fn observe(&mut self, packet: &Packet) {
        match packet.direction {
            Direction::Query => {
                let at = Instant::now();
                self.leaks.borrow_mut().observe(packet);
                self.tracer.borrow_mut().observe(packet, at);
            }
            Direction::Response => {
                self.leaks.borrow_mut().observe(packet);
                self.tracer.borrow_mut().observe(packet, Instant::now());
            }
        }
    }

    fn reset(&mut self) {
        self.leaks.borrow_mut().reset();
    }
}
