//! Streaming packet observers — the fold-style alternative to [`Capture`].
//!
//! A capture keeps every retained packet for analysis afterwards; that is
//! faithful to the paper's pcap pipeline but costs O(queries) memory. A
//! [`PacketSink`] instead sees each packet at the moment
//! [`crate::Network`] records it and folds it into an accumulator
//! immediately, so nothing needs to be retained.
//!
//! Tee contract: the network shows a sink **every** packet it builds,
//! unfiltered, in capture order, at the same emission points where it
//! records into its own capture — and `reset_measurement` clears both
//! together. A sink that wants what a capture would have retained applies
//! the run's [`CaptureFilter`] via [`CaptureFilter::keeps`] itself,
//! mirroring what `Capture::record` does.
//!
//! `observe` runs once per packet for tens of millions of packets, so it
//! must not allocate; `crates/bench/tests/alloc_free.rs` holds
//! [`DlvQueryCounter::observe`] to that.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside_wire::RrType;

#[cfg(doc)]
use crate::capture::{Capture, CaptureFilter};
use crate::capture::{Direction, Packet};

/// A streaming observer of simulated packets.
///
/// Implementations fold packets into aggregate state; they must be pure
/// functions of the packet stream so that a run's results are too.
pub trait PacketSink {
    /// Called once per packet, in capture order, before loss is applied to
    /// queries (a lost query is still a sent query, exactly as captures
    /// record it).
    fn observe(&mut self, packet: &Packet);

    /// Clears accumulated state; called by `Network::reset_measurement` so
    /// warm-up traffic can be discarded the same way captures are.
    fn reset(&mut self) {}
}

/// Shared-handle sink: the network owns one handle, the experiment keeps
/// the other to read the accumulator back after the run.
impl<S: PacketSink + ?Sized> PacketSink for Rc<RefCell<S>> {
    fn observe(&mut self, packet: &Packet) {
        self.borrow_mut().observe(packet);
    }

    fn reset(&mut self) {
        self.borrow_mut().reset();
    }
}

/// Counts DLV-type query packets — the chaos harness's on-wire exposure
/// count, without retaining the packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DlvQueryCounter {
    /// Number of DLV queries (not responses) observed since the last reset.
    pub queries: u64,
}

impl DlvQueryCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        DlvQueryCounter::default()
    }
}

impl PacketSink for DlvQueryCounter {
    fn observe(&mut self, packet: &Packet) {
        if packet.qtype == RrType::Dlv && packet.direction == Direction::Query {
            self.queries += 1;
        }
    }

    fn reset(&mut self) {
        self.queries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::{Name, Rcode};
    use std::net::Ipv4Addr;

    fn packet(qtype: RrType, direction: Direction) -> Packet {
        Packet {
            time_ns: 0,
            dst: Ipv4Addr::new(192, 0, 2, 1),
            direction,
            qname: Name::parse("example.com.").unwrap(),
            qtype,
            rcode: Rcode::NoError,
            answers: 0,
            size: 64,
        }
    }

    #[test]
    fn counter_counts_only_dlv_queries() {
        let mut sink = DlvQueryCounter::new();
        sink.observe(&packet(RrType::A, Direction::Query));
        sink.observe(&packet(RrType::Dlv, Direction::Query));
        sink.observe(&packet(RrType::Dlv, Direction::Response));
        sink.observe(&packet(RrType::Dlv, Direction::Query));
        assert_eq!(sink.queries, 2);
        sink.reset();
        assert_eq!(sink.queries, 0);
    }

    #[test]
    fn shared_handle_folds_into_the_same_accumulator() {
        let shared = Rc::new(RefCell::new(DlvQueryCounter::new()));
        let mut handle: Rc<RefCell<DlvQueryCounter>> = Rc::clone(&shared);
        handle.observe(&packet(RrType::Dlv, Direction::Query));
        handle.reset();
        handle.observe(&packet(RrType::Dlv, Direction::Query));
        assert_eq!(shared.borrow().queries, 1);
    }
}
