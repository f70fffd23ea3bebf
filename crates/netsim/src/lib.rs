//! Deterministic network simulator for the DLV privacy study.
//!
//! The paper's measurements are *packet captures*: the authors ran
//! resolvers, sniffed the wire, and counted which queries reached which
//! party. This crate provides the equivalent instruments:
//!
//! * [`Network`] — routes DNS messages between registered [`DnsHandler`]
//!   nodes (authoritative servers, DLV servers), charging each exchange
//!   simulated latency and exact wire-format byte counts,
//! * [`LatencyModel`] — deterministic per-link RTTs (seeded, no ambient
//!   randomness),
//! * [`Capture`] — the "tcpdump" of the study: an optional packet log the
//!   leakage classifier runs over (the paper's Case-1/Case-2 analysis is
//!   done on observed traffic, not resolver internals),
//! * [`TrafficStats`] — aggregate counters per query type, byte totals, and
//!   accumulated response time, feeding Tables 4–5 and Figs. 10–12.
//!
//! # Example
//!
//! ```
//! use lookaside_netsim::{DnsHandler, Network};
//! use lookaside_wire::{Message, MessageBuilder, Name, Rcode, RrType};
//! use std::net::Ipv4Addr;
//!
//! struct Refuser;
//! impl DnsHandler for Refuser {
//!     fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
//!         MessageBuilder::respond_to(query).rcode(Rcode::Refused).build()
//!     }
//! }
//!
//! let mut net = Network::new(7);
//! let addr = Ipv4Addr::new(198, 51, 100, 1);
//! net.register(addr, "refuser", Box::new(Refuser));
//! let q = Message::query(1, Name::parse("example.com.")?, RrType::A);
//! let exchange = net.exchange(addr, &q)?;
//! assert_eq!(exchange.response.rcode(), Rcode::Refused);
//! assert!(exchange.rtt_ns > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod capture;
mod fault;
mod latency;
mod network;
mod observe;
mod stats;

pub use capture::{Capture, CaptureFilter, Direction, Packet};
pub use fault::{FaultPlan, FaultPlane, LinkFaults};
pub use latency::LatencyModel;
pub use network::{
    DnsHandler, Exchange, NetError, Network, ServerAction, SpoofedResponse, Transport,
    DEFAULT_TIMEOUT_NS, TCP_OVERHEAD_BYTES, UDP_LIMIT_NO_EDNS,
};
pub use observe::{DlvQueryCounter, PacketSink};
pub use stats::TrafficStats;
