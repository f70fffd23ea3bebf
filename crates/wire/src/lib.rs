//! DNS data model and wire codec for the DLV privacy-leakage study.
//!
//! This crate implements the protocol substrate that every other crate in the
//! workspace builds on:
//!
//! * [`Name`] — domain names with RFC 4034 §6.1 canonical ordering (the order
//!   NSEC chains are built in, and therefore the order that drives the
//!   aggressive-negative-caching behaviour the paper measures),
//! * [`NameMap`] and [`NameSet`] — exact-match name maps keyed by a fixed
//!   fingerprint, for caches whose order is never observed,
//! * [`RrType`] — including the DLV type (32769) from RFC 4431,
//! * [`Header`] and [`Flags`] — including the `DO`, `AD`, `CD` bits and the
//!   spare `Z` bit that §6.2.1 of the paper proposes as a remedy signal,
//! * [`RData`] / [`Record`] / [`RrSet`] — typed record data,
//! * [`Message`] — full DNS messages with a builder,
//! * [`codec`] — a complete wire-format encoder/decoder with name
//!   compression, used by the network simulator so that traffic-volume
//!   measurements (Table 5, Figs. 10–12) reflect true RFC 1035 byte counts.
//!
//! # Example
//!
//! ```
//! use lookaside_wire::{Message, Name, RrType};
//!
//! let q = Message::query(1, Name::parse("example.com.")?, RrType::A);
//! let bytes = q.to_bytes();
//! let back = Message::from_bytes(&bytes)?;
//! assert_eq!(back.question().unwrap().name, Name::parse("example.com.")?);
//! # Ok::<(), lookaside_wire::WireError>(())
//! ```

// Typed errors, not panics: clippy holds live code to that, indexing
// included, and every waiver is an `#[expect]` with a reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

mod arena;
mod error;
mod header;
mod message;
mod name;
mod name_map;
mod rdata;
mod record;
mod rrtype;

pub mod codec;
pub mod ext;

pub use arena::{RenderArena, Scratch};
pub use error::WireError;
pub use header::{Flags, Header, Opcode, Rcode};
pub use message::{Message, MessageBuilder, Question, Section};
pub use name::{Label, LabelRef, Labels, Name, NameBuilder, NameRef, NameTable};
pub use name_map::{NameKey, NameMap, NameSet};
pub use rdata::{RData, SoaData};
pub use record::{Record, RrSet};
pub use rrtype::{RrClass, RrType, TypeBitmap};

/// The DNS class used throughout the study (`IN`).
pub const CLASS_IN: RrClass = RrClass::In;
