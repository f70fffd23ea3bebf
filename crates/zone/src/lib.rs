//! DNS zone model for the DLV privacy study.
//!
//! A [`Zone`] holds authoritative content (RRsets, delegations, glue); a
//! [`PublishedZone`] is a zone prepared for serving — optionally
//! DNSSEC-signed with a ZSK/KSK pair, with an NSEC chain in RFC 4034
//! canonical order. [`PublishedZone::lookup`] implements the authoritative
//! lookup algorithm (answer / CNAME / referral / NODATA / NXDOMAIN with
//! denial-of-existence proofs) that the simulated servers expose on the
//! wire.
//!
//! The NSEC machinery here is what ultimately produces the paper's headline
//! curves: the DLV registry is published as a signed zone, and the
//! resolver's aggressive negative caching of its NSEC spans determines how
//! many DLV queries escape to the DLV server (Figs. 8 and 9).
//!
//! # Example
//!
//! ```
//! use lookaside_wire::{Name, RData, RrType};
//! use lookaside_zone::{Lookup, PublishedZone, SigningKeys, Zone};
//!
//! let apex = Name::parse("example.com.")?;
//! let mut zone = Zone::new(apex.clone(), Name::parse("ns1.example.com.")?);
//! zone.add(apex.clone(), 300, RData::A("192.0.2.1".parse().unwrap()));
//! let published = PublishedZone::signed(zone, &SigningKeys::from_seed(7), 0, 86_400);
//! assert!(matches!(published.lookup(&apex, RrType::A), Lookup::Answer { .. }));
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

mod error;
mod flat;
pub mod lifecycle;
mod lookup;
pub mod master;
mod nsec;
mod nsec3;
mod published;
mod zone;

pub use error::ZoneError;
pub use flat::{FlatHandle, FlatZone};
pub use lifecycle::{
    serial_lt, serial_window_contains, KeyTimeline, LifecycleFault, LifecycleTarget,
    RolloverPolicy, ZoneEpoch,
};
pub use lookup::{Lookup, SignedRrSet};
pub use nsec::{covers, NsecChain};
pub use nsec3::{base32hex, nsec3_hash, DenialMode, Nsec3Chain, NSEC3_HASH_LEN};
pub use published::{rrsig_signing_input, PublishedKey, PublishedZone, SigningKeys, ZoneKeySet};
pub use zone::Zone;

/// Default TTL for records created without an explicit TTL.
pub const DEFAULT_TTL: u32 = 3600;
