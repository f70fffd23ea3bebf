//! Simulated name servers for the DLV privacy study.
//!
//! Three server kinds are provided:
//!
//! * [`AuthoritativeServer`] — serves one or more [`PublishedZone`]s with
//!   full RFC 4035 semantics: RRSIGs and NSEC proofs when the query carries
//!   the `DO` bit, referrals with DS (or NSEC no-DS proofs), NXDOMAIN with
//!   covering NSEC. It also implements the paper's §6.2.1 Z-bit remedy:
//!   responses for zones with a deposited DLV record carry the spare header
//!   Z bit.
//! * [`DlvRegistry`] — a DLV repository (the simulated `dlv.isc.org`):
//!   a signed zone whose owner names are `<domain>.<registry-apex>` holding
//!   DLV records (RFC 4431). Per RFC 5074 the *resolver* does the
//!   label-stripping walk; the registry itself is an ordinary signed
//!   authoritative zone whose NSEC chain is what enables aggressive
//!   negative caching.
//! * [`SyntheticAuthority`] — fabricates wire-faithful zones on demand for
//!   the million-domain workload tail, driven by a [`ZoneOracle`] that maps
//!   zone apexes to attributes (signed? DS in parent? DLV deposited?).
//!
//! [`PublishedZone`]: lookaside_zone::PublishedZone

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

mod authority;
mod dlv;
mod epoch;
mod flaky;
mod render;
mod synthetic;

pub use authority::AuthoritativeServer;
pub use dlv::{DecommissionStage, DlvDeposit, DlvRegistry, DLV_SPAN_TTL};
pub use epoch::{EpochAuthority, EpochRouter};
pub use flaky::FaultyServer;
pub use render::render_lookup;
pub use synthetic::{SyntheticAuthority, SyntheticSpec, ZoneOracle};
