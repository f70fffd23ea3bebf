//! A recursive, validating, DLV-capable DNS resolver modelling the
//! configuration semantics of BIND and Unbound.
//!
//! This crate reproduces the resolver side of the paper:
//!
//! * [`config`] — the BIND/Unbound option model, the install-method presets
//!   of Table 2, and the 16-environment matrix of Table 1,
//! * [`RecursiveResolver`] — iterative resolution with RRset/negative
//!   caching, glueless NS-host resolution, CNAME chasing, and the
//!   behavioural traffic model behind Table 4,
//! * validation — the four RFC 4033 statuses, chain-of-trust walking with
//!   explicit DS probes, and the RFC 5074 DLV look-aside walk with
//!   aggressive NSEC negative caching (the mechanism of Figs. 8–9),
//! * remedies — the §6.2 TXT-signal, Z-bit, and hashed-DLV behaviours.
//!
//! # Example
//!
//! See the crate-level examples in the `lookaside` facade crate, which
//! builds the simulated Internet this resolver runs against; a minimal
//! resolver is constructed from a [`ResolverSetup`].

// A hot-path crate: typed errors, not panics. Clippy holds live code to
// that; `panic::slice-index` in crates/lint covers indexing.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod harden;
mod resolver;
pub mod retry;
mod ring;
mod trust;
mod validate;

/// Slots in the per-resolver holddown [`TimerRing`] — far above the number
/// of simultaneously misbehaving servers any scenario sweeps, while fixing
/// the cache's steady-state footprint.
pub const HOLDDOWN_RING_CAPACITY: usize = 64;

pub use config::{
    environments, BindConfig, DnssecValidation, EffectiveBehavior, Environment, FeatureModel,
    InstallMethod, Lookaside, ResolverConfig, Software, UnboundConfig,
};
pub use harden::{BadCache, Hardening};
pub use resolver::{Counters, RecursiveResolver, Resolution, ResolveError, ResolverSetup};
pub use retry::{InfraCache, RetryPolicy, ServfailCache};
pub use ring::TimerRing;
pub use trust::{AnchorState, TrustAnchor, TrustAnchorSet, DEFAULT_HOLD_DOWN_NS};
pub use validate::{check_rrset, verify_rrset, RrsigCheck, SecurityStatus};
