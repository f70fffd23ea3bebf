//! The million-stub client plane.
//!
//! The paper's DLV leak is an *aggregation* phenomenon: what the registry
//! operator sees is not one resolver's query list but the residue of
//! millions of stub clients funneling through shared recursive caches.
//! This crate models that client side as a pure function of a seed — no
//! stored state, no RNG stream — so a plane of millions of stubs costs
//! nothing to "build" and any subset of it can be replayed independently:
//!
//! * [`StubPlane`] — the plane itself: per-client activity (session
//!   churn), per-client Zipf interest profiles (a personal favourite set
//!   drawn from a global Zipf over domain ranks, revisited with
//!   TTL-driven re-query behaviour), and the resulting per-client
//!   [`QueryEvent`] streams,
//! * [`PlaneParams`] — the knobs: client count, Zipf exponent, favourite
//!   pool, session window, stub-cache TTL.
//!
//! Every attribute derives from splitmix64-style hashing of
//! `(seed, client, salt)`; two planes with equal parameters are
//! indistinguishable, which the proptests pin down. Hashing also makes
//! any contiguous range of client ids a fair sample of the plane, so the
//! farm driver (`lookaside::farm`) shards clients by range.

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

mod plane;

pub use plane::{PlaneParams, QueryEvent, StubPlane};
