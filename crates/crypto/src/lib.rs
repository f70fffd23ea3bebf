//! Cryptographic substrate for the DLV privacy study.
//!
//! The paper's experiments require working DNSSEC signing and validation —
//! RRSIGs that verify only when the chain of trust is intact, DS digests
//! that bind parent to child, and key tags — but never rely on the
//! *strength* of the cryptography. This crate therefore implements:
//!
//! * [`sha256`](mod@sha256) — a from-scratch SHA-256 (FIPS 180-4), used for DS digests,
//!   deterministic nonces, and the hashed privacy-preserving DLV remedy of
//!   §6.2.2,
//! * [`schnorr`] — Schnorr signatures over a 49-bit safe-prime group.
//!   Structurally this is a genuine public-key signature scheme (separate
//!   signing and verification keys, real verification equation); the group
//!   is deliberately tiny so a simulator can sign millions of RRsets
//!   cheaply. **It provides no security margin** — see `DESIGN.md`,
//! * [`keys`] — the DNSSEC key model (ZSK/KSK flags, RFC 4034 key tags),
//! * [`digest`] — DS/DLV digest construction and the hashed-DLV query label.
//!
//! # Example
//!
//! ```
//! use lookaside_crypto::KeyPair;
//!
//! let key = KeyPair::generate_zsk(42);
//! let sig = key.sign(b"rrset bytes");
//! assert!(key.public().verify(b"rrset bytes", &sig));
//! assert!(!key.public().verify(b"tampered", &sig));
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

pub mod digest;
pub mod field;
pub mod keys;
pub mod schnorr;
pub mod sha256;

/// Reads a big-endian `u64` from the front of `bytes` without indexing.
///
/// Returns `None` when fewer than eight bytes are available, so callers on
/// the resolver hot path stay panic-free on truncated key or signature
/// material.
pub(crate) fn be_u64_head(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 8 {
        return None;
    }
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(bytes) {
        *dst = *src;
    }
    Some(u64::from_be_bytes(word))
}

pub use digest::{
    digest_matches, dlv_rdata, ds_digest, ds_rdata, hashed_dlv_label, DIGEST_TYPE_SIM_SHA256,
};
pub use keys::{
    KeyPair, KeyRole, PublicKey, ALGORITHM_SIM_SCHNORR, FLAG_REVOKE, FLAG_SEP, FLAG_ZONE_KEY,
};
pub use schnorr::Signature;
pub use sha256::{sha256, Sha256};
