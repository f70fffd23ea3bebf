//! NSEC3 — hashed authenticated denial of existence (RFC 5155).
//!
//! §7.3 of the paper: NSEC lets anyone enumerate a zone (walk the chain),
//! so registries may prefer NSEC3 — but RFC 5074 §5 only permits aggressive
//! negative caching for *NSEC*, so an NSEC3 DLV registry loses its only
//! leakage damper: "Every query to the resolver would trigger a query to
//! the DLV server." The `nsec3` experiment quantifies exactly that
//! trade-off.
//!
//! Hashing note: RFC 5155 hashes with SHA-1; this simulator uses its own
//! SHA-256 truncated to 20 octets and keeps the RFC's algorithm identifier
//! (see DESIGN.md's crypto substitution).

use lookaside_crypto::Sha256;
use lookaside_wire::{Name, RData, RrSet, TypeBitmap};
use serde::{Deserialize, Serialize};

/// Octets of an NSEC3 owner hash (matches SHA-1's 20).
pub const NSEC3_HASH_LEN: usize = 20;

/// Which denial-of-existence mechanism a signed zone publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DenialMode {
    /// Plain NSEC chains (RFC 4034) — enumerable, aggressively cacheable.
    #[default]
    Nsec,
    /// Hashed NSEC3 chains (RFC 5155) — enumeration-resistant, but not
    /// usable for aggressive negative caching in DLV (RFC 5074 §5).
    Nsec3,
}

/// Computes the (simulated) NSEC3 hash of a name.
pub fn nsec3_hash(name: &Name, salt: &[u8], iterations: u16) -> [u8; NSEC3_HASH_LEN] {
    let mut wire = Vec::with_capacity(name.wire_len());
    name.encode_uncompressed(&mut wire);
    let mut digest = {
        let mut h = Sha256::new();
        h.update(&wire);
        h.update(salt);
        h.finalize()
    };
    for _ in 0..iterations {
        let mut h = Sha256::new();
        h.update(&digest);
        h.update(salt);
        digest = h.finalize();
    }
    let mut out = [0u8; NSEC3_HASH_LEN];
    out.copy_from_slice(&digest[..NSEC3_HASH_LEN]);
    out
}

/// Base32hex (RFC 4648 §7, no padding, lowercase) — the encoding of NSEC3
/// owner labels.
#[expect(clippy::indexing_slicing, reason = "chunks(5) fills at most 5 octets; symbols are 5 bits")]
pub fn base32hex(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 32] = b"0123456789abcdefghijklmnopqrstuv";
    let mut out = String::with_capacity(bytes.len().div_ceil(5) * 8);
    for chunk in bytes.chunks(5) {
        let mut buf = [0u8; 5];
        buf[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from(buf[0]) << 32
            | u64::from(buf[1]) << 24
            | u64::from(buf[2]) << 16
            | u64::from(buf[3]) << 8
            | u64::from(buf[4]);
        let symbols = match chunk.len() {
            1 => 2,
            2 => 4,
            3 => 5,
            4 => 7,
            _ => 8,
        };
        for i in 0..symbols {
            let shift = 35 - 5 * i;
            out.push(ALPHABET[((v >> shift) & 0x1f) as usize] as char);
        }
    }
    out
}

/// An NSEC3 chain over a zone's owner names, sorted by hash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nsec3Chain {
    apex: Name,
    salt: Vec<u8>,
    iterations: u16,
    /// (owner hash, types at the unhashed owner), sorted by hash.
    entries: Vec<([u8; NSEC3_HASH_LEN], TypeBitmap)>,
}

impl Nsec3Chain {
    /// Builds the chain from `(owner, types-present)` pairs.
    pub fn build(
        apex: Name,
        names: Vec<(Name, TypeBitmap)>,
        salt: Vec<u8>,
        iterations: u16,
    ) -> Self {
        let mut entries: Vec<([u8; NSEC3_HASH_LEN], TypeBitmap)> = names
            .into_iter()
            .map(|(name, mut types)| {
                types.insert(lookaside_wire::RrType::Rrsig);
                (nsec3_hash(&name, &salt, iterations), types)
            })
            .collect();
        entries.sort_by_key(|e| e.0);
        entries.dedup_by(|a, b| {
            if a.0 == b.0 {
                let moved = std::mem::take(&mut a.1);
                b.1.extend(moved.iter());
                true
            } else {
                false
            }
        });
        Nsec3Chain { apex, salt, iterations, entries }
    }

    /// Number of NSEC3 records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The NSEC3 RRset at entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the chain is empty.
    #[expect(clippy::indexing_slicing, reason = "documented contract; callers pass chain indices")]
    #[expect(clippy::expect_used, reason = "a 32-octet base32hex label fits under any apex")]
    pub fn record_at(&self, idx: usize, ttl: u32) -> RrSet {
        let (hash, types) = &self.entries[idx];
        let next = self.entries[(idx + 1) % self.entries.len()].0;
        let owner = self.apex.prepend(&base32hex(hash)).expect("base32hex label fits");
        RrSet::single(
            owner,
            ttl,
            RData::Nsec3 {
                hash_algorithm: 1,
                flags: 0,
                iterations: self.iterations,
                salt: self.salt.clone(),
                next_hashed: next.to_vec(),
                types: types.clone(),
            },
        )
    }

    /// The NSEC3 record covering `name`'s hash, proving non-existence —
    /// `None` when the name exists (its hash is an owner).
    pub fn covering(&self, name: &Name, ttl: u32) -> Option<RrSet> {
        Some(self.record_at(self.covering_index(name)?, ttl))
    }

    /// The NSEC3 record at `name`'s own hash (type-absence proof).
    pub fn at(&self, name: &Name, ttl: u32) -> Option<RrSet> {
        let idx = self.index_of(name)?;
        Some(self.record_at(idx, ttl))
    }

    /// Index of the NSEC3 record covering `name`'s hash — `None` when the
    /// name exists. The hashed analogue of [`NsecChain::covering_index`].
    ///
    /// [`NsecChain::covering_index`]: crate::NsecChain::covering_index
    pub fn covering_index(&self, name: &Name) -> Option<usize> {
        let hash = nsec3_hash(name, &self.salt, self.iterations);
        match self.entries.binary_search_by(|(h, _)| h.cmp(&hash)) {
            Ok(_) => None,
            Err(0) => self.entries.len().checked_sub(1),
            Err(i) => Some(i - 1),
        }
    }

    /// Index of the entry at `name`'s own hash, if the name exists.
    pub fn index_of(&self, name: &Name) -> Option<usize> {
        let hash = nsec3_hash(name, &self.salt, self.iterations);
        self.entries.binary_search_by(|(h, _)| h.cmp(&hash)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::RrType;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn chain() -> Nsec3Chain {
        let names = ["alpha.z", "bravo.z", "charlie.z", "z"]
            .iter()
            .map(|s| (n(s), TypeBitmap::from_types([RrType::A])))
            .collect();
        Nsec3Chain::build(n("z"), names, vec![0xab], 3)
    }

    #[test]
    fn hash_is_stable_and_salt_sensitive() {
        let a = nsec3_hash(&n("example.com"), &[1, 2], 5);
        assert_eq!(a, nsec3_hash(&n("example.com"), &[1, 2], 5));
        assert_ne!(a, nsec3_hash(&n("example.com"), &[9], 5));
        assert_ne!(a, nsec3_hash(&n("example.com"), &[1, 2], 6));
        assert_ne!(a, nsec3_hash(&n("example.net"), &[1, 2], 5));
    }

    #[test]
    fn base32hex_rfc4648_vectors() {
        // RFC 4648 §10 test vectors (lowercase, unpadded).
        assert_eq!(base32hex(b""), "");
        assert_eq!(base32hex(b"f"), "co");
        assert_eq!(base32hex(b"fo"), "cpng");
        assert_eq!(base32hex(b"foo"), "cpnmu");
        assert_eq!(base32hex(b"foob"), "cpnmuog");
        assert_eq!(base32hex(b"fooba"), "cpnmuoj1");
        assert_eq!(base32hex(b"foobar"), "cpnmuoj1e8");
    }

    #[test]
    fn owner_labels_are_legal_names() {
        let c = chain();
        for idx in 0..c.len() {
            let rec = c.record_at(idx, 60);
            assert_eq!(rec.name.label(0).len(), 32, "20 bytes -> 32 base32hex chars");
            assert!(rec.name.is_subdomain_of(&n("z")));
        }
    }

    #[test]
    fn covering_excludes_existing_names() {
        let c = chain();
        assert!(c.covering(&n("alpha.z"), 60).is_none());
        assert!(c.at(&n("alpha.z"), 60).is_some());
        let cover = c.covering(&n("missing.z"), 60).expect("cover for missing name");
        let RData::Nsec3 { next_hashed, .. } = &cover.rdatas[0] else {
            panic!("nsec3 rdata");
        };
        assert_eq!(next_hashed.len(), NSEC3_HASH_LEN);
    }

    #[test]
    fn chain_wraps_in_hash_space() {
        let c = chain();
        // Every record's next hash must be another entry's owner hash.
        let owners: Vec<[u8; NSEC3_HASH_LEN]> = c.entries.iter().map(|(h, _)| *h).collect();
        for idx in 0..c.len() {
            let rec = c.record_at(idx, 60);
            let RData::Nsec3 { next_hashed, .. } = &rec.rdatas[0] else { panic!("nsec3 rdata") };
            let mut next = [0u8; NSEC3_HASH_LEN];
            next.copy_from_slice(next_hashed);
            assert!(owners.contains(&next));
        }
    }

    #[test]
    fn duplicate_names_merge() {
        let names = vec![
            (n("a.z"), TypeBitmap::from_types([RrType::A])),
            (n("a.z"), TypeBitmap::from_types([RrType::Mx])),
        ];
        let c = Nsec3Chain::build(n("z"), names, vec![], 0);
        assert_eq!(c.len(), 1);
    }
}
