//! Flat array-backed zone storage with index handles.
//!
//! [`crate::Zone`] stores RRsets in a two-level `BTreeMap` — flexible while
//! a zone is being built, but every authoritative lookup then walks two
//! tree descents (owner, then type). A [`FlatZone`] is the publish-time
//! freeze of that structure: one sorted array of `(owner, type, rrset,
//! rrsig)` entries addressed by binary search and [`FlatHandle`] indices,
//! laid out contiguously so the streaming hot path touches one
//! cache-friendly table per lookup.
//!
//! The table is built once by [`crate::PublishedZone`], and its entries
//! never change: published zones expose no mutators, so the index can
//! never go stale, and lifecycle epochs republish whole zones, which
//! rebuilds the table. Only the signatures fill in: each entry keeps its
//! RRSIG in a once-cell, which [`FlatZone::signed`] fills the first time
//! the entry is served with a signer. That first serve signs and allocates
//! the signature record; every later one shares it.
//!
//! `find`/`signed`/`name_exists` run on every authoritative query of a
//! replay; `crates/bench/tests/alloc_free.rs` holds them to zero heap
//! allocations once an entry's signature is made.

// Handles are minted by `find` over this fixed table, so every index they
// carry is in bounds.
#![expect(clippy::indexing_slicing, reason = "handles index the table that minted them")]

use std::cell::OnceCell;
use std::sync::Arc;

use lookaside_wire::{Name, Record, RrSet, RrType};

use crate::lookup::SignedRrSet;
use crate::published::ZoneSigner;
use crate::Zone;

/// Index of an entry in a [`FlatZone`] — a dense `u32` instead of an
/// `Arc`/`BTreeMap` node pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlatHandle(u32);

impl FlatHandle {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One `(owner, type)` slot of the flat table.
#[derive(Debug)]
struct FlatEntry {
    name: Name,
    rrtype: RrType,
    set: Arc<RrSet>,
    /// The RRSIG over `set`, made the first time it is served signed.
    sig: OnceCell<Arc<Record>>,
}

/// A zone's RRsets (and their signatures, once made) as one sorted flat
/// array.
#[derive(Debug)]
pub struct FlatZone {
    /// Sorted by `(owner, type)` in canonical order; binary-searched.
    entries: Vec<FlatEntry>,
}

impl FlatZone {
    /// Freezes a zone into a flat table, with no signature made yet.
    pub fn build(zone: &Zone) -> Self {
        let entries: Vec<FlatEntry> = zone
            .shared_rrsets()
            .map(|(name, rrtype, set)| FlatEntry {
                name: name.clone(),
                rrtype,
                set: Arc::clone(set),
                sig: OnceCell::new(),
            })
            .collect();
        // `shared_rrsets` iterates two nested ordered maps, so `entries`
        // is already sorted by `(owner, type)`; debug-check the invariant
        // binary search depends on.
        debug_assert!(entries
            .windows(2)
            .all(|w| (&w[0].name, w[0].rrtype) < (&w[1].name, w[1].rrtype)));
        FlatZone { entries }
    }

    /// Binary-searches the table for an `(owner, type)` slot.
    pub fn find(&self, name: &Name, rrtype: RrType) -> Option<FlatHandle> {
        self.entries
            .binary_search_by(|e| (&e.name, e.rrtype).cmp(&(name, rrtype)))
            .ok()
            .map(|i| FlatHandle(i as u32))
    }

    /// The RRset behind a handle.
    pub fn rrset_at(&self, handle: FlatHandle) -> &Arc<RrSet> {
        &self.entries[handle.index()].set
    }

    /// The RRSIG made so far for the RRset behind a handle: `None` until
    /// the entry is first served with a signer.
    pub fn rrsig_at(&self, handle: FlatHandle) -> Option<&Arc<Record>> {
        self.entries[handle.index()].sig.get()
    }

    /// The entry behind a handle as shared handles. With a `signer` the
    /// RRSIG is made on the entry's first signed serve and shared after;
    /// without one the RRset goes out unsigned.
    pub fn signed_at(&self, handle: FlatHandle, signer: Option<&ZoneSigner>) -> SignedRrSet {
        let entry = &self.entries[handle.index()];
        let rrsig = signer
            .map(|signer| Arc::clone(entry.sig.get_or_init(|| Arc::new(signer.sign(&entry.set)))));
        SignedRrSet::new(Arc::clone(&entry.set), rrsig)
    }

    /// An RRset with its signature as shared handles — the flat
    /// replacement for `Zone::rrset` plus a signature probe (two refcount
    /// bumps and one binary search once the signature is made).
    pub fn signed(
        &self,
        name: &Name,
        rrtype: RrType,
        signer: Option<&ZoneSigner>,
    ) -> Option<SignedRrSet> {
        Some(self.signed_at(self.find(name, rrtype)?, signer))
    }

    /// Whether any data exists at `name`, including empty non-terminals —
    /// same contract as `Zone::name_exists`. Canonical order places a name
    /// immediately before its descendants, so the partition point's entry
    /// decides.
    pub fn name_exists(&self, name: &Name) -> bool {
        let i = self.entries.partition_point(|e| e.name < *name);
        self.entries.get(i).is_some_and(|e| e.name.is_subdomain_of(name))
    }

    /// Number of `(owner, type)` slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let mut zone = Zone::new(n("example.com."), n("ns1.example.com."));
        zone.add(n("ns1.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        zone.add(n("www.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        zone.add(n("www.example.com."), 300, RData::Txt(vec!["hello".to_string()]));
        zone.add(n("x.deep.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
        zone
    }

    #[test]
    fn flat_find_agrees_with_zone_rrset_everywhere() {
        let zone = sample_zone();
        let flat = FlatZone::build(&zone);
        assert_eq!(flat.len(), zone.rrset_count());
        for (name, rrtype, set) in zone.shared_rrsets() {
            let handle = flat.find(name, rrtype).expect("present in flat table");
            assert!(Arc::ptr_eq(flat.rrset_at(handle), set), "{name} {rrtype:?}");
        }
        assert!(flat.find(&n("absent.example.com."), RrType::A).is_none());
        assert!(flat.find(&n("www.example.com."), RrType::Aaaa).is_none());
    }

    #[test]
    fn flat_name_exists_matches_zone_including_empty_non_terminals() {
        let zone = sample_zone();
        let flat = FlatZone::build(&zone);
        for probe in [
            "example.com.",
            "www.example.com.",
            "deep.example.com.", // empty non-terminal
            "x.deep.example.com.",
            "nope.example.com.",
            "a.www.example.com.",
        ] {
            assert_eq!(flat.name_exists(&n(probe)), zone.name_exists(&n(probe)), "{probe}");
        }
    }

    #[test]
    fn signed_carries_the_matching_rrsig() {
        let zone = sample_zone();
        let flat = FlatZone::build(&zone);
        let signer =
            ZoneSigner::new(n("example.com."), lookaside_crypto::KeyPair::generate_zsk(9), 0, 1000);
        let www = flat.find(&n("www.example.com."), RrType::A).expect("entry");
        let unsigned = flat.signed(&n("www.example.com."), RrType::A, None).expect("answer");
        assert!(unsigned.rrsig.is_none());
        assert!(flat.rrsig_at(www).is_none(), "an unsigned serve makes no signature");
        let first = flat.signed_at(www, Some(&signer)).rrsig.expect("signed serve");
        assert_eq!(*first, signer.sign(flat.rrset_at(www)));
        let again = flat.signed_at(www, Some(&signer)).rrsig.expect("signed serve");
        assert!(Arc::ptr_eq(&first, &again), "later serves share the first signature");
        let ns1 = flat.find(&n("ns1.example.com."), RrType::A).expect("entry");
        assert!(flat.rrsig_at(ns1).is_none(), "entries never served stay unsigned");
    }
}
