//! Flat array-backed zone storage with index handles.
//!
//! [`crate::Zone`] stores RRsets in a two-level `BTreeMap` — flexible while
//! a zone is being built, but every authoritative lookup then walks two
//! tree descents (owner, then type) and every signed answer probes a third
//! map for its RRSIG with a freshly built key. A [`FlatZone`] is the
//! publish-time freeze of that structure: one sorted array of
//! `(owner, type, rrset, rrsig)` entries addressed by binary search and
//! [`FlatHandle`] indices, laid out contiguously so the streaming hot path
//! touches one cache-friendly table per lookup and allocates nothing.
//!
//! The flat table is built once by [`crate::PublishedZone`] after signing
//! and is immutable from then on — published zones expose no mutators, so
//! the index can never go stale. Lifecycle epochs republish whole zones,
//! which rebuilds the table.
//!
//! `find`/`signed`/`name_exists` run on every authoritative query of a
//! replay; `crates/bench/tests/alloc_free.rs` holds them to zero heap
//! allocations.

// Handles are minted by `find` over this immutable table, so every index
// they carry is in bounds.
#![expect(clippy::indexing_slicing, reason = "handles index the table that minted them")]

use std::collections::BTreeMap;
use std::sync::Arc;

use lookaside_wire::{Name, Record, RrSet, RrType};
use serde::{Deserialize, Serialize};

use crate::lookup::SignedRrSet;
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
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlatEntry {
    name: Name,
    rrtype: RrType,
    set: Arc<RrSet>,
    sig: Option<Arc<Record>>,
}

/// A zone's RRsets (and their signatures) as one sorted flat array.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlatZone {
    /// Sorted by `(owner, type)` in canonical order; binary-searched.
    entries: Vec<FlatEntry>,
}

impl FlatZone {
    /// Freezes a zone (and its signature map) into a flat table.
    ///
    /// `sigs` maps `(owner, type)` to the covering RRSIG, exactly as
    /// `PublishedZone` computes it at signing time; unsigned zones pass an
    /// empty map.
    pub fn build(zone: &Zone, sigs: &BTreeMap<(Name, RrType), Arc<Record>>) -> Self {
        let mut entries = Vec::with_capacity(zone.rrset_count());
        for (name, rrtype, set) in zone.shared_rrsets() {
            let sig = sigs.get(&(name.clone(), rrtype)).cloned();
            entries.push(FlatEntry { name: name.clone(), rrtype, set: Arc::clone(set), sig });
        }
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

    /// The covering RRSIG behind a handle, when the zone is signed.
    pub fn rrsig_at(&self, handle: FlatHandle) -> Option<&Arc<Record>> {
        self.entries[handle.index()].sig.as_ref()
    }

    /// An RRset with its signature as shared handles — the flat
    /// replacement for `Zone::rrset` + the signature-map probe (two
    /// refcount bumps, no key allocation, one binary search).
    pub fn signed(&self, name: &Name, rrtype: RrType) -> Option<SignedRrSet> {
        let handle = self.find(name, rrtype)?;
        let entry = &self.entries[handle.index()];
        Some(SignedRrSet::new(Arc::clone(&entry.set), entry.sig.clone()))
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
        let flat = FlatZone::build(&zone, &BTreeMap::new());
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
        let flat = FlatZone::build(&zone, &BTreeMap::new());
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
        let key = (n("www.example.com."), RrType::A);
        let sig = Arc::new(Record {
            name: key.0.clone(),
            rrtype: RrType::Rrsig,
            class: lookaside_wire::RrClass::In,
            ttl: 300,
            rdata: RData::Txt(vec!["sig".to_string()]),
        });
        let mut sigs = BTreeMap::new();
        sigs.insert(key.clone(), Arc::clone(&sig));
        let flat = FlatZone::build(&zone, &sigs);
        let answer = flat.signed(&key.0, RrType::A).expect("answer");
        assert!(answer.rrsig.is_some_and(|s| Arc::ptr_eq(&s, &sig)));
        let unsigned = flat.signed(&n("ns1.example.com."), RrType::A).expect("answer");
        assert!(unsigned.rrsig.is_none());
    }
}
