//! Exact-match maps and sets of names, keyed by fingerprint.
//!
//! A validating resolver's caches only ever ask "is this exact name
//! here?". Keyed by [`Name`], a `BTreeMap` answers with a canonical
//! (RFC 4034 §6.1) comparison — a right-to-left label walk — at every node
//! on the search path. [`NameMap`] and [`NameSet`] keep the `BTreeMap` but
//! key it by [`NameKey`]: the name's fixed 64-bit [`Name::fingerprint`]
//! first, the name only to break ties. A probe compares `u64`s down the
//! tree and the name once, at the match.
//!
//! The price is the order. Iteration follows fingerprints: deterministic
//! (the fingerprint is a fixed function of the name's octets, the same on
//! every platform and run) but not canonical, so nothing printed should
//! iterate one of these. Where the order is the semantics — NSEC span
//! probes, zone data, leaked-name lists — keep `BTreeMap<Name, _>`.

use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap, BTreeSet};

use crate::Name;

/// A map key ordered by [`Name::fingerprint`], then canonically by name.
///
/// Two keys are equal exactly when their names are; the fingerprint only
/// decides the order between different names, and equal fingerprints fall
/// back to the canonical order.
#[derive(Debug, Clone)]
pub struct NameKey {
    fingerprint: u64,
    name: Name,
}

impl NameKey {
    /// The key for `name`.
    pub fn new(name: Name) -> Self {
        NameKey { fingerprint: name.fingerprint(), name }
    }

    /// The name.
    pub fn name(&self) -> &Name {
        &self.name
    }
}

impl PartialEq for NameKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint && self.name == other.name
    }
}

impl Eq for NameKey {}

impl PartialOrd for NameKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fingerprint.cmp(&other.fingerprint).then_with(|| {
            // Equal fingerprints almost always mean equal names: settle
            // that with one octet comparison before any label walk.
            if self.name == other.name {
                Ordering::Equal
            } else {
                self.name.canonical_cmp(&other.name)
            }
        })
    }
}

/// An exact-match map from names to `V` (see the module docs).
///
/// Iterates in fingerprint order: deterministic, not canonical.
#[derive(Debug, Clone)]
pub struct NameMap<V> {
    map: BTreeMap<NameKey, V>,
}

impl<V> Default for NameMap<V> {
    fn default() -> Self {
        NameMap { map: BTreeMap::new() }
    }
}

impl<V> NameMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        NameMap::default()
    }

    /// The value for `name`. Never allocates: the probe key shares
    /// `name`'s storage.
    pub fn get(&self, name: &Name) -> Option<&V> {
        self.map.get(&NameKey::new(name.clone()))
    }

    /// The value for `name`, mutably.
    pub fn get_mut(&mut self, name: &Name) -> Option<&mut V> {
        self.map.get_mut(&NameKey::new(name.clone()))
    }

    /// Whether `name` has a value.
    pub fn contains_key(&self, name: &Name) -> bool {
        self.map.contains_key(&NameKey::new(name.clone()))
    }

    /// Sets the value for `name`, returning the previous one.
    pub fn insert(&mut self, name: Name, value: V) -> Option<V> {
        self.map.insert(NameKey::new(name), value)
    }

    /// The entry for `name`, for in-place insert-or-update.
    pub fn entry(&mut self, name: Name) -> btree_map::Entry<'_, NameKey, V> {
        self.map.entry(NameKey::new(name))
    }

    /// Removes `name`, returning its value.
    pub fn remove(&mut self, name: &Name) -> Option<V> {
        self.map.remove(&NameKey::new(name.clone()))
    }

    /// Keeps only the entries `keep` returns `true` for.
    pub fn retain(&mut self, mut keep: impl FnMut(&Name, &mut V) -> bool) {
        self.map.retain(|key, value| keep(&key.name, value));
    }

    /// The values, in fingerprint order.
    pub fn values(&self) -> btree_map::Values<'_, NameKey, V> {
        self.map.values()
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// An exact-match set of names (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct NameSet {
    set: BTreeSet<NameKey>,
}

impl NameSet {
    /// An empty set.
    pub fn new() -> Self {
        NameSet::default()
    }

    /// Whether `name` is in the set. Never allocates.
    pub fn contains(&self, name: &Name) -> bool {
        self.set.contains(&NameKey::new(name.clone()))
    }

    /// Adds `name`; returns whether it was absent.
    pub fn insert(&mut self, name: Name) -> bool {
        self.set.insert(NameKey::new(name))
    }

    /// Removes `name`; returns whether it was present.
    pub fn remove(&mut self, name: &Name) -> bool {
        self.set.remove(&NameKey::new(name.clone()))
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Removes every name.
    pub fn clear(&mut self) {
        self.set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn colliding_fingerprints_stay_distinct_and_order_by_name() {
        let a = NameKey { fingerprint: 7, name: n("a.example") };
        let z = NameKey { fingerprint: 7, name: n("z.example") };
        assert_ne!(a, z);
        assert_eq!(a.cmp(&z), Ordering::Less);
        assert_eq!(z.cmp(&a), Ordering::Greater);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
        let mut map = BTreeMap::new();
        map.insert(z.clone(), 'z');
        map.insert(a.clone(), 'a');
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&a), Some(&'a'));
        assert_eq!(map.get(&z), Some(&'z'));
        let names: Vec<&Name> = map.keys().map(NameKey::name).collect();
        assert_eq!(names, [&n("a.example"), &n("z.example")]);
    }

    #[test]
    fn keys_of_equal_names_are_equal_across_storage() {
        let long = n("extremely-long-prefix-padding-padding.example.com");
        let tail = long.suffix(2);
        assert!(!tail.is_inline());
        assert_eq!(NameKey::new(tail), NameKey::new(n("Example.COM")));
    }
}
