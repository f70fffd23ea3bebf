use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Bound;
use std::sync::Arc;

use lookaside_wire::{Name, RData, RrSet, RrType, SoaData};
use serde::{Deserialize, Serialize};

use crate::{ZoneError, DEFAULT_TTL};

/// Unsigned authoritative zone content.
///
/// Owner names are kept in canonical (RFC 4034 §6.1) order because `Name`'s
/// `Ord` is the canonical ordering; the NSEC chain is later derived directly
/// from the map's iteration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zone {
    apex: Name,
    soa: SoaData,
    /// RRsets per owner name and type, behind `Arc` so lookups hand out
    /// shared handles instead of deep copies. Delegation NS sets live here
    /// too, flagged by being below the apex with type NS.
    records: BTreeMap<Name, BTreeMap<RrType, Arc<RrSet>>>,
    /// Names that are delegation points (have an NS RRset but are not the
    /// apex).
    cuts: Vec<Name>,
    /// Glue addresses for in-bailiwick name servers of delegated children.
    glue: BTreeMap<Name, Ipv4Addr>,
}

impl Zone {
    /// Creates a zone with a default SOA naming `primary_ns` as primary and
    /// adds the apex NS record.
    pub fn new(apex: Name, primary_ns: Name) -> Self {
        #[expect(clippy::expect_used, reason = "a literal, valid name")]
        let soa = SoaData {
            mname: primary_ns.clone(),
            rname: Name::parse("hostmaster.invalid.").expect("static name"),
            serial: 20160201,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: DEFAULT_TTL,
        };
        let mut zone = Zone {
            apex: apex.clone(),
            soa: soa.clone(),
            records: BTreeMap::new(),
            cuts: Vec::new(),
            glue: BTreeMap::new(),
        };
        zone.insert_rrset(RrSet::single(apex.clone(), DEFAULT_TTL, RData::Soa(soa)));
        zone.insert_rrset(RrSet::single(apex, DEFAULT_TTL, RData::Ns(primary_ns)));
        zone
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Replaces the zone's SOA data (e.g. with values parsed from a master
    /// file).
    pub fn set_soa(&mut self, soa: SoaData) {
        self.soa = soa;
        self.refresh_soa_rrset();
    }

    /// Sets the negative-caching TTL (SOA minimum), which also bounds how
    /// long NSEC spans from this zone may live in aggressive negative
    /// caches.
    pub fn set_negative_ttl(&mut self, ttl: u32) {
        self.soa.minimum = ttl;
        self.refresh_soa_rrset();
    }

    fn refresh_soa_rrset(&mut self) {
        // Field-level borrows split: `records` mutably, `apex` shared.
        let Zone { records, apex, soa, .. } = self;
        if let Some(soa_set) = records.get_mut(apex).and_then(|sets| sets.get_mut(&RrType::Soa)) {
            *soa_set = Arc::new(RrSet::single(apex.clone(), soa.minimum, RData::Soa(soa.clone())));
        }
    }

    /// The SOA data.
    pub fn soa(&self) -> &SoaData {
        &self.soa
    }

    /// The SOA RRset (with the zone's negative TTL).
    pub fn soa_rrset(&self) -> RrSet {
        RrSet::single(self.apex.clone(), self.soa.minimum, RData::Soa(self.soa.clone()))
    }

    /// Adds a record, creating or extending the RRset.
    ///
    /// # Panics
    ///
    /// Panics wherever [`Zone::try_add`] returns an error: `name` outside
    /// the zone, a CNAME conflict, or untyped rdata. Use [`Zone::try_add`]
    /// for fallible insertion.
    #[expect(clippy::expect_used, reason = "documented contract")]
    pub fn add(&mut self, name: Name, ttl: u32, rdata: RData) {
        self.try_add(name, ttl, rdata).expect("a valid record for this zone");
    }

    /// Adds a record, failing when `name` is outside the zone, a CNAME
    /// would conflict with existing data, or the rdata is untyped.
    ///
    /// # Errors
    ///
    /// Returns [`ZoneError::OutOfBailiwick`], [`ZoneError::CnameConflict`]
    /// or, for [`RData::Unknown`], [`ZoneError::UntypedRdata`]; the zone is
    /// left unchanged.
    pub fn try_add(&mut self, name: Name, ttl: u32, rdata: RData) -> Result<(), ZoneError> {
        if !name.is_subdomain_of(&self.apex) {
            return Err(ZoneError::OutOfBailiwick { apex: self.apex.clone(), name });
        }
        let Some(rrtype) = rdata.rrtype() else {
            return Err(ZoneError::UntypedRdata(name));
        };
        if let Some(sets) = self.records.get(&name) {
            let has_other = sets.keys().any(|&t| t != rrtype);
            if rrtype == RrType::Cname && has_other {
                return Err(ZoneError::CnameConflict(name));
            }
            if sets.contains_key(&RrType::Cname) && rrtype != RrType::Cname {
                return Err(ZoneError::CnameConflict(name));
            }
        }
        let entry = self
            .records
            .entry(name.clone())
            .or_default()
            .entry(rrtype)
            .or_insert_with(|| Arc::new(RrSet::empty(name, rrtype, ttl)));
        Arc::make_mut(entry).push(rdata);
        Ok(())
    }

    /// Delegates `child` to the given name servers, recording optional glue
    /// addresses.
    ///
    /// # Errors
    ///
    /// Returns [`ZoneError::DelegationAtApex`] when `child == apex` and
    /// [`ZoneError::OutOfBailiwick`] when `child` is not below the apex.
    pub fn delegate(
        &mut self,
        child: Name,
        name_servers: &[(Name, Ipv4Addr)],
    ) -> Result<(), ZoneError> {
        if child == self.apex {
            return Err(ZoneError::DelegationAtApex(child));
        }
        if !child.is_subdomain_of(&self.apex) {
            return Err(ZoneError::OutOfBailiwick { apex: self.apex.clone(), name: child });
        }
        let mut ns_set = RrSet::empty(child.clone(), RrType::Ns, DEFAULT_TTL);
        for (ns, addr) in name_servers {
            ns_set.push(RData::Ns(ns.clone()));
            self.glue.insert(ns.clone(), *addr);
        }
        self.insert_rrset(ns_set);
        self.cuts.push(child);
        self.cuts.sort();
        self.cuts.dedup();
        Ok(())
    }

    /// Publishes a DS RRset for a delegated child (making the delegation
    /// secure).
    pub fn add_ds(&mut self, child: Name, ds: RData) {
        debug_assert!(matches!(ds, RData::Ds { .. }));
        self.add(child, DEFAULT_TTL, ds);
    }

    fn insert_rrset(&mut self, set: RrSet) {
        self.records.entry(set.name.clone()).or_default().insert(set.rrtype, Arc::new(set));
    }

    /// Whether `name` is a delegation point in this zone.
    pub fn is_cut(&self, name: &Name) -> bool {
        self.cuts.binary_search(name).is_ok()
    }

    /// The deepest delegation point at or above `name`, if any.
    pub fn cut_above(&self, name: &Name) -> Option<&Name> {
        self.cuts.iter().filter(|cut| name.is_subdomain_of(cut)).max_by_key(|c| c.label_count())
    }

    /// Fetches an RRset as a shared handle (`.clone()` bumps a refcount).
    pub fn rrset(&self, name: &Name, rrtype: RrType) -> Option<&Arc<RrSet>> {
        self.records.get(name)?.get(&rrtype)
    }

    /// Whether any data exists at `name` (including empty non-terminals:
    /// `a.b.example` exists if `x.a.b.example` has data).
    ///
    /// Canonical ordering places a name immediately before all of its
    /// descendants, so a single ordered-map probe suffices — important
    /// because the DLV registry calls this on every NXDOMAIN at
    /// 10⁴–10⁵-entry scale.
    pub fn name_exists(&self, name: &Name) -> bool {
        self.records
            .range((Bound::Included(name), Bound::Unbounded))
            .next()
            .is_some_and(|(owner, _)| owner.is_subdomain_of(name))
    }

    /// Iterates all RRsets in canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &RrSet> {
        self.records.values().flat_map(|sets| sets.values().map(|set| set.as_ref()))
    }

    /// Iterates all owner names in canonical order.
    pub fn owner_names(&self) -> impl Iterator<Item = &Name> {
        self.records.keys()
    }

    /// Iterates all RRsets as shared handles in canonical `(owner, type)`
    /// order — the order [`crate::FlatZone`] lays its flat table out in.
    pub fn shared_rrsets(&self) -> impl Iterator<Item = (&Name, RrType, &Arc<RrSet>)> {
        self.records
            .iter()
            .flat_map(|(name, sets)| sets.iter().map(move |(rrtype, set)| (name, *rrtype, set)))
    }

    /// Glue address for an in-bailiwick name server.
    pub fn glue_for(&self, ns: &Name) -> Option<Ipv4Addr> {
        self.glue.get(ns).copied()
    }

    /// Number of RRsets in the zone.
    pub fn rrset_count(&self) -> usize {
        self.records.values().map(|sets| sets.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn zone() -> Zone {
        Zone::new(n("example.com"), n("ns1.example.com"))
    }

    #[test]
    fn new_zone_has_soa_and_ns() {
        let z = zone();
        assert!(z.rrset(&n("example.com"), RrType::Soa).is_some());
        assert!(z.rrset(&n("example.com"), RrType::Ns).is_some());
        assert_eq!(z.rrset_count(), 2);
    }

    #[test]
    fn add_and_fetch() {
        let mut z = zone();
        z.add(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        z.add(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        let set = z.rrset(&n("www.example.com"), RrType::A).unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn out_of_bailiwick_rejected() {
        let mut z = zone();
        let err = z.try_add(n("www.other.org"), 300, RData::A(Ipv4Addr::LOCALHOST));
        assert!(matches!(err, Err(ZoneError::OutOfBailiwick { .. })));
    }

    #[test]
    fn untyped_rdata_is_rejected_without_touching_the_zone() {
        let mut z = zone();
        let before = z.rrset_count();
        assert_eq!(
            z.try_add(n("www.example.com"), 300, RData::Unknown(vec![1])),
            Err(ZoneError::UntypedRdata(n("www.example.com")))
        );
        assert_eq!(z.rrset_count(), before);
        assert!(z.rrset(&n("www.example.com"), RrType::A).is_none());
    }

    #[test]
    fn cname_conflicts_rejected_both_ways() {
        let mut z = zone();
        z.add(n("a.example.com"), 300, RData::A(Ipv4Addr::LOCALHOST));
        assert!(matches!(
            z.try_add(n("a.example.com"), 300, RData::Cname(n("b.example.com"))),
            Err(ZoneError::CnameConflict(_))
        ));
        z.add(n("c.example.com"), 300, RData::Cname(n("b.example.com")));
        assert!(matches!(
            z.try_add(n("c.example.com"), 300, RData::A(Ipv4Addr::LOCALHOST)),
            Err(ZoneError::CnameConflict(_))
        ));
    }

    #[test]
    fn delegation_records_cut_and_glue() {
        let mut z = Zone::new(n("com"), n("a.gtld-servers.net"));
        z.delegate(n("example.com"), &[(n("ns1.example.com"), Ipv4Addr::new(192, 0, 2, 53))])
            .unwrap();
        assert!(z.is_cut(&n("example.com")));
        assert!(!z.is_cut(&n("com")));
        assert_eq!(z.cut_above(&n("www.example.com")), Some(&n("example.com")));
        assert_eq!(z.cut_above(&n("example.com")), Some(&n("example.com")));
        assert_eq!(z.cut_above(&n("other.com")), None);
        assert_eq!(z.glue_for(&n("ns1.example.com")), Some(Ipv4Addr::new(192, 0, 2, 53)));
    }

    #[test]
    fn delegation_at_apex_rejected() {
        let mut z = zone();
        assert!(matches!(z.delegate(n("example.com"), &[]), Err(ZoneError::DelegationAtApex(_))));
    }

    #[test]
    fn nested_cut_prefers_deepest() {
        let mut z = Zone::new(n("com"), n("ns.com"));
        z.delegate(n("example.com"), &[]).unwrap();
        z.delegate(n("deep.example.com"), &[]).unwrap();
        assert_eq!(z.cut_above(&n("x.deep.example.com")), Some(&n("deep.example.com")));
    }

    #[test]
    fn name_exists_sees_empty_non_terminals() {
        let mut z = zone();
        z.add(n("x.a.b.example.com"), 300, RData::A(Ipv4Addr::LOCALHOST));
        assert!(z.name_exists(&n("a.b.example.com")));
        assert!(z.name_exists(&n("b.example.com")));
        assert!(!z.name_exists(&n("c.example.com")));
    }

    #[test]
    fn owner_names_in_canonical_order() {
        let mut z = zone();
        z.add(n("z.example.com"), 300, RData::A(Ipv4Addr::LOCALHOST));
        z.add(n("a.example.com"), 300, RData::A(Ipv4Addr::LOCALHOST));
        let names: Vec<String> = z.owner_names().map(|n| n.to_string()).collect();
        assert_eq!(names, ["example.com.", "a.example.com.", "z.example.com."]);
    }
}
