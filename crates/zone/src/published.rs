use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use lookaside_crypto::KeyPair;
use lookaside_wire::{Name, RData, Record, RrClass, RrSet, RrType, TypeBitmap};
use serde::{Deserialize, Serialize};

use crate::flat::{FlatHandle, FlatZone};
use crate::lookup::{Lookup, SignedRrSet};
use crate::nsec::NsecChain;
use crate::nsec3::{DenialMode, Nsec3Chain};
use crate::zone::Zone;
use crate::DEFAULT_TTL;

/// The ZSK/KSK pair used to sign a zone.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SigningKeys {
    /// Zone-signing key: signs every data RRset.
    pub zsk: KeyPair,
    /// Key-signing key: signs the DNSKEY RRset; its digest is what goes into
    /// the parent's DS record or a DLV registry deposit.
    pub ksk: KeyPair,
}

impl SigningKeys {
    /// Derives a deterministic key pair set from a seed.
    pub fn from_seed(seed: u64) -> Self {
        SigningKeys {
            zsk: KeyPair::generate_zsk(seed.wrapping_mul(2).wrapping_add(1)),
            ksk: KeyPair::generate_ksk(seed.wrapping_mul(2).wrapping_add(2)),
        }
    }
}

/// One key published in a zone's DNSKEY RRset, with its RFC 5011
/// revocation state.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PublishedKey {
    /// The key pair.
    pub pair: KeyPair,
    /// Whether the DNSKEY record carries the RFC 5011 REVOKE bit.
    pub revoked: bool,
}

impl PublishedKey {
    /// An active (non-revoked) published key.
    pub fn active(pair: KeyPair) -> Self {
        PublishedKey { pair, revoked: false }
    }

    /// The DNSKEY RDATA for this key, including the REVOKE bit when set.
    pub fn rdata(&self) -> lookaside_wire::RData {
        let public = self.pair.public();
        let mut flags = public.role().flags();
        if self.revoked {
            flags |= lookaside_crypto::FLAG_REVOKE;
        }
        public.dnskey_rdata_with_flags(flags)
    }
}

/// A zone's full published key set with designated signers — the general
/// form of [`SigningKeys`] that the lifecycle machinery uses to express
/// rollovers: several ZSK/KSK generations may be *published* while only
/// one of each actually *signs*.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZoneKeySet {
    /// Zone-signing keys published in the DNSKEY RRset, oldest first.
    pub zsks: Vec<PublishedKey>,
    /// Key-signing keys published in the DNSKEY RRset, oldest first.
    pub ksks: Vec<PublishedKey>,
    /// Index into `zsks` of the key that signs the data RRsets.
    pub signer_zsk: usize,
    /// Index into `ksks` of the key that signs the DNSKEY RRset.
    pub signer_ksk: usize,
}

// `signer_zsk` and `signer_ksk` index the lists they were chosen from.
#[expect(clippy::indexing_slicing, reason = "signer indices point into their key lists")]
impl ZoneKeySet {
    /// The degenerate one-ZSK/one-KSK key set equivalent to `keys`.
    pub fn single(keys: &SigningKeys) -> Self {
        ZoneKeySet {
            zsks: vec![PublishedKey::active(keys.zsk)],
            ksks: vec![PublishedKey::active(keys.ksk)],
            signer_zsk: 0,
            signer_ksk: 0,
        }
    }

    /// The key signing data RRsets.
    pub fn zsk_signer(&self) -> &KeyPair {
        &self.zsks[self.signer_zsk].pair
    }

    /// The key signing the DNSKEY RRset.
    pub fn ksk_signer(&self) -> &KeyPair {
        &self.ksks[self.signer_ksk].pair
    }

    /// DNSKEY RDATAs of every published key, ZSKs before KSKs (matching
    /// the order [`PublishedZone::signed`] has always used).
    pub fn dnskey_rdatas(&self) -> Vec<lookaside_wire::RData> {
        self.zsks.iter().chain(self.ksks.iter()).map(PublishedKey::rdata).collect()
    }
}

impl From<&SigningKeys> for ZoneKeySet {
    fn from(keys: &SigningKeys) -> Self {
        ZoneKeySet::single(keys)
    }
}

/// Builds the RFC 4034 §3.1.8.1 signature input: the RRSIG RDATA with the
/// signature field removed, followed by the canonical RRset.
///
#[expect(clippy::too_many_arguments, reason = "mirrors the RRSIG RDATA layout one-to-one")]
pub fn rrsig_signing_input(
    type_covered: RrType,
    algorithm: u8,
    labels: u8,
    original_ttl: u32,
    expiration: u32,
    inception: u32,
    key_tag: u16,
    signer_name: &Name,
    rrset: &RrSet,
) -> Vec<u8> {
    let mut input = Vec::new();
    input.extend_from_slice(&type_covered.code().to_be_bytes());
    input.push(algorithm);
    input.push(labels);
    input.extend_from_slice(&original_ttl.to_be_bytes());
    input.extend_from_slice(&expiration.to_be_bytes());
    input.extend_from_slice(&inception.to_be_bytes());
    input.extend_from_slice(&key_tag.to_be_bytes());
    signer_name.encode_uncompressed(&mut input);
    input.extend_from_slice(&rrset.canonical_signing_input());
    input
}

/// Makes one zone's RRSIGs: each names the zone apex as signer, is made
/// with one key, and carries one validity window. Signing is
/// deterministic, so the same RRset always gets the same bytes.
#[derive(Debug)]
pub struct ZoneSigner {
    apex: Name,
    key: KeyPair,
    inception: u32,
    expiration: u32,
}

impl ZoneSigner {
    /// A signer for the zone at `apex`, signing with `key` over
    /// `inception..expiration`.
    pub fn new(apex: Name, key: KeyPair, inception: u32, expiration: u32) -> Self {
        ZoneSigner { apex, key, inception, expiration }
    }

    /// The RRSIG over `rrset`.
    pub fn sign(&self, rrset: &RrSet) -> Record {
        let key_tag = self.key.key_tag();
        let algorithm = lookaside_crypto::ALGORITHM_SIM_SCHNORR;
        let labels = rrset.name.label_count() as u8;
        let input = rrsig_signing_input(
            rrset.rrtype,
            algorithm,
            labels,
            rrset.ttl,
            self.expiration,
            self.inception,
            key_tag,
            &self.apex,
            rrset,
        );
        Record {
            name: rrset.name.clone(),
            rrtype: RrType::Rrsig,
            class: RrClass::In,
            ttl: rrset.ttl,
            rdata: RData::Rrsig {
                type_covered: rrset.rrtype,
                algorithm,
                labels,
                original_ttl: rrset.ttl,
                expiration: self.expiration,
                inception: self.inception,
                key_tag,
                signer_name: self.apex.clone(),
                signature: self.key.sign_to_bytes(&input),
            },
        }
    }
}

/// A zone prepared for serving: optionally DNSSEC-signed, with a DNSKEY
/// RRset and an NSEC or NSEC3 chain.
///
/// A signed zone signs on first serve. Publishing signs the DNSKEY RRset
/// alone; every other RRSIG — over an RRset, the SOA, or an NSEC/NSEC3
/// record — is made the first time a lookup returns what it covers, kept
/// in a once-cell next to it, and shared by every later lookup. Signing is
/// deterministic, so the bytes served do not depend on when or in what
/// order signatures are made, and a zone pays only for the signatures it
/// serves. Delegation NS sets are never signed (RFC 4035 §2.2).
#[derive(Debug)]
pub struct PublishedZone {
    zone: Zone,
    /// The publish-time freeze of `zone`: one sorted flat array
    /// binary-searched on the lookup hot path, holding each RRset's RRSIG
    /// once made (see [`crate::FlatZone`]).
    flat: FlatZone,
    /// The SOA's entry in `flat`; every negative response serves it.
    soa: FlatHandle,
    /// What only a signed zone has.
    dnssec: Option<Dnssec>,
}

/// A signed zone's keys and denial of existence.
#[derive(Debug)]
struct Dnssec {
    /// Signs with the designated ZSK.
    zsk: ZoneSigner,
    /// The DNSKEY RRset, signed by the designated KSK at publish time.
    dnskeys: SignedRrSet,
    chain: DenialChain,
    /// Each chain record with its RRSIG, index-aligned with the chain's
    /// entries, rendered and signed the first time it is served.
    proofs: Vec<OnceCell<SignedRrSet>>,
}

/// The denial-of-existence chain of a signed zone.
#[derive(Debug)]
enum DenialChain {
    Nsec(NsecChain),
    Nsec3(Nsec3Chain),
}

impl Dnssec {
    /// The `idx`-th chain record with its RRSIG, rendered and signed the
    /// first time it is served.
    fn proof(&self, idx: usize, ttl: u32) -> Option<SignedRrSet> {
        let proof = self.proofs.get(idx)?.get_or_init(|| {
            let set = self.chain.record_at(idx, ttl);
            let rrsig = Arc::new(self.zsk.sign(&set));
            SignedRrSet::new(Arc::new(set), Some(rrsig))
        });
        Some(proof.clone())
    }
}

impl DenialChain {
    fn len(&self) -> usize {
        match self {
            DenialChain::Nsec(chain) => chain.len(),
            DenialChain::Nsec3(chain) => chain.len(),
        }
    }

    fn covering_index(&self, name: &Name) -> Option<usize> {
        match self {
            DenialChain::Nsec(chain) => chain.covering_index(name),
            DenialChain::Nsec3(chain) => chain.covering_index(name),
        }
    }

    fn index_of(&self, name: &Name) -> Option<usize> {
        match self {
            DenialChain::Nsec(chain) => chain.index_of(name),
            DenialChain::Nsec3(chain) => chain.index_of(name),
        }
    }

    fn record_at(&self, idx: usize, ttl: u32) -> RrSet {
        match self {
            DenialChain::Nsec(chain) => chain.record_at(idx, ttl),
            DenialChain::Nsec3(chain) => chain.record_at(idx, ttl),
        }
    }
}

impl PublishedZone {
    /// Publishes a zone without DNSSEC.
    pub fn unsigned(zone: Zone) -> Self {
        Self::publish(zone, None)
    }

    /// Signs and publishes a zone with plain NSEC denial.
    ///
    /// Every authoritative RRset is signed with the ZSK; the DNSKEY RRset is
    /// signed with the KSK; an NSEC chain over all owner names (plus
    /// delegation points) is generated and signed. Delegation NS RRsets are
    /// left unsigned, per RFC 4035 §2.2. Only the DNSKEY RRset is signed
    /// here; the rest is signed on first serve (see the type's docs).
    pub fn signed(zone: Zone, keys: &SigningKeys, inception: u32, expiration: u32) -> Self {
        Self::signed_with_denial(zone, keys, inception, expiration, DenialMode::Nsec)
    }

    /// Signs and publishes a zone with the chosen denial-of-existence
    /// mechanism (§7.3 of the paper: NSEC vs NSEC3 is a privacy/enumeration
    /// trade-off for a DLV registry).
    pub fn signed_with_denial(
        zone: Zone,
        keys: &SigningKeys,
        inception: u32,
        expiration: u32,
        denial: DenialMode,
    ) -> Self {
        Self::signed_with_keyset(zone, &ZoneKeySet::single(keys), inception, expiration, denial)
    }

    /// Signs and publishes a zone from a general [`ZoneKeySet`] — the entry
    /// point the key-lifecycle machinery uses to publish rollover epochs
    /// where extra (pre-published, retiring, or revoked) keys appear in the
    /// DNSKEY RRset while only the designated signers produce RRSIGs.
    pub fn signed_with_keyset(
        zone: Zone,
        keyset: &ZoneKeySet,
        inception: u32,
        expiration: u32,
        denial: DenialMode,
    ) -> Self {
        let apex = zone.apex().clone();

        // DNSKEY RRset: every published key (ZSKs then KSKs), signed by the
        // designated KSK.
        let mut dnskey_set = RrSet::empty(apex.clone(), RrType::Dnskey, DEFAULT_TTL);
        for rdata in keyset.dnskey_rdatas() {
            dnskey_set.push(rdata);
        }
        let ksk = ZoneSigner::new(apex.clone(), *keyset.ksk_signer(), inception, expiration);
        let dnskey_sig = Arc::new(ksk.sign(&dnskey_set));
        let dnskeys = SignedRrSet::new(Arc::new(dnskey_set), Some(dnskey_sig));

        // Denial chain over every owner name with its present types.
        let mut per_owner: BTreeMap<Name, TypeBitmap> = BTreeMap::new();
        for set in zone.iter() {
            per_owner.entry(set.name.clone()).or_default().insert(set.rrtype);
        }
        per_owner.entry(apex.clone()).or_default().insert(RrType::Dnskey);
        let owners: Vec<(Name, TypeBitmap)> = per_owner.into_iter().collect();
        let chain = match denial {
            DenialMode::Nsec => DenialChain::Nsec(NsecChain::build(apex.clone(), owners)),
            DenialMode::Nsec3 => {
                // Salt derived from the apex, one extra iteration: fixed,
                // deterministic parameters (the study never rolls salts).
                let salt = {
                    let mut wire = Vec::new();
                    apex.encode_uncompressed(&mut wire);
                    lookaside_crypto::sha256(&wire)[..4].to_vec()
                };
                DenialChain::Nsec3(Nsec3Chain::build(apex.clone(), owners, salt, 1))
            }
        };
        let proofs = std::iter::repeat_with(OnceCell::new).take(chain.len()).collect();

        let zsk = ZoneSigner::new(apex, *keyset.zsk_signer(), inception, expiration);
        Self::publish(zone, Some(Dnssec { zsk, dnskeys, chain, proofs }))
    }

    fn publish(zone: Zone, dnssec: Option<Dnssec>) -> Self {
        let flat = FlatZone::build(&zone);
        #[expect(clippy::expect_used, reason = "`Zone::new` stores the SOA at the apex")]
        let soa = flat.find(zone.apex(), RrType::Soa).expect("every zone has an SOA");
        PublishedZone { zone, flat, soa, dnssec }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        self.zone.apex()
    }

    /// Whether the zone is DNSSEC-signed.
    pub fn is_signed(&self) -> bool {
        self.dnssec.is_some()
    }

    /// The underlying content zone.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// The DNSKEY RRset, when signed.
    pub fn dnskeys(&self) -> Option<&SignedRrSet> {
        self.dnssec.as_ref().map(|dnssec| &dnssec.dnskeys)
    }

    /// The SOA RRset that negative responses carry.
    pub fn soa_rrset(&self) -> &Arc<RrSet> {
        self.flat.rrset_at(self.soa)
    }

    fn zsk(&self) -> Option<&ZoneSigner> {
        self.dnssec.as_ref().map(|dnssec| &dnssec.zsk)
    }

    /// The RRset at `(name, rrtype)` with its RRSIG, signed on first serve.
    fn signed_rrset(&self, name: &Name, rrtype: RrType) -> Option<SignedRrSet> {
        self.flat.signed(name, rrtype, self.zsk())
    }

    /// The SOA with its RRSIG, for negative responses.
    fn soa_signed(&self) -> SignedRrSet {
        self.flat.signed_at(self.soa, self.zsk())
    }

    /// The NSEC/NSEC3 record (with signature) proving `name` does not
    /// exist; `None` in an unsigned zone.
    pub fn nxdomain_proof(&self, name: &Name) -> Option<SignedRrSet> {
        let dnssec = self.dnssec.as_ref()?;
        dnssec.proof(dnssec.chain.covering_index(name)?, self.zone.soa().minimum)
    }

    /// The NSEC/NSEC3 record at `name` itself (type-absence proof), if
    /// `name` owns one.
    pub fn nodata_proof(&self, name: &Name) -> Option<SignedRrSet> {
        let dnssec = self.dnssec.as_ref()?;
        dnssec.proof(dnssec.chain.index_of(name)?, self.zone.soa().minimum)
    }

    /// Authoritative lookup of `qname`/`qtype`.
    ///
    /// Implements the RFC 1034 §4.3.2 algorithm restricted to one zone:
    /// referral below cuts (except DS queries *at* the cut, which the parent
    /// answers), CNAME indirection, NODATA/NXDOMAIN with NSEC proofs when
    /// signed.
    pub fn lookup(&self, qname: &Name, qtype: RrType) -> Lookup {
        if !qname.is_subdomain_of(self.zone.apex()) {
            return Lookup::OutOfZone;
        }

        // DNSKEY at apex is served from the published set.
        if qtype == RrType::Dnskey && qname == self.zone.apex() {
            return match self.dnskeys() {
                Some(set) => Lookup::Answer { answer: set.clone() },
                None => Lookup::NoData { soa: self.soa_signed(), proof: None },
            };
        }

        if let Some(cut) = self.zone.cut_above(qname) {
            let at_cut = qname == cut;
            // The parent answers DS queries at the cut itself.
            if !(at_cut && qtype == RrType::Ds) {
                return self.referral(cut);
            }
        }

        if qtype != RrType::Cname {
            if let Some(cname) = self.signed_rrset(qname, RrType::Cname) {
                return Lookup::Cname { cname };
            }
        }

        if let Some(answer) = self.signed_rrset(qname, qtype) {
            return Lookup::Answer { answer };
        }

        if qtype == RrType::Nsec {
            if let Some(proof) = self.nodata_proof(qname) {
                return Lookup::Answer { answer: proof };
            }
        }

        if self.flat.name_exists(qname) {
            Lookup::NoData { soa: self.soa_signed(), proof: self.nodata_proof(qname) }
        } else {
            Lookup::NxDomain { soa: self.soa_signed(), proof: self.nxdomain_proof(qname) }
        }
    }

    fn referral(&self, cut: &Name) -> Lookup {
        #[expect(clippy::expect_used, reason = "a zone cut is where an NS RRset sits")]
        let ns =
            self.zone.rrset(cut, RrType::Ns).cloned().expect("cut names always own an NS RRset");
        let ds = self.signed_rrset(cut, RrType::Ds);
        let no_ds_proof = if ds.is_none() { self.nodata_proof(cut) } else { None };
        let glue = ns
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Ns(name) => self.zone.glue_for(name).map(|addr| (name.clone(), addr)),
                _ => None,
            })
            .collect();
        Lookup::Referral { cut: cut.clone(), ns, ds, no_ds_proof, glue }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_crypto::{ds_rdata, KeyPair};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(n("example.com"), n("ns1.example.com"));
        z.add(n("example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        z.add(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        z.add(n("alias.example.com"), 300, RData::Cname(n("www.example.com")));
        z
    }

    fn signed_zone() -> PublishedZone {
        PublishedZone::signed(sample_zone(), &SigningKeys::from_seed(1), 1000, 2000)
    }

    #[test]
    fn answer_includes_rrsig_in_signed_zone() {
        let pz = signed_zone();
        match pz.lookup(&n("www.example.com"), RrType::A) {
            Lookup::Answer { answer } => {
                assert!(answer.rrsig.is_some());
                assert_eq!(answer.rrset.rrtype, RrType::A);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsigned_zone_has_no_sigs_or_proofs() {
        let pz = PublishedZone::unsigned(sample_zone());
        match pz.lookup(&n("www.example.com"), RrType::A) {
            Lookup::Answer { answer } => assert!(answer.rrsig.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        match pz.lookup(&n("missing.example.com"), RrType::A) {
            Lookup::NxDomain { proof, .. } => assert!(proof.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rrsig_verifies_against_zsk() {
        let keys = SigningKeys::from_seed(2);
        let pz = PublishedZone::signed(sample_zone(), &keys, 1000, 2000);
        let Lookup::Answer { answer } = pz.lookup(&n("www.example.com"), RrType::A) else {
            panic!("expected answer");
        };
        let sig = answer.rrsig.unwrap();
        let RData::Rrsig {
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer_name,
            signature,
        } = sig.rdata.clone()
        else {
            panic!("expected rrsig rdata");
        };
        let input = rrsig_signing_input(
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            &signer_name,
            &answer.rrset,
        );
        assert!(keys.zsk.public().verify_bytes(&input, &signature));
        assert!(!keys.ksk.public().verify_bytes(&input, &signature));
    }

    #[test]
    fn dnskey_set_signed_by_ksk() {
        let keys = SigningKeys::from_seed(3);
        let pz = PublishedZone::signed(sample_zone(), &keys, 1000, 2000);
        let Lookup::Answer { answer } = pz.lookup(&n("example.com"), RrType::Dnskey) else {
            panic!("expected dnskey answer");
        };
        assert_eq!(answer.rrset.len(), 2);
        let RData::Rrsig { key_tag, .. } = &answer.rrsig.as_ref().unwrap().rdata else {
            panic!("expected rrsig");
        };
        assert_eq!(*key_tag, keys.ksk.key_tag());
    }

    #[test]
    fn cname_redirects_other_types() {
        let pz = signed_zone();
        assert!(matches!(pz.lookup(&n("alias.example.com"), RrType::A), Lookup::Cname { .. }));
        assert!(matches!(pz.lookup(&n("alias.example.com"), RrType::Cname), Lookup::Answer { .. }));
    }

    #[test]
    fn nxdomain_has_covering_nsec() {
        let pz = signed_zone();
        match pz.lookup(&n("missing.example.com"), RrType::A) {
            Lookup::NxDomain { soa, proof } => {
                assert!(soa.rrsig.is_some());
                let proof = proof.expect("signed zone provides proof");
                assert!(proof.rrsig.is_some());
                let RData::Nsec { next_name, .. } = &proof.rrset.rdatas[0] else {
                    panic!("expected nsec");
                };
                assert!(crate::nsec::covers(
                    &proof.rrset.name,
                    next_name,
                    &n("missing.example.com")
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_has_type_absence_proof() {
        let pz = signed_zone();
        match pz.lookup(&n("www.example.com"), RrType::Mx) {
            Lookup::NoData { proof, .. } => {
                let proof = proof.expect("nsec at name");
                assert_eq!(proof.rrset.name, n("www.example.com"));
                let RData::Nsec { types, .. } = &proof.rrset.rdatas[0] else {
                    panic!("expected nsec");
                };
                assert!(types.contains(RrType::A));
                assert!(!types.contains(RrType::Mx));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn referral_below_cut_with_ds() {
        let mut parent = Zone::new(n("com"), n("a.gtld-servers.net"));
        parent
            .delegate(n("secure.com"), &[(n("ns1.secure.com"), Ipv4Addr::new(192, 0, 2, 53))])
            .unwrap();
        let child_ksk = KeyPair::generate_ksk(50);
        parent.add_ds(n("secure.com"), ds_rdata(&n("secure.com"), &child_ksk.public()));
        let pz = PublishedZone::signed(parent, &SigningKeys::from_seed(4), 0, 100);
        match pz.lookup(&n("www.secure.com"), RrType::A) {
            Lookup::Referral { cut, ns, ds, no_ds_proof, glue } => {
                assert_eq!(cut, n("secure.com"));
                assert_eq!(ns.len(), 1);
                assert!(ds.expect("secure delegation").rrsig.is_some());
                assert!(no_ds_proof.is_none());
                assert_eq!(glue, vec![(n("ns1.secure.com"), Ipv4Addr::new(192, 0, 2, 53))]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insecure_delegation_gets_no_ds_proof() {
        let mut parent = Zone::new(n("com"), n("a.gtld-servers.net"));
        parent
            .delegate(n("island.com"), &[(n("ns1.island.com"), Ipv4Addr::new(192, 0, 2, 54))])
            .unwrap();
        let pz = PublishedZone::signed(parent, &SigningKeys::from_seed(5), 0, 100);
        match pz.lookup(&n("island.com"), RrType::A) {
            Lookup::Referral { ds, no_ds_proof, .. } => {
                assert!(ds.is_none());
                let proof = no_ds_proof.expect("signed parent proves no DS");
                let RData::Nsec { types, .. } = &proof.rrset.rdatas[0] else {
                    panic!("expected nsec");
                };
                assert!(types.contains(RrType::Ns));
                assert!(!types.contains(RrType::Ds));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ds_at_cut_answered_by_parent() {
        let mut parent = Zone::new(n("com"), n("a.gtld-servers.net"));
        parent.delegate(n("secure.com"), &[]).unwrap();
        let child_ksk = KeyPair::generate_ksk(51);
        parent.add_ds(n("secure.com"), ds_rdata(&n("secure.com"), &child_ksk.public()));
        let pz = PublishedZone::signed(parent, &SigningKeys::from_seed(6), 0, 100);
        match pz.lookup(&n("secure.com"), RrType::Ds) {
            Lookup::Answer { answer } => assert_eq!(answer.rrset.rrtype, RrType::Ds),
            other => panic!("unexpected {other:?}"),
        }
        // But an A query at the cut is still a referral.
        assert!(pz.lookup(&n("secure.com"), RrType::A).is_referral());
    }

    #[test]
    fn ds_absent_at_insecure_cut_is_nodata() {
        let mut parent = Zone::new(n("com"), n("a.gtld-servers.net"));
        parent.delegate(n("island.com"), &[]).unwrap();
        let pz = PublishedZone::signed(parent, &SigningKeys::from_seed(7), 0, 100);
        match pz.lookup(&n("island.com"), RrType::Ds) {
            Lookup::NoData { proof, .. } => {
                assert!(proof.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nsec3_zone_proves_nxdomain_with_hashed_records() {
        let pz = PublishedZone::signed_with_denial(
            sample_zone(),
            &SigningKeys::from_seed(11),
            1000,
            2000,
            crate::DenialMode::Nsec3,
        );
        match pz.lookup(&n("missing.example.com"), RrType::A) {
            Lookup::NxDomain { proof, .. } => {
                let proof = proof.expect("nsec3 proof");
                assert!(proof.rrsig.is_some());
                assert!(matches!(proof.rrset.rdatas[0], RData::Nsec3 { .. }));
                // Hashed owner label, 32 base32hex chars.
                assert_eq!(proof.rrset.name.label(0).len(), 32);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Positive answers are unaffected by the denial mode.
        assert!(matches!(pz.lookup(&n("www.example.com"), RrType::A), Lookup::Answer { .. }));
    }

    #[test]
    fn nsec3_zone_nodata_proof_exists() {
        let pz = PublishedZone::signed_with_denial(
            sample_zone(),
            &SigningKeys::from_seed(12),
            1000,
            2000,
            crate::DenialMode::Nsec3,
        );
        match pz.lookup(&n("www.example.com"), RrType::Mx) {
            Lookup::NoData { proof, .. } => {
                let proof = proof.expect("nsec3 nodata proof");
                assert!(matches!(proof.rrset.rdatas[0], RData::Nsec3 { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_zone_detected() {
        let pz = signed_zone();
        assert_eq!(pz.lookup(&n("example.org"), RrType::A), Lookup::OutOfZone);
    }

    #[test]
    fn delegation_ns_set_is_unsigned() {
        let mut parent = Zone::new(n("com"), n("a.gtld-servers.net"));
        parent.delegate(n("child.com"), &[]).unwrap();
        let pz = PublishedZone::signed(parent, &SigningKeys::from_seed(8), 0, 100);
        // Every way a query reaches the cut: below it, at it, and the DS
        // query the parent answers there.
        for (qname, qtype) in
            [("x.child.com", RrType::A), ("child.com", RrType::Ns), ("child.com", RrType::Ds)]
        {
            match pz.lookup(&n(qname), qtype) {
                Lookup::Referral { ns, .. } => assert_eq!(ns.name, n("child.com")),
                Lookup::NoData { proof, .. } => assert!(proof.is_some(), "signed no-DS proof"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The apex NS set is signed on first serve; the delegation NS set
        // never is.
        let Lookup::Answer { answer } = pz.lookup(&n("com"), RrType::Ns) else {
            panic!("apex NS answer");
        };
        assert!(answer.rrsig.is_some());
        let cut = pz.flat.find(&n("child.com"), RrType::Ns).expect("cut NS in the flat table");
        assert!(pz.flat.rrsig_at(cut).is_none(), "no RRSIG made for the delegation NS set");
    }
}
