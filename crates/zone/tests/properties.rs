//! Property-based tests for the zone layer: the NSEC chain must cover
//! exactly the names that do not exist, signed lookups must always carry
//! verifiable proofs, and every signature a zone makes on first serve must
//! be the one a direct signing would make.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;

use lookaside_crypto::{ds_rdata, KeyPair, ALGORITHM_SIM_SCHNORR};
use lookaside_wire::{Name, RData, Record, RrClass, RrSet, RrType, TypeBitmap};
use lookaside_zone::{
    covers, rrsig_signing_input, DenialMode, Lookup, NsecChain, PublishedKey, PublishedZone,
    SignedRrSet, SigningKeys, Zone, ZoneKeySet,
};

const INCEPTION: u32 = 100;
const EXPIRATION: u32 = 90_000;

/// The RRSIG over `set` by `key`, built field by field from the RFC 4034
/// signing input, independently of the zone's signer.
fn direct_rrsig(set: &RrSet, key: &KeyPair, signer: &Name) -> Record {
    let labels = set.name.label_count() as u8;
    let input = rrsig_signing_input(
        set.rrtype,
        ALGORITHM_SIM_SCHNORR,
        labels,
        set.ttl,
        EXPIRATION,
        INCEPTION,
        key.key_tag(),
        signer,
        set,
    );
    Record {
        name: set.name.clone(),
        rrtype: RrType::Rrsig,
        class: RrClass::In,
        ttl: set.ttl,
        rdata: RData::Rrsig {
            type_covered: set.rrtype,
            algorithm: ALGORITHM_SIM_SCHNORR,
            labels,
            original_ttl: set.ttl,
            expiration: EXPIRATION,
            inception: INCEPTION,
            key_tag: key.key_tag(),
            signer_name: signer.clone(),
            signature: key.sign_to_bytes(&input),
        },
    }
}

/// Two ZSKs and two KSKs: a pre-published ZSK beside the signing one, and
/// a revoked KSK beside the signing one.
fn rollover_keyset(seed: u64) -> ZoneKeySet {
    let keys = SigningKeys::from_seed(seed);
    let spare = SigningKeys::from_seed(seed + 1_000);
    ZoneKeySet {
        zsks: vec![PublishedKey::active(spare.zsk), PublishedKey::active(keys.zsk)],
        ksks: vec![PublishedKey { pair: spare.ksk, revoked: true }, PublishedKey::active(keys.ksk)],
        signer_zsk: 1,
        signer_ksk: 1,
    }
}

/// Every signed RRset a lookup returns, referral NS sets aside.
fn signed_parts(lookup: &Lookup) -> Vec<&SignedRrSet> {
    match lookup {
        Lookup::Answer { answer } => vec![answer],
        Lookup::Cname { cname } => vec![cname],
        Lookup::NoData { soa, proof } | Lookup::NxDomain { soa, proof } => {
            std::iter::once(soa).chain(proof).collect()
        }
        Lookup::Referral { ds, no_ds_proof, .. } => ds.iter().chain(no_ds_proof).collect(),
        _ => Vec::new(),
    }
}

fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{1,8}").expect("valid regex")
}

proptest! {
    #[test]
    fn nsec_chain_covers_exactly_non_owners(
        owners in proptest::collection::btree_set(label(), 1..20),
        probes in proptest::collection::vec(label(), 1..20),
    ) {
        let apex = Name::parse("zone.test.").unwrap();
        let entries: Vec<(Name, TypeBitmap)> = owners
            .iter()
            .map(|l| (apex.prepend(l).unwrap(), TypeBitmap::from_types([RrType::A])))
            .collect();
        let chain = NsecChain::build(apex.clone(), entries);
        for probe in &probes {
            let name = apex.prepend(probe).unwrap();
            let exists = owners.contains(probe);
            let covered = chain.covering(&name, 60).is_some();
            prop_assert_eq!(covered, !exists, "probe {} exists={}", name, exists);
        }
    }

    #[test]
    fn covers_is_exclusive_of_endpoints(a in label(), b in label(), x in label()) {
        let apex = Name::parse("zone.test.").unwrap();
        let owner = apex.prepend(&a).unwrap();
        let next = apex.prepend(&b).unwrap();
        let probe = apex.prepend(&x).unwrap();
        if covers(&owner, &next, &probe) {
            prop_assert_ne!(&probe, &owner);
            prop_assert_ne!(&probe, &next);
        }
    }

    #[test]
    fn signed_zone_lookups_always_carry_proofs(
        hosts in proptest::collection::btree_set(label(), 1..12),
        probes in proptest::collection::vec(label(), 1..12),
    ) {
        let apex = Name::parse("p.example.").unwrap();
        let mut zone = Zone::new(apex.clone(), apex.prepend("ns1").unwrap());
        for host in &hosts {
            zone.add(
                apex.prepend(host).unwrap(),
                300,
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, 7)),
            );
        }
        let published = PublishedZone::signed(zone, &SigningKeys::from_seed(5), 0, u32::MAX);
        for probe in &probes {
            let qname = apex.prepend(probe).unwrap();
            match published.lookup(&qname, RrType::A) {
                Lookup::Answer { answer } => {
                    prop_assert!(hosts.contains(probe));
                    prop_assert!(answer.rrsig.is_some());
                }
                Lookup::NxDomain { soa, proof } => {
                    prop_assert!(!hosts.contains(probe));
                    prop_assert!(soa.rrsig.is_some());
                    let proof = proof.expect("signed zone always proves nxdomain");
                    let RData::Nsec { next_name, .. } = &proof.rrset.rdatas[0] else {
                        panic!("nsec expected");
                    };
                    prop_assert!(covers(&proof.rrset.name, next_name, &qname));
                }
                other => panic!("unexpected lookup {other:?}"),
            }
        }
    }

    #[test]
    fn every_lazily_made_rrsig_equals_a_direct_signature(
        hosts in proptest::collection::btree_set(label(), 1..6),
        aliases in proptest::collection::btree_set(label(), 0..4),
        cuts in proptest::collection::btree_set(label(), 0..4),
        secure_cuts in any::<u8>(),
        nsec3 in any::<bool>(),
        probes in proptest::collection::vec(label(), 1..6),
        key_seed in 1u64..1_000,
    ) {
        let apex = Name::parse("p.example.").unwrap();
        let child = |prefix: &str, l: &str| apex.prepend(&format!("{prefix}{l}")).unwrap();
        let mut zone = Zone::new(apex.clone(), apex.prepend("ns1").unwrap());
        zone.add(apex.clone(), 300, RData::Mx { preference: 10, exchange: child("h", "mx") });
        for host in &hosts {
            zone.add(child("h", host), 300, RData::A(Ipv4Addr::new(192, 0, 2, 7)));
        }
        let target = child("h", hosts.iter().next().unwrap());
        for alias in &aliases {
            zone.add(child("c", alias), 300, RData::Cname(target.clone()));
        }
        for (i, cut) in cuts.iter().enumerate() {
            let cut = child("z", cut);
            let ns = cut.prepend("ns1").unwrap();
            zone.delegate(cut.clone(), &[(ns, Ipv4Addr::new(192, 0, 2, 53))]).unwrap();
            if secure_cuts & (1 << i) != 0 {
                let ksk = KeyPair::generate_ksk(key_seed + i as u64);
                zone.add_ds(cut.clone(), ds_rdata(&cut, &ksk.public()));
            }
        }
        let keyset = rollover_keyset(key_seed);
        let denial = if nsec3 { DenialMode::Nsec3 } else { DenialMode::Nsec };
        let publish = || {
            PublishedZone::signed_with_keyset(zone.clone(), &keyset, INCEPTION, EXPIRATION, denial)
        };

        let mut names = vec![apex.clone(), apex.prepend("nope").unwrap()];
        for probe in probes.iter().chain(&hosts).chain(&aliases).chain(&cuts) {
            for prefix in ["h", "c", "z"] {
                let name = child(prefix, probe);
                names.push(name.prepend("below").unwrap());
                names.push(name);
            }
        }
        let types = [
            RrType::A, RrType::Aaaa, RrType::Cname, RrType::Ds, RrType::Ns, RrType::Soa,
            RrType::Mx, RrType::Nsec, RrType::Dnskey,
        ];
        let queries: Vec<(Name, RrType)> = names
            .iter()
            .flat_map(|name| types.iter().map(move |&t| (name.clone(), t)))
            .collect();

        let forward = publish();
        let mut seen = Vec::new();
        for (qname, qtype) in &queries {
            let lookup = forward.lookup(qname, *qtype);
            for part in signed_parts(&lookup) {
                let rrsig = part.rrsig.as_ref().expect("a signed zone signs what it serves");
                let key = if part.rrset.rrtype == RrType::Dnskey {
                    keyset.ksk_signer()
                } else {
                    keyset.zsk_signer()
                };
                prop_assert_eq!(
                    rrsig.as_ref(),
                    &direct_rrsig(&part.rrset, key, &apex),
                    "{} {:?} -> {:?}",
                    qname,
                    qtype,
                    part.rrset
                );
                // A second serve shares the first one's signature.
                let again = forward.lookup(qname, *qtype);
                prop_assert!(signed_parts(&again)
                    .iter()
                    .any(|p| p.rrsig.as_ref().is_some_and(|s| Arc::ptr_eq(s, rrsig))));
            }
            seen.push(lookup);
        }

        let backward = publish();
        let mut reversed: Vec<Lookup> =
            queries.iter().rev().map(|(qname, qtype)| backward.lookup(qname, *qtype)).collect();
        reversed.reverse();
        prop_assert_eq!(seen, reversed);
    }
}
