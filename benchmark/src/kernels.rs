//! Kernel timings on inputs captured from a real response: the answer to
//! an A query for a signed domain, its RRSIG, and the zone's DNSKEYs.

use std::net::Ipv4Addr;

use lookaside::internet::{EXPIRATION, INCEPTION};
use lookaside::resolver::verify_rrset;
use lookaside::wire::{Message, Name, RData, RrSet, RrType};
use lookaside::zone::{rrsig_signing_input, PublishedZone, SigningKeys, Zone, DEFAULT_TTL};
use lookaside_crypto::{ds_digest, PublicKey};

use crate::dns::World;
use crate::report::Outcome;
use crate::timer::time_kernel;

/// Kernel metrics, with units; each also reports its MAD.
pub const KERNELS: [(&str, &str); 7] = [
    ("crypto.verify_ns", "ns"),
    ("crypto.sign_ns", "ns"),
    ("crypto.ds_digest_ns", "ns"),
    ("resolver.verify_rrset_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("zone.sign_sld_us", "us"),
];

/// Captures kernel inputs from `world`'s network, checks the kernels
/// compute what the resolver relies on, and times each.
pub fn time_kernels(world: &mut World, outcome: &mut Outcome) {
    let Some(rank) = world.first_secure_rank() else {
        outcome.check(Some("no secure domain to capture kernel inputs from".to_string()));
        return;
    };
    let attrs = world.internet.population.attributes(rank);
    let apex = attrs.name.clone();
    let net = &mut world.internet.net;
    let (answer, dnskeys) = match (
        net.dnssec_query(attrs.server_addr, apex.clone(), RrType::A),
        net.dnssec_query(attrs.server_addr, apex.clone(), RrType::Dnskey),
    ) {
        (Ok(a), Ok(k)) => (a.response, k.response),
        (Err(e), _) | (_, Err(e)) => {
            outcome.check(Some(format!("capturing kernel inputs from {apex}: {e}")));
            return;
        }
    };
    let now_secs = (net.now_ns() / 1_000_000_000) as u32;
    let keys: Vec<PublicKey> = dnskeys
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Dnskey { flags, public_key, .. } => PublicKey::from_dnskey(*flags, public_key),
            _ => None,
        })
        .collect();
    let Some(sig) = answer.answers.iter().find(|r| r.rrtype == RrType::Rrsig) else {
        outcome.check(Some(format!("{apex}: signed answer without an RRSIG")));
        return;
    };
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
    } = &sig.rdata
    else {
        unreachable!("an RRSIG record carries RRSIG data");
    };
    let mut rrset = RrSet::empty(apex.clone(), RrType::A, *original_ttl);
    for record in answer.answers.iter().filter(|r| r.rrtype == RrType::A) {
        rrset.push(record.rdata.clone());
    }
    let input = rrsig_signing_input(
        *type_covered,
        *algorithm,
        *labels,
        *original_ttl,
        *expiration,
        *inception,
        *key_tag,
        signer_name,
        &rrset,
    );
    let signing = SigningKeys::from_seed(attrs.key_seed);
    let zsk = signing.zsk.public();
    let ksk = signing.ksk.public();
    let bytes = answer.to_bytes();
    let zone = sld_zone(&apex, attrs.server_addr);

    outcome.check(
        (!verify_rrset(&rrset, sig, &keys, now_secs))
            .then(|| format!("{apex}: RRSIG does not verify")),
    );
    outcome.check(
        (!zsk.verify_bytes(&input, signature)).then(|| format!("{apex}: ZSK does not verify")),
    );
    outcome.check(
        (!zsk.verify(&input, &signing.zsk.sign(&input)))
            .then(|| format!("{apex}: fresh signature does not verify")),
    );
    outcome.check(
        (Message::from_bytes(&bytes).map(|m| m.to_bytes()).as_ref() != Ok(&bytes))
            .then(|| format!("{apex}: response does not survive a decode/encode round trip")),
    );

    let timings = [
        time_kernel(|| zsk.verify_bytes(&input, signature)),
        time_kernel(|| signing.zsk.sign(&input)),
        time_kernel(|| ds_digest(&apex, &ksk)),
        time_kernel(|| verify_rrset(&rrset, sig, &keys, now_secs)),
        time_kernel(|| answer.to_bytes()),
        time_kernel(|| Message::from_bytes(&bytes)),
        time_kernel(|| PublishedZone::signed(zone.clone(), &signing, INCEPTION, EXPIRATION)),
    ];
    for ((name, unit), timing) in KERNELS.iter().zip(timings) {
        let scale = if *unit == "us" { 1e3 } else { 1.0 };
        let (stem, suffix) = name.rsplit_once('_').expect("kernel names end in a unit");
        outcome.set(*name, timing.median_ns / scale);
        outcome.set(format!("{stem}_mad_{suffix}"), timing.mad_ns / scale);
    }
}

/// A zone of the shape the synthetic SLD authority signs for a
/// self-hosted domain: apex and `www` addresses, mail exchanger, and two
/// in-bailiwick name servers.
fn sld_zone(apex: &Name, addr: Ipv4Addr) -> Zone {
    let child = |label: &str| apex.prepend(label).expect("short label under a domain");
    let mut zone = Zone::new(apex.clone(), child("ns1"));
    zone.add(apex.clone(), DEFAULT_TTL, RData::Ns(child("ns2")));
    zone.add(apex.clone(), DEFAULT_TTL, RData::A(addr));
    zone.add(child("www"), DEFAULT_TTL, RData::A(addr));
    zone.add(apex.clone(), DEFAULT_TTL, RData::Mx { preference: 10, exchange: child("mail") });
    zone.add(child("mail"), DEFAULT_TTL, RData::A(addr));
    zone.add(child("ns1"), DEFAULT_TTL, RData::A(addr));
    zone.add(child("ns2"), DEFAULT_TTL, RData::A(addr));
    zone
}
