//! Synthetic authorities: wire-faithful servers for the million-domain tail.
//!
//! Materialising a million signed SLD zones (and TLD zones delegating them)
//! would cost gigabytes, so the long tail is served by two fabricating
//! servers driven by a [`ZoneOracle`]:
//!
//! * TLD mode ([`SyntheticAuthority::tld`]) — answers referrals, DS queries,
//!   and NXDOMAINs for children of one TLD, fabricating (and signing, when
//!   the TLD is signed) DS sets and tight NSEC proofs on demand,
//! * SLD mode ([`SyntheticAuthority::sld_default`]) — installed as the
//!   network's default route; serves any child zone the oracle recognises
//!   by building (and caching) a real [`PublishedZone`] for it on first
//!   touch.
//!
//! Fabricated responses go through the same zone/signing/rendering code as
//! materialised ones, so validators cannot tell the difference — which is
//! the point: the substitution changes scale, not semantics.

// Fabricated zones add one short label ("ns", "www", "mail", a neighbour)
// to a registrable name the oracle specified, which always fits.
#![expect(clippy::expect_used, reason = "one more label over a registrable name fits")]

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lookaside_crypto::ds_rdata;
use lookaside_netsim::DnsHandler;
use lookaside_wire::ext::txt_signal;
use lookaside_wire::{
    Message, MessageBuilder, Name, RData, Rcode, Record, RrClass, RrType, Section, TypeBitmap,
};
use lookaside_zone::{rrsig_signing_input, PublishedZone, SigningKeys, Zone, DEFAULT_TTL};

use crate::render::{glue_record, render_lookup};

/// Attributes of one synthetic SLD zone, derived by the oracle from the
/// population model.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Zone apex (the registered domain).
    pub apex: Name,
    /// Whether the zone is DNSSEC-signed.
    pub signed: bool,
    /// Whether the parent TLD publishes a DS for it (if not and `signed`,
    /// the zone is an island of security — exactly the population DLV was
    /// built for).
    pub ds_in_parent: bool,
    /// Whether the zone has a DLV record deposited in the registry.
    pub dlv_deposited: bool,
    /// Seed for the zone's [`SigningKeys`].
    pub key_seed: u64,
    /// TXT remedy signal to publish (`None` = zone does not participate).
    pub txt_signal: Option<bool>,
    /// Whether responses should carry the Z-bit remedy signal.
    pub z_signal: bool,
    /// Name servers (host name, address). The first in-bailiwick host gets
    /// glue at the parent; out-of-bailiwick hosts force the resolver to
    /// resolve them — the Table 4 A/AAAA traffic.
    pub ns_hosts: Vec<(Name, Ipv4Addr)>,
    /// Address the zone's content is served from.
    pub server_addr: Ipv4Addr,
}

impl SyntheticSpec {
    /// The zone's signing keys (derived, stable).
    pub fn keys(&self) -> SigningKeys {
        SigningKeys::from_seed(self.key_seed)
    }
}

/// Maps names to synthetic zone attributes. Implemented by the experiment
/// harness over its population model.
pub trait ZoneOracle {
    /// The synthetic SLD zone containing `qname`, if that domain exists.
    fn sld_spec(&self, qname: &Name) -> Option<SyntheticSpec>;
}

#[expect(clippy::large_enum_variant, reason = "two long-lived variants, never collections")]
enum Mode {
    /// Serve children of this TLD: referrals, DS, NXDOMAIN.
    Tld {
        apex: Name,
        apex_zone: PublishedZone,
        keys: SigningKeys,
        signed: bool,
        inception: u32,
        expiration: u32,
    },
    /// Serve SLD zone content for any oracle-known domain. Cached zones are
    /// behind `Rc` so repeat queries share one publication.
    Sld {
        inception: u32,
        expiration: u32,
        cache: BTreeMap<Name, Rc<PublishedZone>>,
        cache_cap: usize,
    },
}

/// A fabricating authoritative server (see module docs).
pub struct SyntheticAuthority {
    oracle: Rc<dyn ZoneOracle>,
    mode: Mode,
}

impl SyntheticAuthority {
    /// Creates a TLD-mode authority for `apex`.
    pub fn tld(
        apex: Name,
        keys: SigningKeys,
        signed: bool,
        oracle: Rc<dyn ZoneOracle>,
        inception: u32,
        expiration: u32,
    ) -> Self {
        let ns = apex.prepend("ns").expect("tld ns name");
        let zone = Zone::new(apex.clone(), ns);
        let apex_zone = if signed {
            PublishedZone::signed(zone, &keys, inception, expiration)
        } else {
            PublishedZone::unsigned(zone)
        };
        SyntheticAuthority {
            oracle,
            mode: Mode::Tld { apex, apex_zone, keys, signed, inception, expiration },
        }
    }

    /// Creates an SLD-mode authority, suitable as the network default route.
    pub fn sld_default(oracle: Rc<dyn ZoneOracle>, inception: u32, expiration: u32) -> Self {
        SyntheticAuthority {
            oracle,
            mode: Mode::Sld { inception, expiration, cache: BTreeMap::new(), cache_cap: 512 },
        }
    }

    /// Builds the content zone for a synthetic SLD.
    fn build_sld_zone(spec: &SyntheticSpec, inception: u32, expiration: u32) -> PublishedZone {
        let apex = spec.apex.clone();
        let primary = spec
            .ns_hosts
            .first()
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| apex.prepend("ns1").expect("ns name"));
        let mut zone = Zone::new(apex.clone(), primary);
        // NS RRset at apex: replace the default with the full host list.
        for (host, _) in spec.ns_hosts.iter().skip(1) {
            zone.add(apex.clone(), DEFAULT_TTL, RData::Ns(host.clone()));
        }
        let addr = spec.server_addr;
        zone.add(apex.clone(), DEFAULT_TTL, RData::A(addr));
        zone.add(apex.prepend("www").expect("www name"), DEFAULT_TTL, RData::A(addr));
        zone.add(
            apex.clone(),
            DEFAULT_TTL,
            RData::Mx { preference: 10, exchange: apex.prepend("mail").expect("mx name") },
        );
        zone.add(apex.prepend("mail").expect("mail name"), DEFAULT_TTL, RData::A(addr));
        // In-bailiwick NS host addresses live in the zone itself.
        for (host, host_addr) in &spec.ns_hosts {
            if host.is_subdomain_of(&apex) {
                zone.add(host.clone(), DEFAULT_TTL, RData::A(*host_addr));
            }
        }
        if let Some(present) = spec.txt_signal {
            zone.add(apex, DEFAULT_TTL, RData::Txt(vec![txt_signal(present)]));
        }
        if spec.signed {
            PublishedZone::signed(zone, &spec.keys(), inception, expiration)
        } else {
            PublishedZone::unsigned(zone)
        }
    }

    fn handle_sld(&mut self, query: &Message) -> Message {
        let Some(question) = query.question() else {
            return MessageBuilder::respond_to(query).rcode(Rcode::FormErr).build();
        };
        let Some(spec) = self.oracle.sld_spec(&question.name) else {
            return MessageBuilder::respond_to(query).rcode(Rcode::Refused).build();
        };
        #[expect(clippy::unreachable, reason = "`handle` dispatches on the mode")]
        let Mode::Sld { inception, expiration, cache, cache_cap } = &mut self.mode
        else {
            unreachable!("handle_sld called in TLD mode");
        };
        if cache.len() >= *cache_cap && !cache.contains_key(&spec.apex) {
            cache.clear();
        }
        let zone = Rc::clone(
            cache
                .entry(spec.apex.clone())
                .or_insert_with(|| Rc::new(Self::build_sld_zone(&spec, *inception, *expiration))),
        );
        let lookup = zone.lookup(&question.name, question.rrtype);
        let mut response = render_lookup(query, &lookup);
        if spec.z_signal && spec.dlv_deposited {
            response.header.flags.z = true;
        }
        response
    }

    /// Fabricates a signed record over `rrset`-like data for TLD-mode
    /// proofs.
    fn sign_fabricated(
        rrset: &lookaside_wire::RrSet,
        apex: &Name,
        keys: &SigningKeys,
        inception: u32,
        expiration: u32,
    ) -> Record {
        let key_tag = keys.zsk.key_tag();
        let algorithm = lookaside_crypto::ALGORITHM_SIM_SCHNORR;
        let labels = rrset.name.label_count() as u8;
        let input = rrsig_signing_input(
            rrset.rrtype,
            algorithm,
            labels,
            rrset.ttl,
            expiration,
            inception,
            key_tag,
            apex,
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
                expiration,
                inception,
                key_tag,
                signer_name: apex.clone(),
                signature: keys.zsk.sign_to_bytes(&input),
            },
        }
    }

    /// A tight fabricated NSEC at `owner` (type-absence proof) or covering
    /// `owner` (non-existence proof when `exists` is false).
    fn fabricate_nsec(owner: &Name, exists: bool, types: TypeBitmap) -> lookaside_wire::RrSet {
        let (nsec_owner, next) = if exists {
            // NSEC at the name itself: next is a close successor.
            (owner.clone(), close_successor(owner))
        } else {
            // Covering span: a close predecessor to a close successor.
            (close_predecessor(owner), close_successor(owner))
        };
        lookaside_wire::RrSet::single(
            nsec_owner,
            DEFAULT_TTL,
            RData::Nsec { next_name: next, types },
        )
    }

    fn handle_tld(&mut self, query: &Message) -> Message {
        let Some(question) = query.question() else {
            return MessageBuilder::respond_to(query).rcode(Rcode::FormErr).build();
        };
        #[expect(clippy::unreachable, reason = "`handle` dispatches on the mode")]
        let Mode::Tld { apex, apex_zone, keys, signed, inception, expiration } = &self.mode
        else {
            unreachable!("handle_tld called in SLD mode");
        };
        let qname = &question.name;
        if !qname.is_subdomain_of(apex) {
            return MessageBuilder::respond_to(query).rcode(Rcode::Refused).build();
        }
        if qname == apex {
            return render_lookup(query, &apex_zone.lookup(qname, question.rrtype));
        }

        let child = qname.suffix(apex.label_count() + 1);
        let spec = self.oracle.sld_spec(&child);
        let with_dnssec = query.do_bit();

        match spec {
            None => {
                // Child does not exist: NXDOMAIN with fabricated proofs.
                let mut msg = MessageBuilder::respond_to(query)
                    .authoritative(true)
                    .rcode(Rcode::NxDomain)
                    .build();
                for rec in apex_zone.signed_soa().rrset.to_records() {
                    msg.push(Section::Authority, rec);
                }
                if with_dnssec && *signed {
                    let nsec = Self::fabricate_nsec(&child, false, TypeBitmap::new());
                    let sig = Self::sign_fabricated(&nsec, apex, keys, *inception, *expiration);
                    for rec in nsec.to_records() {
                        msg.push(Section::Authority, rec);
                    }
                    msg.push(Section::Authority, sig);
                }
                msg
            }
            Some(spec) => {
                let secure_child = *signed && spec.signed && spec.ds_in_parent;
                if qname == &child && question.rrtype == RrType::Ds {
                    // The parent answers DS at the cut.
                    let mut msg = MessageBuilder::respond_to(query).authoritative(true).build();
                    if secure_child {
                        let ds = lookaside_wire::RrSet::single(
                            child.clone(),
                            DEFAULT_TTL,
                            ds_rdata(&child, &spec.keys().ksk.public()),
                        );
                        let sig = Self::sign_fabricated(&ds, apex, keys, *inception, *expiration);
                        for rec in ds.to_records() {
                            msg.push(Section::Answer, rec);
                        }
                        if with_dnssec {
                            msg.push(Section::Answer, sig);
                        }
                    } else {
                        // NODATA: prove the DS's absence when we can.
                        for rec in apex_zone.signed_soa().rrset.to_records() {
                            msg.push(Section::Authority, rec);
                        }
                        if with_dnssec && *signed {
                            let nsec = Self::fabricate_nsec(
                                &child,
                                true,
                                TypeBitmap::from_types([RrType::Ns]),
                            );
                            let sig =
                                Self::sign_fabricated(&nsec, apex, keys, *inception, *expiration);
                            for rec in nsec.to_records() {
                                msg.push(Section::Authority, rec);
                            }
                            msg.push(Section::Authority, sig);
                        }
                    }
                    return msg;
                }

                // Referral to the child.
                let mut msg = MessageBuilder::respond_to(query).build();
                let mut ns_set =
                    lookaside_wire::RrSet::empty(child.clone(), RrType::Ns, DEFAULT_TTL);
                for (host, _) in &spec.ns_hosts {
                    ns_set.push(RData::Ns(host.clone()));
                }
                for rec in ns_set.to_records() {
                    msg.push(Section::Authority, rec);
                }
                if with_dnssec && *signed {
                    if secure_child {
                        let ds = lookaside_wire::RrSet::single(
                            child.clone(),
                            DEFAULT_TTL,
                            ds_rdata(&child, &spec.keys().ksk.public()),
                        );
                        let sig = Self::sign_fabricated(&ds, apex, keys, *inception, *expiration);
                        for rec in ds.to_records() {
                            msg.push(Section::Authority, rec);
                        }
                        msg.push(Section::Authority, sig);
                    } else {
                        let nsec = Self::fabricate_nsec(
                            &child,
                            true,
                            TypeBitmap::from_types([RrType::Ns]),
                        );
                        let sig = Self::sign_fabricated(&nsec, apex, keys, *inception, *expiration);
                        for rec in nsec.to_records() {
                            msg.push(Section::Authority, rec);
                        }
                        msg.push(Section::Authority, sig);
                    }
                }
                for (host, addr) in &spec.ns_hosts {
                    if host.is_subdomain_of(&child) {
                        msg.push(Section::Additional, glue_record(host.clone(), *addr));
                    }
                }
                msg
            }
        }
    }
}

/// A name canonically just before `name`, guaranteed not to collide with
/// population names (which never end in `-`).
fn close_predecessor(name: &Name) -> Name {
    let mut label = name.label(0).to_string();
    if label.len() > 1 {
        label.pop();
    } else {
        label = "0".into();
    }
    let parent = name.parent().expect("child names have parents");
    parent.prepend(&label).expect("predecessor label fits")
}

/// A name canonically just after `name`.
fn close_successor(name: &Name) -> Name {
    let first = name.label(0).to_string();
    let parent = name.parent().expect("child names have parents");
    parent.prepend(&format!("{first}0")).expect("successor label fits")
}

impl DnsHandler for SyntheticAuthority {
    fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
        match self.mode {
            Mode::Tld { .. } => self.handle_tld(query),
            Mode::Sld { .. } => self.handle_sld(query),
        }
    }
}

impl std::fmt::Debug for SyntheticAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.mode {
            Mode::Tld { apex, .. } => write!(f, "SyntheticAuthority(tld {apex})"),
            Mode::Sld { cache, .. } => {
                write!(f, "SyntheticAuthority(sld, {} cached zones)", cache.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_zone::covers;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    struct TestOracle;

    impl ZoneOracle for TestOracle {
        fn sld_spec(&self, qname: &Name) -> Option<SyntheticSpec> {
            if qname.label_count() < 2 {
                return None;
            }
            let apex = qname.suffix(2);
            let first = apex.label(0).to_string();
            if !first.starts_with('d') {
                return None;
            }
            let signed = first.ends_with('1'); // d...1 domains are signed
            Some(SyntheticSpec {
                apex: apex.clone(),
                signed,
                ds_in_parent: first.ends_with("11"), // d...11 are fully secure
                dlv_deposited: first.contains("dep"),
                key_seed: 77,
                txt_signal: None,
                z_signal: false,
                ns_hosts: vec![(apex.prepend("ns1").unwrap(), Ipv4Addr::new(10, 0, 0, 1))],
                server_addr: Ipv4Addr::new(10, 0, 0, 1),
            })
        }
    }

    fn tld_authority() -> SyntheticAuthority {
        SyntheticAuthority::tld(
            n("com"),
            SigningKeys::from_seed(3),
            true,
            Rc::new(TestOracle),
            0,
            10_000,
        )
    }

    fn sld_authority() -> SyntheticAuthority {
        SyntheticAuthority::sld_default(Rc::new(TestOracle), 0, 10_000)
    }

    #[test]
    fn tld_referral_includes_glue_and_proofs() {
        let mut auth = tld_authority();
        let q = Message::dnssec_query(1, n("www.d01.com"), RrType::A);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.authorities_of(RrType::Ns).count(), 1);
        assert_eq!(resp.additionals_of(RrType::A).count(), 1, "in-bailiwick glue");
        // d01 is signed but no DS in parent: NSEC no-DS proof.
        assert!(resp.authorities_of(RrType::Nsec).next().is_some());
        assert!(resp.authorities_of(RrType::Ds).next().is_none());
    }

    #[test]
    fn tld_secure_referral_has_ds() {
        let mut auth = tld_authority();
        let q = Message::dnssec_query(2, n("www.d11.com"), RrType::A);
        let resp = auth.handle(&q, 0);
        assert!(resp.authorities_of(RrType::Ds).next().is_some());
        assert!(resp.authorities_of(RrType::Rrsig).next().is_some());
    }

    #[test]
    fn tld_nxdomain_has_covering_nsec() {
        let mut auth = tld_authority();
        let q = Message::dnssec_query(3, n("xunknown.com"), RrType::A);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        let nsec = resp.authorities_of(RrType::Nsec).next().expect("nsec proof");
        let RData::Nsec { next_name, .. } = &nsec.rdata else { panic!("nsec rdata") };
        assert!(covers(&nsec.name, next_name, &n("xunknown.com")));
    }

    #[test]
    fn tld_ds_query_answered_at_cut() {
        let mut auth = tld_authority();
        let q = Message::dnssec_query(4, n("d11.com"), RrType::Ds);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.answers_of(RrType::Ds).count(), 1);
        // Insecure child: NODATA with NSEC showing no DS.
        let q = Message::dnssec_query(5, n("d01.com"), RrType::Ds);
        let resp = auth.handle(&q, 0);
        assert!(resp.answers.is_empty());
        let nsec = resp.authorities_of(RrType::Nsec).next().expect("nsec");
        let RData::Nsec { types, .. } = &nsec.rdata else { panic!("nsec rdata") };
        assert!(!types.contains(RrType::Ds));
    }

    #[test]
    fn sld_serves_fabricated_zone() {
        let mut auth = sld_authority();
        let q = Message::dnssec_query(6, n("www.d11.com"), RrType::A);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.answers_of(RrType::A).count(), 1);
        assert!(resp.answers_of(RrType::Rrsig).next().is_some(), "signed zone");
        // Unsigned domain: no RRSIG.
        let q = Message::dnssec_query(7, n("www.d02.com"), RrType::A);
        let resp = auth.handle(&q, 0);
        assert!(resp.answers_of(RrType::Rrsig).next().is_none());
    }

    #[test]
    fn sld_dnskey_served_for_signed_zone() {
        let mut auth = sld_authority();
        let q = Message::dnssec_query(8, n("d11.com"), RrType::Dnskey);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.answers_of(RrType::Dnskey).count(), 2);
    }

    #[test]
    fn sld_refuses_unknown_names() {
        let mut auth = sld_authority();
        let q = Message::query(9, n("zzz.org"), RrType::A);
        assert_eq!(auth.handle(&q, 0).rcode(), Rcode::Refused);
    }

    #[test]
    fn predecessor_successor_bracket_name() {
        let name = n("d0000123.com");
        let pred = close_predecessor(&name);
        let succ = close_successor(&name);
        assert_eq!(pred.canonical_cmp(&name), std::cmp::Ordering::Less);
        assert_eq!(name.canonical_cmp(&succ), std::cmp::Ordering::Less);
    }

    #[test]
    fn tld_apex_queries_served() {
        let mut auth = tld_authority();
        let q = Message::dnssec_query(10, n("com"), RrType::Dnskey);
        let resp = auth.handle(&q, 0);
        assert_eq!(resp.answers_of(RrType::Dnskey).count(), 2);
        let q = Message::dnssec_query(11, n("com"), RrType::Soa);
        assert_eq!(auth.handle(&q, 0).answers_of(RrType::Soa).count(), 1);
    }
}
