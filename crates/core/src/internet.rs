//! Building the simulated Internet of the study.
//!
//! Topology (cf. DESIGN.md):
//!
//! ```text
//!             root (signed, materialised)
//!         ┌─────┴──────────────┬──────────────┐
//!   com/net/… (15 synthetic   org             in-addr.arpa (answered
//!   TLD authorities)           │               by the root: NXDOMAIN)
//!         │               isc.org (real, signed)
//!   d0000001.com …              │
//!   h0042.net … (served by  dlv.isc.org — the DLV registry
//!   the default-route        (signed; calibrated deposits)
//!   synthetic authority)
//! ```

// The world is assembled from literal names, the TLD table and names the
// population generates in fixed formats, so each `expect` below is a
// broken build of the world, not an input error.
#![expect(clippy::expect_used, clippy::unwrap_used, reason = "names built by construction")]

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lookaside_crypto::{ds_rdata, KeyPair, PublicKey};
use lookaside_netsim::{CaptureFilter, LatencyModel, Network};
use lookaside_resolver::{FeatureModel, RecursiveResolver, ResolverConfig, ResolverSetup};
use lookaside_server::{
    AuthoritativeServer, DecommissionStage, DlvDeposit, DlvRegistry, EpochAuthority, EpochRouter,
    SyntheticAuthority, SyntheticSpec, ZoneOracle, DLV_SPAN_TTL,
};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Name, RData};
use lookaside_workload::{huque45, DomainPopulation, HuqueDomain, PopEntry, PopulationParams};
use lookaside_zone::{DenialMode, KeyTimeline, LifecycleTarget, PublishedZone, SigningKeys, Zone};

const NS_PER_SEC: u64 = 1_000_000_000;

/// Root server address (mirrors `a.root-servers.net`).
pub const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
/// `isc.org` server address.
pub const ISC_ADDR: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);
/// DLV registry server address.
pub const DLV_ADDR: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 2);

/// Signing epoch used by every zone (inception..expiration).
pub const INCEPTION: u32 = 0;
/// Signature expiration — far future; the steady-state studies never
/// exercise expiry (the lifecycle sweep builds its own windows). Half the
/// serial space, not `u32::MAX`: under RFC 4034 §3.1.5 serial arithmetic
/// `u32::MAX` is one second *before* inception 0, which would invalidate
/// every signature.
pub const EXPIRATION: u32 = 0x7fff_ffff;

/// Seed of the root zone's signing keys. A [`lookaside_zone::KeyTimeline`]
/// built on this seed has generation-0 keys byte-identical to the static
/// seed root, so a lifecycle sweep can take over the root at epoch 0
/// without perturbing any steady-state output.
pub const ROOT_KEY_SEED: u64 = 0x126;

fn tld_addr(index: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + index as u8)
}

fn tld_key_seed(index: usize) -> u64 {
    0x7464_0000 + index as u64
}

/// The index and entry of TLD `label` in the TLD table.
#[expect(clippy::panic, reason = "an unknown label is a caller bug; both callers document it")]
fn tld_entry(label: &str) -> (usize, lookaside_workload::TldInfo) {
    lookaside_workload::TLDS
        .into_iter()
        .enumerate()
        .find(|(_, t)| t.label == label)
        .unwrap_or_else(|| panic!("unknown TLD {label:?}"))
}

/// Measurement vantage point (§7.1 "Experiment Generality"): the paper ran
/// from a campus network and from DigitalOcean/EC2 VPSes and found the
/// findings identical. Each vantage only changes the latency profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VantagePoint {
    /// On-campus host: moderate, stable latency.
    #[default]
    Campus,
    /// DigitalOcean VPS: close to well-peered infrastructure.
    DigitalOcean,
    /// Amazon EC2 instance: similar, different jitter profile.
    Ec2,
}

impl VantagePoint {
    /// All vantage points, for sweeps.
    pub const ALL: [VantagePoint; 3] =
        [VantagePoint::Campus, VantagePoint::DigitalOcean, VantagePoint::Ec2];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            VantagePoint::Campus => "campus",
            VantagePoint::DigitalOcean => "digitalocean",
            VantagePoint::Ec2 => "ec2",
        }
    }

    /// (base-min, base-max, jitter) milliseconds for SLD-class servers.
    fn latency_profile(self) -> (u64, u64, u64) {
        match self {
            VantagePoint::Campus => (35, 75, 6),
            VantagePoint::DigitalOcean => (20, 55, 3),
            VantagePoint::Ec2 => (25, 60, 9),
        }
    }
}

/// Parameters for building an [`Internet`].
#[derive(Debug, Clone)]
pub struct InternetParams {
    /// The ranked domain population.
    pub population: PopulationParams,
    /// Active remedy (affects published TXT records, Z-bit advertising, and
    /// the registry's owner-name hashing).
    pub remedy: RemedyMode,
    /// Highest rank that will be queried; bounds how much of the DLV
    /// repository is materialised.
    pub query_limit: usize,
    /// Negative-caching TTL of the registry's NSEC spans.
    pub dlv_span_ttl: u32,
    /// Denial-of-existence mechanism of the DLV registry (§7.3: NSEC3
    /// forfeits aggressive negative caching).
    pub dlv_denial: lookaside_zone::DenialMode,
    /// Latency seed.
    pub seed: u64,
    /// Capture filter for the network.
    pub capture: CaptureFilter,
    /// Where the measurement runs from (latency profile only).
    pub vantage: VantagePoint,
    /// Decommission stage of the DLV registry (the 2017 wind-down
    /// timeline and its failure variants).
    pub dlv_stage: DecommissionStage,
    /// Scheduled registry stage transitions `(at_ns, stage)`, applied in
    /// simulated time on top of the initial [`Self::dlv_stage`] — the
    /// lifecycle sweep uses this to corrupt and heal the registry while
    /// a key timeline is in motion.
    pub dlv_schedule: Vec<(u64, DecommissionStage)>,
}

impl InternetParams {
    /// Sensible defaults for a top-`limit` experiment.
    pub fn for_top(limit: usize, population: PopulationParams, remedy: RemedyMode) -> Self {
        InternetParams {
            population,
            remedy,
            query_limit: limit,
            dlv_span_ttl: DLV_SPAN_TTL,
            dlv_denial: lookaside_zone::DenialMode::Nsec,
            seed: 0x1ce,
            capture: CaptureFilter::DlvOnly,
            vantage: VantagePoint::Campus,
            dlv_stage: DecommissionStage::Populated,
            dlv_schedule: Vec::new(),
        }
    }
}

/// The oracle mapping names to synthetic zone attributes: ranked domains,
/// hosting providers, the huque45 corpus, and `isc.org`'s delegation data.
pub struct CoreOracle {
    population: DomainPopulation,
    remedy: RemedyMode,
    huque: Vec<HuqueDomain>,
    huque_addr: Ipv4Addr,
    isc_key_seed: u64,
}

impl CoreOracle {
    fn spec_for_domain(&self, attrs: &lookaside_workload::DomainAttrs) -> SyntheticSpec {
        let ns_hosts = if attrs.self_hosted {
            vec![
                (attrs.name.prepend("ns1").expect("ns1"), attrs.server_addr),
                (attrs.name.prepend("ns2").expect("ns2"), attrs.server_addr),
            ]
        } else {
            let h = self.population.hoster(attrs.hoster.expect("hosted domain has hoster"));
            vec![
                (h.name.prepend("ns1").expect("ns1"), h.server_addr),
                (h.name.prepend("ns2").expect("ns2"), h.server_addr),
            ]
        };
        SyntheticSpec {
            apex: attrs.name.clone(),
            signed: attrs.signed,
            ds_in_parent: attrs.ds_in_parent,
            dlv_deposited: attrs.deposited,
            key_seed: attrs.key_seed,
            txt_signal: (self.remedy == RemedyMode::TxtSignal).then_some(attrs.deposited),
            z_signal: self.remedy == RemedyMode::ZBit,
            ns_hosts,
            server_addr: attrs.server_addr,
        }
    }

    fn spec_for_hoster(&self, attrs: &lookaside_workload::HosterAttrs) -> SyntheticSpec {
        SyntheticSpec {
            apex: attrs.name.clone(),
            signed: attrs.signed,
            ds_in_parent: attrs.ds_in_parent,
            dlv_deposited: false,
            key_seed: attrs.key_seed,
            txt_signal: (self.remedy == RemedyMode::TxtSignal).then_some(false),
            z_signal: self.remedy == RemedyMode::ZBit,
            ns_hosts: vec![
                (attrs.name.prepend("ns1").expect("ns1"), attrs.server_addr),
                (attrs.name.prepend("ns2").expect("ns2"), attrs.server_addr),
            ],
            server_addr: attrs.server_addr,
        }
    }

    fn spec_for_huque(&self, domain: &HuqueDomain) -> SyntheticSpec {
        SyntheticSpec {
            apex: domain.name.clone(),
            signed: domain.signed,
            ds_in_parent: domain.ds_in_parent,
            dlv_deposited: domain.deposited,
            key_seed: domain.key_seed,
            txt_signal: (self.remedy == RemedyMode::TxtSignal).then_some(domain.deposited),
            z_signal: self.remedy == RemedyMode::ZBit,
            ns_hosts: vec![(domain.name.prepend("ns1").expect("ns1"), self.huque_addr)],
            server_addr: self.huque_addr,
        }
    }

    fn spec_for_isc(&self) -> SyntheticSpec {
        let apex = Name::parse("isc.org.").expect("static name");
        SyntheticSpec {
            apex: apex.clone(),
            signed: true,
            ds_in_parent: true,
            dlv_deposited: false,
            key_seed: self.isc_key_seed,
            txt_signal: (self.remedy == RemedyMode::TxtSignal).then_some(false),
            z_signal: false,
            ns_hosts: vec![(apex.prepend("ns1").expect("ns1"), ISC_ADDR)],
            server_addr: ISC_ADDR,
        }
    }
}

impl ZoneOracle for CoreOracle {
    fn sld_spec(&self, qname: &Name) -> Option<SyntheticSpec> {
        if qname.label_count() < 2 {
            return None;
        }
        let apex = qname.suffix(2);
        if apex == Name::parse("isc.org.").expect("static name") {
            return Some(self.spec_for_isc());
        }
        if let Some(d) = self.huque.iter().find(|d| d.name == apex) {
            return Some(self.spec_for_huque(d));
        }
        match self.population.entry_of(qname)? {
            PopEntry::Domain(attrs) => Some(self.spec_for_domain(&attrs)),
            PopEntry::Hoster(attrs) => Some(self.spec_for_hoster(&attrs)),
        }
    }
}

/// A fully built simulated Internet plus the data the experiments need to
/// interpret traffic.
pub struct Internet {
    /// The network carrying all traffic.
    pub net: Network,
    /// Root zone KSK — the trust anchor a correctly configured resolver
    /// loads.
    pub root_anchor: PublicKey,
    /// DLV registry KSK — the `bind.keys` DLV anchor.
    pub dlv_anchor: PublicKey,
    /// Registry apex (`dlv.isc.org.`).
    pub dlv_apex: Name,
    /// Domains with deposits, for ground-truth classification.
    pub deposits: BTreeSet<Name>,
    /// The population behind the oracle.
    pub population: DomainPopulation,
    /// Parameters the Internet was built with.
    pub params: InternetParams,
    /// The shared zone oracle, kept so lifecycle timelines can rebuild
    /// TLD authorities per epoch.
    oracle: Rc<CoreOracle>,
}

impl Internet {
    /// Builds the whole topology.
    pub fn build(params: InternetParams) -> Self {
        let population = DomainPopulation::new(params.population);
        let huque = huque45();
        let huque_addr = Ipv4Addr::new(10, 3, 0, 1);
        let isc_key_seed = 0x15c_0000;

        let oracle: Rc<CoreOracle> = Rc::new(CoreOracle {
            population: population.clone(),
            remedy: params.remedy,
            huque: huque.clone(),
            huque_addr,
            isc_key_seed,
        });

        let mut net = Network::new(params.seed);
        net.set_capture_filter(params.capture);
        let mut latency = LatencyModel::new(params.seed ^ 0x1a7);
        // Anycast infrastructure (root, TLDs, the registry's parent chain)
        // is close; SLD content servers are farther — this is what makes the
        // TXT remedy's latency overhead exceed its query-count overhead
        // (§6.2.3, Fig. 10a).
        latency.pin(ROOT_ADDR, 8, 16);
        for i in 0..lookaside_workload::TLDS.len() {
            latency.pin(tld_addr(i), 8, 20);
        }
        latency.pin(ISC_ADDR, 12, 24);
        latency.pin(DLV_ADDR, 15, 30);
        let (base_min, base_max, jitter) = params.vantage.latency_profile();
        net.set_latency(latency.with_base_range(base_min, base_max).with_jitter(jitter));

        // Root zone.
        let root_keys = SigningKeys::from_seed(ROOT_KEY_SEED);
        let root = Self::root_zone_data();
        let root_zone = PublishedZone::signed(root, &root_keys, INCEPTION, EXPIRATION);
        net.register(ROOT_ADDR, "root", Box::new(AuthoritativeServer::single(root_zone)));

        // TLD authorities (synthetic).
        for (i, tld) in lookaside_workload::TLDS.iter().enumerate() {
            let apex = Name::parse(tld.label).expect("valid tld");
            let authority = SyntheticAuthority::tld(
                apex,
                SigningKeys::from_seed(tld_key_seed(i)),
                tld.signed,
                oracle.clone(),
                INCEPTION,
                EXPIRATION,
            );
            net.register(tld_addr(i), tld.label, Box::new(authority));
        }

        // isc.org (real, signed; delegates dlv.isc.org with DS).
        let isc_keys = SigningKeys::from_seed(isc_key_seed);
        let dlv_keys = SigningKeys::from_seed(0xd17);
        let isc_apex = Name::parse("isc.org.").unwrap();
        let dlv_apex = Name::parse("dlv.isc.org.").unwrap();
        let mut isc = Zone::new(isc_apex.clone(), isc_apex.prepend("ns1").unwrap());
        isc.add(isc_apex.prepend("ns1").unwrap(), 3600, RData::A(ISC_ADDR));
        isc.add(isc_apex, 3600, RData::A(ISC_ADDR));
        isc.delegate(dlv_apex.clone(), &[(dlv_apex.prepend("ns").unwrap(), DLV_ADDR)])
            .expect("delegate dlv");
        isc.add_ds(dlv_apex.clone(), ds_rdata(&dlv_apex, &dlv_keys.ksk.public()));
        let isc_zone = PublishedZone::signed(isc, &isc_keys, INCEPTION, EXPIRATION);
        net.register(ISC_ADDR, "isc.org", Box::new(AuthoritativeServer::single(isc_zone)));

        // The DLV registry: calibrated neighbours + real deposits.
        let mut registry_deposits = Vec::new();
        let mut deposits = BTreeSet::new();
        for rank in population.repo_neighbours(params.query_limit) {
            let domain = population.repo_neighbour_name(rank);
            let ksk = KeyPair::generate_ksk(population.repo_neighbour_key_seed(rank));
            registry_deposits.push(DlvDeposit { domain: domain.clone(), ksk: ksk.public() });
            deposits.insert(domain);
        }
        for rank in population.deposited_ranks(params.query_limit) {
            let attrs = population.attributes(rank);
            let keys = SigningKeys::from_seed(attrs.key_seed);
            registry_deposits
                .push(DlvDeposit { domain: attrs.name.clone(), ksk: keys.ksk.public() });
            deposits.insert(attrs.name);
        }
        for domain in huque.iter().filter(|d| d.deposited) {
            let keys = SigningKeys::from_seed(domain.key_seed);
            registry_deposits
                .push(DlvDeposit { domain: domain.name.clone(), ksk: keys.ksk.public() });
            deposits.insert(domain.name.clone());
        }
        let mut registry = DlvRegistry::with_denial(
            dlv_apex.clone(),
            &registry_deposits,
            &dlv_keys,
            INCEPTION,
            EXPIRATION,
            params.remedy == RemedyMode::HashedDlv,
            params.dlv_span_ttl,
            params.dlv_denial,
        );
        registry.set_stage(params.dlv_stage);
        for &(at_ns, stage) in &params.dlv_schedule {
            registry.schedule_stage(at_ns, stage);
        }
        net.register(DLV_ADDR, "dlv-registry", Box::new(registry));

        // Everything else — ranked SLDs, hosters, huque zones — is served by
        // the default-route synthetic authority.
        let sld_authority = SyntheticAuthority::sld_default(oracle.clone(), INCEPTION, EXPIRATION);
        net.set_default_route(Box::new(sld_authority));

        Internet {
            net,
            root_anchor: root_keys.ksk.public(),
            dlv_anchor: dlv_keys.ksk.public(),
            dlv_apex,
            deposits,
            population,
            params,
            oracle,
        }
    }

    /// The root zone's data: TLD delegations plus DS records for the
    /// signed TLDs. Shared by the static seed root and the epoch-published
    /// lifecycle roots, which must serve identical data at epoch 0.
    fn root_zone_data() -> Zone {
        let mut root = Zone::new(Name::root(), Name::parse("a.root-servers.net.").unwrap());
        for (i, tld) in lookaside_workload::TLDS.iter().enumerate() {
            let apex = Name::parse(tld.label).expect("valid tld");
            let ns = apex.prepend("ns").expect("ns name");
            root.delegate(apex.clone(), &[(ns, tld_addr(i))]).expect("delegate tld");
            if tld.signed {
                let keys = SigningKeys::from_seed(tld_key_seed(i));
                root.add_ds(apex.clone(), ds_rdata(&apex, &keys.ksk.public()));
            }
        }
        root
    }

    /// Swaps the static root for an epoch-serving authority replaying
    /// `timeline`'s key lifecycle out to `horizon_secs`. With base seed
    /// [`ROOT_KEY_SEED`] the generation-0 keys equal the static root's, so
    /// traffic at simulated time 0 is byte-identical to before the swap.
    /// The advertised trust anchor follows the timeline's generation-0 KSK.
    pub fn install_root_timeline(&mut self, timeline: &KeyTimeline, horizon_secs: u32) {
        let authority = EpochAuthority::from_epochs(
            &Self::root_zone_data(),
            &timeline.epochs(horizon_secs),
            DenialMode::Nsec,
        );
        let replaced = self.net.replace_node(ROOT_ADDR, "root", Box::new(authority));
        assert!(replaced, "root node must exist before a timeline takes over");
        self.root_anchor = timeline.initial_keys().ksk.public();
    }

    /// The key seed a [`KeyTimeline`] must use as `base_seed` for its
    /// generation-0 keys to equal `target`'s static signing keys — the
    /// property that makes a timeline take-over invisible at epoch 0.
    ///
    /// # Panics
    ///
    /// Panics on an unknown TLD label.
    pub fn timeline_base_seed(target: &LifecycleTarget) -> u64 {
        match target {
            LifecycleTarget::Root => ROOT_KEY_SEED,
            LifecycleTarget::Tld(label) => tld_key_seed(tld_entry(label).0),
        }
    }

    /// Swaps the static authority of TLD `label` for an epoch router
    /// replaying `timeline` out to `horizon_secs`: each epoch is a full
    /// synthetic TLD authority rebuilt with that epoch's signer keys and
    /// RRSIG validity window, so a late re-sign makes *this TLD's*
    /// referral/DS signatures lapse while every other zone stays healthy.
    ///
    /// With `base_seed = Self::timeline_base_seed(..)` epoch 0 serves
    /// byte-identical data to the static authority. The root's DS record
    /// stays on the generation-0 KSK (the static root is not rebuilt), so
    /// re-sign schedules and [`lookaside_zone::LifecycleFault::LateResign`]
    /// reproduce exactly, while a KSK roll here behaves as
    /// parent-DS-never-updated — the real-world failure that motivated DLV
    /// in the first place.
    ///
    /// # Panics
    ///
    /// Panics on an unknown TLD label.
    pub fn install_tld_timeline(&mut self, label: &str, timeline: &KeyTimeline, horizon_secs: u32) {
        let (index, tld) = tld_entry(label);
        let apex = Name::parse(tld.label).expect("valid tld");
        let oracle = self.oracle.clone();
        let router = EpochRouter::new(
            timeline
                .epochs(horizon_secs)
                .iter()
                .map(|epoch| {
                    let keys = SigningKeys {
                        zsk: *epoch.keyset.zsk_signer(),
                        ksk: *epoch.keyset.ksk_signer(),
                    };
                    let authority = SyntheticAuthority::tld(
                        apex.clone(),
                        keys,
                        tld.signed,
                        oracle.clone(),
                        epoch.inception,
                        epoch.expiration,
                    );
                    (u64::from(epoch.start_secs) * NS_PER_SEC, authority)
                })
                .collect(),
        );
        let replaced = self.net.replace_node(tld_addr(index), tld.label, Box::new(router));
        assert!(replaced, "TLD node must exist before a timeline takes over");
    }

    /// Installs `timeline` on whichever zone `target` names — the root or
    /// a single TLD.
    pub fn install_timeline(
        &mut self,
        target: &LifecycleTarget,
        timeline: &KeyTimeline,
        horizon_secs: u32,
    ) {
        match target {
            LifecycleTarget::Root => self.install_root_timeline(timeline, horizon_secs),
            LifecycleTarget::Tld(label) => self.install_tld_timeline(label, timeline, horizon_secs),
        }
    }

    /// Builds a resolver wired to this Internet.
    pub fn resolver(&self, config: ResolverConfig, salt: u64) -> RecursiveResolver {
        self.resolver_with_features(config, FeatureModel::default(), salt)
    }

    /// Builds a resolver with a custom behavioural feature model (e.g.
    /// QNAME minimisation on, aggressive NSEC caching off).
    pub fn resolver_with_features(
        &self,
        config: ResolverConfig,
        features: FeatureModel,
        salt: u64,
    ) -> RecursiveResolver {
        RecursiveResolver::new(ResolverSetup {
            config,
            features,
            remedy: self.params.remedy,
            root_hint: ROOT_ADDR,
            root_anchor: self.root_anchor,
            dlv_apex: self.dlv_apex.clone(),
            dlv_anchor: self.dlv_anchor,
            salt,
        })
    }

    /// Ground truth: does `domain` (or an enclosing name) have a deposit?
    pub fn is_deposited(&self, domain: &Name) -> bool {
        let mut cur = Some(domain.clone());
        while let Some(name) = cur {
            if name.is_root() {
                return false;
            }
            if self.deposits.contains(&name) {
                return true;
            }
            cur = name.parent();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_resolver::{BindConfig, SecurityStatus};
    use lookaside_wire::RrType;

    fn small_params() -> InternetParams {
        let population = PopulationParams { size: 2000, ..PopulationParams::default() };
        // query_limit covers the whole population so tests may probe any
        // rank's deposit.
        InternetParams::for_top(2000, population, RemedyMode::None)
    }

    #[test]
    fn build_registers_core_infrastructure() {
        let internet = Internet::build(small_params());
        assert!(internet.net.has_node(ROOT_ADDR));
        assert!(internet.net.has_node(ISC_ADDR));
        assert!(internet.net.has_node(DLV_ADDR));
        assert!(!internet.deposits.is_empty());
    }

    #[test]
    fn popular_domain_resolves() {
        let mut internet = Internet::build(small_params());
        let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 1);
        let qname = internet.population.domain(1);
        let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
        assert_eq!(res.rcode, lookaside_wire::Rcode::NoError);
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn signed_secure_domain_validates_without_dlv() {
        let mut internet = Internet::build(small_params());
        // Find a signed domain with DS under a signed TLD.
        let rank = (1..2000)
            .find(|&r| {
                let a = internet.population.attributes(r);
                a.signed && a.ds_in_parent
            })
            .expect("population contains secure domains");
        let qname = internet.population.domain(rank);
        let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 2);
        let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
        assert_eq!(res.status, SecurityStatus::Secure, "rank {rank} ({qname})");
        assert!(!res.secured_via_dlv);
    }

    #[test]
    fn deposited_island_secures_via_dlv() {
        let mut internet = Internet::build(small_params());
        let rank = internet
            .population
            .deposited_ranks(2000)
            .next()
            .expect("population contains deposited islands");
        let qname = internet.population.domain(rank);
        let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 3);
        let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
        assert_eq!(res.status, SecurityStatus::Secure, "rank {rank} ({qname})");
        assert!(res.secured_via_dlv);
    }

    #[test]
    fn unsigned_domain_leaks_to_registry() {
        let mut internet = Internet::build(small_params());
        let rank = (1..2000)
            .find(|&r| !internet.population.attributes(r).signed)
            .expect("most domains are unsigned");
        let qname = internet.population.domain(rank);
        let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 4);
        let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
        assert_eq!(res.status, SecurityStatus::Insecure);
        assert!(resolver.counters.dlv_queries_sent >= 1);
        let leaked: Vec<String> =
            internet.net.capture().dlv_queries().map(|p| p.qname.to_string()).collect();
        assert!(
            leaked
                .iter()
                .any(|q| q.starts_with(&qname.to_string().trim_end_matches('.').to_string())),
            "expected {qname} among {leaked:?}"
        );
    }

    #[test]
    fn tld_timeline_fault_severs_only_that_tld() {
        use lookaside_zone::{LifecycleFault, RolloverPolicy};

        let mut internet = Internet::build(small_params());
        let target = LifecycleTarget::Tld("com".to_string());
        let timeline = KeyTimeline {
            base_seed: Internet::timeline_base_seed(&target),
            policy: RolloverPolicy::steady(3_600, 5_000),
            fault: LifecycleFault::LateResign { resign_index: 1, delay_secs: 3_600 },
        };
        internet.install_timeline(&target, &timeline, 16_000);

        let anchored = |internet: &Internet, tld: &str, want: bool| {
            (1..2000)
                .find(|&r| {
                    let a = internet.population.attributes(r);
                    a.signed && a.ds_in_parent && ((a.tld == tld) == want)
                })
                .expect("anchored rank")
        };
        let com_rank = anchored(&internet, "com", true);
        let other_rank = anchored(&internet, "com", false);
        let com_name = internet.population.domain(com_rank);
        let other_name = internet.population.domain(other_rank);

        // Epoch 0 is byte-identical to the static authority: both chains
        // validate at t=0.
        let mut early = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 11);
        let res = early.resolve(&mut internet.net, &com_name, RrType::A).unwrap();
        assert_eq!(res.status, SecurityStatus::Secure, "epoch-0 take-over must be invisible");

        // Advance into the stale gap: the missed re-sign leaves .com's
        // signatures expired from t=5000 until the catch-up at t=7200.
        let target_ns = 6_000 * NS_PER_SEC;
        internet.net.advance(target_ns.saturating_sub(internet.net.now_ns()));
        let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 12);
        let com = resolver.resolve(&mut internet.net, &com_name, RrType::A).unwrap();
        assert_eq!(com.status, SecurityStatus::Bogus, "stale .com signatures fail closed");
        let other = resolver.resolve(&mut internet.net, &other_name, RrType::A).unwrap();
        assert_eq!(
            other.status,
            SecurityStatus::Secure,
            "{other_name} is outside the faulted TLD's blast radius"
        );
    }

    #[test]
    fn is_deposited_walks_enclosing_names() {
        let internet = Internet::build(small_params());
        let deposited = internet.deposits.iter().next().unwrap().clone();
        assert!(internet.is_deposited(&deposited));
        assert!(internet.is_deposited(&deposited.prepend("www").unwrap()));
        assert!(!internet.is_deposited(&Name::parse("never-there.com.").unwrap()));
    }
}
