//! End-to-end integration: full simulated Internet, resolver, capture, and
//! classifier working together across every crate.

use lookaside::experiments::{run, QuerySet, RunConfig};
use lookaside::internet::{Internet, InternetParams};
use lookaside::leakage::classify;
use lookaside_netsim::CaptureFilter;
use lookaside_resolver::{BindConfig, ResolverConfig, SecurityStatus};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Rcode, RrType};
use lookaside_workload::PopulationParams;

fn small_world(remedy: RemedyMode) -> Internet {
    let population = PopulationParams { size: 3_000, ..PopulationParams::default() };
    let mut params = InternetParams::for_top(3_000, population, remedy);
    params.capture = CaptureFilter::All;
    Internet::build(params)
}

#[test]
fn resolves_and_validates_across_the_population() {
    let mut internet = small_world(RemedyMode::None);
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 1);
    let mut insecure = 0;
    for rank in 1..=120usize {
        let qname = internet.population.domain(rank);
        let res = resolver
            .resolve(&mut internet.net, &qname, RrType::A)
            .unwrap_or_else(|e| panic!("rank {rank} ({qname}): {e}"));
        assert_eq!(res.rcode, Rcode::NoError, "rank {rank}");
        assert!(!res.answers.is_empty(), "rank {rank}");
        match res.status {
            SecurityStatus::Secure => {}
            SecurityStatus::Insecure => insecure += 1,
            other => panic!("rank {rank}: unexpected status {other:?}"),
        }
    }
    // ~3 % signed: the bulk is insecure.
    assert!(insecure > 100, "most domains are unsigned ({insecure})");
    // And a known fully-secured domain (signed + DS under a signed TLD)
    // validates Secure.
    let rank = (1..3000)
        .find(|&r| {
            let a = internet.population.attributes(r);
            a.signed && a.ds_in_parent
        })
        .expect("population contains secure domains");
    let qname = internet.population.domain(rank);
    let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
    assert_eq!(res.status, SecurityStatus::Secure, "rank {rank} ({qname})");
}

#[test]
fn capture_and_classifier_agree_with_ground_truth() {
    let mut internet = small_world(RemedyMode::None);
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 2);
    for rank in 1..=60usize {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
    }
    let report = classify(internet.net.capture(), &internet.dlv_apex);
    // Every leaked name must really have no deposit, and every Case-1 hit
    // must have one (ground truth from the registry build).
    for name in &report.leaked_names {
        assert!(!internet.is_deposited(name), "{name} was classified leaked but has a deposit");
    }
    assert!(report.case2 > 20, "popular domains leak ({})", report.case2);
    assert_eq!(report.dlv_queries, report.dlv_responses);
}

#[test]
fn www_subdomains_resolve_through_the_same_zones() {
    let mut internet = small_world(RemedyMode::None);
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 3);
    let apex = internet.population.domain(7);
    let www = apex.prepend("www").unwrap();
    let res = resolver.resolve(&mut internet.net, &www, RrType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    // MX exists at the apex, NODATA at www.
    let res = resolver.resolve(&mut internet.net, &apex, RrType::Mx).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(!res.answers.is_empty());
    let res = resolver.resolve(&mut internet.net, &www, RrType::Mx).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.answers.is_empty(), "NODATA at www for MX");
}

#[test]
fn nonexistent_domains_get_nxdomain() {
    let mut internet = small_world(RemedyMode::None);
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 4);
    // Rank beyond the population size does not exist.
    let ghost = lookaside_wire::Name::parse("d9999999.com.").unwrap();
    let res = resolver.resolve(&mut internet.net, &ghost, RrType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NxDomain);
}

#[test]
fn unbound_configuration_never_reaches_broken_state() {
    // §4.4: Unbound enables validation *by* including anchors, so even its
    // "misconfigured" variants either validate correctly or do nothing.
    let mut internet = small_world(RemedyMode::None);
    let config = ResolverConfig::Unbound(lookaside_resolver::UnboundConfig {
        auto_trust_anchor: true,
        dlv_anchor: true,
    });
    let mut resolver = internet.resolver(config, 5);
    let rank = (1..3000)
        .find(|&r| {
            let a = internet.population.attributes(r);
            a.signed && a.ds_in_parent
        })
        .unwrap();
    let qname = internet.population.domain(rank);
    let res = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
    assert_eq!(res.status, SecurityStatus::Secure);
}

#[test]
fn bind_and_unbound_measure_identically_when_correct() {
    // §5: "the measurements, results, and findings are the same for both
    // resolver software packages". With equivalent effective configuration
    // the leakage must be identical.
    let mut leakages = Vec::new();
    for config in [
        ResolverConfig::Bind(BindConfig::correct()),
        ResolverConfig::Unbound(lookaside_resolver::UnboundConfig {
            auto_trust_anchor: true,
            dlv_anchor: true,
        }),
    ] {
        let outcome = run(&RunConfig {
            population: PopulationParams { size: 1000, ..PopulationParams::default() },
            queries: QuerySet::Top(60),
            resolver: config,
            remedy: RemedyMode::None,
            seed: 77,
            dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
            dlv_denial: lookaside_zone::DenialMode::Nsec,
        });
        leakages.push(outcome.leakage);
    }
    assert_eq!(leakages[0], leakages[1]);
}

#[test]
fn run_outcomes_are_reproducible_end_to_end() {
    let config = RunConfig {
        population: PopulationParams { size: 1500, ..PopulationParams::default() },
        queries: QuerySet::Top(80),
        resolver: ResolverConfig::Bind(BindConfig::correct()),
        remedy: RemedyMode::None,
        seed: 99,
        dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
        dlv_denial: lookaside_zone::DenialMode::Nsec,
    };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.leakage, b.leakage);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
}

#[test]
fn hashed_remedy_world_serves_hashed_registry() {
    let mut internet = small_world(RemedyMode::HashedDlv);
    let mut resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), 6);
    for rank in 1..=30usize {
        let qname = internet.population.domain(rank);
        let _ = resolver.resolve(&mut internet.net, &qname, RrType::A).unwrap();
    }
    for packet in internet.net.capture().packets() {
        if packet.qtype == RrType::Dlv {
            let first = packet.qname.label(0).to_string();
            assert_eq!(first.len(), 32, "hashed label expected, got {}", packet.qname);
        }
    }
}
