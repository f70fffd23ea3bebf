//! The 16-environment configuration matrix (Tables 1–3): every OS ×
//! install × software combination gets the behaviour the paper describes.

use lookaside::experiments::{run, QuerySet, RunConfig};
use lookaside_resolver::{
    environments, EffectiveBehavior, InstallMethod, ResolverConfig, Software,
};
use lookaside_wire::ext::RemedyMode;
use lookaside_workload::PopulationParams;

#[test]
fn every_environment_has_a_defined_behaviour() {
    for env in environments() {
        match env.software {
            Software::Bind => {
                let pkg = EffectiveBehavior::from_config(&ResolverConfig::Bind(
                    env.package_install.bind_config(),
                ));
                assert!(pkg.validate, "{} package BIND validates", env.os);
                // Manual installs in the study leave the anchor out.
                let manual = EffectiveBehavior::from_config(&ResolverConfig::Bind(
                    InstallMethod::Manual.bind_config(),
                ));
                assert!(!manual.has_root_anchor);
            }
            Software::Unbound => {
                let cfg = env.package_install.unbound_config();
                let b = EffectiveBehavior::from_config(&ResolverConfig::Unbound(cfg));
                assert!(b.validate && b.has_root_anchor, "{} unbound", env.os);
            }
        }
    }
}

#[test]
fn yum_and_apt_get_differ_exactly_as_table2_says() {
    let apt = InstallMethod::AptGet.bind_config();
    let yum = InstallMethod::Yum.bind_config();
    assert_ne!(apt.validation, yum.validation);
    assert!(!apt.root_anchor_included && yum.root_anchor_included);
}

fn huque_run(method: InstallMethod) -> lookaside::leakage::LeakageReport {
    let config = RunConfig {
        population: PopulationParams { size: 1000, ..PopulationParams::default() },
        queries: QuerySet::Huque,
        resolver: ResolverConfig::Bind(method.bind_config()),
        remedy: RemedyMode::None,
        seed: 21,
        dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
        dlv_denial: lookaside_zone::DenialMode::Nsec,
    };
    run(&config).leakage
}

#[test]
fn secured_domains_leak_only_under_missing_anchor_configs() {
    let corpus = lookaside_workload::huque45();
    let secured: Vec<_> = corpus.iter().filter(|d| d.ds_in_parent).collect();
    for (method, expect_leak) in [
        (InstallMethod::AptGet, false),
        (InstallMethod::AptGetCompliant, true),
        (InstallMethod::Yum, false),
        (InstallMethod::Manual, true),
    ] {
        let report = huque_run(method);
        let leaked = secured.iter().any(|d| report.leaked_names.contains(&d.name));
        assert_eq!(leaked, expect_leak, "method {:?}", method);
    }
}

#[test]
fn islands_reach_dlv_under_every_method() {
    // §5.2: the five islands of security are sent to the DLV server even
    // under a fully correct configuration.
    let corpus = lookaside_workload::huque45();
    let islands: Vec<_> = corpus.iter().filter(|d| !d.ds_in_parent).collect();
    assert_eq!(islands.len(), 5);
    for method in InstallMethod::ALL {
        let report = huque_run(method);
        let reached = islands
            .iter()
            .filter(|d| report.leaked_names.contains(&d.name) || (d.deposited && report.case1 > 0))
            .count();
        assert!(reached >= 3, "method {method:?}: only {reached} islands reached DLV");
    }
}

#[test]
fn unbound_never_leaks_secured_domains() {
    // §4.4/§5.2: "domains do not leak with Unbound" — its configuration
    // style cannot produce the anchorless-validation state.
    let config = RunConfig {
        population: PopulationParams { size: 1000, ..PopulationParams::default() },
        queries: QuerySet::Huque,
        resolver: ResolverConfig::Unbound(lookaside_resolver::UnboundConfig {
            auto_trust_anchor: true,
            dlv_anchor: true,
        }),
        remedy: RemedyMode::None,
        seed: 22,
        dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
        dlv_denial: lookaside_zone::DenialMode::Nsec,
    };
    let report = run(&config).leakage;
    let corpus = lookaside_workload::huque45();
    for d in corpus.iter().filter(|d| d.ds_in_parent) {
        assert!(!report.leaked_names.contains(&d.name), "{} leaked under correct Unbound", d.name);
    }
}

#[test]
fn disabling_lookaside_stops_all_dlv_traffic() {
    let mut bind = lookaside_resolver::BindConfig::correct();
    bind.lookaside = lookaside_resolver::Lookaside::No;
    let config = RunConfig {
        population: PopulationParams { size: 1000, ..PopulationParams::default() },
        queries: QuerySet::Top(50),
        resolver: ResolverConfig::Bind(bind),
        remedy: RemedyMode::None,
        seed: 23,
        dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
        dlv_denial: lookaside_zone::DenialMode::Nsec,
    };
    let outcome = run(&config);
    assert_eq!(outcome.leakage.dlv_queries, 0);
}
