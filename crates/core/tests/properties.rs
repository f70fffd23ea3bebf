//! The look-aside mechanism as executable properties: relations that
//! follow from RFC 5074 and RFC 8198, checked over drawn seeds,
//! population sizes and remedies instead of fixed-seed snapshots.
//!
//! The proptest shim does not shrink, so each property draws its cases
//! up front, runs them smallest population first, and a failure prints
//! the whole case.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside::internet::{Internet, InternetParams};
use lookaside::netsim::{CaptureFilter, DlvQueryCounter};
use lookaside::resolver::{BindConfig, FeatureModel, ResolverConfig};
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::RrType;
use lookaside::workload::PopulationParams;
use proptest::prelude::*;
use proptest::TestRng;

/// One drawn run: a correctly configured BIND resolver resolving the
/// top-`n` names of a seeded Internet once each, under `remedy`.
#[derive(Debug)]
struct Case {
    seed: u64,
    n: usize,
    remedy: RemedyMode,
}

/// `count` cases with `n` in `10..=max_n`, smallest `n` first.
fn cases(property: &str, count: u64, max_n: usize) -> Vec<Case> {
    let strategy = (any::<u64>(), 10..=max_n, 0..RemedyMode::ALL.len())
        .prop_map(|(seed, n, remedy)| Case { seed, n, remedy: RemedyMode::ALL[remedy] });
    let mut cases: Vec<Case> =
        (0..count).map(|i| strategy.generate(&mut TestRng::for_case(property, i))).collect();
    cases.sort_by_key(|case| case.n);
    cases
}

/// DLV-type query packets the run sends.
fn dlv_queries(case: &Case, features: FeatureModel) -> u64 {
    let population = PopulationParams { size: case.n.max(1000), ..PopulationParams::default() };
    let mut params = InternetParams::for_top(case.n, population, case.remedy);
    params.seed = case.seed;
    params.capture = CaptureFilter::None;
    let mut internet = Internet::build(params);
    let counter = Rc::new(RefCell::new(DlvQueryCounter::new()));
    internet.net.set_observer(Box::new(Rc::clone(&counter)));
    let mut resolver = internet.resolver_with_features(
        ResolverConfig::Bind(BindConfig::correct()),
        features,
        case.seed ^ 0x5a17,
    );
    for name in internet.population.top(case.n) {
        let _ = resolver.resolve(&mut internet.net, &name, RrType::A);
    }
    let queries = counter.borrow().queries;
    queries
}

/// Turning off aggressive NSEC caching never lowers the DLV query count.
///
/// `FeatureModel::aggressive_nsec` is read in one function, the look-aside
/// walk `try_dlv` (crates/resolver/src/validate.rs), at two points:
///
/// 1. Before each registry target of the label-stripping walk: when a
///    cached NSEC span covers the target, the walk skips it (`continue`)
///    and sends nothing for it. This is the span cache's only reader.
/// 2. After a registry NXDOMAIN: the response's validated NSEC spans are
///    inserted into that cache. This is its only writer.
///
/// So the cache can only take a lookup away, never add one. A skipped
/// target is one a validated registry NSEC proves absent, so its lookup
/// would have come back NXDOMAIN and the walk would have stripped a label
/// and gone on all the same: every walk ends as it would have, and every
/// later resolution sees the same validation state. The two runs then
/// walk the same targets in the same order. Spans and negative answers
/// outlive a run (the registry's span TTL is a week), and neither cache
/// evicts, so with the cache on a target is sent at most once, at its
/// first uncovered occurrence, and with it off exactly once, at its first
/// occurrence. What the walk skipped is also never fetched on another
/// path: the DLV zone's keys come from `ensure_dlv_zone_keys`, whose
/// DNSKEY queries do not depend on the span cache.
#[test]
fn turning_off_aggressive_nsec_never_lowers_dlv_queries() {
    let mut suppressed = false;
    for case in cases("turning_off_aggressive_nsec_never_lowers_dlv_queries", 20, 120) {
        let on = dlv_queries(&case, FeatureModel::default());
        let off = dlv_queries(&case, FeatureModel { aggressive_nsec: false, ..Default::default() });
        assert!(
            off >= on,
            "counterexample: {case:?} sent {on} DLV queries with aggressive NSEC caching \
             and only {off} without it"
        );
        suppressed |= off > on;
    }
    assert!(suppressed, "no drawn case exercised the span cache");
}
