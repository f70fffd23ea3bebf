//! Fixture-based self-tests: one known-bad snippet per rule asserting
//! the exact rule IDs that fire, a known-good snippet asserting zero
//! findings, a bad + clean fixture per transitive semantic pass, and a
//! byte-stability check on the JSON report.

use lookaside_lint::{analyze, scan_source, FileClass, Report, SourceFile};

/// Scans a fixture as if it lived at `virtual_path` inside the
/// workspace.
fn scan_fixture(virtual_path: &str, src: &str) -> lookaside_lint::ScanOutcome {
    let class = FileClass::classify(virtual_path).expect("fixture path must classify");
    scan_source(&class, src)
}

/// Runs the full workspace analysis over fixtures at virtual paths.
fn analyze_fixtures(files: &[(&str, &str)]) -> lookaside_lint::Analysis {
    analyze(
        files
            .iter()
            .map(|(path, src)| SourceFile {
                class: FileClass::classify(path).expect("fixture path must classify"),
                src: (*src).to_string(),
            })
            .collect(),
    )
}

fn rules_of(outcome: &lookaside_lint::ScanOutcome) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = outcome.findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn bad_hashmap_fires_hash_collection() {
    let out =
        scan_fixture("crates/core/src/bad_hashmap.rs", include_str!("fixtures/bad_hashmap.rs"));
    assert_eq!(rules_of(&out), vec!["determinism::hash-collection"]);
    // Both the `use` and the two constructor/type mentions are caught.
    assert!(out.findings.len() >= 2, "{:?}", out.findings);
}

#[test]
fn bad_instant_fires_wall_clock() {
    let out =
        scan_fixture("crates/netsim/src/bad_instant.rs", include_str!("fixtures/bad_instant.rs"));
    assert_eq!(rules_of(&out), vec!["determinism::wall-clock"]);
    assert_eq!(out.findings[0].line, 7, "{:?}", out.findings);
}

#[test]
fn bad_allow_without_justification_fires_meta_rule() {
    let out = scan_fixture(
        "crates/core/src/bad_allow_nojust.rs",
        include_str!("fixtures/bad_allow_nojust.rs"),
    );
    let rules = rules_of(&out);
    assert!(rules.contains(&"allow::missing-justification"), "{rules:?}");
    // The malformed allow must NOT silence the underlying violation.
    assert!(rules.contains(&"determinism::hash-collection"), "{rules:?}");
}

#[test]
fn bad_stream_fires_hot_path_with_allow_and_test_exemptions() {
    let out =
        scan_fixture("crates/netsim/src/bad_stream.rs", include_str!("fixtures/bad_stream.rs"));
    // Exactly the three live allocation sites — the `lint:allow` site and
    // the whole `#[cfg(test)]` module stay silent.
    assert_eq!(rules_of(&out), vec!["stream::hot-path"]);
    assert_eq!(out.findings.len(), 3, "{:#?}", out.findings);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, "stream::hot-path");
    assert_eq!(out.suppressed[0].justification, "cold boot banner, runs once per process");
}

#[test]
fn untagged_files_are_exempt_from_stream_rules() {
    // Strip the line-1 tag: the same allocation-heavy source must no
    // longer trip the stream family (the now-pointless allow is flagged
    // as unused instead).
    let src = include_str!("fixtures/bad_stream.rs");
    let untagged: String = src.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let out = scan_fixture("crates/netsim/src/bad_stream.rs", &untagged);
    let rules = rules_of(&out);
    assert!(!rules.contains(&"stream::hot-path"), "{rules:?}");
    assert!(rules.contains(&"allow::unused"), "{rules:?}");
}

#[test]
fn clean_fixture_has_zero_findings_and_one_used_suppression() {
    let out = scan_fixture("crates/core/src/clean.rs", include_str!("fixtures/clean.rs"));
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, "determinism::wall-clock");
    assert_eq!(out.suppressed[0].justification, "demonstrates a justified waiver");
}

#[test]
fn known_bad_fixtures_fail_under_their_canary_classification() {
    // ci.sh copies bad_hashmap.rs into crates/core/src/ to prove the
    // gate bites; the fixture must fail under exactly that path shape.
    let out =
        scan_fixture("crates/core/src/__lint_canary.rs", include_str!("fixtures/bad_hashmap.rs"));
    assert!(!out.findings.is_empty());
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let render = || {
        let mut report = Report::default();
        for (path, src) in [
            ("crates/core/src/bad_hashmap.rs", include_str!("fixtures/bad_hashmap.rs")),
            ("crates/netsim/src/bad_instant.rs", include_str!("fixtures/bad_instant.rs")),
            ("crates/netsim/src/bad_stream.rs", include_str!("fixtures/bad_stream.rs")),
            ("crates/core/src/clean.rs", include_str!("fixtures/clean.rs")),
        ] {
            let out = scan_fixture(path, src);
            report.findings.extend(out.findings);
            report.suppressed.extend(out.suppressed);
            report.files_scanned += 1;
        }
        report.canonicalize();
        report.render_json()
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "JSON report must be byte-identical across runs");
    assert!(first.contains("\"schema\": \"lookaside-lint/2\""));
}

// ---------------------------------------------------------------------------
// Semantic passes (call-graph fixtures)
// ---------------------------------------------------------------------------

#[test]
fn sem_panic_bad_fires_two_calls_deep() {
    // `workload` is outside HOT_PATH, so clippy's panic lints are not
    // denied here; only the transitive pass connects entry → mid → deep.
    let analysis = analyze_fixtures(&[(
        "crates/workload/src/sem_panic_bad.rs",
        include_str!("fixtures/sem_panic_bad.rs"),
    )]);
    let f = &analysis.report.findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "semantic::panic-reachable");
    let quals: Vec<&str> = f[0].chain.iter().map(|s| s.qual.as_str()).collect();
    assert_eq!(
        quals,
        vec!["workload::canary_entry", "workload::canary_mid", "workload::canary_deep"],
        "chain evidence must walk the full two-call-deep path"
    );
}

#[test]
fn sem_panic_clean_is_silent() {
    let analysis = analyze_fixtures(&[(
        "crates/workload/src/sem_panic_clean.rs",
        include_str!("fixtures/sem_panic_clean.rs"),
    )]);
    assert!(analysis.report.findings.is_empty(), "{:#?}", analysis.report.findings);
}

#[test]
fn sem_purity_bad_fires_at_the_io_site() {
    let analysis = analyze_fixtures(&[(
        "crates/netsim/src/sem_purity_bad.rs",
        include_str!("fixtures/sem_purity_bad.rs"),
    )]);
    let f = &analysis.report.findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "semantic::purity-wall");
}

#[test]
fn sem_purity_clean_is_silent() {
    let analysis = analyze_fixtures(&[(
        "crates/netsim/src/sem_purity_clean.rs",
        include_str!("fixtures/sem_purity_clean.rs"),
    )]);
    assert!(analysis.report.findings.is_empty(), "{:#?}", analysis.report.findings);
}

#[test]
fn sem_panic_crosses_crate_boundaries() {
    // Entry in resolver, panic in a workload helper reached through a
    // cross-crate `use` — the pass must follow the import.
    let analysis = analyze_fixtures(&[
        (
            "crates/resolver/src/entry.rs",
            "// lint:entry(hot-path)\npub fn resolve_canary() { \
             lookaside_workload::canary_entry(&[]); }",
        ),
        ("crates/workload/src/sem_panic_bad.rs", include_str!("fixtures/sem_panic_bad.rs")),
    ]);
    let chains: Vec<usize> = analysis.report.findings.iter().map(|f| f.chain.len()).collect();
    // Both entries root a path to the same unwrap; the multi-source BFS
    // reports it once with the shortest chain.
    assert_eq!(analysis.report.findings.len(), 1, "{:#?}", analysis.report.findings);
    assert!(chains[0] >= 3, "{chains:?}");
}

#[test]
fn semantic_findings_serialize_chains_into_json() {
    let analysis = analyze_fixtures(&[(
        "crates/workload/src/sem_panic_bad.rs",
        include_str!("fixtures/sem_panic_bad.rs"),
    )]);
    let json = analysis.report.render_json();
    assert!(json.contains("\"chain\": [{\"fn\": \"workload::canary_entry\""), "{json}");
    let dot = analysis.graph.render_dot();
    assert!(dot.contains("doublecircle"), "entry must be marked in the DOT dump:\n{dot}");
}

#[test]
fn fixture_paths_are_excluded_from_real_scans() {
    assert!(FileClass::classify("crates/lint/tests/fixtures/bad_hashmap.rs").is_none());
}
