//! Whole-workspace analysis: the lexical rules on every file, then the
//! symbol table / call graph, then the transitive semantic passes —
//! with one shared suppression table so a `lint:allow` that neither a
//! lexical rule nor a graph traversal ever consumes is flagged stale.

use crate::graph::{CallGraph, GraphFile};
use crate::lexer::lex;
use crate::parse::{self, ENTRY_TAG, STREAM_TAG};
use crate::report::{Finding, Report};
use crate::rules::{self, FileClass};
use crate::semantic;

/// One workspace file handed to [`analyze`].
#[derive(Debug)]
pub struct SourceFile {
    /// Its classification (decides which rule families apply).
    pub class: FileClass,
    /// Full source text.
    pub src: String,
}

/// Everything one analysis run produced.
pub struct Analysis {
    /// The canonicalized findings/suppressions report.
    pub report: Report,
    /// The workspace call graph (for the DOT dump).
    pub graph: CallGraph,
}

/// Analyzes the whole workspace: lexical rules per file, the call graph
/// over all Src files, the two semantic passes, tag validation, and
/// stale-allow detection across *both* layers. Input order is
/// irrelevant — files are sorted by path first, and every output list is
/// canonicalized, so the report and graph are byte-stable.
pub fn analyze(mut files: Vec<SourceFile>) -> Analysis {
    files.sort_by(|a, b| a.class.rel_path.cmp(&b.class.rel_path));

    let mut gfiles: Vec<GraphFile> = Vec::with_capacity(files.len());
    let mut allows = Vec::with_capacity(files.len());
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = Vec::new();

    for f in files {
        let lexed = lex(&f.src);
        let (raw, mut file_allows) = rules::scan_file(&f.class, &lexed);
        findings.extend(rules::allow_problem_findings(&f.class, &file_allows));
        let (kept, sup) = rules::apply_allows(raw, &mut file_allows);
        findings.extend(kept);
        suppressed.extend(sup);

        let parsed = parse::parse(&lexed);
        for tp in &parsed.tag_problems {
            findings.push(Finding::new(
                "tag::unknown",
                f.class.rel_path.clone(),
                tp.line,
                format!(
                    "unknown lint directive `{}` — expected `lint:allow(..)`, \
                     `lint:allow-file(..)`, `{ENTRY_TAG}` or `{STREAM_TAG}`",
                    tp.text
                ),
            ));
        }

        gfiles.push(GraphFile { class: f.class, lexed, parsed });
        allows.push(file_allows);
    }

    let graph = CallGraph::build(&gfiles);
    let sem = semantic::run(&gfiles, &graph, &mut allows);
    findings.extend(sem.findings);
    suppressed.extend(sem.suppressed);

    // Stale-allow detection, now with full knowledge: anything neither
    // the lexical rules nor a semantic traversal consumed is dead.
    for (gf, file_allows) in gfiles.iter().zip(&allows) {
        findings.extend(rules::unused_allow_findings(&gf.class, file_allows, true));
    }

    let mut report = Report { findings, suppressed, files_scanned: gfiles.len() };
    report.canonicalize();
    Analysis { report, graph }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, src: &str) -> SourceFile {
        SourceFile { class: FileClass::classify(path).expect("classifiable"), src: src.into() }
    }

    fn rules_fired(files: Vec<SourceFile>) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> =
            analyze(files).report.findings.iter().map(|f| f.rule).collect();
        rules.dedup();
        rules
    }

    #[test]
    fn two_call_deep_unwrap_is_caught_across_crates() {
        // The panic lives in `workload` (not a lexical HOT_PATH crate),
        // two calls below a tagged entry in `resolver` — only the
        // transitive pass can see it.
        let fired = rules_fired(vec![
            sf(
                "crates/resolver/src/a.rs",
                "// lint:entry(hot-path)\npub fn entry() { lookaside_workload::mid(); }",
            ),
            sf(
                "crates/workload/src/b.rs",
                "pub fn mid() { deep(); }\nfn deep(x: Option<u8>) { x.unwrap(); }",
            ),
        ]);
        assert_eq!(fired, vec!["semantic::panic-reachable"]);
    }

    #[test]
    fn chain_evidence_walks_entry_to_site() {
        let analysis = analyze(vec![
            sf(
                "crates/resolver/src/a.rs",
                "// lint:entry(hot-path)\npub fn entry() { lookaside_workload::mid(); }",
            ),
            sf(
                "crates/workload/src/b.rs",
                "pub fn mid() { deep(); }\nfn deep(x: Option<u8>) { x.unwrap(); }",
            ),
        ]);
        let f = &analysis.report.findings[0];
        let quals: Vec<&str> = f.chain.iter().map(|s| s.qual.as_str()).collect();
        assert_eq!(quals, vec!["resolver::entry", "workload::mid", "workload::deep"]);
        assert_eq!(f.chain[0].line, 2, "root step carries the entry's definition line");
    }

    #[test]
    fn edge_allow_cuts_the_traversal_and_is_consumed() {
        let files = vec![
            sf(
                "crates/resolver/src/a.rs",
                "// lint:entry(hot-path)\npub fn entry() {\n    \
                 // lint:allow(semantic::panic-reachable) -- mid's unwrap is bounds-proven\n    \
                 lookaside_workload::mid();\n}",
            ),
            sf("crates/workload/src/b.rs", "pub fn mid(x: Option<u8>) { x.unwrap(); }"),
        ];
        let analysis = analyze(files);
        assert!(analysis.report.findings.is_empty(), "{:#?}", analysis.report.findings);
        assert_eq!(analysis.report.suppressed.len(), 1);
        assert_eq!(analysis.report.suppressed[0].rule, "semantic::panic-reachable");
    }

    #[test]
    fn unreached_edge_allow_is_stale() {
        // No entry tag anywhere: the pass never traverses, so the allow
        // suppresses nothing and must die.
        let fired = rules_fired(vec![sf(
            "crates/resolver/src/a.rs",
            "pub fn cold() {\n    \
             // lint:allow(semantic::panic-reachable) -- stale\n    helper();\n}\n\
             fn helper() {}",
        )]);
        assert_eq!(fired, vec!["allow::unused"]);
    }

    #[test]
    fn wall_clock_below_a_merge_is_a_lexical_finding() {
        // A merge can only call into its own crate and that crate's
        // dependencies, all of which the determinism rules scan: the
        // clock read is reported at its site, with no call chain.
        let analysis = analyze(vec![sf(
            "crates/wire/src/m.rs",
            "pub fn merge() { stamp(); }\nfn stamp() { let _ = Instant::now(); }",
        )]);
        let findings = &analysis.report.findings;
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!((findings[0].rule, findings[0].line), ("determinism::wall-clock", 2));
        assert!(findings[0].chain.is_empty());
    }

    #[test]
    fn index_after_a_tuple_field_is_a_panic_site() {
        let fired = rules_fired(vec![sf(
            "crates/workload/src/b.rs",
            "// lint:entry(hot-path)\npub fn entry(t: ([u8; 2], u8)) -> u8 { mid(t) }\n\
             fn mid(t: ([u8; 2], u8)) -> u8 { deep(t) }\n\
             fn deep(t: ([u8; 2], u8)) -> u8 { t.0[0] }",
        )]);
        assert_eq!(fired, vec!["semantic::panic-reachable"]);
    }

    #[test]
    fn purity_wall_flags_direct_io_in_sim_crates() {
        let fired = rules_fired(vec![sf(
            "crates/netsim/src/io.rs",
            "pub fn snapshot() { let _ = fs::read_to_string(\"x\"); }",
        )]);
        assert_eq!(fired, vec!["semantic::purity-wall"]);
    }

    #[test]
    fn purity_wall_flags_the_crossing_edge_once() {
        let analysis = analyze(vec![
            sf("crates/resolver/src/a.rs", "pub fn leak() { lookaside_engine::persist(); }"),
            sf(
                "crates/engine/src/checkpoint.rs",
                "pub fn persist() { let _ = fs::write(\"j\", []); }",
            ),
            sf(
                // An engine-internal caller is inside the wall: no finding.
                "crates/engine/src/fold2.rs",
                "pub fn orchestrate() { crate::persist(); }",
            ),
        ]);
        let findings = &analysis.report.findings;
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "semantic::purity-wall");
        assert_eq!(findings[0].file, "crates/resolver/src/a.rs");
        assert!(findings[0].message.contains("sim crate `resolver`"), "{}", findings[0].message);
    }

    #[test]
    fn unknown_tag_is_a_finding() {
        // A malformed entry, a retired tag, or a typo would otherwise do
        // nothing at all.
        for directive in [
            "lint:entry(warm-path)",
            "lint:sink(determinism)",
            "lint:checkpoint-codec",
            "lint:stream-hotpath",
            "lint:alow(x)",
        ] {
            let src = format!("// {directive}\npub fn f() {{}}");
            let fired = rules_fired(vec![sf("crates/wire/src/t.rs", &src)]);
            assert_eq!(fired, vec!["tag::unknown"], "{directive}");
        }
    }

    #[test]
    fn panic_sites_in_hot_path_crates_are_left_to_clippy() {
        // The entry's own `.expect()` sits in resolver, where clippy denies
        // it; the traversal still crosses resolver into netsim, where the
        // same site is the pass's to report.
        let findings = analyze(vec![
            sf(
                "crates/resolver/src/a.rs",
                "// lint:entry(hot-path)\npub fn entry(x: Option<u8>) {\n    \
                 x.expect(\"invariant\");\n    lookaside_netsim::deep(x);\n}",
            ),
            sf(
                "crates/netsim/src/b.rs",
                "pub fn deep(x: Option<u8>) {\n    x.expect(\"invariant\");\n}",
            ),
        ])
        .report
        .findings;
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "semantic::panic-reachable");
        assert_eq!((findings[0].file.as_str(), findings[0].line), ("crates/netsim/src/b.rs", 2));
    }
}
