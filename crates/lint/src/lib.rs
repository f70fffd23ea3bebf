//! `lookaside-lint` — the workspace determinism & panic-safety analyzer.
//!
//! Every table this reproduction emits (fig8/9, the Byzantine sweep, the
//! DLV leakage counts) is contractually byte-identical across `--jobs`
//! values. `ci.sh` checks that contract *dynamically* with diff gates,
//! but a dynamic gate only sees the orderings one lucky run produced: a
//! stray `HashMap` iteration or `Instant::now()` in a reduction path can
//! pass a hundred diffs and then break the hundred-and-first. This crate
//! proves the invariants *statically*, before a single experiment runs.
//!
//! It is deliberately dependency-free (the build environment has no
//! crates.io, so no `syn`): a small hand-rolled lexer ([`lexer`]) strips
//! comments and literals and tokenizes, an item parser ([`parse`])
//! recovers functions/impls/`use` graphs from the token stream, a
//! workspace symbol table and call graph ([`graph`]) resolves call sites
//! across crates, a rule engine ([`rules`]) checks per-file lexical
//! invariants, two transitive passes ([`semantic`]) check
//! panic-reachability and the I/O purity wall over the whole graph, and
//! [`report`] renders findings (with call-chain evidence) as human text
//! plus a byte-stable JSON document archived by CI.
//! [`workspace::analyze`] ties all of it together.
//!
//! It checks only what rustc and clippy cannot: zero unsafe code is
//! rustc's (`[workspace.lints]`), and the hot-path crates' unwrap, expect
//! and panic-family macros are clippy's. DESIGN.md §10 maps every
//! invariant to its one checker; the rule families, their scope, and the
//! suppression grammar are documented there, in §15, and on [`rules`] /
//! [`semantic`].
//!
//! # Example
//!
//! ```
//! use lookaside_lint::rules::{scan_source, FileClass};
//!
//! let class = FileClass::classify("crates/core/src/demo.rs").unwrap();
//! let out = scan_source(&class, "use std::collections::HashMap;");
//! assert_eq!(out.findings.len(), 1);
//! assert_eq!(out.findings[0].rule, "determinism::hash-collection");
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod workspace;

pub use report::{ChainStep, Finding, Report, Suppressed};
pub use rules::{scan_source, FileClass, Role, ScanOutcome, ALL_RULES};
pub use workspace::{analyze, Analysis, SourceFile};
