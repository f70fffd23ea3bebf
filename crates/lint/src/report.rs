//! Findings, the aggregated report, and its two renderings: human text
//! and a byte-stable JSON document for `target/ci/lint_report.json`.
//!
//! Byte stability is part of the tool's own contract (it polices
//! determinism, so its report must be diffable across runs and machines):
//! no timestamps, no absolute paths, every list sorted by
//! `(file, line, rule, message)`, hand-rolled serialization with a fixed
//! field order.

use crate::rules::ALL_RULES;

/// One step of a call-chain evidence trail attached to a semantic
/// finding: `qual` was entered from `file:line` (the call site in the
/// caller, or the definition site for the chain's root).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainStep {
    /// Qualified function name, e.g. `resolver::RecursiveResolver::resolve_into`.
    pub qual: String,
    /// File of the call site reaching this function.
    pub file: String,
    /// 1-indexed line of that call site.
    pub line: u32,
}

/// One unsuppressed rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `determinism::hash-collection`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// For `semantic::*` rules: the call chain from the pass's root to
    /// the violating site. Empty for lexical findings.
    pub chain: Vec<ChainStep>,
}

impl Finding {
    /// A chain-less (lexical) finding.
    pub fn new(rule: &'static str, file: String, line: u32, message: String) -> Finding {
        Finding { rule, file, line, message, chain: Vec::new() }
    }
}

/// A violation silenced by a justified `lint:allow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The suppressed rule.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the violation.
    pub line: u32,
    /// The mandatory justification text.
    pub justification: String,
}

/// The whole-workspace scan result.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings across all files.
    pub findings: Vec<Finding>,
    /// Suppressed findings across all files.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts both lists into canonical order; call before rendering.
    pub fn canonicalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message, &a.chain)
                .cmp(&(&b.file, b.line, b.rule, &b.message, &b.chain))
        });
        self.suppressed.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.justification).cmp(&(
                &b.file,
                b.line,
                b.rule,
                &b.justification,
            ))
        });
    }

    /// Per-rule `(findings, suppressed)` counts in [`ALL_RULES`] order.
    pub fn rule_summary(&self) -> Vec<(&'static str, usize, usize)> {
        ALL_RULES
            .iter()
            .map(|&rule| {
                let hits = self.findings.iter().filter(|f| f.rule == rule).count();
                let quiet = self.suppressed.iter().filter(|s| s.rule == rule).count();
                (rule, hits, quiet)
            })
            .collect()
    }

    /// Human-readable rendering: one line per finding (plus its call
    /// chain, innermost last) and the summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message));
            for step in &f.chain {
                out.push_str(&format!("    via {} ({}:{})\n", step.qual, step.file, step.line));
            }
        }
        out.push_str(&self.render_summary());
        out
    }

    /// The one-line-per-rule coverage summary printed to CI logs.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for (rule, hits, quiet) in self.rule_summary() {
            out.push_str(&format!(
                "lint: {rule:<34} {hits} finding{}, {quiet} suppressed\n",
                if hits == 1 { "" } else { "s" }
            ));
        }
        out.push_str(&format!(
            "lint: {} finding{} ({} suppressed) across {} files\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned,
        ));
        out
    }

    /// Deterministic JSON rendering (2-space indent, fixed field order).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"lookaside-lint/2\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));

        out.push_str("  \"rule_summary\": [\n");
        let summary = self.rule_summary();
        for (i, (rule, hits, quiet)) in summary.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"findings\": {hits}, \"suppressed\": {quiet}}}{}\n",
                json_str(rule),
                comma(i, summary.len()),
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let chain = f
                .chain
                .iter()
                .map(|s| {
                    format!(
                        "{{\"fn\": {}, \"file\": {}, \"line\": {}}}",
                        json_str(&s.qual),
                        json_str(&s.file),
                        s.line
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"chain\": [{}]}}{}\n",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                chain,
                comma(i, self.findings.len()),
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"suppressed\": [\n");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"justification\": {}}}{}\n",
                json_str(s.rule),
                json_str(&s.file),
                s.line,
                json_str(&s.justification),
                comma(i, self.suppressed.len()),
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

/// JSON string escaping per RFC 8259 (control chars as \u00XX).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: "semantic::panic-reachable",
                    file: "crates/b/src/x.rs".into(),
                    line: 9,
                    message: "b".into(),
                    chain: vec![ChainStep {
                        qual: "b::entry".into(),
                        file: "crates/b/src/x.rs".into(),
                        line: 2,
                    }],
                },
                Finding::new(
                    "determinism::hash-collection",
                    "crates/a/src/x.rs".into(),
                    3,
                    "a \"quoted\"".into(),
                ),
            ],
            suppressed: vec![Suppressed {
                rule: "panic::slice-index",
                file: "crates/a/src/x.rs".into(),
                line: 7,
                justification: "bounds proven".into(),
            }],
            files_scanned: 2,
        };
        r.canonicalize();
        r
    }

    #[test]
    fn canonical_order_sorts_by_file_then_line() {
        let r = sample();
        assert_eq!(r.findings[0].file, "crates/a/src/x.rs");
        assert_eq!(r.findings[1].file, "crates/b/src/x.rs");
    }

    #[test]
    fn json_is_byte_stable_and_escaped() {
        let a = sample().render_json();
        let b = sample().render_json();
        assert_eq!(a, b);
        assert!(a.contains("a \\\"quoted\\\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn summary_covers_every_rule() {
        let text = sample().render_summary();
        for rule in ALL_RULES {
            assert!(text.contains(rule), "summary missing {rule}");
        }
    }
}
