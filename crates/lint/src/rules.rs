//! The rule engine: repo invariants checked against the token stream.
//!
//! Three rule families (see DESIGN.md §10), each checking what rustc and
//! clippy cannot:
//!
//! * **determinism** — every `src` crate outside [`DETERMINISM_EXEMPT`]
//!   must not use hash-ordered collections, wall clocks, ambient entropy
//!   (thread identity included), or environment reads. These protect the
//!   workspace's core contract: every experiment is byte-identical at
//!   every `--jobs` value.
//! * **panic** — the [`HOT_PATH`] crates return typed errors instead of
//!   panicking. Clippy denies their unwrap/expect and panic-family macros
//!   (see each crate's `lib.rs`); `panic::slice-index` flags indexing,
//!   which clippy's `indexing_slicing` misses on maps and `str`.
//! * **stream** — modules opting in with a `// lint:stream-hot-path`
//!   comment (the streaming steady state: per-packet observers, the
//!   render arena, flat zone lookup, timer rings) must not allocate per
//!   call: `format!`, `.to_string()`, and `Vec::new()` are banned in
//!   live (non-test) code. These back the stream gate in `ci.sh`, which
//!   holds the steady state under 2 allocs/query.
//!
//! Suppression grammar (justification mandatory, both forms):
//!
//! ```text
//! // lint:allow(rule::id) -- why this site is safe
//! // lint:allow-file(rule::id, other::id) -- why this whole file is safe
//! ```
//!
//! A `lint:allow` on line *N* suppresses findings on lines *N* and
//! *N + 1*; `lint:allow-file` suppresses the named rules anywhere in the
//! file. Unused suppressions are themselves findings, so a fixed
//! violation forces its waiver to be deleted. The `allow::*` meta rules
//! cannot be suppressed.

use crate::lexer::{lex, Comment, Lexed, Tok, Token};
use crate::parse::STREAM_TAG;
use crate::report::{Finding, Suppressed};

/// The `src` crates outside the determinism rules: bench is the
/// command-line boundary and lint is this analyzer. Every other crate,
/// a new one included, is result-bearing.
pub const DETERMINISM_EXEMPT: &[&str] = &["bench", "lint"];

/// Crates on the per-query hot path: panic-surface rules.
pub const HOT_PATH: &[&str] = &["wire", "engine", "resolver"];

/// All rule identifiers, in report order.
pub const ALL_RULES: &[&str] = &[
    "determinism::hash-collection",
    "determinism::wall-clock",
    "determinism::ambient-entropy",
    "determinism::env-read",
    "panic::slice-index",
    "stream::hot-path",
    "semantic::panic-reachable",
    "semantic::purity-wall",
    "tag::unknown",
    "allow::missing-justification",
    "allow::unknown-rule",
    "allow::unused",
];

/// The transitive call-graph rules (see [`crate::semantic`]); their
/// suppressions are resolved at workspace scope, per edge or per site.
pub const SEMANTIC_RULES: &[&str] = &["semantic::panic-reachable", "semantic::purity-wall"];

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library/binary source: full rules for its crate.
    Src,
    /// Tests, benches, examples: exempt from determinism/panic rules.
    TestLike,
}

/// A classified workspace file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// The `crates/<dir>` the file belongs to, if any.
    pub crate_dir: Option<String>,
    /// Source vs. test-like.
    pub role: Role,
}

impl FileClass {
    /// Classifies a workspace-relative path; `None` means "do not scan"
    /// (non-Rust files, lint self-test fixtures).
    pub fn classify(rel_path: &str) -> Option<FileClass> {
        if !rel_path.ends_with(".rs") {
            return None;
        }
        // The lint's own fixtures are deliberate rule violations.
        if rel_path.starts_with("crates/lint/tests/fixtures/") {
            return None;
        }
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_dir, role) = match parts.as_slice() {
            ["crates", c, "src", ..] => (Some((*c).to_string()), Role::Src),
            ["crates", c, "tests" | "benches" | "examples", ..] => {
                (Some((*c).to_string()), Role::TestLike)
            }
            ["tests" | "examples", ..] => (None, Role::TestLike),
            _ => return None,
        };
        Some(FileClass { rel_path: rel_path.to_string(), crate_dir, role })
    }

    /// The crate of a `crates/<c>/src` file; `None` for test-like files.
    pub(crate) fn src_crate(&self) -> Option<&str> {
        match self.role {
            Role::Src => self.crate_dir.as_deref(),
            Role::TestLike => None,
        }
    }
}

/// Everything the scan of one file produced.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Unsuppressed findings (these fail the gate).
    pub findings: Vec<Finding>,
    /// Suppressed findings with their justifications.
    pub suppressed: Vec<Suppressed>,
}

/// Scans one file's source text under its classification — the lexical
/// rules only. The transitive `semantic::*` passes need the whole
/// workspace; use [`crate::workspace::analyze`] for those. Allows naming
/// only semantic rules are ignored by this function's unused-allow check
/// (workspace analysis resolves them).
pub fn scan_source(class: &FileClass, src: &str) -> ScanOutcome {
    let lexed = lex(src);
    let (raw, mut allows) = scan_file(class, &lexed);
    let mut out = ScanOutcome::default();
    out.findings.extend(allow_problem_findings(class, &allows));
    let (findings, suppressed) = apply_allows(raw, &mut allows);
    out.findings.extend(findings);
    out.suppressed = suppressed;
    out.findings.extend(unused_allow_findings(class, &allows, false));
    out.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.suppressed.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lexical detection plus suppression parsing for one file: returns the
/// raw (pre-suppression) findings and the parsed allow list.
pub(crate) fn scan_file(class: &FileClass, lexed: &Lexed) -> (Vec<Finding>, Vec<Allow>) {
    let allows = parse_allows(&lexed.comments);
    // A module opts into the streaming allocation rules with a bare
    // `// lint:stream-hot-path` comment (conventionally line 1).
    let stream_tagged = lexed.comments.iter().any(|c| !c.doc && c.text.trim() == STREAM_TAG);
    (detect(class, &lexed.tokens, stream_tagged), allows)
}

/// The never-suppressible grammar findings for a file's allow list.
pub(crate) fn allow_problem_findings(class: &FileClass, allows: &[Allow]) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in allows {
        match &a.problem {
            Some(AllowProblem::MissingJustification) => out.push(Finding::new(
                "allow::missing-justification",
                class.rel_path.clone(),
                a.line,
                "lint:allow requires ` -- <justification>` after the rule list".into(),
            )),
            Some(AllowProblem::UnknownRule(r)) => out.push(Finding::new(
                "allow::unknown-rule",
                class.rel_path.clone(),
                a.line,
                format!("unknown rule `{r}` in lint:allow"),
            )),
            None => {}
        }
    }
    out
}

/// Matches raw findings against the file's allows, splitting them into
/// surviving findings and suppressed records.
pub(crate) fn apply_allows(
    raw: Vec<Finding>,
    allows: &mut [Allow],
) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        match allows.iter_mut().find(|a| a.matches(f.rule, f.line)) {
            Some(a) => {
                a.used = true;
                suppressed.push(Suppressed {
                    rule: f.rule,
                    file: f.file,
                    line: f.line,
                    justification: a.justification.clone().unwrap_or_default(),
                });
            }
            None => findings.push(f),
        }
    }
    (findings, suppressed)
}

/// Flags well-formed allows that suppressed nothing. With
/// `include_semantic` false (single-file scans), allows naming only
/// `semantic::*` rules are exempt — their fate is decided by the
/// workspace passes.
pub(crate) fn unused_allow_findings(
    class: &FileClass,
    allows: &[Allow],
    include_semantic: bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in allows {
        if a.problem.is_some() || a.used {
            continue;
        }
        if !include_semantic && a.rules.iter().all(|r| SEMANTIC_RULES.contains(&r.as_str())) {
            continue;
        }
        out.push(Finding::new(
            "allow::unused",
            class.rel_path.clone(),
            a.line,
            format!("lint:allow({}) suppresses nothing — delete it", a.rules.join(", ")),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Suppression comments
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) enum AllowProblem {
    MissingJustification,
    UnknownRule(String),
}

#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rules: Vec<String>,
    pub(crate) file_scope: bool,
    pub(crate) justification: Option<String>,
    pub(crate) problem: Option<AllowProblem>,
    pub(crate) used: bool,
}

impl Allow {
    pub(crate) fn matches(&self, rule: &str, line: u32) -> bool {
        if self.problem.is_some() || rule.starts_with("allow::") {
            return false;
        }
        if !self.rules.iter().any(|r| r == rule) {
            return false;
        }
        self.file_scope || line == self.line || line == self.line + 1
    }
}

pub(crate) fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let text = c.text.trim();
        let (file_scope, rest) = if let Some(r) = text.strip_prefix("lint:allow-file(") {
            (true, r)
        } else if let Some(r) = text.strip_prefix("lint:allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            allows.push(Allow {
                line: c.line,
                rules: Vec::new(),
                file_scope,
                justification: None,
                problem: Some(AllowProblem::UnknownRule("<unclosed rule list>".into())),
                used: false,
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let problem = rules
            .iter()
            .find(|r| !ALL_RULES.contains(&r.as_str()))
            .map(|r| AllowProblem::UnknownRule(r.clone()))
            .or_else(|| {
                if rules.is_empty() {
                    return Some(AllowProblem::UnknownRule("<empty rule list>".into()));
                }
                let after = rest[close + 1..].trim_start();
                match after.strip_prefix("--") {
                    Some(j) if !j.trim().is_empty() => None,
                    _ => Some(AllowProblem::MissingJustification),
                }
            });
        let justification = rest[close + 1..]
            .trim_start()
            .strip_prefix("--")
            .map(|j| j.trim().to_string())
            .filter(|j| !j.is_empty());
        allows.push(Allow { line: c.line, rules, file_scope, justification, problem, used: false });
    }
    allows
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

/// Identifiers naming hash-ordered collections (iteration order is
/// seeded per process via `RandomState` — the canonical way a `--jobs`
/// diff gate passes on one run and fails on the next).
const HASH_IDENTS: &[&str] = &["HashMap", "HashSet", "hash_map", "hash_set"];

/// Identifiers reaching for ambient entropy or unspecified hashing.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "ThreadRng",
    "StdRng",
    "SmallRng",
    "RandomState",
    "DefaultHasher",
];

/// Keywords that may precede `[` without forming an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

fn detect(class: &FileClass, tokens: &[Token], stream_tagged: bool) -> Vec<Finding> {
    let mut f = Vec::new();
    let Some(crate_name) = class.src_crate() else { return f };
    let determinism = !DETERMINISM_EXEMPT.contains(&crate_name);
    let panic_rules = HOT_PATH.contains(&crate_name);

    let finding = |rule: &'static str, line: u32, message: String| {
        Finding::new(rule, class.rel_path.clone(), line, message)
    };

    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if panic_rules && indexes(tokens, i) {
            f.push(finding(
                "panic::slice-index",
                t.line,
                format!(
                    "slice/array indexing on the hot path of `{crate_name}` — use `get` or \
                     prove bounds and add a justified allow"
                ),
            ));
        }
        let Tok::Ident(ident) = &t.tok else { continue };

        if determinism {
            if HASH_IDENTS.contains(&ident.as_str()) {
                f.push(finding(
                    "determinism::hash-collection",
                    t.line,
                    format!(
                        "`{ident}` in result-bearing crate `{crate_name}` — iteration order \
                         is per-process random; use BTreeMap/BTreeSet or sorted structures"
                    ),
                ));
            }
            if (ident == "Instant" || ident == "SystemTime") && path_call(tokens, i, "now") {
                f.push(finding(
                    "determinism::wall-clock",
                    t.line,
                    format!(
                        "`{ident}::now` in result-bearing crate `{crate_name}` — simulated \
                             time must come from the network clock"
                    ),
                ));
            }
            let entropy = if ident == "thread" && path_call(tokens, i, "current") {
                Some("thread::current")
            } else if ENTROPY_IDENTS.contains(&ident.as_str())
                || (ident == "rand"
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::ColonColon)))
            {
                Some(ident.as_str())
            } else {
                None
            };
            if let Some(source) = entropy {
                f.push(finding(
                    "determinism::ambient-entropy",
                    t.line,
                    format!(
                        "`{source}` draws ambient entropy in result-bearing crate \
                             `{crate_name}` — derive randomness from the shard seed"
                    ),
                ));
            }
            if ident == "env"
                && (path_call(tokens, i, "var")
                    || path_call(tokens, i, "var_os")
                    || path_call(tokens, i, "vars"))
            {
                f.push(finding(
                    "determinism::env-read",
                    t.line,
                    format!(
                        "environment read in result-bearing crate `{crate_name}` — \
                             configuration arrives as a value from the command line"
                    ),
                ));
            }
        }

        if stream_tagged {
            match ident.as_str() {
                "format" if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'!'))) => {
                    f.push(finding(
                        "stream::hot-path",
                        t.line,
                        "`format!` allocates in a stream-hot-path module — write into a \
                         reused buffer"
                            .into(),
                    ))
                }
                "to_string" if method_call(tokens, i) => f.push(finding(
                    "stream::hot-path",
                    t.line,
                    "`.to_string()` allocates in a stream-hot-path module — borrow or \
                     intern instead"
                        .into(),
                )),
                "Vec" if path_call(tokens, i, "new") => f.push(finding(
                    "stream::hot-path",
                    t.line,
                    "`Vec::new()` in a stream-hot-path module — preallocate with \
                     `with_capacity` outside the steady state"
                        .into(),
                )),
                _ => {}
            }
        }
    }
    f
}

/// `tokens[i]` then `::` then `Ident(seg)` then `(` — a path call like
/// `Instant::now(` or `env::var(`.
pub(crate) fn path_call(tokens: &[Token], i: usize, seg: &str) -> bool {
    matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::ColonColon))
        && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == seg)
        && matches!(tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(b'(')))
}

/// `.ident(` or `::ident(` — a method call, or a path call such as
/// `Option::unwrap(x)`; a fn item (`Option::unwrap`) is not a call.
pub(crate) fn method_call(tokens: &[Token], i: usize) -> bool {
    let prev_dot = i > 0 && matches!(tokens[i - 1].tok, Tok::Punct(b'.') | Tok::ColonColon);
    prev_dot && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'(')))
}

/// Indexing (`expr[...]`): `tokens[i]` is a `[` whose previous token
/// ends an expression — an identifier (excluding keywords), a literal
/// (`t.0[i]`, `"s"[1..]`), `)`, `]`, or `?` (`f()?[i]`). Type positions
/// (`&[u8]`, `Vec<[u8; 4]>`), attributes (`#[...]`), and macro brackets
/// (`vec![...]`) never match because their previous token is other
/// punctuation or a keyword.
pub(crate) fn indexes(tokens: &[Token], i: usize) -> bool {
    i > 0
        && tokens[i].tok == Tok::Punct(b'[')
        && match &tokens[i - 1].tok {
            Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
            Tok::Literal | Tok::Punct(b')' | b']' | b'?') => true,
            _ => false,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src_class(path: &str) -> FileClass {
        FileClass::classify(path).expect("classifiable")
    }

    fn rules_fired(class: &FileClass, src: &str) -> Vec<&'static str> {
        scan_source(class, src).findings.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_roles() {
        assert_eq!(src_class("crates/core/src/lib.rs").role, Role::Src);
        assert_eq!(src_class("crates/core/tests/x.rs").role, Role::TestLike);
        assert_eq!(src_class("tests/integration.rs").role, Role::TestLike);
        assert!(FileClass::classify("crates/lint/tests/fixtures/bad.rs").is_none());
        assert!(FileClass::classify("README.md").is_none());
    }

    #[test]
    fn hashmap_fires_only_in_result_bearing_src() {
        let src = "use std::collections::HashMap;";
        for path in ["crates/core/src/lib.rs", "crates/wire/src/lib.rs"] {
            assert_eq!(rules_fired(&src_class(path), src), vec!["determinism::hash-collection"]);
        }
        for path in ["crates/bench/src/lib.rs", "crates/lint/src/lib.rs", "crates/core/tests/t.rs"]
        {
            assert!(rules_fired(&src_class(path), src).is_empty(), "{path}");
        }
    }

    #[test]
    fn same_line_and_preceding_line_allows_suppress() {
        let class = src_class("crates/core/src/x.rs");
        let same = "let m: HashMap<u8, u8> = x; // lint:allow(determinism::hash-collection) -- ok";
        let out = scan_source(&class, same);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].justification, "ok");

        let above = "// lint:allow(determinism::hash-collection) -- ok\nlet m: HashMap<u8,u8>;";
        assert!(scan_source(&class, above).findings.is_empty());
    }

    #[test]
    fn missing_justification_is_a_finding() {
        let class = src_class("crates/core/src/x.rs");
        let src = "// lint:allow(determinism::hash-collection)\nlet m: HashMap<u8,u8>;";
        let fired = rules_fired(&class, src);
        assert!(fired.contains(&"allow::missing-justification"), "{fired:?}");
        assert!(fired.contains(&"determinism::hash-collection"), "{fired:?}");
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let class = src_class("crates/core/src/x.rs");
        let src = "// lint:allow(determinism::wall-clock) -- stale\nlet x = 1;";
        assert_eq!(rules_fired(&class, src), vec!["allow::unused"]);
    }

    #[test]
    fn file_scope_allow_covers_everything() {
        let class = src_class("crates/wire/src/x.rs");
        let src = "// lint:allow-file(panic::slice-index) -- bounds proven\nfn f(b: &[u8]) -> u8 { b[0] }";
        let out = scan_source(&class, src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn panic_rules_fire_in_hot_path_only() {
        // A literal or `?` ends an expression too: `t.0[i]`, `g()?[1]`.
        for src in [
            "fn f(b: &[u8]) -> u8 { b[0] }",
            "fn f(t: ([u8; 2], u8), i: usize) -> u8 { t.0[i] }",
            "fn f() -> R { g()?[1] }",
        ] {
            for krate in HOT_PATH {
                let class = src_class(&format!("crates/{krate}/src/x.rs"));
                assert_eq!(rules_fired(&class, src), vec!["panic::slice-index"], "{krate}: {src}");
            }
            assert!(rules_fired(&src_class("crates/workload/src/x.rs"), src).is_empty());
        }
    }

    #[test]
    fn wall_clock_and_env_read() {
        let class = src_class("crates/netsim/src/x.rs");
        let src = "let t = Instant::now(); let v = std::env::var(\"X\");";
        let fired = rules_fired(&class, src);
        assert_eq!(fired, vec!["determinism::env-read", "determinism::wall-clock"]);
        // No file of a result-bearing crate is exempt, the seed plumbing
        // included.
        let seed = src_class("crates/engine/src/seed.rs");
        assert_eq!(
            rules_fired(&seed, "let v = std::env::var(\"X\");"),
            vec!["determinism::env-read"]
        );
    }

    #[test]
    fn thread_identity_is_ambient_entropy() {
        let class = src_class("crates/engine/src/x.rs");
        let fired = rules_fired(&class, "let who = std::thread::current().id();");
        assert_eq!(fired, vec!["determinism::ambient-entropy"]);
    }

    #[test]
    fn attribute_and_type_brackets_are_not_indexing() {
        let class = src_class("crates/wire/src/x.rs");
        let src = "#[derive(Debug)] struct S { b: [u8; 4] } fn f(x: &mut [u8]) -> Vec<[u8; 2]> { vec![] }";
        assert!(rules_fired(&class, src).is_empty());
        assert_eq!(
            rules_fired(&class, "fn f(b: &[u8]) -> u8 { b[0] }"),
            vec!["panic::slice-index"]
        );
    }

    #[test]
    fn unknown_rule_in_allow() {
        let class = src_class("crates/core/src/x.rs");
        assert_eq!(
            rules_fired(&class, "// lint:allow(bogus::rule) -- x\nlet y = 1;"),
            vec!["allow::unknown-rule"]
        );
    }
}
