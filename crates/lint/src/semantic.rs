//! The three transitive dataflow passes over the workspace call graph
//! (DESIGN.md §15): panic-reachability, determinism taint, and the
//! purity wall. Each pass walks [`crate::graph::CallGraph`] edges from
//! tagged roots, carries the full call chain as finding evidence, and
//! honors per-edge / per-site suppressions:
//!
//! * a `lint:allow(semantic::<pass>)` on a **call-site** line cuts that
//!   edge for the pass — the traversal simply does not cross it, so an
//!   allow on an edge the pass never reaches is flagged `allow::unused`
//!   (that is how stale suppressions die);
//! * a `lint:allow(semantic::<pass>)` on a **violating-site** line waives
//!   that one site;
//! * a justified *lexical* allow (`panic::unwrap`, `determinism::*`, …)
//!   on a site also waives the corresponding semantic finding — one
//!   justification per site, not two.
//!
//! Pass semantics:
//!
//! 1. **panic-reachability** — no function reachable from a
//!    `lint:entry(hot-path)` root may contain `unwrap`/`expect`/
//!    `panic!`-family macros/slice indexing, in any crate. The lexical
//!    `panic::*` rules only see the [`crate::rules::HOT_PATH`] crates; this
//!    pass follows calls out of them.
//! 2. **determinism taint** — no function reachable from a
//!    `lint:sink(determinism)` root (merges, folds, report/checkpoint
//!    serialization) may read a nondeterminism source: wall clocks,
//!    ambient entropy, environment, hash-ordered iteration, thread
//!    identity. Only the bench crate, the command-line boundary, is
//!    exempt.
//! 3. **purity wall** — `std::{fs,io,net}` effects are confined to
//!    [`DIRECT_EFFECT_ALLOWED`] files and [`EFFECT_CRATES`]; only
//!    [`EFFECT_REACH_CRATES`] may *call into* functions that reach those
//!    effects. This keeps the sim crates (resolver, netsim, wire, zone,
//!    population, workload, server) free of I/O so the daemon-ize
//!    roadmap item can split them out behind an IPC boundary without
//!    dragging file handles and sockets along.
//!
//! Findings stay *at the wall*: a purity violation is reported at the
//! direct effect site (outside the sanctioned files) or at the single
//! crossing edge where a sim crate first calls into effectful code —
//! never cascaded up through every ancestor.

use std::collections::BTreeMap;

use crate::graph::{CallGraph, GraphFile};
use crate::lexer::Tok;
use crate::parse::FnTag;
use crate::report::{ChainStep, Finding, Suppressed};
use crate::rules::{
    method_call, path_call, Allow, ENTROPY_IDENTS, HASH_IDENTS, NON_INDEX_KEYWORDS,
};

/// Files where direct `std::{fs,io,net}` effects are sanctioned: journal
/// persistence and the stderr diagnostics sink.
pub const DIRECT_EFFECT_ALLOWED: &[&str] =
    &["crates/engine/src/checkpoint.rs", "crates/engine/src/diag.rs"];

/// Crates that are tooling/drivers rather than simulation: every file in
/// them may perform effects directly (`bench` owns the `repro` binary,
/// `lint` is this analyzer, `daemon` is the roadmap's service split).
pub const EFFECT_CRATES: &[&str] = &["bench", "lint", "daemon"];

/// Crates allowed to *call into* effectful functions (the orchestration
/// layer plus the effect crates themselves). Everything else — the sim
/// crates — must stay transitively effect-free.
pub const EFFECT_REACH_CRATES: &[&str] = &["core", "engine", "bench", "lint", "daemon", "<root>"];

/// One extracted fact site inside a symbol's body.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    /// What the site does, for messages (e.g. "`.unwrap()`").
    desc: String,
    /// The lexical rule whose allow also waives this site, if any.
    lexical_rule: Option<&'static str>,
}

/// Per-symbol facts feeding the passes.
#[derive(Debug, Default)]
struct Facts {
    panics: Vec<Site>,
    sources: Vec<Site>,
    effects: Vec<Site>,
}

/// What [`run`] produced.
#[derive(Debug, Default)]
pub struct SemanticOutcome {
    /// Unsuppressed semantic findings (with chains).
    pub findings: Vec<Finding>,
    /// Sites and edges silenced by justified allows.
    pub suppressed: Vec<Suppressed>,
}

/// Runs all three passes. `allows` is parallel to `files`; used allows
/// are marked so the caller's stale-suppression check sees them.
pub(crate) fn run(
    files: &[GraphFile],
    graph: &CallGraph,
    allows: &mut [Vec<Allow>],
) -> SemanticOutcome {
    let facts = extract_facts(files, graph);
    let mut out = SemanticOutcome::default();
    panic_pass(files, graph, &facts, allows, &mut out);
    taint_pass(files, graph, &facts, allows, &mut out);
    purity_pass(files, graph, &facts, allows, &mut out);
    out
}

/// Effect APIs recognized as `Type::method(` path calls.
const EFFECT_TYPE_CALLS: &[(&str, &[&str])] = &[
    ("File", &["open", "create", "create_new", "options"]),
    ("OpenOptions", &["new"]),
    ("TcpStream", &["connect"]),
    ("TcpListener", &["bind"]),
    ("UdpSocket", &["bind"]),
];

/// Walks every Src file's tokens once, attributing panic sites,
/// nondeterminism sources, and I/O effects to their owning symbol via
/// the parser's owner map.
fn extract_facts(files: &[GraphFile], graph: &CallGraph) -> Vec<Facts> {
    let mut facts: Vec<Facts> = (0..graph.symbols.len()).map(|_| Facts::default()).collect();
    let sym_of: BTreeMap<(usize, usize), usize> =
        graph.symbols.iter().enumerate().map(|(i, s)| ((s.file_idx, s.fn_idx), i)).collect();

    for (file_idx, gf) in files.iter().enumerate() {
        if gf.class.role != crate::rules::Role::Src {
            continue;
        }
        // The bench crate is the CLI boundary (reads argv by design).
        let sources_blessed = gf.class.crate_dir.as_deref() == Some("bench");
        let toks = &gf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Some(fn_idx) = gf.parsed.owner.get(i).copied().flatten() else { continue };
            let Some(&sym) = sym_of.get(&(file_idx, fn_idx)) else { continue };
            let fx = &mut facts[sym];

            if t.tok == Tok::Punct(b'[') && i > 0 {
                let indexes = match &toks[i - 1].tok {
                    Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    Tok::Punct(b')') | Tok::Punct(b']') => true,
                    _ => false,
                };
                if indexes {
                    fx.panics.push(Site {
                        line: t.line,
                        desc: "slice/array indexing".into(),
                        lexical_rule: Some("panic::slice-index"),
                    });
                }
                continue;
            }
            let Tok::Ident(id) = &t.tok else { continue };

            // --- panic sites ---
            match id.as_str() {
                "unwrap" if method_call(toks, i) => fx.panics.push(Site {
                    line: t.line,
                    desc: "`.unwrap()`".into(),
                    lexical_rule: Some("panic::unwrap"),
                }),
                "expect" if method_call(toks, i) => fx.panics.push(Site {
                    line: t.line,
                    desc: "`.expect()`".into(),
                    lexical_rule: Some("panic::expect"),
                }),
                "panic" | "todo" | "unimplemented" | "unreachable"
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'!'))) =>
                {
                    fx.panics.push(Site {
                        line: t.line,
                        desc: format!("`{id}!`"),
                        lexical_rule: Some("panic::panic-macro"),
                    })
                }
                _ => {}
            }

            // --- nondeterminism sources ---
            if !sources_blessed {
                if HASH_IDENTS.contains(&id.as_str()) {
                    fx.sources.push(Site {
                        line: t.line,
                        desc: format!("hash-ordered iteration (`{id}`)"),
                        lexical_rule: Some("determinism::hash-collection"),
                    });
                }
                if (id == "Instant" || id == "SystemTime") && path_call(toks, i, "now") {
                    fx.sources.push(Site {
                        line: t.line,
                        desc: format!("wall clock (`{id}::now`)"),
                        lexical_rule: Some("determinism::wall-clock"),
                    });
                }
                if ENTROPY_IDENTS.contains(&id.as_str()) {
                    fx.sources.push(Site {
                        line: t.line,
                        desc: format!("ambient entropy (`{id}`)"),
                        lexical_rule: Some("determinism::ambient-entropy"),
                    });
                }
                if id == "thread" && path_call(toks, i, "current") {
                    fx.sources.push(Site {
                        line: t.line,
                        desc: "thread identity (`thread::current`)".into(),
                        lexical_rule: Some("determinism::ambient-entropy"),
                    });
                }
                if id == "env"
                    && (path_call(toks, i, "var")
                        || path_call(toks, i, "var_os")
                        || path_call(toks, i, "vars"))
                {
                    fx.sources.push(Site {
                        line: t.line,
                        desc: "environment read (`env::var`)".into(),
                        lexical_rule: Some("determinism::env-read"),
                    });
                }
            }

            // --- I/O effects ---
            for (ty, methods) in EFFECT_TYPE_CALLS {
                if id == ty && methods.iter().any(|m| path_call(toks, i, m)) {
                    fx.effects.push(Site {
                        line: t.line,
                        desc: format!("`{ty}::…`"),
                        lexical_rule: None,
                    });
                }
            }
            if id == "fs"
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::ColonColon))
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(b'(')))
            {
                if let Some(Tok::Ident(name)) = toks.get(i + 2).map(|t| &t.tok) {
                    fx.effects.push(Site {
                        line: t.line,
                        desc: format!("`fs::{name}`"),
                        lexical_rule: None,
                    });
                }
            }
            if id == "io"
                && (path_call(toks, i, "stdin")
                    || path_call(toks, i, "stdout")
                    || path_call(toks, i, "stderr"))
            {
                fx.effects.push(Site {
                    line: t.line,
                    desc: "`io::std{in,out,err}`".into(),
                    lexical_rule: None,
                });
            }
            if matches!(id.as_str(), "print" | "println" | "eprint" | "eprintln")
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'!')))
            {
                fx.effects.push(Site {
                    line: t.line,
                    desc: format!("`{id}!`"),
                    lexical_rule: None,
                });
            }
        }
    }
    facts
}

/// Waives a violating site when a matching allow exists in its file:
/// first the semantic rule (recorded as suppressed), then the lexical
/// twin (already recorded by the lexical pass; just marked used).
fn waive_site(
    rule: &'static str,
    site: &Site,
    file: &str,
    file_allows: &mut [Allow],
    out: &mut SemanticOutcome,
) -> bool {
    if let Some(a) = file_allows.iter_mut().find(|a| a.matches(rule, site.line)) {
        a.used = true;
        out.suppressed.push(Suppressed {
            rule,
            file: file.to_string(),
            line: site.line,
            justification: a.justification.clone().unwrap_or_default(),
        });
        return true;
    }
    if let Some(lex) = site.lexical_rule {
        if let Some(a) = file_allows.iter_mut().find(|a| a.matches(lex, site.line)) {
            a.used = true;
            return true;
        }
    }
    false
}

/// Checks a traversal edge against the caller-file allows; a match cuts
/// the edge (and is recorded once per site as suppressed).
fn edge_allowed(
    rule: &'static str,
    caller_file_idx: usize,
    caller_file: &str,
    line: u32,
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) -> bool {
    let Some(a) = allows[caller_file_idx].iter_mut().find(|a| a.matches(rule, line)) else {
        return false;
    };
    a.used = true;
    let rec = Suppressed {
        rule,
        file: caller_file.to_string(),
        line,
        justification: a.justification.clone().unwrap_or_default(),
    };
    if !out
        .suppressed
        .iter()
        .any(|s| s.rule == rec.rule && s.file == rec.file && s.line == rec.line)
    {
        out.suppressed.push(rec);
    }
    true
}

/// Forward BFS from `roots`, honoring per-edge allows for `rule`.
/// Returns (visited, parent) where `parent[s] = (predecessor, call line)`.
fn bfs(
    graph: &CallGraph,
    roots: &[usize],
    rule: &'static str,
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) -> (Vec<bool>, Vec<Option<(usize, u32)>>) {
    let n = graph.symbols.len();
    let mut visited = vec![false; n];
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
    for &r in roots {
        visited[r] = true;
    }
    while let Some(u) = queue.pop_front() {
        let caller = &graph.symbols[u];
        for &ei in &graph.out_edges[u] {
            let e = graph.edges[ei];
            if visited[e.callee] {
                continue;
            }
            if edge_allowed(rule, caller.file_idx, &caller.file, e.line, allows, out) {
                continue;
            }
            visited[e.callee] = true;
            parent[e.callee] = Some((u, e.line));
            queue.push_back(e.callee);
        }
    }
    (visited, parent)
}

/// Reconstructs the evidence chain from a BFS root down to `sym`:
/// the root's definition site first, then each callee with the call-site
/// line in its caller's file.
fn chain_to(graph: &CallGraph, parent: &[Option<(usize, u32)>], sym: usize) -> Vec<ChainStep> {
    let mut rev = Vec::new();
    let mut cur = sym;
    while let Some((prev, line)) = parent[cur] {
        rev.push(ChainStep {
            qual: graph.symbols[cur].qual.clone(),
            file: graph.symbols[prev].file.clone(),
            line,
        });
        cur = prev;
    }
    let root = &graph.symbols[cur];
    rev.push(ChainStep { qual: root.qual.clone(), file: root.file.clone(), line: root.line });
    rev.reverse();
    rev
}

/// Pass 1: panic-reachability from `lint:entry(hot-path)` roots.
fn panic_pass(
    _files: &[GraphFile],
    graph: &CallGraph,
    facts: &[Facts],
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) {
    const RULE: &str = "semantic::panic-reachable";
    let roots: Vec<usize> = (0..graph.symbols.len())
        .filter(|&i| graph.symbols[i].tags.contains(&FnTag::HotPathEntry))
        .collect();
    let (visited, parent) = bfs(graph, &roots, RULE, allows, out);
    for (s, fx) in facts.iter().enumerate() {
        if !visited[s] || fx.panics.is_empty() {
            continue;
        }
        let sym = &graph.symbols[s];
        let chain = chain_to(graph, &parent, s);
        let entry = &chain[0].qual;
        for site in &fx.panics {
            if waive_site(RULE, site, &sym.file, &mut allows[sym.file_idx], out) {
                continue;
            }
            out.findings.push(Finding {
                rule: RULE,
                file: sym.file.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}` is reachable from hot-path entry `{entry}` ({} call{} deep) \
                     — return a typed error instead",
                    site.desc,
                    sym.qual,
                    chain.len() - 1,
                    if chain.len() == 2 { "" } else { "s" },
                ),
                chain: chain.clone(),
            });
        }
    }
}

/// Pass 2: determinism taint — one BFS per `lint:sink(determinism)`
/// root, so every finding names the sink it poisons.
fn taint_pass(
    _files: &[GraphFile],
    graph: &CallGraph,
    facts: &[Facts],
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) {
    const RULE: &str = "semantic::taint-flow";
    let sinks: Vec<usize> = (0..graph.symbols.len())
        .filter(|&i| graph.symbols[i].tags.contains(&FnTag::DeterminismSink))
        .collect();
    for snk in sinks {
        let sink_qual = graph.symbols[snk].qual.clone();
        let (visited, parent) = bfs(graph, &[snk], RULE, allows, out);
        for (s, fx) in facts.iter().enumerate() {
            if !visited[s] || fx.sources.is_empty() {
                continue;
            }
            let sym = &graph.symbols[s];
            let chain = chain_to(graph, &parent, s);
            for site in &fx.sources {
                if waive_site(RULE, site, &sym.file, &mut allows[sym.file_idx], out) {
                    continue;
                }
                out.findings.push(Finding {
                    rule: RULE,
                    file: sym.file.clone(),
                    line: site.line,
                    message: format!(
                        "{} in `{}` taints result-bearing sink `{sink_qual}` — route it \
                         through the engine seed path or drop it",
                        site.desc, sym.qual,
                    ),
                    chain: chain.clone(),
                });
            }
        }
    }
}

/// True when every file of `crate_dir` may hold direct effects.
fn effect_crate(crate_dir: &str) -> bool {
    EFFECT_CRATES.contains(&crate_dir)
}

/// True when `file`/`crate_dir` sanctions direct effect sites.
fn direct_effects_allowed(file: &str, crate_dir: &str) -> bool {
    DIRECT_EFFECT_ALLOWED.contains(&file) || effect_crate(crate_dir)
}

/// Pass 3: the purity wall.
fn purity_pass(
    _files: &[GraphFile],
    graph: &CallGraph,
    facts: &[Facts],
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) {
    const RULE: &str = "semantic::purity-wall";

    // (a) Direct effect sites outside the sanctioned files.
    for (s, fx) in facts.iter().enumerate() {
        let sym = &graph.symbols[s];
        if direct_effects_allowed(&sym.file, &sym.crate_dir) {
            continue;
        }
        for site in &fx.effects {
            if waive_site(RULE, site, &sym.file, &mut allows[sym.file_idx], out) {
                continue;
            }
            out.findings.push(Finding {
                rule: RULE,
                file: sym.file.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}` — I/O is confined to engine::checkpoint, engine::diag, \
                     and the bench/lint/daemon crates (daemon-readiness, DESIGN.md §15)",
                    site.desc, sym.qual,
                ),
                chain: vec![ChainStep {
                    qual: sym.qual.clone(),
                    file: sym.file.clone(),
                    line: sym.line,
                }],
            });
        }
    }

    // (b) The effectful closure: which symbols reach a *sanctioned*
    // effect site. Seeded only from sanctioned files so unsanctioned
    // direct sites (already findings above) don't cascade into every
    // ancestor. `witness[s]` records the next hop toward the effect.
    let n = graph.symbols.len();
    let mut effectful = vec![false; n];
    let mut witness: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for (s, fx) in facts.iter().enumerate() {
        let sym = &graph.symbols[s];
        if !fx.effects.is_empty() && direct_effects_allowed(&sym.file, &sym.crate_dir) {
            effectful[s] = true;
            queue.push_back(s);
        }
    }
    // Reverse propagation over the (forward) edge list: iterate until
    // fixed point, deterministically (edge order is canonical).
    while let Some(d) = queue.pop_front() {
        for e in graph.edges.iter().filter(|e| e.callee == d) {
            if effectful[e.caller] {
                continue;
            }
            let caller = &graph.symbols[e.caller];
            if edge_allowed(RULE, caller.file_idx, &caller.file, e.line, allows, out) {
                continue;
            }
            effectful[e.caller] = true;
            witness[e.caller] = Some((d, e.line));
            queue.push_back(e.caller);
        }
    }

    // (c) Crossing edges: a sim crate calling an effectful function in
    // the sanctioned region. Reported once, at the wall.
    for e in &graph.edges {
        let c = &graph.symbols[e.caller];
        let d = &graph.symbols[e.callee];
        if EFFECT_REACH_CRATES.contains(&c.crate_dir.as_str())
            || !EFFECT_REACH_CRATES.contains(&d.crate_dir.as_str())
            || !effectful[e.callee]
        {
            continue;
        }
        if edge_allowed(RULE, c.file_idx, &c.file, e.line, allows, out) {
            continue;
        }
        // Follow the witness chain from the callee down to the effect.
        let mut chain =
            vec![ChainStep { qual: d.qual.clone(), file: c.file.clone(), line: e.line }];
        let mut cur = e.callee;
        while let Some((next, line)) = witness[cur] {
            chain.push(ChainStep {
                qual: graph.symbols[next].qual.clone(),
                file: graph.symbols[cur].file.clone(),
                line,
            });
            cur = next;
        }
        let effect = facts[cur].effects.first();
        let effect_desc = effect.map(|s| s.desc.clone()).unwrap_or_else(|| "I/O".into());
        out.findings.push(Finding {
            rule: RULE,
            file: c.file.clone(),
            line: e.line,
            message: format!(
                "sim crate `{}` calls `{}`, which reaches {effect_desc} — I/O stays behind \
                 the engine wall so the daemon split can isolate it",
                c.crate_dir, d.qual,
            ),
            chain,
        });
    }
}
