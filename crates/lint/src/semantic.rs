//! The two transitive passes over the workspace call graph (DESIGN.md
//! §15): panic-reachability and the purity wall. Each pass walks
//! [`crate::graph::CallGraph`] edges, carries the full call chain as
//! finding evidence, and honors per-edge / per-site suppressions:
//!
//! * a `lint:allow(semantic::<pass>)` on a **call-site** line cuts that
//!   edge for the pass — the traversal simply does not cross it, so an
//!   allow on an edge the pass never reaches is flagged `allow::unused`
//!   (that is how stale suppressions die);
//! * a `lint:allow(semantic::<pass>)` on a **violating-site** line waives
//!   that one site.
//!
//! Pass semantics:
//!
//! 1. **panic-reachability** — no function reachable from a
//!    `lint:entry(hot-path)` root may contain `unwrap`/`expect`/
//!    `panic!`-family macros/indexing. The traversal crosses every crate
//!    but reports sites only outside [`crate::rules::HOT_PATH`]: there,
//!    clippy denies every unwrap, expect and panic-family macro and
//!    `panic::slice-index` every index, reachable or not.
//! 2. **purity wall** — `std::{fs,io,net}` effects are confined to
//!    [`DIRECT_EFFECT_ALLOWED`] files and [`EFFECT_CRATES`]; only
//!    [`EFFECT_REACH_CRATES`] may *call into* functions that reach those
//!    effects. This keeps the sim crates (resolver, netsim, wire, zone,
//!    population, workload, server) free of I/O, so they could be split
//!    out behind an IPC boundary without dragging file handles and
//!    sockets along.
//!
//! Findings stay *at the wall*: a purity violation is reported at the
//! direct effect site (outside the sanctioned files) or at the single
//! crossing edge where a sim crate first calls into effectful code —
//! never cascaded up through every ancestor.

use std::collections::BTreeMap;

use crate::graph::{CallGraph, GraphFile};
use crate::lexer::Tok;
use crate::report::{ChainStep, Finding, Suppressed};
use crate::rules::{indexes, method_call, path_call, Allow, Role, HOT_PATH};

/// Files where direct `std::{fs,io,net}` effects are sanctioned: journal
/// persistence and the stderr diagnostics sink.
pub const DIRECT_EFFECT_ALLOWED: &[&str] =
    &["crates/engine/src/checkpoint.rs", "crates/engine/src/diag.rs"];

/// Crates that are tooling/drivers rather than simulation: every file in
/// them may perform effects directly (`bench` owns the `repro` binary,
/// `lint` is this analyzer).
pub const EFFECT_CRATES: &[&str] = &["bench", "lint"];

/// Crates allowed to *call into* effectful functions (the orchestration
/// layer plus the effect crates themselves). Everything else — the sim
/// crates — must stay transitively effect-free.
pub const EFFECT_REACH_CRATES: &[&str] = &["core", "engine", "bench", "lint"];

/// One extracted fact site inside a symbol's body.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    /// What the site does, for messages (e.g. "`.unwrap()`").
    desc: String,
}

/// Per-symbol facts feeding the passes.
#[derive(Debug, Default)]
struct Facts {
    panics: Vec<Site>,
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

/// Runs both passes. `allows` is parallel to `files`; used allows are
/// marked so the caller's stale-suppression check sees them.
pub(crate) fn run(
    files: &[GraphFile],
    graph: &CallGraph,
    allows: &mut [Vec<Allow>],
) -> SemanticOutcome {
    let facts = extract_facts(files, graph);
    let mut out = SemanticOutcome::default();
    panic_pass(graph, &facts, allows, &mut out);
    purity_pass(graph, &facts, allows, &mut out);
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

/// Walks every Src file's tokens once, attributing panic sites and I/O
/// effects to their owning symbol via the parser's owner map.
fn extract_facts(files: &[GraphFile], graph: &CallGraph) -> Vec<Facts> {
    let mut facts: Vec<Facts> = (0..graph.symbols.len()).map(|_| Facts::default()).collect();
    let sym_of: BTreeMap<(usize, usize), usize> =
        graph.symbols.iter().enumerate().map(|(i, s)| ((s.file_idx, s.fn_idx), i)).collect();

    for (file_idx, gf) in files.iter().enumerate() {
        if gf.class.role != Role::Src {
            continue;
        }
        let toks = &gf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Some(fn_idx) = gf.parsed.owner.get(i).copied().flatten() else { continue };
            let Some(&sym) = sym_of.get(&(file_idx, fn_idx)) else { continue };
            let fx = &mut facts[sym];

            if indexes(toks, i) {
                fx.panics.push(Site { line: t.line, desc: "slice/array indexing".into() });
                continue;
            }
            let Tok::Ident(id) = &t.tok else { continue };

            // --- panic sites ---
            match id.as_str() {
                "unwrap" if method_call(toks, i) => {
                    fx.panics.push(Site { line: t.line, desc: "`.unwrap()`".into() })
                }
                "expect" if method_call(toks, i) => {
                    fx.panics.push(Site { line: t.line, desc: "`.expect()`".into() })
                }
                "panic" | "todo" | "unimplemented" | "unreachable"
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'!'))) =>
                {
                    fx.panics.push(Site { line: t.line, desc: format!("`{id}!`") })
                }
                _ => {}
            }

            // --- I/O effects ---
            for (ty, methods) in EFFECT_TYPE_CALLS {
                if id == ty && methods.iter().any(|m| path_call(toks, i, m)) {
                    fx.effects.push(Site { line: t.line, desc: format!("`{ty}::…`") });
                }
            }
            if id == "fs"
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::ColonColon))
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(b'(')))
            {
                if let Some(Tok::Ident(name)) = toks.get(i + 2).map(|t| &t.tok) {
                    fx.effects.push(Site { line: t.line, desc: format!("`fs::{name}`") });
                }
            }
            if id == "io"
                && (path_call(toks, i, "stdin")
                    || path_call(toks, i, "stdout")
                    || path_call(toks, i, "stderr"))
            {
                fx.effects.push(Site { line: t.line, desc: "`io::std{in,out,err}`".into() });
            }
            if matches!(id.as_str(), "print" | "println" | "eprint" | "eprintln")
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(b'!')))
            {
                fx.effects.push(Site { line: t.line, desc: format!("`{id}!`") });
            }
        }
    }
    facts
}

/// Checks a call edge (in the caller's file) or a violating site against
/// that file's allows; a match cuts the edge or waives the site, and is
/// recorded once per line as suppressed.
fn allowed(
    rule: &'static str,
    file_idx: usize,
    file: &str,
    line: u32,
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) -> bool {
    let Some(a) = allows[file_idx].iter_mut().find(|a| a.matches(rule, line)) else {
        return false;
    };
    a.used = true;
    let rec = Suppressed {
        rule,
        file: file.to_string(),
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
            if allowed(rule, caller.file_idx, &caller.file, e.line, allows, out) {
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

/// Pass 1: panic-reachability from `lint:entry(hot-path)` roots,
/// reported outside the [`HOT_PATH`] crates.
fn panic_pass(
    graph: &CallGraph,
    facts: &[Facts],
    allows: &mut [Vec<Allow>],
    out: &mut SemanticOutcome,
) {
    const RULE: &str = "semantic::panic-reachable";
    let roots: Vec<usize> =
        (0..graph.symbols.len()).filter(|&i| graph.symbols[i].hot_path_entry).collect();
    let (visited, parent) = bfs(graph, &roots, RULE, allows, out);
    for (s, fx) in facts.iter().enumerate() {
        let sym = &graph.symbols[s];
        if !visited[s] || fx.panics.is_empty() || HOT_PATH.contains(&sym.crate_dir.as_str()) {
            continue;
        }
        let chain = chain_to(graph, &parent, s);
        let entry = &chain[0].qual;
        for site in &fx.panics {
            if allowed(RULE, sym.file_idx, &sym.file, site.line, allows, out) {
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

/// True when `file`/`crate_dir` sanctions direct effect sites.
fn direct_effects_allowed(file: &str, crate_dir: &str) -> bool {
    DIRECT_EFFECT_ALLOWED.contains(&file) || EFFECT_CRATES.contains(&crate_dir)
}

/// Pass 2: the purity wall.
fn purity_pass(
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
            if allowed(RULE, sym.file_idx, &sym.file, site.line, allows, out) {
                continue;
            }
            out.findings.push(Finding {
                rule: RULE,
                file: sym.file.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}` — I/O is confined to engine::checkpoint, engine::diag, \
                     and the bench/lint crates (DESIGN.md §15)",
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
            if allowed(RULE, caller.file_idx, &caller.file, e.line, allows, out) {
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
        if allowed(RULE, c.file_idx, &c.file, e.line, allows, out) {
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
                 the engine wall",
                c.crate_dir, d.qual,
            ),
            chain,
        });
    }
}
