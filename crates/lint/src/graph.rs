//! The workspace symbol table and call graph.
//!
//! Symbols are the non-test functions of every `Role::Src` file; edges
//! are syntactic call sites resolved through module paths, `use`
//! imports, and impl-type matching. Resolution is deliberately
//! **over-approximate**: a method call `.merge(` links to *every*
//! workspace method named `merge`, because without type inference the
//! honest static answer is "any of them" — the transitive passes
//! (DESIGN.md §15) need no false negatives, and a spurious edge can
//! always be cut with a justified per-edge `lint:allow`. Calls that
//! resolve to nothing (std and shim functions, macros, tuple-struct
//! constructors) produce no edge.
//!
//! Everything is ordered: symbols by (file, line), edges by
//! (caller, callee, line), so the DOT dump and every pass over the graph
//! is byte-stable across runs and machines.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, Tok};
use crate::parse::{ParsedFile, KEYWORDS};
use crate::rules::FileClass;

/// One analyzed source file, bundled for graph construction.
pub struct GraphFile {
    /// Classification (path, crate, role).
    pub class: FileClass,
    /// Its token stream.
    pub lexed: Lexed,
    /// Its parsed item structure.
    pub parsed: ParsedFile,
}

/// A workspace function.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Index of the defining file in the graph's file list.
    pub file_idx: usize,
    /// Index of the function in that file's `ParsedFile::fns`.
    pub fn_idx: usize,
    /// The `crates/<dir>` crate.
    pub crate_dir: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Display path: `crate::module::Type::name`.
    pub qual: String,
    /// Bare function name.
    pub name: String,
    /// Impl/trait type, if a method.
    pub self_ty: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// True when tagged `lint:entry(hot-path)`.
    pub hot_path_entry: bool,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Calling symbol.
    pub caller: usize,
    /// Called symbol.
    pub callee: usize,
    /// 1-indexed line of the call site (in the caller's file).
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions of all Src files, ordered by (file, line).
    pub symbols: Vec<Symbol>,
    /// All resolved edges, ordered by (caller, callee, line), deduped on
    /// (caller, callee) keeping the smallest line.
    pub edges: Vec<Edge>,
    /// Adjacency: for each symbol, indices into `edges` where it is the
    /// caller.
    pub out_edges: Vec<Vec<usize>>,
}

/// Maps an extern lib name used in `use` paths (`lookaside`,
/// `lookaside_engine`, …) back to its `crates/<dir>` directory.
fn crate_of_lib(lib: &str) -> Option<String> {
    if lib == "lookaside" {
        return Some("core".to_string());
    }
    lib.strip_prefix("lookaside_").map(|d| d.to_string())
}

impl CallGraph {
    /// Builds the graph over `files`. Only `Role::Src` files contribute
    /// symbols and edges; functions inside test regions are skipped.
    pub fn build(files: &[GraphFile]) -> CallGraph {
        let mut g = CallGraph::default();

        // Pass 1: symbols.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (file_idx, gf) in files.iter().enumerate() {
            let Some(crate_dir) = gf.class.src_crate() else { continue };
            for (fn_idx, f) in gf.parsed.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let mut qual = crate_dir.to_string();
                for m in &f.module {
                    qual.push_str("::");
                    qual.push_str(m);
                }
                if let Some(ty) = &f.self_ty {
                    qual.push_str("::");
                    qual.push_str(ty);
                }
                qual.push_str("::");
                qual.push_str(&f.name);
                g.symbols.push(Symbol {
                    file_idx,
                    fn_idx,
                    crate_dir: crate_dir.to_string(),
                    file: gf.class.rel_path.clone(),
                    qual,
                    name: f.name.clone(),
                    self_ty: f.self_ty.clone(),
                    line: f.line,
                    hot_path_entry: f.hot_path_entry,
                });
            }
        }
        for (i, s) in g.symbols.iter().enumerate() {
            by_name.entry(s.name.as_str()).or_default().push(i);
        }

        // Pass 2: edges.
        let mut edge_set: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        for (file_idx, gf) in files.iter().enumerate() {
            if gf.class.src_crate().is_none() {
                continue;
            }
            let sym_of_fn: BTreeMap<usize, usize> = g
                .symbols
                .iter()
                .enumerate()
                .filter(|(_, s)| s.file_idx == file_idx)
                .map(|(i, s)| (s.fn_idx, i))
                .collect();
            for call in extract_calls(&gf.lexed, &gf.parsed) {
                let Some(&caller) = sym_of_fn.get(&call.owner) else { continue };
                let callees = g.resolve(&by_name, caller, gf, &call);
                for callee in callees {
                    edge_set
                        .entry((caller, callee))
                        .and_modify(|l| *l = (*l).min(call.line))
                        .or_insert(call.line);
                }
            }
        }
        g.edges = edge_set
            .into_iter()
            .map(|((caller, callee), line)| Edge { caller, callee, line })
            .collect();
        g.out_edges = vec![Vec::new(); g.symbols.len()];
        for (ei, e) in g.edges.iter().enumerate() {
            g.out_edges[e.caller].push(ei);
        }
        g
    }

    /// Resolves one call site to candidate symbol indices.
    fn resolve(
        &self,
        by_name: &BTreeMap<&str, Vec<usize>>,
        caller: usize,
        gf: &GraphFile,
        call: &CallSite,
    ) -> Vec<usize> {
        let caller_sym = &self.symbols[caller];
        match &call.kind {
            CallKind::Method(name) => {
                // Any workspace method with this name (see module docs).
                by_name
                    .get(name.as_str())
                    .map(|c| {
                        c.iter().filter(|&&i| self.symbols[i].self_ty.is_some()).copied().collect()
                    })
                    .unwrap_or_default()
            }
            CallKind::Path(segments) => self.resolve_path(by_name, caller_sym, gf, segments, true),
        }
    }

    /// Resolves a path call; `follow_uses` bounds the one level of
    /// import expansion.
    fn resolve_path(
        &self,
        by_name: &BTreeMap<&str, Vec<usize>>,
        caller: &Symbol,
        gf: &GraphFile,
        segments: &[String],
        follow_uses: bool,
    ) -> Vec<usize> {
        let Some(name) = segments.last() else { return Vec::new() };
        let candidates = |pred: &dyn Fn(&Symbol) -> bool| -> Vec<usize> {
            by_name
                .get(name.as_str())
                .map(|c| c.iter().filter(|&&i| pred(&self.symbols[i])).copied().collect())
                .unwrap_or_default()
        };
        if segments.len() == 1 {
            // Bare call: same file first, then an import, then same crate.
            let same_file = candidates(&|s| s.file == caller.file && s.self_ty.is_none());
            if !same_file.is_empty() {
                return same_file;
            }
            if follow_uses {
                if let Some(u) = gf.parsed.uses.iter().find(|u| &u.name == name) {
                    let hit = self.resolve_path(by_name, caller, gf, &u.path, false);
                    if !hit.is_empty() {
                        return hit;
                    }
                }
            }
            return candidates(&|s| s.crate_dir == caller.crate_dir && s.self_ty.is_none());
        }

        let first = segments[0].as_str();
        if matches!(first, "std" | "core" | "alloc") {
            return Vec::new(); // external
        }
        if first == "Self" {
            let ty = caller.self_ty.clone();
            return candidates(&|s| s.crate_dir == caller.crate_dir && s.self_ty == ty);
        }
        // Expand a leading import alias once: `checkpoint::append(` with
        // `use lookaside_engine::checkpoint;` in scope.
        if follow_uses {
            if let Some(u) = gf.parsed.uses.iter().find(|u| u.name == first) {
                let mut full = u.path.clone();
                full.extend(segments[1..].iter().cloned());
                return self.resolve_path(by_name, caller, gf, &full, false);
            }
        }
        // Determine the target crate, if the path names one.
        let (target_crate, rest) = if matches!(first, "crate" | "self" | "super") {
            let skip = segments
                .iter()
                .take_while(|s| matches!(s.as_str(), "crate" | "self" | "super"))
                .count();
            (Some(caller.crate_dir.clone()), &segments[skip..])
        } else if let Some(dir) = crate_of_lib(first) {
            (Some(dir), &segments[1..])
        } else {
            (None, segments)
        };
        let Some(name) = rest.last() else { return Vec::new() };
        // `..::Type::name` pins the impl type when the penultimate
        // segment is capitalized.
        let ty_constraint = rest
            .len()
            .checked_sub(2)
            .map(|p| rest[p].clone())
            .filter(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
        let matches_sym = |s: &Symbol| {
            if s.name != *name {
                return false;
            }
            if let Some(c) = &target_crate {
                if &s.crate_dir != c {
                    return false;
                }
            }
            match &ty_constraint {
                Some(t) => s.self_ty.as_deref() == Some(t.as_str()),
                None => true,
            }
        };
        let scoped: Vec<usize> = by_name
            .get(name.as_str())
            .map(|c| c.iter().filter(|&&i| matches_sym(&self.symbols[i])).copied().collect())
            .unwrap_or_default();
        if !scoped.is_empty() || target_crate.is_some() {
            return scoped;
        }
        // Unscoped path (`module::name` without an import): same crate,
        // then the type-constrained workspace match.
        let same_crate = candidates(&|s| s.crate_dir == caller.crate_dir && matches_sym(s));
        if !same_crate.is_empty() {
            return same_crate;
        }
        if ty_constraint.is_some() {
            return candidates(&matches_sym);
        }
        Vec::new()
    }

    /// Renders the graph as deterministic DOT: nodes are `qual` names
    /// (entries doubled-circled), edges in caller/callee order. Isolated
    /// untagged symbols are omitted to keep the dump readable.
    pub fn render_dot(&self) -> String {
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for e in &self.edges {
            used.insert(e.caller);
            used.insert(e.callee);
        }
        for (i, s) in self.symbols.iter().enumerate() {
            if s.hot_path_entry {
                used.insert(i);
            }
        }
        let mut out =
            String::from("digraph lookaside_calls {\n  rankdir=LR;\n  node [fontsize=10];\n");
        for &i in &used {
            let s = &self.symbols[i];
            let shape = if s.hot_path_entry { "doublecircle" } else { "ellipse" };
            out.push_str(&format!(
                "  \"{}\" [shape={shape}, tooltip=\"{}:{}\"];\n",
                s.qual, s.file, s.line
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [tooltip=\"{}:{}\"];\n",
                self.symbols[e.caller].qual,
                self.symbols[e.callee].qual,
                self.symbols[e.caller].file,
                e.line
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// What a call site syntactically names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(` — method call.
    Method(String),
    /// `a::b::name(` or `name(` — path call.
    Path(Vec<String>),
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Owning function (index into the file's `ParsedFile::fns`).
    pub owner: usize,
    /// 1-indexed line.
    pub line: u32,
    /// Shape of the call.
    pub kind: CallKind,
}

/// Extracts syntactic call sites from a lexed file, attributed to their
/// innermost owning function via [`ParsedFile::owner`].
pub fn extract_calls(lexed: &Lexed, parsed: &ParsedFile) -> Vec<CallSite> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Some(owner) = parsed.owner.get(i).copied().flatten() else {
            i += 1;
            continue;
        };
        if toks[i].in_test {
            i += 1;
            continue;
        }
        // Method call: `.name(`
        if toks[i].tok == Tok::Punct(b'.') {
            if let (Some(Tok::Ident(name)), Some(Tok::Punct(b'('))) =
                (toks.get(i + 1).map(|t| &t.tok), toks.get(i + 2).map(|t| &t.tok))
            {
                if !KEYWORDS.contains(&name.as_str()) {
                    out.push(CallSite {
                        owner,
                        line: toks[i + 1].line,
                        kind: CallKind::Method(name.clone()),
                    });
                }
                i += 3;
                continue;
            }
            i += 1;
            continue;
        }
        // Path call: `seg(::seg)*(` — must start a path (previous token
        // is not `::` or `.`).
        if let Tok::Ident(first) = &toks[i].tok {
            let starts_path =
                i == 0 || !matches!(toks[i - 1].tok, Tok::ColonColon | Tok::Punct(b'.'));
            if starts_path && !KEYWORDS.contains(&first.as_str()) {
                let mut segs = vec![first.clone()];
                let mut j = i + 1;
                loop {
                    match (toks.get(j).map(|t| &t.tok), toks.get(j + 1).map(|t| &t.tok)) {
                        (Some(Tok::ColonColon), Some(Tok::Ident(s))) => {
                            segs.push(s.clone());
                            j += 2;
                        }
                        // Turbofish `::<T>::` — skip the generic args.
                        (Some(Tok::ColonColon), Some(Tok::Punct(b'<'))) => {
                            let mut depth = 0i32;
                            let mut k = j + 1;
                            while k < toks.len() {
                                match toks[k].tok {
                                    Tok::Punct(b'<') => depth += 1,
                                    Tok::Punct(b'>') => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                            j = k + 1;
                        }
                        _ => break,
                    }
                }
                let is_call = matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct(b'(')));
                let is_macro = matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct(b'!')));
                if is_call && !is_macro {
                    out.push(CallSite { owner, line: toks[i].line, kind: CallKind::Path(segs) });
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::FileClass;

    fn gf(path: &str, src: &str) -> GraphFile {
        let class = FileClass::classify(path).expect("classifiable");
        let lexed = lex(src);
        let parsed = crate::parse::parse(&lexed);
        GraphFile { class, lexed, parsed }
    }

    #[test]
    fn same_file_calls_resolve() {
        let g = CallGraph::build(&[gf(
            "crates/core/src/a.rs",
            "fn top() { helper(); } fn helper() {}",
        )]);
        assert_eq!(g.symbols.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.symbols[g.edges[0].caller].name, "top");
        assert_eq!(g.symbols[g.edges[0].callee].name, "helper");
    }

    #[test]
    fn cross_crate_calls_resolve_through_use() {
        let files = [
            gf("crates/core/src/a.rs", "use lookaside_engine::run_fold;\nfn go() { run_fold(); }"),
            gf("crates/engine/src/fold.rs", "pub fn run_fold() {}"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.symbols[g.edges[0].callee].crate_dir, "engine");
    }

    #[test]
    fn method_calls_link_to_all_impls() {
        let files = [
            gf("crates/core/src/a.rs", "fn go(x: Thing) { x.merge(); }"),
            gf("crates/netsim/src/b.rs", "impl Capture { pub fn merge(&mut self) {} }"),
            gf("crates/resolver/src/c.rs", "impl Counters { pub fn merge(&mut self) {} }"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 2, "over-approximate: both merge impls linked");
    }

    #[test]
    fn type_qualified_calls_pin_the_impl() {
        let files = [
            gf("crates/core/src/a.rs", "fn go() { Worker::replica(); }"),
            gf("crates/core/src/b.rs", "impl Worker { pub fn replica() {} }"),
            gf("crates/core/src/c.rs", "impl Other { pub fn replica() {} }"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.symbols[g.edges[0].callee].self_ty.as_deref(), Some("Worker"));
    }

    #[test]
    fn std_paths_and_macros_produce_no_edges() {
        let g = CallGraph::build(&[gf(
            "crates/core/src/a.rs",
            "fn go() { std::mem::swap(); vec![1]; println!(\"x\"); }",
        )]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn test_functions_are_not_symbols() {
        let g = CallGraph::build(&[gf(
            "crates/core/src/a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { live(); } }",
        )]);
        assert_eq!(g.symbols.len(), 1);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn dot_render_is_stable_and_marks_tags() {
        let files = [gf(
            "crates/resolver/src/a.rs",
            "// lint:entry(hot-path)\nfn hot() { helper(); }\nfn helper() {}",
        )];
        let g = CallGraph::build(&files);
        let dot = g.render_dot();
        assert_eq!(dot, g.render_dot());
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("\"resolver::hot\" -> \"resolver::helper\""));
    }
}
