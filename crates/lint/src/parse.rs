//! A hand-rolled item parser over the lexer's token stream: functions,
//! impl/trait blocks, inline modules, and `use` declarations — just
//! enough structure for the workspace call graph, with no `syn` (the
//! build environment has no crates.io, same constraint as the lexer).
//!
//! The parser is a single forward walk with a scope stack. It never
//! needs full Rust syntax: item keywords (`mod`, `impl`, `trait`, `fn`,
//! `use`, `macro_rules`) are unambiguous in the token stream once
//! comments and literals are gone, and everything between them is
//! expression soup the walk simply attributes to the innermost enclosing
//! function. Each token is assigned an *owner* — the index of that
//! innermost function — so the fact extractors in [`crate::semantic`]
//! can attribute a panic site or an I/O call to exactly one symbol even
//! through closures and nested items.
//!
//! The lint knows two tags. `// lint:entry(hot-path)` attaches to the
//! next `fn` item that starts at or after the comment's line and roots
//! the panic-reachability pass (see DESIGN.md §15);
//! `// lint:stream-hot-path` opts a whole module into the
//! `stream::hot-path` rule. Any other `lint:` comment that is not an
//! allow is a [`TagProblem`], so a misspelt or retired tag cannot
//! silently do nothing.

use crate::lexer::{Comment, Lexed, Tok};

/// One name introduced by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name visible in this file (after any `as` rename).
    pub name: String,
    /// Full path segments, e.g. `["lookaside_engine", "checkpoint", "append"]`.
    pub path: Vec<String>,
}

/// The function tag rooting the panic-reachability pass.
pub(crate) const ENTRY_TAG: &str = "lint:entry(hot-path)";

/// The module tag opting a file into the `stream::hot-path` rule.
pub(crate) const STREAM_TAG: &str = "lint:stream-hot-path";

/// A parsed function (or trait-method declaration).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` type the function is attached to, if any.
    pub self_ty: Option<String>,
    /// Inline-module path inside this file (`mod a { mod b { .. } }` → `["a", "b"]`).
    pub module: Vec<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// True when the function sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Token-index range of the body, `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
    /// True when a `lint:entry(hot-path)` comment tags the function.
    pub hot_path_entry: bool,
}

/// A `lint:` comment that is neither a known tag nor an allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagProblem {
    /// 1-indexed comment line.
    pub line: u32,
    /// The unrecognized directive text.
    pub text: String,
}

/// Everything parsed out of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// `use` declarations, in source order.
    pub uses: Vec<UseDecl>,
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// For each token index, the innermost enclosing function (index into
    /// `fns`), or `None` at item level.
    pub owner: Vec<Option<usize>>,
    /// Unknown `lint:` directives.
    pub tag_problems: Vec<TagProblem>,
}

/// Keywords that can directly precede `(` or `{` without being calls or
/// item names; shared with the call extractor.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Parses a lexed file into its item structure.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile { owner: vec![None; toks.len()], ..ParsedFile::default() };

    // Pending entry tags attach to the next `fn` whose line is >= the tag's.
    let mut entries = parse_tags(&lexed.comments, &mut out.tag_problems);
    entries.reverse(); // pop from the back in ascending line order

    #[derive(Debug)]
    enum Scope {
        Mod(String),
        Impl(Option<String>),
        Fn(usize),
        Block,
    }
    let mut stack: Vec<Scope> = Vec::new();

    let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };

    // Brace index → scope to push when the walk reaches it.
    let mut pending: Vec<(usize, Scope)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        // Record ownership before any scope change at this token: the
        // braces themselves belong to the scope being opened/closed, which
        // is immaterial for fact extraction.
        if let Some(Scope::Fn(f)) = stack.iter().rev().find(|s| matches!(s, Scope::Fn(_))) {
            out.owner[i] = Some(*f);
        }
        match &toks[i].tok {
            Tok::Punct(b'{') => {
                let scope = match pending.iter().position(|(at, _)| *at == i) {
                    Some(p) => pending.swap_remove(p).1,
                    None => Scope::Block,
                };
                stack.push(scope);
                i += 1;
            }
            Tok::Punct(b'}') => {
                stack.pop();
                i += 1;
            }
            Tok::Ident(kw) if kw == "use" => {
                i = parse_use(toks, i + 1, &mut out.uses);
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name {` opens a module scope; `mod name;` is an
                // out-of-line module (its file is parsed separately).
                if let Some(name) = ident(i + 1) {
                    if matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(b'{'))) {
                        pending.push((i + 2, Scope::Mod(name.to_string())));
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                if let Some((brace, ty)) = impl_header(toks, i, kw == "trait") {
                    pending.push((brace, Scope::Impl(ty)));
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "macro_rules" => {
                // Token soup: skip the whole definition body.
                let mut j = i + 1;
                while j < toks.len() && toks[j].tok != Tok::Punct(b'{') {
                    j += 1;
                }
                i = if j < toks.len() { balanced_end(toks, j) + 1 } else { toks.len() };
            }
            Tok::Ident(kw) if kw == "fn" => {
                // `fn` + identifier is a function item; bare `fn` is a
                // function-pointer type (`fn(u8) -> u8`).
                let Some(name) = ident(i + 1) else {
                    i += 1;
                    continue;
                };
                let module: Vec<String> = stack
                    .iter()
                    .filter_map(|s| match s {
                        Scope::Mod(m) => Some(m.clone()),
                        _ => None,
                    })
                    .collect();
                let self_ty = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(t) => Some(t.clone()),
                    _ => None,
                });
                let line = toks[i].line;
                let mut hot_path_entry = false;
                while entries.last().is_some_and(|l| *l <= line) {
                    entries.pop();
                    hot_path_entry = true;
                }
                // The body opens at the first `{` after the signature (or
                // the item ends at `;` for trait declarations). Signatures
                // cannot contain braces, but array types (`[u8; 64]`)
                // nest semicolons inside brackets — only a depth-0 `;`
                // ends a body-less declaration.
                let mut j = i + 2;
                let mut body = None;
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Punct(b'(') | Tok::Punct(b'[') => depth += 1,
                        Tok::Punct(b')') | Tok::Punct(b']') => depth -= 1,
                        Tok::Punct(b'{') => {
                            body = Some((j + 1, balanced_end(toks, j)));
                            pending.push((j, Scope::Fn(out.fns.len())));
                            break;
                        }
                        Tok::Punct(b';') if depth <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.fns.push(FnItem {
                    name: name.to_string(),
                    self_ty: self_ty.flatten(),
                    module,
                    line,
                    in_test: toks[i].in_test,
                    body,
                    hot_path_entry,
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses the header of an `impl`/`trait` item starting at `kw`; returns
/// the index of the opening brace and the self type (the type after
/// `for` in `impl Trait for Type`, else the first type).
fn impl_header(
    toks: &[crate::lexer::Token],
    kw: usize,
    is_trait: bool,
) -> Option<(usize, Option<String>)> {
    let mut j = kw + 1;
    let mut angle = 0i32;
    let mut after_for = false;
    let mut in_where = false;
    let mut first_ty: Option<String> = None;
    let mut for_ty: Option<String> = None;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct(b'<') => angle += 1,
            Tok::Punct(b'>') => angle -= 1,
            Tok::Punct(b'{') if angle <= 0 => {
                let ty = if after_for { for_ty } else { first_ty };
                return Some((j, ty));
            }
            Tok::Punct(b';') if angle <= 0 => return None,
            Tok::Ident(s) if angle <= 0 && !in_where => {
                if s == "for" {
                    after_for = true;
                } else if s == "where" {
                    // The self type is settled before the where clause.
                    in_where = true;
                } else if after_for {
                    // Last path segment before `<`/`{`/`where` wins.
                    for_ty = Some(s.clone());
                } else if !is_trait || first_ty.is_none() {
                    first_ty = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `use` declaration starting just after the `use` keyword;
/// returns the index one past the terminating `;`. Handles paths,
/// `as` renames, and one level of `{a, b as c, d::e}` groups; glob
/// imports contribute nothing (the resolver falls back to name search).
fn parse_use(toks: &[crate::lexer::Token], start: usize, out: &mut Vec<UseDecl>) -> usize {
    // Collect tokens until `;`.
    let mut end = start;
    while end < toks.len() && toks[end].tok != Tok::Punct(b';') {
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    let mut i = start;
    // Leading `pub` etc. were consumed before `use`; path starts here.
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) => {
                if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::ColonColon) {
                    prefix.push(s.clone());
                    i += 2;
                } else {
                    // Terminal name, possibly renamed.
                    emit_use(&prefix, &toks[i..end], out);
                    return end + 1;
                }
            }
            Tok::Punct(b'{') => {
                // Group: split on commas at depth 1.
                let mut depth = 1;
                let mut item: Vec<&Tok> = Vec::new();
                let mut j = i + 1;
                while j < end && depth > 0 {
                    match &toks[j].tok {
                        Tok::Punct(b'{') => {
                            depth += 1;
                            item.push(&toks[j].tok);
                        }
                        Tok::Punct(b'}') => {
                            depth -= 1;
                            if depth > 0 {
                                item.push(&toks[j].tok);
                            }
                        }
                        Tok::Punct(b',') if depth == 1 => {
                            emit_group_item(&prefix, &item, out);
                            item.clear();
                        }
                        t => item.push(t),
                    }
                    j += 1;
                }
                emit_group_item(&prefix, &item, out);
                return end + 1;
            }
            _ => {
                // `*` glob or stray punctuation: nothing to bind.
                return end + 1;
            }
        }
    }
    end + 1
}

/// Emits the terminal of a simple `use a::b::name [as rename]`.
fn emit_use(prefix: &[String], tail: &[crate::lexer::Token], out: &mut Vec<UseDecl>) {
    let toks: Vec<&Tok> = tail.iter().map(|t| &t.tok).collect();
    emit_group_item(prefix, &toks, out);
}

/// Emits one group item (`name`, `name as rename`, `sub::path::name`,
/// or `self` meaning the prefix itself).
fn emit_group_item(prefix: &[String], item: &[&Tok], out: &mut Vec<UseDecl>) {
    let idents: Vec<&str> = item
        .iter()
        .filter_map(|t| match t {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    if idents.is_empty() {
        return;
    }
    let (path_part, mut name) = match idents.iter().position(|s| *s == "as") {
        Some(p) if p + 1 < idents.len() => (&idents[..p], idents[p + 1]),
        _ => (&idents[..], *idents.last().unwrap_or(&"")),
    };
    let mut path: Vec<String> = prefix.to_vec();
    if path_part == ["self"] {
        // `use a::b::{self}` binds `b` (or the rename) to the prefix.
        if name == "self" {
            name = prefix.last().map(String::as_str).unwrap_or("");
        }
    } else {
        path.extend(path_part.iter().map(|s| (*s).to_string()));
    }
    if name.is_empty() {
        return;
    }
    if path.is_empty() {
        return;
    }
    out.push(UseDecl { name: name.to_string(), path });
}

/// Index of the `}` matching the `{` at `open` (clamped on unbalanced
/// input).
fn balanced_end(toks: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Returns the lines of the `lint:entry(hot-path)` tags, recording every
/// other non-doc `lint:` comment that is neither [`STREAM_TAG`] nor an
/// allow (`lint:allow(`, `lint:allow-file(`) as a problem.
fn parse_tags(comments: &[Comment], problems: &mut Vec<TagProblem>) -> Vec<u32> {
    let mut entries = Vec::new();
    for c in comments.iter().filter(|c| !c.doc) {
        let text = c.text.trim();
        if text == ENTRY_TAG {
            entries.push(c.line);
        } else if text.starts_with("lint:")
            && text != STREAM_TAG
            && !text.starts_with("lint:allow(")
            && !text.starts_with("lint:allow-file(")
        {
            problems.push(TagProblem { line: c.line, text: text.to_string() });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn functions_modules_and_impls() {
        let src = r#"
            fn top() {}
            mod inner {
                impl Widget {
                    fn method(&self) {}
                }
                impl Display for Widget {
                    fn fmt(&self) {}
                }
                trait Run {
                    fn go(&self);
                    fn default_go(&self) { self.go() }
                }
            }
        "#;
        let p = parsed(src);
        let names: Vec<(String, Option<String>, Vec<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.self_ty.clone(), f.module.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("top".into(), None, vec![]),
                ("method".into(), Some("Widget".into()), vec!["inner".into()]),
                ("fmt".into(), Some("Widget".into()), vec!["inner".into()]),
                ("go".into(), Some("Run".into()), vec!["inner".into()]),
                ("default_go".into(), Some("Run".into()), vec!["inner".into()]),
            ]
        );
        assert!(p.fns[3].body.is_none(), "trait declaration has no body");
        assert!(p.fns[4].body.is_some());
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_item() {
        // `[u8; 64]` nests a `;` inside the parameter list and the return
        // type; the signature scan must not mistake it for a body-less
        // trait declaration, or the body's tokens lose their owner.
        let src = r#"
            impl Sha256 {
                fn compress(&mut self, block: &[u8; 64]) { chew(block) }
                fn finalize(self) -> [u8; 32] { digest() }
            }
            fn go(&self);
        "#;
        let p = parsed(src);
        assert!(p.fns[0].body.is_some(), "array param keeps the body");
        assert!(p.fns[1].body.is_some(), "array return keeps the body");
        assert!(p.fns[2].body.is_none(), "plain declaration stays body-less");
        let lexed = lex(src);
        let chew = lexed
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "chew"))
            .expect("chew token");
        assert_eq!(p.owner[chew], Some(0), "body tokens owned by compress");
    }

    #[test]
    fn owner_is_innermost_function() {
        let src = "fn outer() { helper(); fn nested() { deep(); } tail(); }";
        let p = parsed(src);
        let lexed = lex(src);
        let find = |name: &str| {
            lexed
                .tokens
                .iter()
                .position(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
                .expect("token present")
        };
        let outer = p.fns.iter().position(|f| f.name == "outer").expect("outer");
        let nested = p.fns.iter().position(|f| f.name == "nested").expect("nested");
        assert_eq!(p.owner[find("helper")], Some(outer));
        assert_eq!(p.owner[find("deep")], Some(nested));
        assert_eq!(p.owner[find("tail")], Some(outer));
    }

    #[test]
    fn use_declarations_flatten_groups_and_renames() {
        let src = "use a::b::c;\nuse x::{y, z as w, self};\nuse q::*;";
        let p = parsed(src);
        let decls: Vec<(String, Vec<String>)> =
            p.uses.iter().map(|u| (u.name.clone(), u.path.clone())).collect();
        assert_eq!(
            decls,
            vec![
                ("c".into(), vec!["a".into(), "b".into(), "c".into()]),
                ("y".into(), vec!["x".into(), "y".into()]),
                ("w".into(), vec!["x".into(), "z".into()]),
                ("x".into(), vec!["x".into()]),
            ]
        );
    }

    #[test]
    fn tags_attach_to_the_next_fn() {
        // Allows, the module tag and doc comments are not problems.
        let src = "// lint:stream-hot-path\n// lint:allow-file(x) -- y\n/// lint:doc\n\
                   // lint:entry(hot-path)\n#[inline]\nfn hot() {}\n// lint:allow(x) -- y\n\
                   fn plain() {}\n// lint:entry(hot-path)\nfn also_hot() {}";
        let p = parsed(src);
        let entries: Vec<bool> = p.fns.iter().map(|f| f.hot_path_entry).collect();
        assert_eq!(entries, vec![true, false, true]);
        assert!(p.tag_problems.is_empty());
    }

    #[test]
    fn unknown_tag_kind_is_a_problem() {
        let p = parsed("// lint:entry(warm-path)\nfn f() {}");
        assert_eq!(p.tag_problems.len(), 1);
        assert!(!p.fns[0].hot_path_entry);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parsed("fn real(cb: fn(u8) -> u8) -> fn() { cb }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn impl_generics_do_not_confuse_the_self_type() {
        let p = parsed("impl<'a, T: Clone> Holder<'a, T> { fn get(&self) {} }");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Holder"));
        let p = parsed("impl<T> From<T> for Wrap<T> { fn from(t: T) {} }");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Wrap"));
    }

    #[test]
    fn test_region_functions_are_marked() {
        let p = parsed("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }");
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }
}
