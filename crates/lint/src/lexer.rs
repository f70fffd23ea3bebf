//! A minimal Rust lexer: strips comments and string/char literals, keeps
//! identifiers and punctuation with their line numbers.
//!
//! The rule engine never needs full Rust syntax — every invariant it
//! checks is visible in the token stream (`HashMap`, `::`, `unwrap`
//! followed by `(`, a `[` after an expression, …) as long as tokens inside
//! comments and literals are *not* mistaken for code. That is the one
//! job this lexer does carefully: nested block comments, raw strings
//! with arbitrary `#` fences, byte/C strings, char literals vs.
//! lifetimes, and raw identifiers are all handled so that a `"HashMap"`
//! in a doc example or an `'a'` char can never produce a finding.
//!
//! Comments are preserved separately (with their line numbers) because
//! the suppression grammar (`// lint:allow(<rule>) -- <justification>`)
//! lives in them.

/// A lexical token. Literal payloads are dropped — rules only ever match
/// identifiers and punctuation shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (including raw identifiers, without `r#`).
    Ident(String),
    /// A lifetime such as `'a` or `'_`.
    Lifetime,
    /// Any literal: string, raw string, byte string, char, or number.
    Literal,
    /// The `::` path separator (kept fused so rules can match paths).
    ColonColon,
    /// A single punctuation byte.
    Punct(u8),
}

/// A token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-indexed line number.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]` / `#[test]`
    /// region (filled in by [`mark_test_regions`]).
    pub in_test: bool,
}

/// A comment with its text (delimiters stripped) and location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-indexed line the comment starts on.
    pub line: u32,
    /// Comment text without the `//`/`/*` delimiters, trimmed.
    pub text: String,
    /// True for doc comments (`///`, `//!`, `/**`, `/*!`).
    pub doc: bool,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`, marking `#[cfg(test)]`/`#[test]` regions.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer { bytes: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() };
    lx.run();
    let mut out = lx.out;
    mark_test_regions(&mut out.tokens);
    out
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line, in_test: false });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.string_literal();
                    self.push(Tok::Literal, line);
                }
                b'\'' => self.char_or_lifetime(line),
                b'0'..=b'9' => {
                    self.number();
                    self.push(Tok::Literal, line);
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.ident_or_prefixed(line),
                b':' if self.peek(1) == Some(b':') => {
                    self.bump();
                    self.bump();
                    self.push(Tok::ColonColon, line);
                }
                _ => {
                    self.bump();
                    self.push(Tok::Punct(b), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let doc = matches!(self.peek(0), Some(b'/') | Some(b'!'));
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).trim().to_string();
        self.out.comments.push(Comment { line, text, doc });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let doc = matches!(self.peek(0), Some(b'*') | Some(b'!')) && self.peek(1) != Some(b'/');
        let start = self.pos;
        let mut depth = 1usize;
        let mut end = self.pos;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    end = self.pos;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    end = self.pos;
                    break;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..end]).trim().to_string();
        self.out.comments.push(Comment { line, text, doc });
    }

    /// A `"…"` literal with backslash escapes (cursor on the opening quote).
    fn string_literal(&mut self) {
        self.bump();
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => return,
                _ => {}
            }
        }
    }

    /// A raw string `r##"…"##` (cursor on the first `#` or the quote);
    /// `fence` is the number of `#`s.
    fn raw_string(&mut self, fence: usize) {
        for _ in 0..fence {
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(b) = self.bump() {
            if b == b'"' {
                for i in 0..fence {
                    if self.peek(i) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..fence {
                    self.bump();
                }
                return;
            }
        }
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` / `'_` with no closing quote is a lifetime; `'a'`, `'\n'`,
        // `'\u{1F980}'` are char literals.
        let next = self.peek(1);
        let is_lifetime =
            matches!(next, Some(b'A'..=b'Z' | b'a'..=b'z' | b'_')) && self.peek(2) != Some(b'\'');
        self.bump(); // the quote
        if is_lifetime {
            while matches!(self.peek(0), Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')) {
                self.bump();
            }
            self.push(Tok::Lifetime, line);
            return;
        }
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.push(Tok::Literal, line);
    }

    fn number(&mut self) {
        while matches!(self.peek(0), Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_')) {
            self.bump();
        }
        // Consume a fractional part only when a digit follows the dot, so
        // ranges like `0..10` and calls like `0.min(x)` stay intact.
        if self.peek(0) == Some(b'.') && matches!(self.peek(1), Some(b'0'..=b'9')) {
            self.bump();
            while matches!(self.peek(0), Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_')) {
                self.bump();
            }
        }
    }

    /// Identifier, or one of the literal prefixes `r"`, `r#"`, `b"`,
    /// `b'`, `br#"`, `c"`, `cr#"`, or a raw identifier `r#ident`.
    fn ident_or_prefixed(&mut self, line: u32) {
        let b0 = self.peek(0).unwrap_or(0);
        // Byte-char literal `b'x'` / `b'\n'`: consume the prefix and lex
        // the quoted part like a char (it can never be a lifetime).
        if b0 == b'b' && self.peek(1) == Some(b'\'') {
            self.bump();
            self.char_or_lifetime(line);
            return;
        }
        if matches!(b0, b'r' | b'b' | b'c') {
            if let Some(kind) = self.literal_prefix() {
                match kind {
                    Prefixed::Plain(skip) => {
                        for _ in 0..skip {
                            self.bump();
                        }
                        self.string_literal();
                        self.push(Tok::Literal, line);
                        return;
                    }
                    Prefixed::Raw { skip, fence } => {
                        for _ in 0..skip {
                            self.bump();
                        }
                        self.raw_string(fence);
                        self.push(Tok::Literal, line);
                        return;
                    }
                    Prefixed::RawIdent => {
                        self.bump();
                        self.bump();
                    }
                }
            }
        }
        let start = self.pos;
        while matches!(self.peek(0), Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')) {
            self.bump();
        }
        let ident = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(Tok::Ident(ident), line);
    }

    /// Classifies what follows an `r`/`b`/`c` at the cursor, if it opens a
    /// literal (or raw identifier) rather than a plain identifier.
    fn literal_prefix(&self) -> Option<Prefixed> {
        let b0 = self.peek(0)?;
        // Longest prefix first: `br` / `cr`.
        let (raw_at, plain) = match b0 {
            b'r' => (0usize, false),
            b'b' | b'c' => match self.peek(1) {
                Some(b'r') => (1, false),
                Some(b'"') => return Some(Prefixed::Plain(1)),
                _ => (usize::MAX, true),
            },
            _ => return None,
        };
        if plain || raw_at == usize::MAX {
            return None;
        }
        // At `r`: count `#`s, then require `"` (raw string) or an
        // ident-start (raw identifier, only for bare `r#`).
        let mut i = raw_at + 1;
        let mut fence = 0usize;
        while self.peek(i) == Some(b'#') {
            fence += 1;
            i += 1;
        }
        match self.peek(i) {
            Some(b'"') => Some(Prefixed::Raw { skip: raw_at + 1, fence }),
            Some(b'A'..=b'Z' | b'a'..=b'z' | b'_') if fence == 1 && raw_at == 0 => {
                Some(Prefixed::RawIdent)
            }
            _ => None,
        }
    }
}

enum Prefixed {
    /// `b"` / `c"`: skip N bytes then lex a plain string.
    Plain(usize),
    /// `r`/`br`/`cr` with `fence` hashes: skip to the fence then raw-lex.
    Raw { skip: usize, fence: usize },
    /// `r#ident`.
    RawIdent,
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items so rules can skip
/// test-only code, mirroring how `cargo clippy` only sees lib targets.
///
/// Recognizes an attribute whose tokens are `test`, or `cfg(..)`
/// containing `test` but not `not`, then skips attributes that follow and
/// marks the next item through its balanced `{ … }` block (or up to `;`).
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = test_attr_end(tokens, i) {
            // Skip any further attributes stacked on the same item.
            let mut j = after_attr;
            while let Some(end) = attr_end(tokens, j) {
                j = end;
            }
            // Find the item's opening `{` (or a `;` for extern/use items).
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].tok {
                    Tok::Punct(b'{') => break,
                    Tok::Punct(b';') => break,
                    _ => k += 1,
                }
            }
            let end = if k < tokens.len() && tokens[k].tok == Tok::Punct(b'{') {
                balanced_end(tokens, k)
            } else {
                k.min(tokens.len().saturating_sub(1))
            };
            for t in tokens.iter_mut().take(end + 1).skip(i) {
                t.in_test = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
}

/// If an attribute opens at `i` and is a test attribute, returns the index
/// one past its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    let end = attr_end(tokens, i)?;
    let inner = &tokens[i + 2..end - 1];
    let idents: Vec<&str> = inner
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    is_test.then_some(end)
}

/// If a (non-inner) attribute `#[…]` opens at `i`, returns the index one
/// past its closing `]`.
fn attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.tok != Tok::Punct(b'#') || tokens.get(i + 1)?.tok != Tok::Punct(b'[') {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(i + 1) {
        match t.tok {
            Tok::Punct(b'[') => depth += 1,
            Tok::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open` (clamped to the last token
/// on unbalanced input).
fn balanced_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
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
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let src = r##"
            // HashMap in a comment
            /* unsafe { } in a block /* nested */ comment */
            let s = "HashMap::new()";
            let r = r#"Instant::now()"#;
            let c = 'u';
            real_ident();
        "##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "let", "c", "real_ident"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';";
        let lexed = lex(src);
        let lifetimes = lexed.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn raw_identifiers_lose_their_fence() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn byte_char_literals_are_one_literal_not_an_ident() {
        // `b'x'` used to lex as Ident("b") + char literal; the spurious
        // ident could fool the item parser and the call extractor.
        let lexed = lex("let x = b'a'; let y = b'\\n'; m[b'.']");
        assert_eq!(idents("let x = b'a';"), vec!["let", "x"]);
        let lits = lexed.tokens.iter().filter(|t| t.tok == Tok::Literal).count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n\nc";
        let lexed = lex(src);
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = r#"
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
        "#;
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Ident("unwrap".into()))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))] mod live { fn f() { x.unwrap(); } }";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().all(|t| !t.in_test));
    }

    #[test]
    fn comments_are_collected_with_doc_flag() {
        let src = "/// doc\n// lint:allow(x) -- y\nfn f() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].doc);
        assert!(!lexed.comments[1].doc);
        assert_eq!(lexed.comments[1].text, "lint:allow(x) -- y");
    }
}
