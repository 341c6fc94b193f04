//! A hand-rolled token-level lexer for Rust sources.
//!
//! The lints in this crate need no type information, but they do need a
//! faithful *token* view of the source: identifiers, literals,
//! lifetimes, punctuation, and matched delimiter pairs — with comments
//! and string contents out of the token stream entirely, so doc
//! examples and error messages can never false-positive a lint. On top
//! of the raw stream the lexer resolves two structural facts the passes
//! share: attribute token ranges (`#[...]` / `#![...]`) and the token
//! ranges of items annotated exactly `#[cfg(test)]`.
//!
//! The lexer is deliberately conservative where full fidelity would
//! need a parser: multi-byte operators are left as adjacent single-byte
//! [`TokenKind::Punct`] tokens (helpers like [`Lexed::is_fat_arrow`]
//! recognize the compounds the lints care about), and malformed input
//! degrades to unmatched delimiters rather than an error.

/// One lexical token. Offsets are byte positions into the source.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    /// For `Open`/`Close` delimiters: the index of the matching partner
    /// token, or `usize::MAX` when unmatched.
    pub mat: usize,
}

/// What a token is.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `SeqCst`, ...).
    Ident,
    /// A lifetime (`'a`, `'static`), quote included in the span.
    Lifetime,
    /// A numeric literal, suffix included (`0xFF`, `1.5e3`, `2u64`).
    Num,
    /// A string or byte-string literal; the cooked content is carried
    /// here so the span in the source can stay opaque.
    Str(String),
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation byte (`.`, `:`, `!`, `=`, `+`, ...).
    Punct(u8),
    /// An opening delimiter: `(`, `[` or `{`.
    Open(u8),
    /// A closing delimiter: `)`, `]` or `}`.
    Close(u8),
}

/// A lexed source file: the raw bytes plus the token stream and the
/// structural regions the lint passes share.
#[derive(Debug)]
pub struct Lexed {
    pub src: Vec<u8>,
    pub tokens: Vec<Token>,
    /// Token-index ranges `[lo, hi)` of items annotated `#[cfg(test)]`
    /// (attribute included).
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index ranges `[lo, hi)` of attributes themselves.
    pub attr_regions: Vec<(usize, usize)>,
}

impl Lexed {
    /// The source text of token `i`.
    pub fn text(&self, i: usize) -> &[u8] {
        let t = &self.tokens[i];
        &self.src[t.start..t.end]
    }

    /// Whether token `i` is an identifier spelling `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        matches!(self.tokens[i].kind, TokenKind::Ident) && self.text(i) == s.as_bytes()
    }

    /// Whether token `i` is the punctuation byte `b`.
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        matches!(self.tokens[i].kind, TokenKind::Punct(p) if p == b)
    }

    /// Whether tokens `i`, `i + 1` form a fat arrow `=>`.
    pub fn is_fat_arrow(&self, i: usize) -> bool {
        i + 1 < self.tokens.len()
            && self.is_punct(i, b'=')
            && self.is_punct(i + 1, b'>')
            && self.tokens[i].end == self.tokens[i + 1].start
    }

    /// Whether tokens `i`, `i + 1` form a path separator `::`.
    pub fn is_path_sep(&self, i: usize) -> bool {
        i + 1 < self.tokens.len()
            && self.is_punct(i, b':')
            && self.is_punct(i + 1, b':')
            && self.tokens[i].end == self.tokens[i + 1].start
    }

    /// 1-based line number of token `i`.
    pub fn line(&self, i: usize) -> usize {
        line_of(&self.src, self.tokens[i].start)
    }

    /// Whether token `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&i))
    }

    /// Whether token `i` falls inside an attribute.
    pub fn in_attr(&self, i: usize) -> bool {
        self.attr_regions
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&i))
    }

    /// Whether the line holding token `i`, or one of the `above` lines
    /// before it, contains `marker` inside a `//` comment. Used for the
    /// `// BOUND:` justification comments.
    pub fn comment_marker_near(&self, i: usize, marker: &str, above: usize) -> bool {
        let line = line_of(&self.src, self.tokens[i].start);
        let lo = line.saturating_sub(above);
        for (idx, text) in self.src.split(|&b| b == b'\n').enumerate() {
            let this = idx + 1;
            if this < lo {
                continue;
            }
            if this > line {
                break;
            }
            if let Some(slash) = find(text, b"//", 0) {
                if find(&text[slash..], marker.as_bytes(), 0).is_some() {
                    return true;
                }
            }
        }
        false
    }
}

/// 1-based line number of byte `offset` in `src`.
pub fn line_of(src: &[u8], offset: usize) -> usize {
    1 + src[..offset.min(src.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// First occurrence of `needle` in `haystack[from..]`.
pub fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() || needle.is_empty() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into tokens and resolves delimiter matching plus the
/// attribute and `#[cfg(test)]` regions.
pub fn lex(src: &[u8]) -> Lexed {
    let mut tokens = Vec::new();
    let n = src.len();
    let mut i = 0;

    while i < n {
        let b = src[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (covers `///` and `//!` doc comments too).
        if b == b'/' && i + 1 < n && src[i + 1] == b'/' {
            i = find(src, b"\n", i).unwrap_or(n);
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && i + 1 < n && src[i + 1] == b'*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if src[i] == b'/' && i + 1 < n && src[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && i + 1 < n && src[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"..", r#".."#, br#".."#.
        if (b == b'r' || b == b'b') && (i == 0 || !is_ident_cont(src[i.saturating_sub(1)])) {
            if let Some((end, value)) = raw_string(src, i) {
                tokens.push(Token {
                    kind: TokenKind::Str(value),
                    start: i,
                    end,
                    mat: usize::MAX,
                });
                i = end;
                continue;
            }
        }
        // Byte string b"..", byte char b'x'.
        if b == b'b' && i + 1 < n && (i == 0 || !is_ident_cont(src[i - 1])) {
            if src[i + 1] == b'"' {
                let (end, value) = cooked_string(src, i + 1);
                tokens.push(Token {
                    kind: TokenKind::Str(value),
                    start: i,
                    end,
                    mat: usize::MAX,
                });
                i = end;
                continue;
            }
            if src[i + 1] == b'\'' {
                let end = char_literal_end(src, i + 1).unwrap_or(i + 2);
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start: i,
                    end,
                    mat: usize::MAX,
                });
                i = end;
                continue;
            }
        }
        // Plain string "..".
        if b == b'"' {
            let (end, value) = cooked_string(src, i);
            tokens.push(Token {
                kind: TokenKind::Str(value),
                start: i,
                end,
                mat: usize::MAX,
            });
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            if let Some(end) = char_literal_end(src, i) {
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start: i,
                    end,
                    mat: usize::MAX,
                });
                i = end;
                continue;
            }
            // A lifetime: consume the quote and the identifier.
            let mut j = i + 1;
            while j < n && is_ident_cont(src[j]) {
                j += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Lifetime,
                start: i,
                end: j,
                mat: usize::MAX,
            });
            i = j;
            continue;
        }
        // Numeric literal.
        if b.is_ascii_digit() {
            let mut j = i + 1;
            while j < n {
                let c = src[j];
                if is_ident_cont(c) {
                    j += 1;
                } else if c == b'.' && j + 1 < n && src[j + 1].is_ascii_digit() {
                    // A float's fractional part — but not `0..n` ranges
                    // or `1.max(..)` method calls.
                    j += 2;
                } else if (c == b'+' || c == b'-')
                    && matches!(src[j - 1], b'e' | b'E')
                    && j + 1 < n
                    && src[j + 1].is_ascii_digit()
                {
                    // Signed exponent: `1e-3`.
                    j += 2;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Num,
                start: i,
                end: j,
                mat: usize::MAX,
            });
            i = j;
            continue;
        }
        // Identifier or keyword.
        if is_ident_start(b) {
            let mut j = i + 1;
            while j < n && is_ident_cont(src[j]) {
                j += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                start: i,
                end: j,
                mat: usize::MAX,
            });
            i = j;
            continue;
        }
        // Delimiters and punctuation.
        let kind = match b {
            b'(' | b'[' | b'{' => TokenKind::Open(b),
            b')' | b']' | b'}' => TokenKind::Close(b),
            other => TokenKind::Punct(other),
        };
        tokens.push(Token {
            kind,
            start: i,
            end: i + 1,
            mat: usize::MAX,
        });
        i += 1;
    }

    match_delims(&mut tokens);
    let mut lexed = Lexed {
        src: src.to_vec(),
        tokens,
        test_regions: Vec::new(),
        attr_regions: Vec::new(),
    };
    find_regions(&mut lexed);
    lexed
}

/// If a raw (byte) string starts at `i`, returns (end, content).
fn raw_string(src: &[u8], i: usize) -> Option<(usize, String)> {
    let n = src.len();
    let mut j = i;
    if src[j] == b'b' {
        j += 1;
    }
    if j >= n || src[j] != b'r' {
        return None;
    }
    let mut k = j + 1;
    let mut hashes = 0usize;
    while k < n && src[k] == b'#' {
        hashes += 1;
        k += 1;
    }
    if k >= n || src[k] != b'"' {
        return None;
    }
    let content_start = k + 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat(b'#').take(hashes))
        .collect();
    let mut e = content_start;
    while e < n && !src[e..].starts_with(&closer) {
        e += 1;
    }
    let content_end = e.min(n);
    Some((
        (content_end + closer.len()).min(n),
        String::from_utf8_lossy(&src[content_start..content_end]).into_owned(),
    ))
}

/// Consumes a cooked string starting at the opening quote `start`;
/// returns (one-past-closing-quote, content). Escapes pass through raw:
/// the lints only compare plain dotted metric names, which contain none.
fn cooked_string(src: &[u8], start: usize) -> (usize, String) {
    let n = src.len();
    let mut i = start + 1;
    let mut value = Vec::new();
    while i < n {
        match src[i] {
            b'\\' if i + 1 < n => {
                value.push(src[i + 1]);
                i += 2;
            }
            b'"' => return (i + 1, String::from_utf8_lossy(&value).into_owned()),
            c => {
                value.push(c);
                i += 1;
            }
        }
    }
    (n, String::from_utf8_lossy(&value).into_owned())
}

/// If a character literal starts at the quote `i`, returns its end;
/// `None` means the quote opens a lifetime instead.
fn char_literal_end(src: &[u8], i: usize) -> Option<usize> {
    let n = src.len();
    if i + 1 >= n {
        return None;
    }
    if src[i + 1] == b'\\' {
        // Escaped char: scan (bounded) for the closing quote.
        let mut e = i + 2;
        while e < n && src[e] != b'\'' && e - i < 12 {
            e += 1;
        }
        return (e < n && src[e] == b'\'').then_some(e + 1);
    }
    // `'x'` — any single byte followed by a closing quote, unless the
    // middle byte starts an identifier and no quote follows (lifetime).
    if i + 2 < n && src[i + 2] == b'\'' && src[i + 1] != b'\'' {
        return Some(i + 3);
    }
    None
}

/// Resolves `mat` for every delimiter pair via a per-kind stack walk.
fn match_delims(tokens: &mut [Token]) {
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for idx in 0..tokens.len() {
        match tokens[idx].kind {
            TokenKind::Open(b) => stack.push((idx, b)),
            TokenKind::Close(b) => {
                let want = match b {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Tolerate malformed input: pop until the kinds line up.
                while let Some((open, kind)) = stack.pop() {
                    if kind == want {
                        tokens[open].mat = idx;
                        tokens[idx].mat = open;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Records attribute regions and `#[cfg(test)]` item regions.
fn find_regions(lexed: &mut Lexed) {
    let toks = &lexed.tokens;
    let len = toks.len();
    let mut attrs = Vec::new();
    let mut tests = Vec::new();
    let mut i = 0;
    while i < len {
        if !lexed.is_punct(i, b'#') {
            i += 1;
            continue;
        }
        let mut open = i + 1;
        if open < len && lexed.is_punct(open, b'!') {
            open += 1;
        }
        if open >= len || !matches!(toks[open].kind, TokenKind::Open(b'[')) {
            i += 1;
            continue;
        }
        let close = toks[open].mat;
        if close == usize::MAX {
            i += 1;
            continue;
        }
        attrs.push((i, close + 1));
        // Exactly `#[cfg(test)]`: cfg ( test ).
        let body: Vec<&[u8]> = (open + 1..close)
            .map(|t| &lexed.src[toks[t].start..toks[t].end])
            .collect();
        let is_cfg_test = body.len() == 4
            && body[0] == b"cfg"
            && body[1] == b"("
            && body[2] == b"test"
            && body[3] == b")";
        if is_cfg_test {
            // The annotated item: skip any further attributes, then run
            // to the first top-level `{ .. }` body or terminating `;`.
            let mut j = close + 1;
            loop {
                if j + 1 < len && lexed.is_punct(j, b'#') {
                    let mut o = j + 1;
                    if o < len && lexed.is_punct(o, b'!') {
                        o += 1;
                    }
                    if o < len
                        && matches!(toks[o].kind, TokenKind::Open(b'['))
                        && toks[o].mat != usize::MAX
                    {
                        j = toks[o].mat + 1;
                        continue;
                    }
                }
                break;
            }
            let mut end = len;
            while j < len {
                match toks[j].kind {
                    TokenKind::Open(b'{') => {
                        end = if toks[j].mat == usize::MAX {
                            len
                        } else {
                            toks[j].mat + 1
                        };
                        break;
                    }
                    TokenKind::Open(_) if toks[j].mat != usize::MAX => {
                        j = toks[j].mat + 1;
                        continue;
                    }
                    TokenKind::Punct(b';') => {
                        end = j + 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            tests.push((i, end));
        }
        i = close + 1;
    }
    lexed.attr_regions = attrs;
    lexed.test_regions = tests;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &Lexed) -> Vec<String> {
        (0..lexed.tokens.len())
            .filter(|&i| matches!(lexed.tokens[i].kind, TokenKind::Ident))
            .map(|i| String::from_utf8_lossy(lexed.text(i)).into_owned())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let src = br#"
// a comment with unwrap()
/* block /* nested */ still comment unwrap() */
let s = "literal with panic!";
let c = 'x';
let lt: &'static str = "y";
code();
"#;
        let lexed = lex(src);
        let names = idents(&lexed);
        assert!(!names.iter().any(|n| n == "unwrap" || n == "panic"));
        assert!(names.iter().any(|n| n == "code"));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Lifetime)));
        let strings: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str(v) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, ["literal with panic!", "y"]);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = br##"let a = r#"raw "quoted" body"#; let b = "es\"c";"##;
        let lexed = lex(src);
        let strings: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str(v) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, ["raw \"quoted\" body", "es\"c"]);
    }

    #[test]
    fn delimiters_match() {
        let lexed = lex(b"fn f(a: [u8; 4]) { g(a[0]); }");
        for (i, t) in lexed.tokens.iter().enumerate() {
            if let TokenKind::Open(_) = t.kind {
                let m = t.mat;
                assert_ne!(m, usize::MAX, "unmatched open at {i}");
                assert_eq!(lexed.tokens[m].mat, i);
            }
        }
    }

    #[test]
    fn cfg_test_regions_cover_the_test_module() {
        let src = br#"
fn hot() {}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
fn after() {}
"#;
        let lexed = lex(src);
        assert_eq!(lexed.test_regions.len(), 1);
        let unwrap_tok = (0..lexed.tokens.len())
            .find(|&i| lexed.is_ident(i, "unwrap"))
            .expect("unwrap token");
        assert!(lexed.in_test(unwrap_tok));
        let after_tok = (0..lexed.tokens.len())
            .find(|&i| lexed.is_ident(i, "after"))
            .expect("after token");
        assert!(!lexed.in_test(after_tok));
    }

    #[test]
    fn cfg_any_test_is_not_a_test_region() {
        let lexed = lex(b"#[cfg(any(test, debug_assertions))]\nfn validate() {}\n");
        assert!(lexed.test_regions.is_empty());
        assert_eq!(lexed.attr_regions.len(), 1);
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let lexed = lex(b"let x = 1.5e-3 + 0xFF + 2u64; let r = 0..10;");
        let nums: Vec<&[u8]> = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Num))
            .map(|t| &lexed.src[t.start..t.end])
            .collect();
        assert_eq!(nums, [&b"1.5e-3"[..], b"0xFF", b"2u64", b"0", b"10"]);
    }

    #[test]
    fn fat_arrow_and_path_sep_helpers() {
        let lexed = lex(b"match x { A::B => 1, _ => 2 }");
        let arrow = (0..lexed.tokens.len())
            .filter(|&i| lexed.is_fat_arrow(i))
            .count();
        assert_eq!(arrow, 2);
        let seps = (0..lexed.tokens.len())
            .filter(|&i| lexed.is_path_sep(i))
            .count();
        assert_eq!(seps, 1);
    }

    #[test]
    fn char_vs_lifetime() {
        let lexed = lex(b"let c = 'x'; let e = '\\n'; fn f<'a>(s: &'a str) {}");
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Char))
            .count();
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Lifetime))
            .count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn comment_marker_near_finds_safety() {
        let src = b"fn f() {\n    // SAFETY: the pointer is unique\n    let x = 1;\n}\n";
        let lexed = lex(src);
        let x_tok = (0..lexed.tokens.len())
            .find(|&i| lexed.is_ident(i, "x"))
            .expect("x token");
        assert!(lexed.comment_marker_near(x_tok, "SAFETY:", 2));
        assert!(!lexed.comment_marker_near(x_tok, "BOUND:", 2));
    }
}
