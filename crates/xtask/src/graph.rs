//! A conservative intra-workspace call graph over lexed sources.
//!
//! The graph is built from tokens alone — no name resolution, no types
//! — so it *over-approximates*: a method call `.name(...)` links to
//! every workspace method of that name, a qualified call `Type::name`
//! links to every `name` in any `impl Type`, and a bare call links to
//! every free function (or same-file function) of that name. Calls into
//! the standard library or external crates resolve to nothing and drop
//! out. Over-approximation is the right direction for the passes built
//! on top: the no-panic and wire-robustness requirements propagate to
//! *at least* everything actually reachable from a hot-path root.
//!
//! Functions defined inside `#[cfg(test)]` items are excluded from the
//! graph entirely — test helpers neither seed nor receive requirements.

use crate::lex::{Lexed, TokenKind};

/// Keywords and pseudo-callees that must never be treated as call
/// sites (`Fn(u8)` trait bounds, `if (cond)`, ...).
const NOT_CALLEES: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "Fn", "FnMut", "FnOnce", "for", "if", "impl", "in", "let", "loop", "match",
    "mod", "move", "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super",
    "trait", "type", "union", "unsafe", "use", "where", "while",
];

/// One function definition found in a lexed file.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// The `impl` block's type name, when the fn is an associated item.
    pub impl_type: Option<String>,
    /// Whether the signature mentions `self` (method-call candidate).
    pub has_self: bool,
    /// Index of the owning file in the caller's source list.
    pub file: usize,
    /// Token index of the fn's name.
    pub name_tok: usize,
    /// Token range `[lo, hi]` of the body braces, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// Whether the definition sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `name(...)` — a free function or a locally imported item.
    Bare,
    /// `.name(...)` — a method; receiver type unknown.
    Method,
    /// `Qual::name(...)` — the qualifying path segment is carried.
    Qualified(String),
    /// `<...>::name(...)` or another shape the lexer cannot attribute;
    /// resolved maximally (every fn of that name).
    Unknown,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    /// Token index of the callee name.
    pub tok: usize,
}

/// Collects every function definition in `lexed` (file index `file`),
/// tracking enclosing `impl` blocks for associated-fn attribution.
pub fn collect_fns(lexed: &Lexed, file: usize) -> Vec<FnDef> {
    let toks = &lexed.tokens;
    let len = toks.len();
    let mut fns = Vec::new();
    // Stack of (body-end token index, impl type name).
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < len {
        if lexed.in_attr(i) {
            i += 1;
            continue;
        }
        if lexed.is_ident(i, "impl") {
            if let Some((body_open, ty)) = impl_header(lexed, i) {
                let end = toks[body_open].mat;
                if end != usize::MAX {
                    impls.push((end, ty));
                }
                i = body_open + 1;
                continue;
            }
        }
        if lexed.is_ident(i, "fn") && i + 1 < len && matches!(toks[i + 1].kind, TokenKind::Ident) {
            let name_tok = i + 1;
            let name = String::from_utf8_lossy(lexed.text(name_tok)).into_owned();
            // Walk the signature: jump over delimited groups; the first
            // top-level `{` opens the body, a `;` means no body.
            let mut j = name_tok + 1;
            let mut body = None;
            let mut has_self = false;
            while j < len {
                match toks[j].kind {
                    TokenKind::Open(b'{') => {
                        if toks[j].mat != usize::MAX {
                            body = Some((j, toks[j].mat));
                        }
                        break;
                    }
                    TokenKind::Open(_) if toks[j].mat != usize::MAX => {
                        // Scan the group (parameters may carry `self`).
                        has_self = has_self || (j..toks[j].mat).any(|t| lexed.is_ident(t, "self"));
                        j = toks[j].mat + 1;
                        continue;
                    }
                    TokenKind::Punct(b';') => break,
                    _ => {}
                }
                has_self = has_self || lexed.is_ident(j, "self");
                j += 1;
            }
            let impl_type = impls
                .iter()
                .rev()
                .find(|&&(end, _)| name_tok < end)
                .map(|(_, ty)| ty.clone());
            fns.push(FnDef {
                name,
                impl_type,
                has_self,
                file,
                name_tok,
                body,
                in_test: lexed.in_test(name_tok),
            });
            // Continue *inside* the body so nested fns are also found.
            i = name_tok + 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parses an `impl` header starting at token `i` ("impl"); returns the
/// body-open token index and the implemented type's last path segment.
fn impl_header(lexed: &Lexed, i: usize) -> Option<(usize, String)> {
    let toks = &lexed.tokens;
    let len = toks.len();
    // Find the body `{`, jumping over parenthesized groups; also note a
    // top-level `for` (trait impls name the type after it).
    let mut j = i + 1;
    let mut for_tok = None;
    let mut body_open = None;
    let mut angle = 0i32;
    while j < len {
        match toks[j].kind {
            TokenKind::Open(b'{') if angle <= 0 => {
                body_open = Some(j);
                break;
            }
            TokenKind::Open(_) if toks[j].mat != usize::MAX => {
                j = toks[j].mat + 1;
                continue;
            }
            TokenKind::Punct(b'<') => angle += 1,
            TokenKind::Punct(b'>') => {
                // `->` is not an angle close.
                if !(j > 0 && lexed.is_punct(j - 1, b'-') && toks[j - 1].end == toks[j].start) {
                    angle -= 1;
                }
            }
            TokenKind::Punct(b';') => return None, // `impl Trait for T;`-like degenerate
            _ => {
                if angle <= 0 && lexed.is_ident(j, "for") && for_tok.is_none() {
                    for_tok = Some(j);
                }
            }
        }
        j += 1;
    }
    let body_open = body_open?;
    // The type lives after `for` (trait impl) or after `impl<...>`.
    let mut k = match for_tok {
        Some(f) => f + 1,
        None => {
            let mut k = i + 1;
            if k < len && lexed.is_punct(k, b'<') {
                // Skip the generic parameter list.
                let mut depth = 0i32;
                while k < len {
                    if lexed.is_punct(k, b'<') {
                        depth += 1;
                    } else if lexed.is_punct(k, b'>')
                        && !(lexed.is_punct(k - 1, b'-') && toks[k - 1].end == toks[k].start)
                    {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
            k
        }
    };
    // Skip reference/pointer sigils and modifiers, then take the last
    // segment of the type path.
    let mut last = None;
    while k < body_open {
        match &toks[k].kind {
            TokenKind::Punct(b'&') | TokenKind::Punct(b'*') | TokenKind::Lifetime => k += 1,
            TokenKind::Ident => {
                if lexed.is_ident(k, "mut") || lexed.is_ident(k, "dyn") {
                    k += 1;
                    continue;
                }
                last = Some(String::from_utf8_lossy(lexed.text(k)).into_owned());
                if k + 2 < body_open && lexed.is_path_sep(k + 1) {
                    k += 3; // follow `::` to the next segment
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    Some((body_open, last.unwrap_or_else(|| "?".to_string())))
}

/// Collects call sites inside the token range `[lo, hi]` (a fn body).
pub fn collect_calls(lexed: &Lexed, lo: usize, hi: usize) -> Vec<CallSite> {
    let toks = &lexed.tokens;
    let mut calls = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        if !matches!(toks[i].kind, TokenKind::Ident) || lexed.in_attr(i) {
            continue;
        }
        let name = String::from_utf8_lossy(lexed.text(i)).into_owned();
        if NOT_CALLEES.contains(&name.as_str()) {
            continue;
        }
        // A definition, not a call.
        if i > 0 && lexed.is_ident(i - 1, "fn") {
            continue;
        }
        // The next token must open the argument list; `name!(...)` macro
        // invocations fail this check (the `!` sits between).
        let next = i + 1;
        if next > hi || !matches!(toks[next].kind, TokenKind::Open(b'(')) {
            continue;
        }
        let kind = if i > 0 && lexed.is_punct(i - 1, b'.') {
            CallKind::Method
        } else if i >= 2 && lexed.is_path_sep(i - 2) {
            match (i >= 3).then(|| &toks[i - 3].kind) {
                Some(TokenKind::Ident) => {
                    let qual = String::from_utf8_lossy(lexed.text(i - 3)).into_owned();
                    CallKind::Qualified(qual)
                }
                // `<T as Trait>::f(...)`, `Vec::<u8>::f(...)` — cannot
                // attribute the qualifier; resolve maximally.
                _ => CallKind::Unknown,
            }
        } else {
            CallKind::Bare
        };
        calls.push(CallSite { name, kind, tok: i });
    }
    calls
}

/// A whole-workspace call graph: every non-test fn definition plus the
/// resolved edges between them.
#[derive(Debug)]
pub struct CallGraph {
    pub fns: Vec<FnDef>,
    /// Outgoing edges per fn (indices into `fns`).
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over `sources` (parallel to the file indices
    /// recorded in the defs).
    pub fn build(sources: &[&Lexed]) -> CallGraph {
        let mut fns = Vec::new();
        for (file, lexed) in sources.iter().enumerate() {
            fns.extend(collect_fns(lexed, file).into_iter().filter(|f| !f.in_test));
        }
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(idx);
        }
        let mut edges = vec![Vec::new(); fns.len()];
        for (idx, f) in fns.iter().enumerate() {
            let Some((lo, hi)) = f.body else { continue };
            let lexed = sources[f.file];
            for call in collect_calls(lexed, lo, hi) {
                if lexed.in_test(call.tok) {
                    continue;
                }
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                for &cand in candidates {
                    if cand == idx {
                        continue;
                    }
                    let target = &fns[cand];
                    let linked = match &call.kind {
                        CallKind::Method => target.has_self,
                        CallKind::Bare => target.impl_type.is_none() || target.file == f.file,
                        CallKind::Qualified(q) => {
                            let q = if q == "Self" {
                                f.impl_type.as_deref().unwrap_or("Self")
                            } else {
                                q.as_str()
                            };
                            target.impl_type.as_deref() == Some(q)
                        }
                        CallKind::Unknown => true,
                    };
                    if linked && !edges[idx].contains(&cand) {
                        edges[idx].push(cand);
                    }
                }
            }
        }
        CallGraph { fns, edges }
    }

    /// Fn indices matching a root spec: a bare name (`examine`),
    /// a name prefix (`route_event*`), or a qualified associated fn
    /// (`BrokerCore::verify`).
    pub fn roots(&self, spec: &str) -> Vec<usize> {
        let (ty, name) = match spec.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, spec),
        };
        let (prefix, is_prefix) = match name.strip_suffix('*') {
            Some(p) => (p, true),
            None => (name, false),
        };
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let name_ok = if is_prefix {
                    f.name.starts_with(prefix)
                } else {
                    f.name == prefix
                };
                name_ok && (ty.is_none() || f.impl_type.as_deref() == ty)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `seeds`; returns, for each reached fn, the index of the
    /// fn it was reached from (`usize::MAX` for seeds themselves).
    pub fn reach(&self, seeds: &[usize]) -> std::collections::BTreeMap<usize, usize> {
        let mut parent = std::collections::BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &s in seeds {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(usize::MAX);
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &next in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(f);
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// The call chain from a root down to `idx`, e.g.
    /// `match_event_into -> query_into -> helper` (capped at 6 hops).
    pub fn chain(&self, parents: &std::collections::BTreeMap<usize, usize>, idx: usize) -> String {
        let mut names = vec![self.fns[idx].name.clone()];
        let mut cur = idx;
        while let Some(&p) = parents.get(&cur) {
            if p == usize::MAX || names.len() >= 6 {
                break;
            }
            names.push(self.fns[p].name.clone());
            cur = p;
        }
        // The head is spelled as a root spec spells it (`Type::method`).
        if let Some(ty) = &self.fns[cur].impl_type {
            if let Some(head) = names.last_mut() {
                *head = format!("{ty}::{head}");
            }
        }
        names.reverse();
        names.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn finds_free_and_assoc_fns() {
        let lexed = lex(br#"
fn free(x: u32) -> u32 { x }
struct S;
impl S {
    pub fn method(&self) -> u32 { free(1) }
    fn assoc() -> S { S }
}
impl std::ops::Deref for S {
    type Target = u32;
    fn deref(&self) -> &u32 { &0 }
}
"#);
        let fns = collect_fns(&lexed, 0);
        let names: Vec<(&str, Option<&str>, bool)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.has_self))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None, false),
                ("method", Some("S"), true),
                ("assoc", Some("S"), false),
                ("deref", Some("S"), true),
            ]
        );
    }

    #[test]
    fn call_kinds_are_attributed() {
        let lexed = lex(b"fn f() { g(); x.h(); T::k(); Self::m(); if (a) {} }");
        let fns = collect_fns(&lexed, 0);
        let (lo, hi) = fns[0].body.expect("body");
        let calls = collect_calls(&lexed, lo, hi);
        let kinds: Vec<(&str, &CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert_eq!(
            kinds,
            [
                ("g", &CallKind::Bare),
                ("h", &CallKind::Method),
                ("k", &CallKind::Qualified("T".into())),
                ("m", &CallKind::Qualified("Self".into())),
            ]
        );
    }

    #[test]
    fn macros_and_bounds_are_not_calls() {
        let lexed = lex(b"fn f<F: Fn(u8)>(g: F) { vec![1]; format!(\"x\"); g(1); }");
        let fns = collect_fns(&lexed, 0);
        let (lo, hi) = fns[0].body.expect("body");
        let calls = collect_calls(&lexed, lo, hi);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g"]);
    }

    #[test]
    fn reachability_is_transitive() {
        let lexed = lex(br#"
pub fn root() { helper(); }
fn helper() { leaf(); }
fn leaf() {}
fn unrelated() {}
"#);
        let graph = CallGraph::build(&[&lexed]);
        let seeds = graph.roots("root");
        let reached = graph.reach(&seeds);
        let names: Vec<&str> = reached
            .keys()
            .map(|&i| graph.fns[i].name.as_str())
            .collect();
        assert_eq!(names, ["root", "helper", "leaf"]);
        let leaf = graph.roots("leaf")[0];
        assert_eq!(graph.chain(&reached, leaf), "root -> helper -> leaf");
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let lexed = lex(br#"
pub fn root() {}
#[cfg(test)]
mod tests {
    fn root() { x.unwrap(); }
}
"#);
        let graph = CallGraph::build(&[&lexed]);
        assert_eq!(graph.fns.len(), 1);
    }

    #[test]
    fn method_calls_over_approximate() {
        let lexed = lex(br#"
pub fn root(s: &S) { s.work(); }
struct S;
struct T;
impl S { fn work(&self) {} }
impl T { fn work(&self) {} }
fn work() {}
"#);
        let graph = CallGraph::build(&[&lexed]);
        let reached = graph.reach(&graph.roots("root"));
        // Both methods link (receiver type unknown); the free fn does
        // not (a `.work()` call cannot be a free fn).
        let names: Vec<(&str, Option<&str>)> = reached
            .keys()
            .map(|&i| {
                (
                    graph.fns[i].name.as_str(),
                    graph.fns[i].impl_type.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            names,
            [("root", None), ("work", Some("S")), ("work", Some("T"))]
        );
    }
}
