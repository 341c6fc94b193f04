//! The workspace lints behind `cargo xtask check`.
//!
//! Every pass works on the token stream produced by [`crate::lex`] (so
//! comments, doc examples and string literals can never false-positive)
//! and, where call structure matters, on the conservative call graph of
//! [`crate::graph`]:
//!
//! 1. **no-panic** — the no-panic requirement seeds at the hot-path
//!    roots (`match_event_into`, `query_into`, `route_event*`,
//!    `SummaryPubSub::publish_with_scratch`, the wire decode entry
//!    points) and propagates transitively
//!    through the call graph: any reachable function must not contain
//!    `.unwrap()`, `.expect()` or panicking macros outside
//!    `#[cfg(test)]`. `assert!` / `debug_assert!` remain allowed: they
//!    state contracts, and the debug validators depend on them.
//! 2. **wire-robust** — functions in the wire codec files reachable
//!    from a decode entry point face untrusted bytes: slice indexing
//!    and `+`/`-`/`*` arithmetic near length-ish identifiers must carry
//!    a `// BOUND:` justification comment stating the bound.
//! 3. **atomic-policy** — every `Ordering::*` use in a file listed in
//!    the checked-in policy table must be in that file's allowed set,
//!    so weakening a counter's ordering, or growing atomics in a file
//!    declared `none`, fails `xtask check` before tsan ever runs.
//! 4. **unsafe-audit** — `unsafe` may only appear in explicitly
//!    allowlisted modules, and every `unsafe` block or `unsafe impl`
//!    must carry a `// SAFETY:` comment.
//! 5. **telemetry-names** — every string literal passed to
//!    `Count::new`, `Stage::new`, `counter`, `gauge` or `histogram`
//!    must be declared in `subsum_telemetry::names` (test-only names
//!    under the `test.` prefix are exempt), and every constant declared
//!    there must be referenced by non-test code outside the registry.
//! 6. **derived-state** — a field tagged `// lint: derived` is rebuilt,
//!    never serialized; the wire codec files must not reference it.
//! 7. **wire-tags** — a `const TAG_*/KIND_*: u8` wire tag must be
//!    referenced at least twice beyond its declaration *and* appear in
//!    a `match` arm pattern, so a tag cannot silently lose its decode
//!    arm.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::graph::CallGraph;
use crate::lex::{self, Lexed, TokenKind};

/// One lint finding, printed as `file:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// What to check. All paths are relative to `root`.
pub struct CheckConfig {
    pub root: PathBuf,
    /// Library sources: the call graph and most passes run over these.
    pub scan_files: Vec<PathBuf>,
    /// The telemetry name registry (`subsum_telemetry::names`), if any.
    pub registry: Option<PathBuf>,
    /// Wire codec files that must not reference derived fields.
    pub wire_files: Vec<PathBuf>,
    /// Files whose decode-reachable functions face untrusted bytes.
    pub wire_robust_files: Vec<PathBuf>,
    /// Root specs seeding the transitive no-panic requirement.
    pub panic_roots: Vec<String>,
    /// Root specs naming the wire decode entry points.
    pub wire_roots: Vec<String>,
    /// The atomic-ordering policy table, if any.
    pub atomics_policy: Option<PathBuf>,
    /// Modules allowed to contain `unsafe` at all.
    pub unsafe_allow: Vec<PathBuf>,
    /// Extra files (integration tests, the xtask sources themselves)
    /// audited for unsafe on top of `scan_files`.
    pub unsafe_extra: Vec<PathBuf>,
}

impl CheckConfig {
    /// The configuration for this workspace.
    pub fn workspace(root: &Path) -> Result<CheckConfig, String> {
        // Every library source file in the workspace except the xtask
        // crate itself (its fixtures contain deliberate violations).
        let mut scan_files = Vec::new();
        collect_rs(&root.join("src"), root, &mut scan_files)?;
        let crates_dir = root.join("crates");
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("{}: {e}", crates_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xtask"))
            .collect();
        members.sort();
        let mut unsafe_extra = Vec::new();
        for member in &members {
            collect_rs(&member.join("src"), root, &mut scan_files)?;
            collect_rs(&member.join("tests"), root, &mut unsafe_extra)?;
        }
        collect_rs(&root.join("tests"), root, &mut unsafe_extra)?;
        collect_rs(&root.join("crates/xtask/src"), root, &mut unsafe_extra)?;

        Ok(CheckConfig {
            root: root.to_path_buf(),
            scan_files,
            registry: Some(PathBuf::from("crates/telemetry/src/names.rs")),
            wire_files: vec![
                PathBuf::from("crates/core/src/wire.rs"),
                PathBuf::from("crates/types/src/subcodec.rs"),
            ],
            wire_robust_files: vec![
                PathBuf::from("crates/core/src/digest.rs"),
                PathBuf::from("crates/core/src/wire.rs"),
                PathBuf::from("crates/types/src/codec.rs"),
                PathBuf::from("crates/types/src/id.rs"),
                PathBuf::from("crates/types/src/subcodec.rs"),
                PathBuf::from("crates/broker/src/frame.rs"),
                PathBuf::from("crates/broker/src/msg.rs"),
                PathBuf::from("crates/broker/src/snapshot.rs"),
            ],
            panic_roots: vec![
                "match_event_into".into(),
                "probe_into".into(),
                "query_into".into(),
                "route_event*".into(),
                "examine".into(),
                "BrokerCore::verify".into(),
                "DaemonCore::step".into(),
                "SummaryPubSub::publish_with_scratch".into(),
                "decode".into(),
                "decode_bytes".into(),
                "from_bytes".into(),
                "next_frame".into(),
                "decode_all".into(),
                "decode_frame".into(),
            ],
            wire_roots: vec![
                "decode".into(),
                "decode_bytes".into(),
                "from_bytes".into(),
                "next_frame".into(),
                "decode_all".into(),
                "decode_frame".into(),
            ],
            atomics_policy: Some(PathBuf::from("crates/xtask/atomics.policy")),
            unsafe_allow: vec![
                PathBuf::from("crates/core/tests/zero_alloc.rs"),
                PathBuf::from("crates/telemetry/tests/zero_alloc.rs"),
            ],
            unsafe_extra,
        })
    }
}

/// Recursively collects `.rs` files under `dir` (paths made relative to
/// `root`), in sorted order. A missing `dir` is not an error.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// One loaded-and-lexed source file.
pub struct Source {
    pub rel: PathBuf,
    pub lexed: Lexed,
}

fn load(root: &Path, rel: &Path) -> Result<Source, String> {
    let full = root.join(rel);
    let raw = std::fs::read(&full).map_err(|e| format!("{}: {e}", full.display()))?;
    Ok(Source {
        rel: rel.to_path_buf(),
        lexed: lex::lex(&raw),
    })
}

/// Runs every lint and returns all findings, sorted by file and line.
pub fn run_check(cfg: &CheckConfig) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();

    let sources: Vec<Source> = cfg
        .scan_files
        .iter()
        .map(|rel| load(&cfg.root, rel))
        .collect::<Result<_, _>>()?;
    let lexed_refs: Vec<&Lexed> = sources.iter().map(|s| &s.lexed).collect();
    let graph = CallGraph::build(&lexed_refs);

    no_panic(cfg, &sources, &graph, &mut violations);
    wire_robust(cfg, &sources, &graph, &mut violations);
    atomic_policy(cfg, &mut violations)?;
    unsafe_audit(cfg, &sources, &mut violations)?;

    let registry_src = match &cfg.registry {
        Some(rel) => Some(load(&cfg.root, rel)?),
        None => None,
    };
    let registry = registry_src.as_ref().map(registry_names);
    // Whether a registered name is dead is only decidable when the scan
    // covers the registry's own workspace.
    if let Some(reg) = &registry_src {
        if sources.iter().any(|s| s.rel == reg.rel) {
            dead_telemetry_names(reg, &sources, &mut violations);
        }
    }
    let mut derived_fields = Vec::new();
    for src in &sources {
        if let Some(names) = &registry {
            telemetry_names(src, names, &mut violations);
        }
        wire_tags(src, &mut violations);
        derived_fields.extend(derived_tags(src));
    }
    for rel in &cfg.wire_files {
        let src = load(&cfg.root, rel)?;
        derived_state(&src, &derived_fields, &mut violations);
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    violations
        .dedup_by(|a, b| (&a.file, a.line, a.rule, &a.msg) == (&b.file, b.line, b.rule, &b.msg));
    Ok(violations)
}

/// The functions reachable from the configured no-panic roots, as
/// `(chain, file, line)` — used by `--list-reachable`.
pub fn reachable_report(cfg: &CheckConfig) -> Result<Vec<String>, String> {
    let sources: Vec<Source> = cfg
        .scan_files
        .iter()
        .map(|rel| load(&cfg.root, rel))
        .collect::<Result<_, _>>()?;
    let lexed_refs: Vec<&Lexed> = sources.iter().map(|s| &s.lexed).collect();
    let graph = CallGraph::build(&lexed_refs);
    let mut seeds = Vec::new();
    for spec in &cfg.panic_roots {
        seeds.extend(graph.roots(spec));
    }
    let parents = graph.reach(&seeds);
    Ok(parents
        .keys()
        .map(|&idx| {
            let f = &graph.fns[idx];
            format!(
                "{}:{}: {}",
                sources[f.file].rel.display(),
                sources[f.file].lexed.line(f.name_tok),
                graph.chain(&parents, idx)
            )
        })
        .collect())
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Lint 1: panicking constructs in any function reachable from a
/// hot-path root.
fn no_panic(cfg: &CheckConfig, sources: &[Source], graph: &CallGraph, out: &mut Vec<Violation>) {
    let mut seeds = Vec::new();
    for spec in &cfg.panic_roots {
        seeds.extend(graph.roots(spec));
    }
    let parents = graph.reach(&seeds);
    for &idx in parents.keys() {
        let f = &graph.fns[idx];
        let Some((lo, hi)) = f.body else { continue };
        let src = &sources[f.file];
        let chain = graph.chain(&parents, idx);
        for (tok, what) in panic_sites(&src.lexed, lo, hi) {
            out.push(Violation {
                file: src.rel.clone(),
                line: src.lexed.line(tok),
                rule: "no-panic",
                msg: format!(
                    "{what} in `{}`, reachable from a hot-path root ({chain}); \
                     propagate an error or rewrite infallibly",
                    f.name
                ),
            });
        }
    }
}

/// Panicking constructs in the token range `[lo, hi]`:
/// `.unwrap()` / `.expect()` calls and panicking macros.
fn panic_sites(lexed: &Lexed, lo: usize, hi: usize) -> Vec<(usize, String)> {
    let toks = &lexed.tokens;
    let mut sites = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        if lexed.in_test(i) || lexed.in_attr(i) {
            continue;
        }
        if lexed.is_punct(i, b'.')
            && i + 2 <= hi
            && (lexed.is_ident(i + 1, "unwrap") || lexed.is_ident(i + 1, "expect"))
            && matches!(toks[i + 2].kind, TokenKind::Open(b'('))
        {
            let name = String::from_utf8_lossy(lexed.text(i + 1)).into_owned();
            sites.push((i + 1, format!("`.{name}()`")));
        }
        if matches!(toks[i].kind, TokenKind::Ident)
            && PANIC_MACROS.iter().any(|m| lexed.is_ident(i, m))
            && i < hi
            && lexed.is_punct(i + 1, b'!')
            && !(i + 2 <= hi && lexed.is_punct(i + 2, b'='))
        {
            let name = String::from_utf8_lossy(lexed.text(i)).into_owned();
            sites.push((i, format!("`{name}!`")));
        }
    }
    sites
}

/// Lint 2: unguarded indexing/arithmetic in decode-reachable functions
/// of the wire codec files.
fn wire_robust(cfg: &CheckConfig, sources: &[Source], graph: &CallGraph, out: &mut Vec<Violation>) {
    let mut seeds = Vec::new();
    for spec in &cfg.wire_roots {
        seeds.extend(graph.roots(spec));
    }
    let parents = graph.reach(&seeds);
    for &idx in parents.keys() {
        let f = &graph.fns[idx];
        let src = &sources[f.file];
        if !cfg.wire_robust_files.contains(&src.rel) {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let lexed = &src.lexed;
        let toks = &lexed.tokens;
        for i in lo..=hi.min(toks.len().saturating_sub(1)) {
            if lexed.in_test(i) || lexed.in_attr(i) {
                continue;
            }
            // Slice/array indexing: `expr[...]` panics on out-of-range.
            if matches!(toks[i].kind, TokenKind::Open(b'['))
                && i > 0
                && matches!(
                    toks[i - 1].kind,
                    TokenKind::Ident | TokenKind::Close(b')') | TokenKind::Close(b']')
                )
                && !lexed.comment_marker_near(i, "BOUND:", 2)
            {
                out.push(Violation {
                    file: src.rel.clone(),
                    line: lexed.line(i),
                    rule: "wire-robust",
                    msg: format!(
                        "slice indexing in `{}`, reachable from a wire decode entry point \
                         ({}); use a checked accessor or state the bound in a `// BOUND:` comment",
                        f.name,
                        graph.chain(&parents, idx)
                    ),
                });
            }
            // Unchecked arithmetic near a wire-derived length.
            if let TokenKind::Punct(op @ (b'+' | b'-' | b'*')) = toks[i].kind {
                // Binary only: the left neighbor must end an expression.
                let binary = i > 0
                    && matches!(
                        toks[i - 1].kind,
                        TokenKind::Ident | TokenKind::Num | TokenKind::Close(_)
                    );
                // `->` is not arithmetic.
                let arrow = op == b'-'
                    && i + 1 < toks.len()
                    && lexed.is_punct(i + 1, b'>')
                    && toks[i].end == toks[i + 1].start;
                if binary
                    && !arrow
                    && operand_is_lengthish(lexed, i, lo, hi)
                    && !lexed.comment_marker_near(i, "BOUND:", 2)
                {
                    out.push(Violation {
                        file: src.rel.clone(),
                        line: lexed.line(i),
                        rule: "wire-robust",
                        msg: format!(
                            "`{}` on a length-like operand in `{}`, reachable from a wire \
                             decode entry point; use checked_/saturating_ arithmetic or state \
                             the bound in a `// BOUND:` comment",
                            op as char, f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Whether an identifier within a four-token window around the operator
/// at `i` looks like a length (`len`, `count`, `size` in the name).
fn operand_is_lengthish(lexed: &Lexed, i: usize, lo: usize, hi: usize) -> bool {
    let from = i.saturating_sub(4).max(lo);
    let to = (i + 4).min(hi);
    (from..=to).any(|j| {
        matches!(lexed.tokens[j].kind, TokenKind::Ident) && {
            let text = lexed.text(j).to_ascii_lowercase();
            [&b"len"[..], b"count", b"size"]
                .iter()
                .any(|m| lex::find(&text, m, 0).is_some())
        }
    })
}

const ORDERINGS: &[&str] = &["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"];

/// Lint 3: atomic-ordering uses against the checked-in policy table.
///
/// Policy file format (one entry per line, `#` comments):
/// ```text
/// <relative path>: <Ordering> [<Ordering> ...]
/// <relative path>: none
/// ```
fn atomic_policy(cfg: &CheckConfig, out: &mut Vec<Violation>) -> Result<(), String> {
    let Some(policy_rel) = &cfg.atomics_policy else {
        return Ok(());
    };
    let policy_path = cfg.root.join(policy_rel);
    let text = std::fs::read_to_string(&policy_path)
        .map_err(|e| format!("{}: {e}", policy_path.display()))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (path, allowed) = line.split_once(':').ok_or_else(|| {
            format!(
                "{}:{}: malformed policy line (expected `path: orderings`)",
                policy_rel.display(),
                lineno + 1
            )
        })?;
        let rel = PathBuf::from(path.trim());
        let allowed: BTreeSet<&str> = match allowed.trim() {
            "none" => BTreeSet::new(),
            list => {
                let set: BTreeSet<&str> = list.split_whitespace().collect();
                if let Some(bad) = set.iter().find(|o| !ORDERINGS.contains(*o)) {
                    return Err(format!(
                        "{}:{}: unknown ordering `{bad}` in policy",
                        policy_rel.display(),
                        lineno + 1
                    ));
                }
                set
            }
        };
        let src = load(&cfg.root, &rel)?;
        for i in 0..src.lexed.tokens.len() {
            if src.lexed.in_attr(i) {
                continue;
            }
            let Some(ord) = ORDERINGS.iter().find(|o| src.lexed.is_ident(i, o)) else {
                continue;
            };
            if !allowed.contains(*ord) {
                out.push(Violation {
                    file: rel.clone(),
                    line: src.lexed.line(i),
                    rule: "atomic-policy",
                    msg: format!(
                        "`Ordering::{ord}` is not in the declared policy for this file \
                         (allowed: {}); update {} only with a written protocol argument",
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.iter().cloned().collect::<Vec<_>>().join(" ")
                        },
                        policy_rel.display()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Lint 4: `unsafe` outside allowlisted modules, or without a
/// `// SAFETY:` comment on blocks and impls.
fn unsafe_audit(
    cfg: &CheckConfig,
    sources: &[Source],
    out: &mut Vec<Violation>,
) -> Result<(), String> {
    let extra: Vec<Source> = cfg
        .unsafe_extra
        .iter()
        .map(|rel| load(&cfg.root, rel))
        .collect::<Result<_, _>>()?;
    for src in sources.iter().chain(extra.iter()) {
        let lexed = &src.lexed;
        let allowed = cfg.unsafe_allow.contains(&src.rel);
        for i in 0..lexed.tokens.len() {
            if !lexed.is_ident(i, "unsafe") || lexed.in_attr(i) {
                continue;
            }
            if !allowed {
                out.push(Violation {
                    file: src.rel.clone(),
                    line: lexed.line(i),
                    rule: "unsafe-audit",
                    msg: "`unsafe` in a module not on the unsafe allowlist; \
                          move the code into an allowlisted module or extend the \
                          allowlist with a written justification"
                        .to_string(),
                });
                continue;
            }
            let next = i + 1;
            let needs_safety = next < lexed.tokens.len()
                && (matches!(lexed.tokens[next].kind, TokenKind::Open(b'{'))
                    || lexed.is_ident(next, "impl"));
            if needs_safety && !lexed.comment_marker_near(i, "SAFETY:", 3) {
                out.push(Violation {
                    file: src.rel.clone(),
                    line: lexed.line(i),
                    rule: "unsafe-audit",
                    msg: "`unsafe` block/impl without a `// SAFETY:` comment stating \
                          the invariant it relies on"
                        .to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Every string literal declared in the names registry (outside tests).
fn registry_names(src: &Source) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..src.lexed.tokens.len() {
        if let TokenKind::Str(v) = &src.lexed.tokens[i].kind {
            if !src.lexed.in_test(i) {
                names.insert(v.clone());
            }
        }
    }
    names
}

/// Lint 5: telemetry name literals outside the registry.
fn telemetry_names(src: &Source, registry: &BTreeSet<String>, out: &mut Vec<Violation>) {
    let lexed = &src.lexed;
    let toks = &lexed.tokens;
    let len = toks.len();
    for i in 0..len {
        if !matches!(toks[i].kind, TokenKind::Ident) || lexed.in_attr(i) {
            continue;
        }
        // `Count::new(` / `Stage::new(`, or bare `counter(` / `gauge(`
        // / `histogram(`.
        let open = if (lexed.is_ident(i, "Count") || lexed.is_ident(i, "Stage"))
            && i + 4 < len
            && lexed.is_path_sep(i + 1)
            && lexed.is_ident(i + 3, "new")
            && matches!(toks[i + 4].kind, TokenKind::Open(b'('))
        {
            i + 4
        } else if (lexed.is_ident(i, "counter")
            || lexed.is_ident(i, "gauge")
            || lexed.is_ident(i, "histogram"))
            && i + 1 < len
            && matches!(toks[i + 1].kind, TokenKind::Open(b'('))
        {
            i + 1
        } else {
            continue;
        };
        // The first argument, skipping a leading `&`.
        let mut j = open + 1;
        while j < len && lexed.is_punct(j, b'&') {
            j += 1;
        }
        let Some(TokenKind::Str(value)) = toks.get(j).map(|t| &t.kind) else {
            continue; // a constant or expression, not a literal
        };
        if lexed.in_test(i) || value.starts_with("test.") {
            continue;
        }
        if !registry.contains(value) {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line(i),
                rule: "telemetry-names",
                msg: format!(
                    "telemetry name {value:?} is not declared in subsum_telemetry::names; \
                     add a constant there and use it here"
                ),
            });
        }
    }
}

/// Lint 5, second half: a registered `const NAME: &str = "value"` that no
/// non-test code outside the registry references — by identifier or by
/// its literal value — names a metric nothing records.
fn dead_telemetry_names(registry: &Source, sources: &[Source], out: &mut Vec<Violation>) {
    let mut used: BTreeSet<&[u8]> = BTreeSet::new();
    for src in sources.iter().filter(|s| s.rel != registry.rel) {
        for (j, tok) in src.lexed.tokens.iter().enumerate() {
            if src.lexed.in_test(j) {
                continue;
            }
            match &tok.kind {
                TokenKind::Ident => used.insert(src.lexed.text(j)),
                TokenKind::Str(v) => used.insert(v.as_bytes()),
                _ => false,
            };
        }
    }
    let lexed = &registry.lexed;
    let toks = &lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if !lexed.is_ident(i, "const")
            || lexed.in_test(i)
            || !matches!(toks[i + 1].kind, TokenKind::Ident)
        {
            continue;
        }
        let value = (i + 2..toks.len())
            .take_while(|&j| !lexed.is_punct(j, b';'))
            .find_map(|j| match &toks[j].kind {
                TokenKind::Str(v) => Some(v),
                _ => None,
            });
        let Some(value) = value else { continue };
        let name = lexed.text(i + 1);
        if !used.contains(name) && !used.contains(value.as_bytes()) {
            out.push(Violation {
                file: registry.rel.clone(),
                line: lexed.line(i + 1),
                rule: "telemetry-names",
                msg: format!(
                    "telemetry name `{}` ({value:?}) is registered but no non-test code \
                     references it; delete the constant",
                    String::from_utf8_lossy(name)
                ),
            });
        }
    }
}

/// A field tagged `// lint: derived`, with where it was declared.
#[derive(Debug)]
struct DerivedField {
    name: String,
    file: PathBuf,
    line: usize,
}

/// Collects `// lint: derived` field tags from the raw source (the tag
/// lives in a comment, which never becomes a token).
fn derived_tags(src: &Source) -> Vec<DerivedField> {
    const TAG: &[u8] = b"// lint: derived";
    let raw = &src.lexed.src;
    let mut fields = Vec::new();
    let mut from = 0;
    while let Some(pos) = lex::find(raw, TAG, from) {
        from = pos + TAG.len();
        // The field declaration shares the tag's line:
        // `name: Type, // lint: derived`
        let line_start = raw[..pos]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let decl = &raw[line_start..pos];
        let Some(colon) = decl.iter().position(|&b| b == b':') else {
            continue;
        };
        let mut end = colon;
        while end > 0 && decl[end - 1].is_ascii_whitespace() {
            end -= 1;
        }
        let mut start = end;
        while start > 0 && (decl[start - 1].is_ascii_alphanumeric() || decl[start - 1] == b'_') {
            start -= 1;
        }
        if start < end {
            fields.push(DerivedField {
                name: String::from_utf8_lossy(&decl[start..end]).into_owned(),
                file: src.rel.clone(),
                line: lex::line_of(raw, pos),
            });
        }
    }
    fields
}

/// Lint 6: wire codecs referencing derived fields.
fn derived_state(src: &Source, fields: &[DerivedField], out: &mut Vec<Violation>) {
    let lexed = &src.lexed;
    for field in fields {
        for i in 0..lexed.tokens.len() {
            if !lexed.is_ident(i, &field.name) || lexed.in_test(i) || lexed.in_attr(i) {
                continue;
            }
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line(i),
                rule: "derived-state",
                msg: format!(
                    "wire codec references `{}`, tagged `lint: derived` at {}:{}; \
                     derived state is rebuilt after decode, never serialized",
                    field.name,
                    field.file.display(),
                    field.line
                ),
            });
        }
    }
}

/// Lint 7: wire tag constants must be used by both sides and appear in
/// a decode `match` arm pattern.
fn wire_tags(src: &Source, out: &mut Vec<Violation>) {
    let lexed = &src.lexed;
    let toks = &lexed.tokens;
    let len = toks.len();
    for i in 0..len {
        if !lexed.is_ident(i, "const") || lexed.in_attr(i) {
            continue;
        }
        // `const TAG_X: u8`
        if i + 3 >= len || !matches!(toks[i + 1].kind, TokenKind::Ident) {
            continue;
        }
        let name = lexed.text(i + 1).to_vec();
        if !(name.starts_with(b"TAG_") || name.starts_with(b"KIND_")) {
            continue;
        }
        if !lexed.is_punct(i + 2, b':') || !lexed.is_ident(i + 3, "u8") {
            continue;
        }
        let decl_tok = i + 1;
        let uses: Vec<usize> = (0..len)
            .filter(|&j| {
                j != decl_tok
                    && matches!(toks[j].kind, TokenKind::Ident)
                    && lexed.text(j) == name.as_slice()
            })
            .collect();
        let display = String::from_utf8_lossy(&name).into_owned();
        if uses.len() < 2 {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line(decl_tok),
                rule: "wire-tags",
                msg: format!(
                    "wire tag `{display}` has {} reference(s) beyond its declaration; \
                     it must appear in both the encoder and the decoder",
                    uses.len()
                ),
            });
            continue;
        }
        if !uses.iter().any(|&j| in_match_arm_pattern(lexed, j)) {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line(decl_tok),
                rule: "wire-tags",
                msg: format!(
                    "wire tag `{display}` never appears in a `match` arm pattern; \
                     the decoder must match on it explicitly"
                ),
            });
        }
    }
}

/// Whether the token at `j` sits in pattern position of a match arm:
/// walking forward (jumping over delimited groups) reaches `=>` before
/// any `,`, `;`, `=` or a group close.
fn in_match_arm_pattern(lexed: &Lexed, j: usize) -> bool {
    let toks = &lexed.tokens;
    let len = toks.len();
    let mut k = j + 1;
    while k < len {
        match toks[k].kind {
            TokenKind::Open(_) => {
                if toks[k].mat == usize::MAX {
                    return false;
                }
                k = toks[k].mat + 1;
                continue;
            }
            TokenKind::Close(_) => return false,
            TokenKind::Punct(b'=') => return lexed.is_fat_arrow(k),
            TokenKind::Punct(b',') | TokenKind::Punct(b';') => return false,
            _ => {}
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    fn empty_config(root: PathBuf) -> CheckConfig {
        CheckConfig {
            root,
            scan_files: Vec::new(),
            registry: None,
            wire_files: Vec::new(),
            wire_robust_files: Vec::new(),
            panic_roots: Vec::new(),
            wire_roots: Vec::new(),
            atomics_policy: None,
            unsafe_allow: Vec::new(),
            unsafe_extra: Vec::new(),
        }
    }

    fn panic_config(files: &[&str]) -> CheckConfig {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = files.iter().map(PathBuf::from).collect();
        cfg.panic_roots = vec![
            "match_event_into".into(),
            "query_into".into(),
            "route_event*".into(),
            "publish_with_scratch".into(),
        ];
        cfg
    }

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn no_panic_flags_seeded_violations_only() {
        let cfg = panic_config(&["no_panic_bad.rs"]);
        let v = run_check(&cfg).unwrap();
        // One unwrap, one expect, one panic!, one unreachable! — the
        // unwraps inside `#[cfg(test)]`, comments, strings and the
        // `unwrap_or` call must all pass.
        assert_eq!(rules(&v), vec!["no-panic"; 4], "{v:#?}");
        assert!(v.iter().any(|x| x.msg.contains("unwrap")));
        assert!(v.iter().any(|x| x.msg.contains("expect")));
        assert!(v.iter().any(|x| x.msg.contains("panic!")));
        assert!(v.iter().any(|x| x.msg.contains("unreachable!")));
    }

    #[test]
    fn no_panic_passes_clean_fixture() {
        let cfg = panic_config(&["no_panic_clean.rs"]);
        let v = run_check(&cfg).unwrap();
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn no_panic_propagates_transitively() {
        let cfg = panic_config(&["callgraph_transitive.rs"]);
        let v = run_check(&cfg).unwrap();
        // The root is clean; the panic hides two calls deep, and one
        // more in a method resolved conservatively by name. The
        // unreachable sibling's unwrap must NOT fire.
        assert_eq!(rules(&v), vec!["no-panic"; 2], "{v:#?}");
        assert!(v.iter().any(|x| x.msg.contains("deep_helper")));
        assert!(v.iter().any(|x| x.msg.contains("lookup")));
        assert!(v.iter().all(|x| !x.msg.contains("unreachable_sibling")));
        // The chain names the seeding root.
        assert!(v.iter().all(|x| x.msg.contains("match_event_into")));
    }

    #[test]
    fn wire_robust_flags_indexing_and_len_arith() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("wire_robust_bad.rs")];
        cfg.wire_robust_files = cfg.scan_files.clone();
        cfg.wire_roots = vec!["decode".into(), "from_bytes".into()];
        let v = run_check(&cfg).unwrap();
        // One unguarded index, one len-multiply; the BOUND-commented
        // index and the helper not reachable from decode stay clean.
        assert_eq!(rules(&v), vec!["wire-robust"; 2], "{v:#?}");
        assert!(v.iter().any(|x| x.msg.contains("slice indexing")));
        assert!(v.iter().any(|x| x.msg.contains("length-like")));
    }

    #[test]
    fn atomic_policy_flags_downgraded_ordering() {
        let mut cfg = empty_config(fixtures());
        cfg.atomics_policy = Some(PathBuf::from("atomics_bad.policy"));
        let v = run_check(&cfg).unwrap();
        // `atomics_bad.rs` stores the epoch with Relaxed; the policy
        // allows only SeqCst. The two SeqCst uses pass.
        assert_eq!(rules(&v), vec!["atomic-policy"], "{v:#?}");
        assert!(v[0].msg.contains("Relaxed"));
    }

    #[test]
    fn atomic_policy_passes_conforming_file() {
        let mut cfg = empty_config(fixtures());
        cfg.atomics_policy = Some(PathBuf::from("atomics_clean.policy"));
        let v = run_check(&cfg).unwrap();
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn atomic_policy_rejects_unknown_ordering_in_policy() {
        let mut cfg = empty_config(fixtures());
        cfg.atomics_policy = Some(PathBuf::from("atomics_malformed.policy"));
        let err = run_check(&cfg).unwrap_err();
        assert!(err.contains("unknown ordering"), "{err}");
    }

    #[test]
    fn unsafe_audit_flags_uncommented_and_unlisted() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![
            PathBuf::from("unsafe_bad.rs"),
            PathBuf::from("unsafe_unlisted.rs"),
        ];
        cfg.unsafe_allow = vec![PathBuf::from("unsafe_bad.rs")];
        let v = run_check(&cfg).unwrap();
        // unsafe_bad.rs: one block without SAFETY (the commented one
        // passes). unsafe_unlisted.rs: one module-allowlist violation.
        assert_eq!(rules(&v), vec!["unsafe-audit"; 2], "{v:#?}");
        assert!(v.iter().any(|x| x.msg.contains("SAFETY")));
        assert!(v.iter().any(|x| x.msg.contains("allowlist")));
    }

    #[test]
    fn telemetry_names_flags_rogue_literal() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_registry.rs"));
        cfg.scan_files = vec![PathBuf::from("telemetry_bad.rs")];
        let v = run_check(&cfg).unwrap();
        // Only the rogue literal: registry names, constants, `test.`
        // names and test-region literals are all allowed.
        assert_eq!(rules(&v), vec!["telemetry-names"], "{v:#?}");
        assert!(v[0].msg.contains("app.rogue"));
    }

    #[test]
    fn telemetry_names_accepts_registered_chaos_family() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_registry.rs"));
        cfg.scan_files = vec![PathBuf::from("telemetry_chaos.rs")];
        let v = run_check(&cfg).unwrap();
        assert_eq!(rules(&v), vec!["telemetry-names"], "{v:#?}");
        assert!(v[0].msg.contains("chaos.unregistered"));
    }

    #[test]
    fn telemetry_names_accepts_registered_trace_family() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_registry.rs"));
        cfg.scan_files = vec![PathBuf::from("telemetry_trace.rs")];
        let v = run_check(&cfg).unwrap();
        assert_eq!(rules(&v), vec!["telemetry-names"], "{v:#?}");
        assert!(v[0].msg.contains("trace.unregistered"));
    }

    #[test]
    fn telemetry_names_accepts_registered_plan_family() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_registry.rs"));
        cfg.scan_files = vec![PathBuf::from("telemetry_plan.rs")];
        let v = run_check(&cfg).unwrap();
        assert_eq!(rules(&v), vec!["telemetry-names"], "{v:#?}");
        assert!(v[0].msg.contains("summary.plan_unregistered"));
    }

    #[test]
    fn telemetry_names_flags_dead_registered_constant() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_dead.rs"));
        cfg.scan_files = vec![
            PathBuf::from("names_dead.rs"),
            PathBuf::from("telemetry_dead.rs"),
        ];
        let v = run_check(&cfg).unwrap();
        // Referenced by constant or by literal value: alive. Referenced
        // only from test code or only inside the registry: dead.
        assert_eq!(rules(&v), vec!["telemetry-names"; 2], "{v:#?}");
        assert!(v.iter().all(|x| x.file == Path::new("names_dead.rs")));
        assert!(v[0].msg.contains("APP_TEST_ONLY"));
        assert!(v[1].msg.contains("APP_UNUSED"));
    }

    #[test]
    fn telemetry_names_accepts_registered_transport_family() {
        let mut cfg = empty_config(fixtures());
        cfg.registry = Some(PathBuf::from("names_registry.rs"));
        cfg.scan_files = vec![PathBuf::from("telemetry_transport.rs")];
        let v = run_check(&cfg).unwrap();
        assert_eq!(rules(&v), vec!["telemetry-names"], "{v:#?}");
        assert!(v[0].msg.contains("transport.unregistered"));
    }

    #[test]
    fn derived_state_flags_wire_reference() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("derived_struct.rs")];
        cfg.wire_files = vec![PathBuf::from("derived_wire_bad.rs")];
        let v = run_check(&cfg).unwrap();
        // One anchor_index reference, two intern-table references, one
        // required-counts reference and one compiled-plan reference; the
        // comment mentions must not fire.
        assert_eq!(rules(&v), vec!["derived-state"; 5], "{v:#?}");
        assert!(v.iter().any(|x| x.msg.contains("`anchor_index`")));
        assert!(v.iter().any(|x| x.msg.contains("`intern`")));
        assert!(v.iter().any(|x| x.msg.contains("`required`")));
        assert!(v.iter().any(|x| x.msg.contains("`plan`")));
    }

    #[test]
    fn derived_state_passes_clean_wire_file() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("derived_struct.rs")];
        cfg.wire_files = vec![PathBuf::from("derived_wire_clean.rs")];
        let v = run_check(&cfg).unwrap();
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn wire_tags_flags_unpaired_constant() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("wire_tags_bad.rs")];
        let v = run_check(&cfg).unwrap();
        assert_eq!(rules(&v), vec!["wire-tags"], "{v:#?}");
        assert!(v[0].msg.contains("TAG_ORPHAN"));
    }

    #[test]
    fn wire_tags_flags_tag_missing_from_decode_match() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("wire_tags_no_match_arm.rs")];
        let v = run_check(&cfg).unwrap();
        // TAG_SKIPPED is referenced on both sides but the decoder
        // compares with `==` instead of matching; TAG_MATCHED passes.
        assert_eq!(rules(&v), vec!["wire-tags"], "{v:#?}");
        assert!(v[0].msg.contains("TAG_SKIPPED"));
        assert!(v[0].msg.contains("match"));
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let cfg = CheckConfig::workspace(&root).unwrap();
        assert!(!cfg.scan_files.is_empty());
        let v = run_check(&cfg).unwrap();
        assert!(
            v.is_empty(),
            "workspace lints failed:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn real_workspace_reaches_the_seeded_roots() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let cfg = CheckConfig::workspace(&root).unwrap();
        let reachable = reachable_report(&cfg).unwrap();
        // Every configured root family must actually seed the graph —
        // a renamed root would otherwise silently drop coverage.
        for root_fn in [
            "match_event_into",
            "query_into",
            "route_event",
            "publish_with_scratch",
            "decode",
            "from_bytes",
            "next_frame",
            "decode_all",
        ] {
            assert!(
                reachable.iter().any(|line| line.contains(root_fn)),
                "no reachable fn matches `{root_fn}`:\n{}",
                reachable.join("\n")
            );
        }
        // And propagation is genuinely transitive: helpers that are not
        // roots themselves must appear with a multi-hop chain.
        assert!(
            reachable.iter().any(|line| line.contains(" -> ")),
            "{}",
            reachable.join("\n")
        );
    }
}
