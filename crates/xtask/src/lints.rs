//! The workspace lints behind `cargo xtask check`.
//!
//! Every pass works on the token stream produced by [`crate::lex`], so
//! comments, doc examples and string literals can never false-positive:
//!
//! 1. **wire-robust** — the wire codec files face untrusted bytes:
//!    outside `#[cfg(test)]`, slice indexing and `+`/`-`/`*` arithmetic
//!    near length-ish identifiers must carry a `// BOUND:` justification
//!    comment stating the bound.
//! 2. **atomic-ordering** — outside `#[cfg(test)]` and attributes, the
//!    orderings `Release`, `Acquire`, `AcqRel` and `SeqCst` are
//!    violations: every atomic in the workspace is a `Relaxed`
//!    telemetry counter, and shared state is published through `std`'s
//!    locks, so a hand-rolled publication protocol fails `xtask check`
//!    before tsan ever runs.
//! 3. **telemetry-names** — every string literal passed to
//!    `Count::new`, `Stage::new`, `counter`, `gauge` or `histogram`
//!    must be declared in `subsum_telemetry::names` (test-only names
//!    under the `test.` prefix are exempt), and every constant declared
//!    there must be referenced by non-test code outside the registry.
//! 4. **wire-tags** — a `const TAG_*/KIND_*: u8` wire tag must be
//!    referenced at least twice beyond its declaration *and* appear in
//!    a `match` arm pattern, so a tag cannot silently lose its decode
//!    arm.
//!
//! What rustc and clippy check is left to them: the six library crates
//! deny `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//! `unimplemented!` outside tests at their crate roots, the workspace
//! lints deny `unsafe_code` in every target (each library root forbids
//! it) and `clippy::undocumented_unsafe_blocks`, and the summary's
//! derived state (intern table, compiled plan) is private to
//! `core::summary`, so the wire codec cannot reach it.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

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
    /// Library sources: every pass runs over these.
    pub scan_files: Vec<PathBuf>,
    /// The telemetry name registry (`subsum_telemetry::names`), if any.
    pub registry: Option<PathBuf>,
    /// Files that decode untrusted bytes.
    pub wire_robust_files: Vec<PathBuf>,
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
        for member in &members {
            collect_rs(&member.join("src"), root, &mut scan_files)?;
        }

        Ok(CheckConfig {
            root: root.to_path_buf(),
            scan_files,
            registry: Some(PathBuf::from("crates/telemetry/src/names.rs")),
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
    for src in &sources {
        if cfg.wire_robust_files.contains(&src.rel) {
            wire_robust(src, &mut violations);
        }
        atomic_ordering(src, &mut violations);
        if let Some(names) = &registry {
            telemetry_names(src, names, &mut violations);
        }
        wire_tags(src, &mut violations);
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Lint 1: unguarded indexing/arithmetic in the wire codec files.
fn wire_robust(src: &Source, out: &mut Vec<Violation>) {
    let lexed = &src.lexed;
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
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
                msg: "slice indexing in a wire codec file; use a checked accessor or state \
                      the bound in a `// BOUND:` comment"
                    .to_string(),
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
                && operand_is_lengthish(lexed, i)
                && !lexed.comment_marker_near(i, "BOUND:", 2)
            {
                out.push(Violation {
                    file: src.rel.clone(),
                    line: lexed.line(i),
                    rule: "wire-robust",
                    msg: format!(
                        "`{}` on a length-like operand in a wire codec file; use \
                         checked_/saturating_ arithmetic or state the bound in a \
                         `// BOUND:` comment",
                        op as char
                    ),
                });
            }
        }
    }
}

/// Whether an identifier within a four-token window around the operator
/// at `i` looks like a length (`len`, `count`, `size` in the name).
fn operand_is_lengthish(lexed: &Lexed, i: usize) -> bool {
    let from = i.saturating_sub(4);
    let to = (i + 4).min(lexed.tokens.len() - 1);
    (from..=to).any(|j| {
        matches!(lexed.tokens[j].kind, TokenKind::Ident) && {
            let text = lexed.text(j).to_ascii_lowercase();
            [&b"len"[..], b"count", b"size"]
                .iter()
                .any(|m| lex::find(&text, m, 0).is_some())
        }
    })
}

const STRONG_ORDERINGS: &[&str] = &["Release", "Acquire", "AcqRel", "SeqCst"];

/// Lint 2: an atomic ordering other than `Relaxed` outside tests.
fn atomic_ordering(src: &Source, out: &mut Vec<Violation>) {
    let lexed = &src.lexed;
    for i in 0..lexed.tokens.len() {
        if lexed.in_test(i) || lexed.in_attr(i) {
            continue;
        }
        if let Some(ord) = STRONG_ORDERINGS.iter().find(|o| lexed.is_ident(i, o)) {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line(i),
                rule: "atomic-ordering",
                msg: format!(
                    "`Ordering::{ord}` outside tests; the workspace's atomics are `Relaxed` \
                     counters, so publish shared state through std's locks instead of a \
                     hand-rolled protocol"
                ),
            });
        }
    }
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

/// Lint 3: telemetry name literals outside the registry.
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

/// Lint 3, second half: a registered `const NAME: &str = "value"` that no
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

/// Lint 4: wire tag constants must be used by both sides and appear in
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
            wire_robust_files: Vec::new(),
        }
    }

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wire_robust_flags_indexing_and_len_arith() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("wire_robust_bad.rs")];
        cfg.wire_robust_files = cfg.scan_files.clone();
        let v = run_check(&cfg).unwrap();
        // Two unguarded indexes (one in `decode`, one in
        // `encode_scratch`) and one len-multiply; the BOUND-commented
        // index and the test module stay clean.
        assert_eq!(rules(&v), vec!["wire-robust"; 3], "{v:#?}");
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), [7, 9, 20]);
        assert!(v[0].msg.contains("slice indexing"));
        assert!(v[1].msg.contains("length-like"));
        assert!(v[2].msg.contains("slice indexing"));
    }

    #[test]
    fn atomic_ordering_flags_all_but_relaxed_outside_tests() {
        let mut cfg = empty_config(fixtures());
        cfg.scan_files = vec![PathBuf::from("atomics.rs")];
        let v = run_check(&cfg).unwrap();
        // The SeqCst store and the Acquire load; the Relaxed counter and
        // the SeqCst in the test module stay clean.
        assert_eq!(rules(&v), vec!["atomic-ordering"; 2], "{v:#?}");
        assert!(v[0].msg.contains("SeqCst"));
        assert!(v[1].msg.contains("Acquire"));
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
    fn library_roots_deny_panics() {
        // The no-panic rule is clippy's, set at each library root so that
        // every function there, and every one added later, is covered.
        let deny = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                    clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented))]";
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        for krate in ["types", "core", "net", "broker", "transport", "telemetry"] {
            let rel = PathBuf::from(format!("crates/{krate}/src/lib.rs"));
            let lexed = load(&root, &rel).unwrap().lexed;
            // The token texts, joined: whitespace and comments drop out.
            let tokens: Vec<u8> = (0..lexed.tokens.len())
                .flat_map(|i| lexed.text(i).to_vec())
                .collect();
            assert!(
                lex::find(&tokens, deny.as_bytes(), 0).is_some(),
                "{} lacks `{deny}`",
                rel.display()
            );
        }
    }
}
