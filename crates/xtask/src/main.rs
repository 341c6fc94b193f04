//! `cargo xtask check` — repo-specific invariant lints for the subsum
//! workspace.
//!
//! The `.cargo/config.toml` alias makes `cargo xtask check` run this
//! binary. It is dependency-free on purpose: the analyzer is a
//! hand-rolled token lexer ([`lex`]), so the checker builds and runs in
//! seconds even on a cold cache, and CI can gate on it before the main
//! build. Panic-freedom is not checked here: the six library crates deny
//! the panicking clippy lints at their crate roots.
//!
//! Exit status: 0 when the workspace is clean, 1 when any lint fires,
//! 2 on usage or I/O errors.

#![forbid(unsafe_code)]

mod lex;
mod lints;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask check [--root <dir>]

Runs the workspace invariant lints over the token stream:

  wire-robust      slice indexing and length arithmetic in the wire
                   codec files carry `// BOUND:` comments
  atomic-ordering  no Release/Acquire/AcqRel/SeqCst outside tests: the
                   workspace's atomics are Relaxed counters
  telemetry-names  metric name literals live in subsum_telemetry::names
  wire-tags        every wire tag constant is encoded AND matched in a
                   decode arm
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" if cmd.is_none() => cmd = Some("check"),
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unrecognized argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if cmd != Some("check") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let result = lints::CheckConfig::workspace(&root).and_then(|cfg| lints::run_check(&cfg));
    match result {
        Ok(violations) if violations.is_empty() => {
            eprintln!("xtask check: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask check: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the workspace root (the
/// first ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace root found above {} (pass --root)",
                    start.display()
                ))
            }
        }
    }
}
