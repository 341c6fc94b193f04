//! `ledger` — the repository's benchmark (see `BENCHMARK.json` and this
//! crate's README).
//!
//! ```text
//! ledger --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ledger compare <a.json> <b.json>
//! ledger noise --sets 2 --runs 5 [--seconds <s>] [--smoke]
//! ```
//!
//! The default command runs one workload in this process and prints, as
//! its last line, the contract object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod counts;
mod daemons;
mod inputs;
mod json;
mod layers;
mod machine;
mod overlay;
mod report;
mod slices;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use spec::Spec;
use trace::Trace;

/// Where a run leaves its result documents and span files.
pub const OUT_DIR: &str = "crates/ledger/out";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: ledger [--workload <name|all>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]\n       \
     ledger compare <a.json> <b.json>\n       \
     ledger noise [--sets <n>] [--runs <n>] [--seconds <s>] [--workload <name>] [--smoke]"
        .to_owned()
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: "all".to_owned(),
        seed: 7,
        seconds: spec.run_seconds as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(out)
}

/// Runs one workload in this process.
pub fn run_one(args: &RunArgs, spec: &Spec) -> Result<(Outcome, Trace), String> {
    let scale = counts::Scale::new(args.seconds, spec.run_seconds as f64, args.smoke);
    let mut trace = Trace::new(args.trace);
    let outcome = match args.workload.as_str() {
        name @ ("overlay-steady" | "overlay-churn") => {
            overlay::run(name, &counts::overlay(name, scale), args.seed, &mut trace)?
        }
        name @ ("daemon-fanout" | "daemon-selective") => {
            daemons::run(name, &counts::daemon(name, scale), args.seed, &mut trace)?
        }
        other => {
            return Err(format!(
                "unknown workload {other}; BENCHMARK.json declares {:?}",
                spec.workloads
            ))
        }
    };
    Ok((outcome, trace))
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_command(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let args = parse_run_args(args, spec)?;
    if args.workload == "all" {
        return compare::run_all(&args, spec);
    }
    if args.workload.starts_with("daemon-") {
        if let Some(code) = machine::pin_to_one_cpu() {
            return Ok(code);
        }
    }
    let scale = counts::Scale::new(args.seconds, spec.run_seconds as f64, args.smoke);
    let machine = machine::stanza(args.seed, args.seconds, scale.ops);
    let (outcome, trace) = run_one(&args, spec)?;

    println!("machine {}", machine.to_json_string());
    println!("detail {}", outcome.detail.to_json_string());
    print!("{}", outcome.table(spec, args.trace)?);
    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", outcome.workload));
        write_file(&path, &trace.to_json(&outcome.workload))?;
        println!("spans {} written to {}", trace.span_count(), path.display());
    }
    if let Some(path) = &args.out {
        let doc = outcome.to_json(spec, args.trace, &machine)?;
        write_file(path, &(doc.to_json_string() + "\n"))?;
    }
    println!("{}", outcome.contract_line(spec, args.trace)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("ledger: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_command(&args[1..], &spec),
        Some("noise") => compare::noise_command(&args[1..], &spec),
        Some("help" | "--help" | "-h") => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_command(&args, &spec),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::json::{Json, JsonExt};

    fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
        let spec = Spec::load().unwrap();
        let args = RunArgs {
            workload: workload.to_owned(),
            seed,
            seconds: spec.run_seconds as f64,
            trace,
            smoke: true,
            out: None,
        };
        run_one(&args, &spec).unwrap().0
    }

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let doc = crate::json::parse(spec::BENCHMARK_JSON).unwrap();
        assert!(spec::BENCHMARK_JSON.len() <= 64 * 1024);
        let keys: Vec<&str> = doc.members().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let spec = Spec::load().unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert_eq!(w.members().len(), 2);
        }
        for path in doc.get("paths").unwrap().as_arr() {
            assert_eq!(path.as_str(), Some("crates/ledger"));
        }
        assert!(doc.get("command").unwrap().as_arr().len() <= 32);
    }

    #[test]
    fn every_declared_name_is_emitted_and_nothing_else() {
        let spec = Spec::load().unwrap();
        let mut layers_seen = BTreeSet::new();
        for workload in &spec.workloads {
            let untraced = smoke(workload, 7, false);
            assert_eq!(untraced.failed, 0, "{workload}");
            assert!(untraced.attempted >= 1);
            let emitted: Vec<&str> = untraced.e2e.iter().map(|(n, _)| *n).collect();
            let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, declared, "{workload}");
            assert!(untraced
                .e2e
                .iter()
                .all(|(n, v)| v.is_finite() && *v > 0.0 || *n == "peak_rss_mb"));
            // The contract line parses and holds exactly the four keys.
            let line = crate::json::parse(&untraced.contract_line(&spec, false).unwrap()).unwrap();
            let keys: Vec<&str> = line.members().into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().members().len(),
                spec.end_to_end.len()
            );

            let traced = smoke(workload, 7, true);
            assert_eq!(traced.failed, 0, "{workload} traced");
            // Undeclared names are an error; declared ones are all there.
            let metrics = traced.declared_metrics(&spec, true).unwrap();
            assert_eq!(metrics.len(), spec.per_layer.len());
            layers_seen.extend(traced.layers.iter().map(|(n, _)| n.to_string()));
        }
        let declared: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            layers_seen, declared,
            "every per-layer row is measured by some workload"
        );
    }

    #[test]
    fn same_seed_same_input_and_same_counts() {
        for workload in ["overlay-steady", "daemon-fanout"] {
            let (a, b, c) = (
                smoke(workload, 7, false),
                smoke(workload, 7, false),
                smoke(workload, 8, false),
            );
            let digest = |o: &Outcome, key: &str| {
                o.detail.get(key).and_then(Json::as_str).unwrap().to_owned()
            };
            let metric =
                |o: &Outcome, name: &str| o.e2e.iter().find(|(n, _)| *n == name).unwrap().1;
            for key in ["digest_subscriptions", "digest_events"] {
                assert_eq!(digest(&a, key), digest(&b, key), "{workload} {key}");
                assert_ne!(digest(&a, key), digest(&c, key), "{workload} {key}");
            }
            for name in ["propagation_bytes", "hops_per_event"] {
                assert_eq!(metric(&a, name), metric(&b, name), "{workload} {name}");
            }
            // The daemons' probe rounds repeat until delivery, so only
            // the overlay's operation count is fixed by the seed.
            if workload.starts_with("overlay") {
                assert_eq!(a.attempted, b.attempted);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let spec = Spec::load().unwrap();
        let parse = |args: &[&str]| {
            parse_run_args(
                &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                &spec,
            )
        };
        let ok = parse(&[
            "--workload",
            "overlay-churn",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("overlay-churn", 9, 5.0, true)
        );
        assert_eq!(parse(&[]).unwrap().seed, 7);
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let unknown = RunArgs {
            workload: "nope".to_owned(),
            ..parse(&[]).unwrap()
        };
        assert!(run_one(&unknown, &spec).is_err());
    }
}
