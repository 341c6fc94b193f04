//! Everything that looks at more than one run: `--workload all`,
//! `ledger compare` and `ledger noise`.
//!
//! Each workload runs in a child process of its own (this binary,
//! re-executed), so `peak_rss_mb` is one workload's peak and a crashed
//! workload cannot take the others down. Children are waited for before
//! anything is reported.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::{Json, JsonExt};
use crate::spec::{MetricDecl, Spec};
use crate::stats;
use crate::{RunArgs, OUT_DIR};

/// Runs one workload in a child process and returns its result document.
fn run_child(args: &RunArgs, workload: &str, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    crate::json::parse(&text)
}

/// `--workload all`: the four workloads one after another, one process
/// each; writes `results-<traced|untraced>.json` for `ledger compare`.
pub fn run_all(args: &RunArgs, spec: &Spec) -> Result<ExitCode, String> {
    let tag = if args.trace { "traced" } else { "untraced" };
    let mut docs = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for workload in &spec.workloads {
        let out = PathBuf::from(OUT_DIR).join(format!("result-{workload}-{tag}.json"));
        let doc = run_child(args, workload, &out)?;
        println!(
            "{workload} ({tag}): attempted {} failed {}",
            num(&doc, "attempted"),
            num(&doc, "failed")
        );
        for (name, m) in doc.get("metrics").map(Json::members).unwrap_or_default() {
            println!(
                "  {name:<34} {:>16.4} {}",
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        attempted += num(&doc, "attempted");
        failed += num(&doc, "failed");
        docs.push(doc);
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join(format!("results-{tag}.json")));
    let all = Json::obj([("results", Json::Arr(docs))]);
    std::fs::write(&path, all.to_json_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("results", Json::from(path.display().to_string())),
        ])
        .to_json_string()
    );
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The result documents in a file: a single run, `--workload all`'s
/// `{"results": [...]}`, or `ledger noise`'s `{"sets": [[...], ...]}`
/// (whose first set is taken).
fn load_results(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(results) = doc.get("results") {
        return Ok(results.as_arr().to_vec());
    }
    if let Some(sets) = doc.get("sets") {
        return Ok(sets
            .as_arr()
            .first()
            .map(|s| s.as_arr().to_vec())
            .unwrap_or_default());
    }
    Ok(vec![doc])
}

fn workload_of(doc: &Json) -> &str {
    doc.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn metric_of(doc: &Json, name: &str, field: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get(field)?.as_f64()
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
pub fn worsening(decl: &MetricDecl, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if decl.higher {
        (base - new) / base.abs()
    } else {
        (new - base) / base.abs()
    }
}

/// `ok`, `worse`, or `unresolved` when the runs' own spread is wider
/// than the bound (then the pair cannot show "unchanged").
pub fn verdict(decl: &MetricDecl, base: f64, new: f64, spread: Option<f64>) -> &'static str {
    let bound = decl.bound.unwrap_or(f64::INFINITY);
    if spread.is_some_and(|s| s > bound) {
        "unresolved"
    } else if worsening(decl, base, new) > bound {
        "worse"
    } else {
        "ok"
    }
}

/// `ledger compare <a.json> <b.json>`: per workload × end-to-end metric,
/// the ratio with its base and a verdict against the metric's bound,
/// plus the failed-share check. Exits 1 if anything is `worse`.
pub fn compare_command(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: ledger compare <a.json> <b.json>".to_owned());
    };
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let mut any_worse = false;
    for base in &a {
        let workload = workload_of(base);
        let Some(new) = b.iter().find(|d| workload_of(d) == workload) else {
            println!("{workload}: only in {a_path}");
            continue;
        };
        let deps = |d: &Json| {
            d.get("machine")
                .and_then(|m| m.get("deps"))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned()
        };
        if deps(base) != deps(new) {
            return Err(format!(
                "{workload}: {a_path} was built against {} dependencies and {b_path} against {}; \
                 their generated inputs differ, so the results are not comparable",
                deps(base),
                deps(new)
            ));
        }
        println!("{workload}  (base = {a_path})");
        for decl in &spec.end_to_end {
            let (Some(x), Some(y)) = (
                metric_of(base, &decl.name, "value"),
                metric_of(new, &decl.name, "value"),
            ) else {
                println!("  {:<20} missing", decl.name);
                continue;
            };
            // `ledger noise` stores each metric's spread beside its
            // median; single runs carry none.
            let spread = match (
                metric_of(base, &decl.name, "spread"),
                metric_of(new, &decl.name, "spread"),
            ) {
                (Some(p), Some(q)) => Some(p.max(q)),
                (p, q) => p.or(q),
            };
            let v = verdict(decl, x, y, spread);
            any_worse |= v == "worse";
            println!(
                "  {:<20} {:>16.4} -> {:>16.4} {:<6} ratio {:.4} of base {:.4}  bound {:.2}{}  {v}",
                decl.name,
                x,
                y,
                decl.unit,
                if x == 0.0 { f64::NAN } else { y / x },
                x,
                decl.bound.unwrap_or(f64::NAN),
                spread.map_or(String::new(), |s| format!("  spread {s:.3}")),
            );
        }
        let share = |d: &Json| num(d, "failed") / num(d, "attempted").max(1.0);
        let (fa, fb) = (share(base), share(new));
        let failing = fb > fa || fb > 0.0;
        any_worse |= failing;
        println!(
            "  failed share         {fa:.6} -> {fb:.6}  {}",
            if failing {
                "worse (a failed operation misses every latency)"
            } else {
                "ok"
            }
        );
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One metric's values over the runs of one set.
struct Column {
    workload: String,
    decl: MetricDecl,
    values: Vec<f64>,
}

impl Column {
    fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    fn spread(&self) -> f64 {
        stats::iqr_spread(&self.values)
    }
}

/// `ledger noise --sets 2 --runs 5`: runs the sets interleaved (set 1
/// run 1, set 2 run 1, set 1 run 2, …; run `r` of every set uses seed
/// `7 + r`) and fails unless, for every end-to-end metric on every
/// workload, the sets' medians differ by at most half the bound and
/// each set's (Q3 − Q1) / median stays within the bound — the quartiles
/// computed exactly as the benchmark driver computes them.
pub fn noise_command(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let (mut sets, mut runs, mut seconds, mut smoke) =
        (2usize, 5usize, spec.run_seconds as f64, false);
    let mut workloads = spec.workloads.clone();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--sets" => {
                sets = value()?
                    .parse()
                    .map_err(|_| "--sets takes a whole number")?
            }
            "--runs" => {
                runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?
            }
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--workload" => workloads = vec![value()?.clone()],
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if sets < 2 || runs < 2 {
        return Err("noise needs at least 2 sets of at least 2 runs".to_owned());
    }
    let mut columns: Vec<Vec<Column>> = (0..sets)
        .map(|_| {
            workloads
                .iter()
                .flat_map(|w| {
                    spec.end_to_end.iter().map(move |decl| Column {
                        workload: w.clone(),
                        decl: decl.clone(),
                        values: Vec::with_capacity(runs),
                    })
                })
                .collect()
        })
        .collect();
    let mut failed_ops = 0.0;
    let mut machine = Json::Null;
    for run in 0..runs {
        for (set, cols) in columns.iter_mut().enumerate() {
            for workload in &workloads {
                let args = RunArgs {
                    workload: workload.clone(),
                    seed: 7 + run as u64,
                    seconds,
                    trace: false,
                    smoke,
                    out: None,
                };
                let out = PathBuf::from(OUT_DIR).join(format!("noise-{workload}-{set}-{run}.json"));
                let doc = run_child(&args, workload, &out)?;
                let _ = std::fs::remove_file(&out);
                failed_ops += num(&doc, "failed");
                machine = doc.get("machine").cloned().unwrap_or(Json::Null);
                for col in cols.iter_mut().filter(|c| c.workload == *workload) {
                    let value = metric_of(&doc, &col.decl.name, "value")
                        .ok_or_else(|| format!("{workload}: {} missing", col.decl.name))?;
                    col.values.push(value);
                }
                eprintln!("noise: set {} run {} {workload} done", set + 1, run + 1);
            }
        }
    }

    let mut pass = failed_ops == 0.0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median set 1",
        "median set 2",
        "|Δ|/m1",
        "spread1",
        "spread2",
        "bound"
    );
    let (first, rest) = columns.split_at(1);
    for (i, base) in first[0].iter().enumerate() {
        let bound = base.decl.bound.unwrap_or(f64::INFINITY);
        let m1 = base.median();
        let mut worst_gap = 0.0f64;
        let mut worst_spread = base.spread();
        for other in rest {
            worst_gap =
                worst_gap.max((other[i].median() - m1).abs() / m1.abs().max(f64::MIN_POSITIVE));
            worst_spread = worst_spread.max(other[i].spread());
        }
        let ok = worst_gap <= bound / 2.0 && worst_spread <= bound;
        pass &= ok;
        println!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>8.4} {:>8.4} {:>6.2}  {}",
            base.workload,
            base.decl.name,
            m1,
            rest[0][i].median(),
            worst_gap,
            base.spread(),
            rest[0][i].spread(),
            bound,
            if ok { "ok" } else { "NOISY" }
        );
    }
    // The sets as result documents (median as `value`, with `spread`),
    // so `ledger compare` can read a noise file as a baseline.
    let sets_json: Vec<Json> = columns
        .iter()
        .map(|cols| {
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("workload", Json::from(w.as_str())),
                            ("attempted", Json::Num(1.0)),
                            ("failed", Json::Num(0.0)),
                            ("machine", machine.clone()),
                            (
                                "metrics",
                                Json::Obj(
                                    cols.iter()
                                        .filter(|c| c.workload == *w)
                                        .map(|c| {
                                            (
                                                c.decl.name.clone(),
                                                Json::obj([
                                                    ("value", Json::Num(c.median())),
                                                    ("unit", Json::from(c.decl.unit.as_str())),
                                                    ("spread", Json::Num(c.spread())),
                                                    (
                                                        "runs",
                                                        Json::Arr(
                                                            c.values
                                                                .iter()
                                                                .map(|v| Json::Num(*v))
                                                                .collect(),
                                                        ),
                                                    ),
                                                ]),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    let path = PathBuf::from(OUT_DIR).join("noise.json");
    let doc = Json::obj([("sets", Json::Arr(sets_json)), ("pass", Json::Bool(pass))]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, doc.to_json_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "noise: {} ({} sets x {} runs, failed operations {failed_ops}); written to {}",
        if pass { "PASS" } else { "FAIL" },
        sets,
        runs,
        path.display()
    );
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = decl(false, 0.1);
        assert_eq!(verdict(&latency, 100.0, 109.0, None), "ok");
        assert_eq!(verdict(&latency, 100.0, 111.0, None), "worse");
        assert_eq!(verdict(&latency, 100.0, 50.0, None), "ok");
        assert_eq!(verdict(&latency, 100.0, 111.0, Some(0.2)), "unresolved");
        let rate = decl(true, 0.1);
        assert_eq!(verdict(&rate, 100.0, 91.0, Some(0.05)), "ok");
        assert_eq!(verdict(&rate, 100.0, 89.0, Some(0.05)), "worse");
        assert_eq!(verdict(&rate, 100.0, 150.0, None), "ok");
        assert!((worsening(&rate, 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(&latency, 0.0, 0.0), 0.0);
    }
}
