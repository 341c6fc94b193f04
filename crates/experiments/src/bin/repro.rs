//! Regenerates the paper's tables and figures from the command line.
//!
//! ```text
//! repro [--fast] [--csv] [--out DIR] [--telemetry-json FILE] [--trace-json FILE]
//!       [fig8|fig9|fig10|fig11|compute|analysis|vdeg|subsumption|filter|latency|scaling|recovery|traces|all]
//! ```
//!
//! With `--trace-json FILE`, the backbone publish scenario is replayed
//! with the causal tracer always on and its flight-recorder contents
//! are exported as Chrome `trace_event` JSON — load the file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! With `--telemetry-json FILE`, the global telemetry recorder is
//! switched on for the run; afterwards a [`RunReport`] — per-stage
//! latency digests, counters and gauges — is written to `FILE` as one
//! JSON object. It holds what the selected experiments ran: a stage no
//! selected experiment executes has no entry.

use subsum_experiments::{
    ablations, analysis, compute, fig10, fig11, fig8, fig9, latency, recovery, scaling, traces,
};
use subsum_experiments::{ExperimentConfig, ResultTable};
use subsum_telemetry::RunReport;

struct Args {
    fast: bool,
    csv: bool,
    out_dir: Option<String>,
    telemetry_json: Option<String>,
    trace_json: Option<String>,
    what: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        fast: false,
        csv: false,
        out_dir: None,
        telemetry_json: None,
        trace_json: None,
        what: "all".to_owned(),
    };
    let mut what: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fast" => args.fast = true,
            "--csv" => args.csv = true,
            "--out" => {
                i += 1;
                args.out_dir = Some(
                    argv.get(i)
                        .ok_or_else(|| "--out requires a directory".to_owned())?
                        .clone(),
                );
            }
            "--telemetry-json" => {
                i += 1;
                args.telemetry_json = Some(
                    argv.get(i)
                        .ok_or_else(|| "--telemetry-json requires a file path".to_owned())?
                        .clone(),
                );
            }
            "--trace-json" => {
                i += 1;
                args.trace_json = Some(
                    argv.get(i)
                        .ok_or_else(|| "--trace-json requires a file path".to_owned())?
                        .clone(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            name => {
                if let Some(prev) = &what {
                    return Err(format!("two experiment names given: `{prev}` and `{name}`"));
                }
                what = Some(name.to_owned());
            }
        }
        i += 1;
    }
    if let Some(w) = what {
        args.what = w;
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: repro [--fast] [--csv] [--out DIR] [--telemetry-json FILE] \
                 [--trace-json FILE] [EXPERIMENT]"
            );
            std::process::exit(2);
        }
    };

    let cfg = if args.fast {
        ExperimentConfig::fast()
    } else {
        ExperimentConfig::default()
    };

    if args.telemetry_json.is_some() {
        subsum_telemetry::set_enabled(true);
        subsum_telemetry::reset();
    }

    let tables: Vec<ResultTable> = match args.what.as_str() {
        "fig8" => vec![fig8::run(&cfg)],
        "fig9" => vec![fig9::run(&cfg)],
        "fig10" => vec![fig10::run(&cfg)],
        "fig11" => vec![fig11::run(&cfg)],
        "compute" => vec![compute::run(&cfg)],
        "analysis" => vec![analysis::run(&cfg)],
        "vdeg" => vec![ablations::run_virtual_degrees(&cfg)],
        "subsumption" => vec![ablations::run_subsumption_models(&cfg)],
        "filter" => vec![ablations::run_subsumption_filter(&cfg)],
        "latency" => vec![latency::run(&cfg)],
        "scaling" => vec![scaling::run(&cfg)],
        "recovery" => vec![recovery::run(&cfg)],
        "traces" => vec![traces::run(&cfg)],
        "all" => subsum_experiments::run_all(&cfg),
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of fig8 fig9 fig10 fig11 \
                 compute analysis vdeg subsumption filter latency scaling recovery traces all"
            );
            std::process::exit(2);
        }
    };

    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create `{dir}`: {e}");
            std::process::exit(1);
        }
    }
    for t in tables {
        if args.csv {
            println!("# {} — {}", t.name, t.caption);
            print!("{}", t.to_csv());
            println!();
        } else {
            println!("{t}");
        }
        if let Some(dir) = &args.out_dir {
            let path = std::path::Path::new(dir).join(format!("{}.csv", t.name));
            if let Err(e) = std::fs::write(&path, t.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.trace_json {
        let json = traces::export_chrome(&cfg);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace: {} bytes of Chrome trace_event JSON -> {path}",
            json.len()
        );
    }

    if let Some(path) = &args.telemetry_json {
        let report = RunReport::capture(format!("repro.{}", args.what));
        subsum_telemetry::set_enabled(false);
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "telemetry: {} stages, {} counters -> {path}",
            report.stages.len(),
            report.counters.len()
        );
    }
}
