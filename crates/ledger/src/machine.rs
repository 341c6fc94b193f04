//! The machine stanza stamped into every result, and process memory.

use std::process::{Command, ExitCode};

use crate::json::Json;

/// Set (to the affinity the harness was given) in the environment of a
/// run that [`pin_to_one_cpu`] restarted on one CPU.
const PINNED_FROM: &str = "LEDGER_PINNED_FROM";

fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .map(|rest| rest.trim().to_owned())
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How many CPUs a `Cpus_allowed_list` such as `0-1` or `0,2-3` names,
/// and the highest of them; `None` for a list that does not parse.
fn cpus_in(list: &str) -> Option<(u32, u32)> {
    let (mut cpus, mut last) = (0u32, 0u32);
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (u32, u32) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        cpus += hi.checked_sub(lo)? + 1;
        last = last.max(hi);
    }
    Some((cpus, last))
}

/// Restarts this command on one CPU (`taskset -c <the highest CPU the
/// harness was given>`), waits for it and returns its exit code; `None`
/// when this process is that restart, was given a single CPU anyway, or
/// `taskset` cannot be run (the run then goes on unpinned and its
/// stanza says so).
///
/// The daemon workloads ask for this: their round trip crosses a dozen
/// threads, and on one CPU every hand-off between them is a context
/// switch instead of the wake-up of an idle vCPU, whose cost is the
/// hypervisor's and changes by the minute (see [`crate::daemons`]).
pub fn pin_to_one_cpu() -> Option<ExitCode> {
    if std::env::var_os(PINNED_FROM).is_some() {
        return None;
    }
    let given = proc_status("Cpus_allowed_list")?;
    let (_, cpu) = cpus_in(&given).filter(|(cpus, _)| *cpus > 1)?;
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_FROM, &given)
        .status();
    match status {
        Ok(status) => Some(match status.code() {
            Some(0) => ExitCode::SUCCESS,
            Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            None => ExitCode::from(1),
        }),
        Err(e) => {
            eprintln!("ledger: taskset: {e}; running on every CPU given ({given})");
            None
        }
    }
}

/// `git rev-parse --short HEAD` at run time — never a constant baked in
/// at build time (the stale-`commit` fault of `BENCH_matching.json`).
/// The driver's checkout is not a git repository; that reads `none`.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_owned())
}

/// Which `rand` the binary was built against: the registry crate or the
/// documented shim under `offline/`. The shim's `StdRng` is xoshiro256++
/// whose first output for seed 0 differs from the registry's ChaCha12
/// stream, so one draw tells them apart. Results from the two are never
/// comparable (different generated inputs).
pub fn deps() -> &'static str {
    use rand::{RngCore, SeedableRng};
    const SHIM_FIRST_DRAW_SEED_0: u64 = 0x53175d61490b23df;
    if rand::rngs::StdRng::seed_from_u64(0).next_u64() == SHIM_FIRST_DRAW_SEED_0 {
        "shim"
    } else {
        "registry"
    }
}

pub fn stanza(seed: u64, seconds: f64, scale: f64) -> Json {
    // What the harness was given — a run restarted on one CPU reports
    // the affinity and the CPU count from before the restart.
    let affinity = std::env::var(PINNED_FROM)
        .ok()
        .or_else(|| proc_status("Cpus_allowed_list"))
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = cpus_in(&affinity).map_or_else(
        || std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        |(cpus, _)| u64::from(cpus),
    );
    Json::obj([
        ("commit", Json::from(commit())),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("os", Json::from(std::env::consts::OS)),
        ("nproc", nproc.into()),
        // The one CPU a daemon workload restarted itself on (`none`:
        // this run uses all it was given). The harness never changes
        // its priority.
        ("affinity", Json::from(affinity)),
        (
            "pinned_cpu",
            Json::from(
                std::env::var_os(PINNED_FROM)
                    .and_then(|_| proc_status("Cpus_allowed_list"))
                    .unwrap_or_else(|| "none".to_owned()),
            ),
        ),
        ("loopback", Json::Bool(true)),
        ("wire_latency", Json::from("not measured (loopback only)")),
        ("deps", Json::from(deps())),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("scale", scale.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonExt;

    #[test]
    fn stanza_names_the_run() {
        let s = stanza(7, 20.0, 1.0);
        assert_eq!(s.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(s.get("loopback"), Some(&Json::Bool(true)));
        assert!(matches!(
            s.get("deps").unwrap().as_str(),
            Some("shim" | "registry")
        ));
        assert!(s.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(!s.get("commit").unwrap().as_str().unwrap().is_empty());
        assert!(peak_rss_mib() >= 0.0);
    }

    #[test]
    fn affinity_lists_are_counted() {
        assert_eq!(cpus_in("0-1"), Some((2, 1)));
        assert_eq!(cpus_in("0,2-3"), Some((3, 3)));
        assert_eq!(cpus_in("4,1"), Some((2, 4)));
        assert_eq!(cpus_in("3"), Some((1, 3)));
        assert_eq!(cpus_in("unknown"), None);
        assert_eq!(cpus_in("2-1"), None);
    }
}
