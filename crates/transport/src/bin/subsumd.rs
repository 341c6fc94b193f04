//! `subsumd` — a standalone subsum broker daemon.
//!
//! One daemon is one broker of the summary-routing overlay, speaking
//! the framed TCP protocol of `subsum-transport` to neighbor daemons
//! and clients. It runs over the built-in stock schema (the paper's
//! evaluation schema) until schema files exist.
//!
//! ```text
//! subsumd --broker 0 --listen 127.0.0.1:7400
//! subsumd --broker 1 --listen 127.0.0.1:7401 --dial 0=127.0.0.1:7400 \
//!         --checkpoint /var/lib/subsum/b1.ckpt --telemetry-json /tmp/b1.json
//! ```
//!
//! Flags:
//!
//! * `--broker <id>` — this broker's id (required).
//! * `--listen <addr>` — listen address (required; port 0 = ephemeral,
//!   printed on stdout).
//! * `--dial <id>=<addr>` — neighbor link to dial (repeatable). Each
//!   overlay edge must be dialed from exactly one side.
//! * `--checkpoint <path>` — durable state file: loaded at startup if
//!   present, replaced on clean shutdown (written to `<path>.tmp`,
//!   synced, then renamed over `<path>`).
//! * `--telemetry-json <path>` — write a telemetry report (counters +
//!   stage histograms) to this file on clean shutdown.
//! * `--mailbox <frames>` — per-connection outbound bound (default 256,
//!   at least 1). A client whose frames fill it is disconnected; a peer
//!   link's overflow is repaired by the protocol.
//!
//! The daemon runs until a client sends `Shutdown`; it then writes its
//! checkpoint and telemetry dump and exits 0.

use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;

use subsum_broker::BrokerCheckpoint;
use subsum_telemetry::RunReport;
use subsum_transport::{DaemonConfig, Subsumd};
use subsum_types::{stock_schema, BrokerId};

struct Args {
    config: DaemonConfig,
    checkpoint_path: Option<String>,
    telemetry_path: Option<String>,
}

fn usage() -> String {
    "usage: subsumd --broker <id> --listen <addr> [--dial <id>=<addr>]... \
     [--checkpoint <path>] [--telemetry-json <path>] [--mailbox <frames>]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut broker: Option<u16> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut dial: Vec<(BrokerId, SocketAddr)> = Vec::new();
    let mut checkpoint_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut mailbox_capacity = 256usize;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--broker" => {
                broker = Some(
                    value("--broker")?
                        .parse()
                        .map_err(|e| format!("--broker: {e}"))?,
                );
            }
            "--listen" => {
                listen = Some(
                    value("--listen")?
                        .parse()
                        .map_err(|e| format!("--listen: {e}"))?,
                );
            }
            "--dial" => {
                let spec = value("--dial")?;
                let (id, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--dial wants <id>=<addr>, got {spec:?}"))?;
                dial.push((
                    BrokerId(id.parse().map_err(|e| format!("--dial id: {e}"))?),
                    addr.parse().map_err(|e| format!("--dial addr: {e}"))?,
                ));
            }
            "--checkpoint" => checkpoint_path = Some(value("--checkpoint")?),
            "--telemetry-json" => telemetry_path = Some(value("--telemetry-json")?),
            "--mailbox" => {
                mailbox_capacity = value("--mailbox")?
                    .parse()
                    .map_err(|e| format!("--mailbox: {e}"))?;
                // A zero-capacity channel is a rendezvous: `try_send`
                // succeeds only while the writer is parked in `recv`.
                if mailbox_capacity == 0 {
                    return Err(format!("--mailbox wants at least 1 frame\n{}", usage()));
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }

    let broker = broker.ok_or_else(|| format!("--broker is required\n{}", usage()))?;
    let listen = listen.ok_or_else(|| format!("--listen is required\n{}", usage()))?;

    let checkpoint = match &checkpoint_path {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => Some(
                BrokerCheckpoint::from_bytes(&bytes)
                    .map_err(|e| format!("checkpoint {path}: {e}"))?,
            ),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("checkpoint {path}: {e}")),
        },
        None => None,
    };

    let mut config = DaemonConfig::new(BrokerId(broker), stock_schema());
    config.listen = listen;
    config.dial = dial;
    config.mailbox_capacity = mailbox_capacity;
    config.checkpoint = checkpoint;
    Ok(Args {
        config,
        checkpoint_path,
        telemetry_path,
    })
}

/// Replaces `path` with `bytes` so that a crash at any point leaves
/// either the old file or the new one, never a torn one.
fn replace_file(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    // The rename is durable once the directory entry is.
    let dir = match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    if args.telemetry_path.is_some() {
        subsum_telemetry::set_enabled(true);
    }
    let broker = args.config.broker;
    let handle = Subsumd::start(args.config).map_err(|e| format!("start: {e}"))?;
    // Supervisors may close our stdout once they've read the listen
    // line; status prints must not kill the daemon (or its clean exit).
    let _ = writeln!(
        std::io::stdout(),
        "subsumd broker {} listening on {}",
        broker.0,
        handle.addr()
    );

    // Serves until a client sends `Shutdown`.
    let fin = handle.join();

    if let Some(path) = &args.checkpoint_path {
        replace_file(path, &fin.checkpoint.to_bytes())
            .map_err(|e| format!("write checkpoint {path}: {e}"))?;
    }
    if let Some(path) = &args.telemetry_path {
        let mut report = RunReport::capture(format!("subsumd.broker{}", broker.0));
        for (name, n) in fin.counters.listing() {
            report.counters.insert(name.to_string(), n);
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("write telemetry {path}: {e}"))?;
    }
    let _ = writeln!(
        std::io::stdout(),
        "subsumd broker {} stopped cleanly",
        broker.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = ["--broker", "0", "--listen", "127.0.0.1:0"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        parse_args(&argv)
    }

    fn refusal(flags: &[&str]) -> String {
        match parse(flags) {
            Ok(_) => panic!("{flags:?} accepted"),
            Err(msg) => msg,
        }
    }

    #[test]
    fn parse_args_refuses_bad_values() {
        let msg = refusal(&["--mailbox", "0"]);
        assert!(msg.starts_with("--mailbox wants at least 1 frame"), "{msg}");
        assert!(msg.contains("usage: subsumd"), "{msg}");
        let one = parse(&["--mailbox", "1"]).map(|a| a.config.mailbox_capacity);
        assert_eq!(one, Ok(1));
        assert_eq!(
            refusal(&["--dial", "127.0.0.1:7400"]),
            "--dial wants <id>=<addr>, got \"127.0.0.1:7400\""
        );
        assert!(refusal(&["--dial", "x=127.0.0.1:7400"]).starts_with("--dial id: "));
        assert!(refusal(&["--dial", "1=nowhere"]).starts_with("--dial addr: "));
    }
}
