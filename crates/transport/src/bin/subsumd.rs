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
//!   present, rewritten on clean shutdown.
//! * `--telemetry-json <path>` — write a telemetry report (counters +
//!   stage histograms) to this file on clean shutdown.
//! * `--mailbox <frames>` — per-connection outbound bound (default 256).
//! * `--policy <block|reject>` — backpressure policy (default reject).
//!
//! The daemon runs until a client sends `Shutdown`; it then writes its
//! checkpoint and telemetry dump and exits 0.

use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;

use subsum_broker::BrokerCheckpoint;
use subsum_telemetry::RunReport;
use subsum_transport::{BackpressurePolicy, DaemonConfig, Subsumd};
use subsum_types::{stock_schema, BrokerId};

struct Args {
    config: DaemonConfig,
    checkpoint_path: Option<String>,
    telemetry_path: Option<String>,
}

fn usage() -> String {
    "usage: subsumd --broker <id> --listen <addr> [--dial <id>=<addr>]... \
     [--checkpoint <path>] [--telemetry-json <path>] [--mailbox <frames>] \
     [--policy <block|reject>]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut broker: Option<u16> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut dial: Vec<(BrokerId, SocketAddr)> = Vec::new();
    let mut checkpoint_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut mailbox_capacity = 256usize;
    let mut policy = BackpressurePolicy::Reject;

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
            }
            "--policy" => {
                policy = match value("--policy")?.as_str() {
                    "block" => BackpressurePolicy::Block,
                    "reject" => BackpressurePolicy::Reject,
                    other => return Err(format!("--policy wants block|reject, got {other:?}")),
                };
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }

    let broker = broker.ok_or_else(|| format!("--broker is required\n{}", usage()))?;
    let listen = listen.ok_or_else(|| format!("--listen is required\n{}", usage()))?;

    let checkpoint = match &checkpoint_path {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => {
                let cp = BrokerCheckpoint::from_bytes(&bytes)
                    .map_err(|e| format!("checkpoint {path}: {e}"))?;
                // `from_bytes` admits ids of one broker only.
                if let Some((id, _)) = cp.subs.first().filter(|(id, _)| id.broker.0 != broker) {
                    return Err(format!(
                        "checkpoint {path} belongs to broker {}, not --broker {broker}",
                        id.broker.0
                    ));
                }
                Some(cp)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("checkpoint {path}: {e}")),
        },
        None => None,
    };

    let mut config = DaemonConfig::new(BrokerId(broker), stock_schema());
    config.listen = listen;
    config.dial = dial;
    config.mailbox_capacity = mailbox_capacity;
    config.policy = policy;
    config.checkpoint = checkpoint;
    Ok(Args {
        config,
        checkpoint_path,
        telemetry_path,
    })
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
        std::fs::write(path, fin.checkpoint.to_bytes())
            .map_err(|e| format!("write checkpoint {path}: {e}"))?;
    }
    if let Some(path) = &args.telemetry_path {
        let report = RunReport::capture(format!("subsumd.broker{}", broker.0));
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
