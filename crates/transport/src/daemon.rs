//! [`Subsumd`]: the standalone summary-routing broker daemon.
//!
//! A daemon is one broker of the paper's overlay, serving real sockets:
//! it accepts peer connections from neighbor daemons and client
//! connections from subscribers/publishers, all speaking the framed
//! [`Msg`] protocol. What the daemon *does* with a message is not here:
//! a [`DaemonCore`] (over the in-process [`BrokerCore`]) classifies
//! connections, admits subscriptions, runs the neighbour-view protocol,
//! routes, delivers, acknowledges and counts — the very state machine
//! the chaos suite drives through the same frame bytes under faults. This
//! module adds sockets, threads and mailboxes, and interoperates
//! bit-for-bit with checkpoints and digests produced by the simulator.
//!
//! # Threads and ownership
//!
//! One **event loop** thread owns the [`DaemonCore`]; everything else is
//! I/O plumbing feeding it messages over a channel and carrying its
//! outputs away:
//!
//! * an **accept** thread turns incoming connections into reader
//!   threads;
//! * one **reader** thread per socket decodes frames into [`Msg`]s;
//! * the event loop **writes** its own outputs: the frames one
//!   [`DaemonCore::step`] sends to a connection leave in one `write`
//!   when the step ends, in the order the step first sent to each
//!   connection — except that a frame to the connection the step serves
//!   (an ack) is written at once, with whatever the step queued on it
//!   before. Each socket has a short send timeout, so a slow reader
//!   never holds the loop for long;
//! * one **writer** thread per socket drains only a backlog: what the
//!   socket did not take at once, and everything sent after it until
//!   the backlog is written (see [`crate::session`], which also says
//!   what a full outbox means);
//! * one **dialer** thread per configured neighbor link establishes
//!   the outbound connection with backoff; the event loop spawns a
//!   fresh dialer with a bumped epoch when a dialed link breaks.
//!
//! # Sessions, epochs, reconvergence
//!
//! Every fresh peer link starts with `Hello`/`HelloAck` carrying the
//! sender's broker id, its **connection epoch** (a counter the dialer
//! bumps each dial, so both ends can tell a reconnect from a duplicate
//! dial), and the `SummaryDigest` of its own summary. The dialer's
//! `Hello` ([`DaemonCore::hello`]) is posted here; everything after it —
//! the `HelloAck`, the `Pull` each end answers **only on a digest
//! mismatch** (holding no view counts as one), every later `Summary`,
//! `Digest` and `Pull` — is [`DaemonCore::step`]. A restarted peer
//! that recovered its state from a checkpoint re-joins without a single
//! summary crossing the wire in its direction.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use subsum_broker::{
    BrokerCheckpoint, BrokerCore, ConnId, DaemonCore, DaemonCounters, FrameDecoder, Msg, Role, Sink,
};
use subsum_telemetry::{names, Count};
use subsum_types::{BrokerId, IdLayout, Schema};

use crate::session::Outbox;

static CNT_DECODE_ERRORS: Count = Count::new(names::TRANSPORT_DECODE_ERRORS);

/// How long a dialer sleeps between failed connection attempts.
const REDIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Static configuration of one daemon.
#[derive(Debug)]
pub struct DaemonConfig {
    /// This broker's id in the overlay.
    pub broker: BrokerId,
    /// Listen address (use port 0 for an ephemeral port).
    pub listen: SocketAddr,
    /// Neighbor links this daemon is responsible for dialing. The
    /// overlay needs each edge dialed from exactly one side; the other
    /// side only accepts.
    pub dial: Vec<(BrokerId, SocketAddr)>,
    /// The event schema shared by the whole overlay.
    pub schema: Schema,
    /// Bound of every per-connection outbound mailbox, in frames; a
    /// client whose outbox is full is evicted.
    pub mailbox_capacity: usize,
    /// Durable state from a previous run ([`DaemonFinal::checkpoint`]);
    /// the daemon rebuilds its summary from it, digest-identical to the
    /// pre-shutdown one.
    pub checkpoint: Option<BrokerCheckpoint>,
}

impl DaemonConfig {
    /// A config with no neighbors, an ephemeral loopback port, and
    /// defaults (mailbox of 256 frames, fresh state).
    pub fn new(broker: BrokerId, schema: Schema) -> DaemonConfig {
        DaemonConfig {
            broker,
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            dial: Vec::new(),
            schema,
            mailbox_capacity: 256,
            checkpoint: None,
        }
    }
}

/// What a cleanly stopped daemon leaves behind.
#[derive(Debug)]
pub struct DaemonFinal {
    /// Durable broker state: the exact subscription store and id
    /// counter, byte-compatible with the simulator's checkpoints.
    pub checkpoint: BrokerCheckpoint,
    /// Everything the daemon counted. A writer thread still draining a
    /// backlog may count on after the event loop stopped.
    pub counters: Arc<DaemonCounters>,
}

/// Events feeding the daemon's single-threaded event loop.
enum Ev {
    /// A connection was accepted; type unknown until its first message.
    Accepted { conn: ConnId, stream: TcpStream },
    /// A dialer established (or re-established) link `dial[ix]`.
    Dialed {
        ix: usize,
        epoch: u64,
        stream: TcpStream,
    },
    /// A message arrived on connection `conn`.
    Msg { conn: ConnId, msg: Msg },
    /// Connection `conn` closed or failed.
    Closed { conn: ConnId },
}

/// The live connections, as the [`DaemonCore`]'s [`Sink`]: an output is
/// encoded into its connection's [`Outbox`], which the event loop
/// flushes when the step ends.
struct Conns {
    live: BTreeMap<ConnId, Outbox>,
    /// Connections holding pending frames, in first-send order.
    dirty: Vec<ConnId>,
    /// The connection whose message the current step serves. A frame
    /// to it is written at once: the `SubscribeAck` must not wait for
    /// the `Subscribe` arm to digest and encode the delta it pushes.
    serving: Option<ConnId>,
}

impl Conns {
    /// Ends a step: writes every connection it sent to.
    fn flush(&mut self) {
        self.serving = None;
        for conn in self.dirty.drain(..) {
            if let Some(out) = self.live.get_mut(&conn) {
                out.flush();
            }
        }
    }
}

impl Sink for Conns {
    fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
        let Some(out) = self.live.get_mut(&conn) else {
            return false;
        };
        let Ok(frame) = msg.to_frame_bytes() else {
            return false;
        };
        let first = !out.has_pending();
        let sent = out.post(frame);
        if self.serving == Some(conn) {
            out.flush();
        } else if first && out.has_pending() {
            self.dirty.push(conn);
        }
        sent
    }

    fn close(&mut self, conn: ConnId) {
        if let Some(out) = self.live.remove(&conn) {
            out.shutdown();
        }
    }
}

/// The daemon builder; see the [module docs](self).
#[derive(Debug)]
pub struct Subsumd;

impl Subsumd {
    /// Starts a daemon, returning once its listener is bound.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if `mailbox_capacity` is 0, `InvalidData`
    /// if the schema exceeds the summary id layout or the checkpoint is
    /// not this broker's under this schema and layout
    /// ([`BrokerCheckpoint::check`]), or the socket error if the listen
    /// address cannot be bound.
    pub fn start(mut config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        if config.mailbox_capacity == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "mailbox_capacity must be at least 1 frame",
            ));
        }
        let layout = IdLayout::new(1 << 16, 1 << 20, config.schema.len() as u32)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(cp) = &config.checkpoint {
            cp.check(config.broker.0, &config.schema, layout)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        }
        let listener = TcpListener::bind(config.listen)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(Mutex::new(false));
        let (ev_tx, ev_rx) = std::sync::mpsc::channel::<Ev>();

        let daemon = DaemonCore::new(BrokerCore::new(
            config.broker.0,
            config.schema.clone(),
            layout,
            config.checkpoint.take(),
        ));
        let counters = Arc::clone(daemon.counters());

        let accept = spawn_acceptor(listener, ev_tx.clone(), Arc::clone(&stopping));
        for ix in 0..config.dial.len() {
            spawn_dialer(
                config.dial[ix].1,
                ix,
                1,
                ev_tx.clone(),
                Arc::clone(&stopping),
            );
        }

        let loop_stop = Arc::clone(&stopping);
        let loop_tx = ev_tx.clone();
        let join =
            std::thread::spawn(move || event_loop(daemon, config, ev_rx, loop_tx, loop_stop));

        Ok(DaemonHandle {
            addr,
            counters,
            join,
            accept: Some(accept),
        })
    }
}

/// A running daemon: its bound address, live counters, and the join
/// point that yields the final checkpoint after a clean shutdown
/// (triggered by a client's `Shutdown` message).
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    counters: Arc<DaemonCounters>,
    join: JoinHandle<DaemonFinal>,
    accept: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The actually bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters of this daemon alone.
    pub fn stats(&self) -> &DaemonCounters {
        &self.counters
    }

    /// Waits for the daemon to stop (a client must send `Shutdown`),
    /// then unblocks and joins the acceptor and returns durable state.
    ///
    /// # Panics
    ///
    /// Resumes the event loop's panic if it died of one: there is no
    /// durable state to return, and an empty stand-in would be written
    /// over the real checkpoint.
    pub fn join(mut self) -> DaemonFinal {
        let fin = self.join.join();
        // The event loop set `stopping` before exiting (or dropped the
        // channel the acceptor feeds); one throwaway connection makes the
        // blocked `accept` observe it and return.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        fin.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Accept loop: hand every connection to the event loop until stopped.
fn spawn_acceptor(
    listener: TcpListener,
    ev_tx: Sender<Ev>,
    stopping: Arc<Mutex<bool>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Accepted connections count up from 1; dialed connections use
        // a disjoint range (see `DIALED_CONN_BASE`).
        let mut next_conn = 1u64;
        loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            if stopping.lock().map(|s| *s).unwrap_or(true) {
                return;
            }
            let conn = next_conn;
            next_conn += 1;
            if ev_tx.send(Ev::Accepted { conn, stream }).is_err() {
                return;
            }
        }
    })
}

/// Dialer for one neighbor link: connect (with backoff), hand the
/// socket to the event loop, and exit; the event loop spawns the next
/// incarnation with a bumped epoch when the link breaks.
fn spawn_dialer(
    addr: SocketAddr,
    ix: usize,
    epoch: u64,
    ev_tx: Sender<Ev>,
    stopping: Arc<Mutex<bool>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        if stopping.lock().map(|s| *s).unwrap_or(true) {
            return;
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = ev_tx.send(Ev::Dialed { ix, epoch, stream });
                return;
            }
            Err(_) => std::thread::sleep(REDIAL_BACKOFF),
        }
    })
}

/// Reader loop for one socket: frames → [`Msg`]s → event channel.
fn spawn_reader(
    conn: ConnId,
    mut stream: TcpStream,
    ev_tx: Sender<Ev>,
    counters: Arc<DaemonCounters>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            counters.bytes_rx.add(n as u64);
            // BOUND: `read` returns at most `buf.len()`.
            decoder.feed(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        counters.frames_rx.inc();
                        match Msg::decode_frame(&frame) {
                            Ok(msg) => {
                                if ev_tx.send(Ev::Msg { conn, msg }).is_err() {
                                    return;
                                }
                            }
                            Err(_) => {
                                CNT_DECODE_ERRORS.inc();
                                let _ = ev_tx.send(Ev::Closed { conn });
                                return;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        CNT_DECODE_ERRORS.inc();
                        let _ = ev_tx.send(Ev::Closed { conn });
                        return;
                    }
                }
            }
        }
        let _ = ev_tx.send(Ev::Closed { conn });
    })
}

/// Dialed connections get ids in their own range so the acceptor's
/// counter and the event loop's counter never collide.
const DIALED_CONN_BASE: ConnId = 1 << 32;

/// Wires up a fresh socket: its outbox (with the writer thread behind
/// it), and a reader thread feeding the event loop.
fn open(
    conn: ConnId,
    stream: TcpStream,
    config: &DaemonConfig,
    ev_tx: &Sender<Ev>,
    counters: &Arc<DaemonCounters>,
) -> Option<Outbox> {
    let read_half = stream.try_clone().ok()?;
    let out = Outbox::open(stream, config.mailbox_capacity, Arc::clone(counters)).ok()?;
    spawn_reader(conn, read_half, ev_tx.clone(), Arc::clone(counters));
    Some(out)
}

/// Runs the daemon's event loop to completion (client `Shutdown`):
/// each event becomes a [`DaemonCore`] input, and each step's outputs
/// are written when it ends.
fn event_loop(
    mut daemon: DaemonCore,
    config: DaemonConfig,
    ev_rx: Receiver<Ev>,
    ev_tx: Sender<Ev>,
    stopping: Arc<Mutex<bool>>,
) -> DaemonFinal {
    let mut conns = Conns {
        live: BTreeMap::new(),
        dirty: Vec::new(),
        serving: None,
    };
    // Epoch of the next dial, and the live connection, per dial index.
    let mut dial_epochs: Vec<u64> = vec![1; config.dial.len()];
    let mut dial_conns: Vec<Option<ConnId>> = vec![None; config.dial.len()];
    let mut next_dialed_conn = DIALED_CONN_BASE;

    while let Ok(ev) = ev_rx.recv() {
        match ev {
            Ev::Accepted { conn, stream } => {
                if let Some(out) = open(conn, stream, &config, &ev_tx, daemon.counters()) {
                    conns.live.insert(conn, out);
                    daemon.connected(conn, Role::Unknown);
                }
            }
            Ev::Dialed { ix, epoch, stream } => {
                let Some(&(peer, _)) = config.dial.get(ix) else {
                    continue;
                };
                let conn = next_dialed_conn;
                let Some(out) = open(conn, stream, &config, &ev_tx, daemon.counters()) else {
                    continue;
                };
                next_dialed_conn += 1;
                if epoch > 1 {
                    daemon.counters().reconnects.inc();
                }
                // BOUND: `ix < config.dial.len()` (checked above) and
                // both vectors were sized to `config.dial.len()`.
                dial_epochs[ix] = epoch + 1;
                dial_conns[ix] = Some(conn);
                conns.live.insert(conn, out);
                conns.send(conn, &daemon.hello(epoch));
                conns.flush();
                daemon.connected(conn, Role::Peer(peer));
            }
            Ev::Closed { conn } => {
                // Shut down, not only dropped: a writer retrying a
                // stalled write on it fails and exits.
                conns.close(conn);
                daemon.closed(conn);
                // A broken dialed link is ours to re-establish.
                if let Some(ix) = dial_conns.iter().position(|c| *c == Some(conn)) {
                    dial_conns[ix] = None;
                    if !stopping.lock().map(|s| *s).unwrap_or(true) {
                        spawn_dialer(
                            config.dial[ix].1,
                            ix,
                            dial_epochs[ix],
                            ev_tx.clone(),
                            Arc::clone(&stopping),
                        );
                    }
                }
            }
            Ev::Msg { conn, msg } => {
                if matches!(msg, Msg::Shutdown) {
                    if let Ok(mut s) = stopping.lock() {
                        *s = true;
                    }
                    break;
                }
                conns.serving = Some(conn);
                daemon.step(conn, msg, &mut conns);
                conns.flush();
            }
        }
    }

    DaemonFinal {
        checkpoint: daemon.broker().checkpoint(),
        counters: Arc::clone(daemon.counters()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon whose event loop died has no checkpoint to hand over;
    /// `join` must not make one up for `subsumd` to write to disk.
    #[test]
    fn join_propagates_an_event_loop_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = DaemonHandle {
            addr: listener.local_addr().unwrap(),
            counters: Arc::default(),
            join: std::thread::spawn(|| panic!("event loop bug")),
            accept: None,
        };
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        let panic = joined.expect_err("the panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"event loop bug"));
    }

    /// A zero-frame mailbox would refuse nearly every frame: the
    /// library refuses it up front, as the binary refuses `--mailbox 0`.
    #[test]
    fn start_refuses_a_zero_frame_mailbox() {
        let mut config = DaemonConfig::new(BrokerId(0), subsum_types::stock_schema());
        config.mailbox_capacity = 0;
        let refused = Subsumd::start(config).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// A checkpoint is outside input to the library too: broker 1 does
    /// not start on broker 0's store and serve its ids as its own.
    #[test]
    fn start_refuses_another_brokers_checkpoint() {
        use subsum_types::{LocalSubId, NumOp, Subscription, SubscriptionId};
        let schema = subsum_types::stock_schema();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let id = SubscriptionId::new(BrokerId(0), LocalSubId(0), sub.attr_mask());
        let mut config = DaemonConfig::new(BrokerId(1), schema);
        config.checkpoint = Some(BrokerCheckpoint {
            next_local: 1,
            subs: vec![(id, sub)],
        });
        let refused = Subsumd::start(config).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            refused.to_string().contains("belongs to broker 0"),
            "{refused}"
        );
    }

    /// A local id of 2^20 fits the checkpoint format but not the wire's
    /// 20 local-id bits: a daemon serving it could encode no summary to
    /// push or to answer a pull with, so it does not start.
    #[test]
    fn start_refuses_a_checkpoint_outside_the_id_layout() {
        use subsum_types::{LocalSubId, NumOp, Subscription, SubscriptionId};
        let schema = subsum_types::stock_schema();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let id = SubscriptionId::new(BrokerId(0), LocalSubId(1 << 20), sub.attr_mask());
        let mut config = DaemonConfig::new(BrokerId(0), schema);
        config.checkpoint = Some(BrokerCheckpoint {
            next_local: (1 << 20) + 1,
            subs: vec![(id, sub)],
        });
        let refused = Subsumd::start(config).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
        assert!(refused.to_string().contains("id layout"), "{refused}");
    }
}
