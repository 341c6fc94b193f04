//! [`Subsumd`]: the standalone summary-routing broker daemon.
//!
//! A daemon is one broker of the paper's overlay, serving real sockets:
//! it accepts peer connections from neighbor daemons and client
//! connections from subscribers/publishers, all speaking the framed
//! [`Msg`] protocol. The broker itself is the in-process one — a
//! [`BrokerCore`] owns the exact store, the own summary, one *view* per
//! neighbor, the summary wire codec and every decision about them; the
//! daemon adds sockets — so it interoperates bit-for-bit with
//! checkpoints and digests produced by the simulator.
//!
//! # Threads and ownership
//!
//! One **event loop** thread owns all broker state; everything else is
//! I/O plumbing feeding it messages over a channel:
//!
//! * an **accept** thread turns incoming connections into reader
//!   threads;
//! * one **reader** thread per socket decodes frames into [`Msg`]s;
//! * one **writer** thread per socket drains that connection's bounded
//!   [`Mailbox`] (see [`crate::session`] for the backpressure policy);
//! * one **dialer** thread per configured neighbor link establishes
//!   the outbound connection with backoff; the event loop spawns a
//!   fresh dialer with a bumped epoch when a dialed link breaks.
//!
//! # Sessions, epochs, reconvergence
//!
//! Every fresh peer link starts with `Hello`/`HelloAck` carrying the
//! sender's broker id, its **connection epoch** (a counter the dialer
//! bumps each dial, so both ends can tell a reconnect from a duplicate
//! dial), and the `SummaryDigest` of its own summary. Each end hands
//! the received digest to [`BrokerCore::on_peer`], which answers `Pull`
//! **only on mismatch** (holding no view counts as one) — a restarted
//! peer that recovered its state from a checkpoint re-joins without a
//! single summary crossing the wire in its direction. `Summary`,
//! `Digest` and `Pull` frames go through the same call: the protocol
//! step here is the very function the chaos suite proves convergent
//! under faults, not a copy of it. The three kinds count only on a peer
//! link and only under that link's broker id; a client cannot speak for
//! a neighbor.
//!
//! # Event flow
//!
//! `Subscribe` admits the subscription into the core (a client the core
//! refuses — id space exhausted — is disconnected) and eagerly pushes
//! the updated summary to every connected peer. `Publish` delivers
//! locally and forwards a `Route` to each neighbor whose view has a
//! candidate; the `PublishAck` reports `accepted: false` if a required
//! forward was rejected by backpressure, and how many local
//! subscriptions truly match. A `Route` from a peer is delivered locally
//! only. Local delivery is two-tier ([`BrokerCore::match_local`]): a
//! client never sees a SACS false positive.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use subsum_broker::{BrokerCheckpoint, BrokerCore, PeerMsg};
use subsum_telemetry::{names, Count, Counter};
use subsum_types::{BrokerId, Event, IdLayout, Schema, SubscriptionId, TypeError};

use crate::frame::FrameDecoder;
use crate::msg::Msg;
use crate::session::{spawn_writer, BackpressurePolicy, Mailbox, SendOutcome, TxStats};

static CNT_FRAMES_RX: Count = Count::new(names::TRANSPORT_FRAMES_RX);
static CNT_BYTES_RX: Count = Count::new(names::TRANSPORT_BYTES_RX);
static CNT_DECODE_ERRORS: Count = Count::new(names::TRANSPORT_DECODE_ERRORS);
static CNT_RECONNECTS: Count = Count::new(names::TRANSPORT_RECONNECTS);
static CNT_RESYNCS: Count = Count::new(names::TRANSPORT_RESYNCS);
static CNT_ACKED: Count = Count::new(names::PUBLISH_ACKED);
static CNT_REJECTED: Count = Count::new(names::PUBLISH_REJECTED);

/// How long a dialer sleeps between failed connection attempts.
const REDIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Per-daemon counters, readable while the daemon runs.
///
/// The process-global telemetry statics aggregate across every daemon
/// in the process (fine for a real deployment of one daemon per
/// process, useless for a test hosting several); these are scoped to
/// one daemon.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Frames/bytes written by this daemon's writer threads. Shared
    /// with the writers, hence the extra `Arc`.
    pub tx: Arc<TxStats>,
    /// Frames decoded off this daemon's sockets.
    pub frames_rx: Counter,
    /// Peer dials beyond each link's first (epoch re-handshakes).
    pub reconnects: Counter,
    /// Handshake digest mismatches that triggered a summary pull.
    pub resyncs: Counter,
    /// `Summary` frames accepted from peer links (each decodable one
    /// replaces that peer's view).
    pub summaries_rx: Counter,
    /// Full summaries sent (eager pushes plus pull responses).
    pub summaries_tx: Counter,
    /// Client publishes acknowledged as fully accepted.
    pub acked: Counter,
    /// Client publishes acknowledged as rejected by backpressure.
    pub rejected: Counter,
    /// `Deliver` messages sent to clients.
    pub deliveries: Counter,
}

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
    /// Bound of every per-connection outbound mailbox, in frames.
    pub mailbox_capacity: usize,
    /// What to do when a mailbox is full.
    pub policy: BackpressurePolicy,
    /// Durable state from a previous run ([`DaemonFinal::checkpoint`]);
    /// the daemon rebuilds its summary from it, digest-identical to the
    /// pre-shutdown one.
    pub checkpoint: Option<BrokerCheckpoint>,
}

impl DaemonConfig {
    /// A config with no neighbors, an ephemeral loopback port, and
    /// defaults (mailbox of 256 frames, reject policy, fresh state).
    pub fn new(broker: BrokerId, schema: Schema) -> DaemonConfig {
        DaemonConfig {
            broker,
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            dial: Vec::new(),
            schema,
            mailbox_capacity: 256,
            policy: BackpressurePolicy::default(),
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
}

/// Events feeding the daemon's single-threaded event loop.
enum Ev {
    /// A connection was accepted; type unknown until its first message.
    Accepted { conn: u64, stream: TcpStream },
    /// A dialer established (or re-established) link `dial[ix]`.
    Dialed {
        ix: usize,
        epoch: u64,
        stream: TcpStream,
    },
    /// A message arrived on connection `conn`.
    Msg { conn: u64, msg: Msg },
    /// Connection `conn` closed or failed.
    Closed { conn: u64 },
}

/// What the event loop knows about one live connection.
struct Conn {
    mailbox: Mailbox,
    /// The socket, kept so the event loop can close a connection itself.
    stream: TcpStream,
    role: Role,
}

enum Role {
    /// Accepted but not yet classified by a first message.
    Unknown,
    /// A neighbor daemon's link.
    Peer(BrokerId),
    /// A subscriber/publisher client.
    Client,
}

/// The daemon builder; see the [module docs](self).
#[derive(Debug)]
pub struct Subsumd;

impl Subsumd {
    /// Starts a daemon, returning once its listener is bound.
    ///
    /// # Errors
    ///
    /// Returns the socket error if the listen address cannot be bound,
    /// or `InvalidData` if the schema exceeds the summary id layout.
    pub fn start(mut config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(config.listen)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(DaemonStats::default());
        let stopping = Arc::new(Mutex::new(false));
        let (ev_tx, ev_rx) = std::sync::mpsc::channel::<Ev>();

        let broker = Broker::new(&mut config, Arc::clone(&stats))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;

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
            std::thread::spawn(move || event_loop(broker, config, ev_rx, loop_tx, loop_stop));

        Ok(DaemonHandle {
            addr,
            stats,
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
    stats: Arc<DaemonStats>,
    join: JoinHandle<DaemonFinal>,
    accept: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The actually bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live per-daemon counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Waits for the daemon to stop (a client must send `Shutdown`),
    /// then unblocks and joins the acceptor and returns durable state.
    pub fn join(mut self) -> DaemonFinal {
        let fin = match self.join.join() {
            Ok(fin) => fin,
            Err(_) => DaemonFinal {
                checkpoint: BrokerCheckpoint::default(),
            },
        };
        // The event loop set `stopping` before exiting; one throwaway
        // connection makes the blocked `accept` observe it and return.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        fin
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
    conn: u64,
    mut stream: TcpStream,
    ev_tx: Sender<Ev>,
    stats: Arc<DaemonStats>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            CNT_BYTES_RX.add(n as u64);
            // BOUND: `read` returns at most `buf.len()`.
            decoder.feed(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        CNT_FRAMES_RX.inc();
                        stats.frames_rx.inc();
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
const DIALED_CONN_BASE: u64 = 1 << 32;

/// The broker owned by the event loop.
struct Broker {
    core: BrokerCore,
    /// Which client connection owns each local subscription.
    sub_owner: BTreeMap<SubscriptionId, u64>,
    stats: Arc<DaemonStats>,
}

impl Broker {
    fn new(config: &mut DaemonConfig, stats: Arc<DaemonStats>) -> Result<Broker, TypeError> {
        let layout = IdLayout::new(1 << 16, 1 << 20, config.schema.len() as u32)?;
        Ok(Broker {
            core: BrokerCore::new(
                config.broker.0,
                config.schema.clone(),
                layout,
                config.checkpoint.take(),
            ),
            sub_owner: BTreeMap::new(),
            stats,
        })
    }

    fn id(&self) -> BrokerId {
        BrokerId(self.core.id())
    }

    /// `msg` as the frame this daemon puts on a peer link.
    fn to_wire(&self, msg: PeerMsg) -> Msg {
        let from = self.id();
        match msg {
            PeerMsg::Summary(bytes) => Msg::Summary { from, bytes },
            PeerMsg::Digest(digest) => Msg::Digest { from, digest },
            PeerMsg::Pull => Msg::Pull { from },
        }
    }
}

/// Wires up a fresh socket: writer thread behind a bounded mailbox,
/// reader thread feeding the event loop.
fn open(
    conn: u64,
    stream: TcpStream,
    role: Role,
    config: &DaemonConfig,
    ev_tx: &Sender<Ev>,
    stats: &Arc<DaemonStats>,
) -> Option<Conn> {
    let write_half = stream.try_clone().ok()?;
    let handle = stream.try_clone().ok()?;
    let (mailbox, rx) = Mailbox::new(config.mailbox_capacity, config.policy);
    spawn_writer(write_half, rx, Arc::clone(&stats.tx));
    spawn_reader(conn, stream, ev_tx.clone(), Arc::clone(stats));
    Some(Conn {
        mailbox,
        stream: handle,
        role,
    })
}

/// Runs the daemon's event loop to completion (client `Shutdown`).
fn event_loop(
    mut broker: Broker,
    config: DaemonConfig,
    ev_rx: Receiver<Ev>,
    ev_tx: Sender<Ev>,
    stopping: Arc<Mutex<bool>>,
) -> DaemonFinal {
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    // Epoch of the next dial, and the live connection, per dial index.
    let mut dial_epochs: Vec<u64> = vec![1; config.dial.len()];
    let mut dial_conns: Vec<Option<u64>> = vec![None; config.dial.len()];
    let mut next_dialed_conn = DIALED_CONN_BASE;
    let stats = Arc::clone(&broker.stats);

    while let Ok(ev) = ev_rx.recv() {
        match ev {
            Ev::Accepted { conn, stream } => {
                if let Some(c) = open(conn, stream, Role::Unknown, &config, &ev_tx, &stats) {
                    conns.insert(conn, c);
                }
            }
            Ev::Dialed { ix, epoch, stream } => {
                let Some(&(peer, _)) = config.dial.get(ix) else {
                    continue;
                };
                let conn = next_dialed_conn;
                let Some(c) = open(conn, stream, Role::Peer(peer), &config, &ev_tx, &stats) else {
                    continue;
                };
                next_dialed_conn += 1;
                if epoch > 1 {
                    CNT_RECONNECTS.inc();
                    stats.reconnects.inc();
                }
                // BOUND: `ix < config.dial.len()` (checked above) and
                // both vectors were sized to `config.dial.len()`.
                dial_epochs[ix] = epoch + 1;
                dial_conns[ix] = Some(conn);
                send_msg(
                    &c.mailbox,
                    &Msg::Hello {
                        broker: broker.id(),
                        epoch,
                        digest: broker.core.own().digest(),
                    },
                );
                conns.insert(conn, c);
            }
            Ev::Closed { conn } => {
                conns.remove(&conn);
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
                handle_msg(&mut broker, &mut conns, conn, msg);
            }
        }
    }

    DaemonFinal {
        checkpoint: broker.core.checkpoint(),
    }
}

/// Re-tags a [`Role::Unknown`] connection once its first message
/// reveals what it is; established connections keep their tag.
fn classify(conns: &mut BTreeMap<u64, Conn>, conn: u64, role: Role) {
    if let Some(c) = conns.get_mut(&conn) {
        if matches!(c.role, Role::Unknown) {
            c.role = role;
        }
    }
}

/// Closes a connection from this end; the remote side sees EOF.
fn close(conns: &mut BTreeMap<u64, Conn>, conn: u64) {
    if let Some(c) = conns.remove(&conn) {
        let _ = c.stream.shutdown(Shutdown::Both);
    }
}

/// The newest live link to a neighbor daemon, if any.
fn peer_conn(conns: &BTreeMap<u64, Conn>, peer: BrokerId) -> Option<&Mailbox> {
    conns
        .values()
        .rev()
        .find(|c| matches!(c.role, Role::Peer(broker) if broker == peer))
        .map(|c| &c.mailbox)
}

/// One neighbour-view protocol message from connection `conn`: the core
/// decides, the daemon posts the reply and counts. The sender is the
/// broker the *link* belongs to; a frame on a client or unclassified
/// connection, or one claiming another broker's id, is dropped.
fn peer_step(
    broker: &mut Broker,
    conns: &BTreeMap<u64, Conn>,
    conn: u64,
    claimed: BrokerId,
    msg: PeerMsg,
) {
    let Some(c) = conns.get(&conn) else {
        return;
    };
    if !matches!(c.role, Role::Peer(peer) if peer == claimed) {
        return;
    }
    let received_summary = matches!(msg, PeerMsg::Summary(_));
    let reply = broker.core.on_peer(claimed.0, msg);
    if received_summary {
        // After the step: whoever reads the counter finds the view in place.
        broker.stats.summaries_rx.inc();
    }
    let Some(reply) = reply else {
        return;
    };
    if reply == PeerMsg::Pull {
        CNT_RESYNCS.inc();
        broker.stats.resyncs.inc();
    }
    let sends_summary = matches!(reply, PeerMsg::Summary(_));
    if send_msg(&c.mailbox, &broker.to_wire(reply)) == SendOutcome::Sent && sends_summary {
        broker.stats.summaries_tx.inc();
    }
}

/// Applies one protocol message to the broker.
fn handle_msg(broker: &mut Broker, conns: &mut BTreeMap<u64, Conn>, conn: u64, msg: Msg) {
    match msg {
        Msg::Hello {
            broker: peer,
            epoch,
            digest,
        } => {
            classify(conns, conn, Role::Peer(peer));
            if let Some(c) = conns.get(&conn) {
                send_msg(
                    &c.mailbox,
                    &Msg::HelloAck {
                        broker: broker.id(),
                        epoch,
                        digest: broker.core.own().digest(),
                    },
                );
            }
            peer_step(broker, conns, conn, peer, PeerMsg::Digest(digest));
        }
        Msg::HelloAck {
            broker: peer,
            epoch: _,
            digest,
        } => peer_step(broker, conns, conn, peer, PeerMsg::Digest(digest)),
        Msg::Summary { from, bytes } => {
            peer_step(broker, conns, conn, from, PeerMsg::Summary(bytes))
        }
        Msg::Digest { from, digest } => {
            peer_step(broker, conns, conn, from, PeerMsg::Digest(digest))
        }
        Msg::Pull { from } => peer_step(broker, conns, conn, from, PeerMsg::Pull),
        Msg::Route { origin: _, event } => {
            deliver_local(broker, conns, &event);
        }
        Msg::Subscribe { sub } => {
            classify(conns, conn, Role::Client);
            let Ok(id) = broker.core.subscribe(&sub) else {
                // No id left to acknowledge with: refuse by hanging up.
                close(conns, conn);
                return;
            };
            broker.sub_owner.insert(id, conn);
            if let Some(c) = conns.get(&conn) {
                send_msg(&c.mailbox, &Msg::SubscribeAck { id });
            }
            // Eager propagation: every connected neighbor gets the
            // updated summary immediately.
            let Ok(push) = broker.core.announce().map(|own| broker.to_wire(own)) else {
                return;
            };
            for c in conns.values() {
                if matches!(c.role, Role::Peer(_))
                    && send_msg(&c.mailbox, &push) == SendOutcome::Sent
                {
                    broker.stats.summaries_tx.inc();
                }
            }
        }
        Msg::Publish { seq, event } => {
            classify(conns, conn, Role::Client);
            let matched = deliver_local(broker, conns, &event);
            let mut accepted = true;
            for peer in broker.core.interested_neighbours(&event) {
                let forward = Msg::Route {
                    origin: broker.id(),
                    event: event.clone(),
                };
                let sent = peer_conn(conns, BrokerId(peer))
                    .map(|mailbox| send_msg(mailbox, &forward) == SendOutcome::Sent)
                    .unwrap_or(false);
                if !sent {
                    accepted = false;
                }
            }
            if accepted {
                CNT_ACKED.inc();
                broker.stats.acked.inc();
            } else {
                CNT_REJECTED.inc();
                broker.stats.rejected.inc();
            }
            if let Some(c) = conns.get(&conn) {
                send_msg(
                    &c.mailbox,
                    &Msg::PublishAck {
                        seq,
                        accepted,
                        matched,
                    },
                );
            }
        }
        // Client-bound messages arriving at a daemon are protocol
        // noise; drop them.
        Msg::SubscribeAck { .. } | Msg::PublishAck { .. } | Msg::Deliver { .. } => {}
        // Handled by the event loop before dispatch.
        Msg::Shutdown => {}
    }
}

/// Delivers `event` to the local subscriptions it truly matches and
/// returns how many there are (one restored from a checkpoint whose
/// client has not reconnected counts but receives nothing).
fn deliver_local(broker: &mut Broker, conns: &BTreeMap<u64, Conn>, event: &Event) -> u32 {
    let Broker {
        core,
        sub_owner,
        stats,
        ..
    } = broker;
    let mut matched = 0;
    core.match_local(event, |id| {
        matched += 1;
        let Some(c) = sub_owner.get(&id).and_then(|owner| conns.get(owner)) else {
            return;
        };
        let deliver = Msg::Deliver {
            id,
            event: event.clone(),
        };
        if send_msg(&c.mailbox, &deliver) == SendOutcome::Sent {
            stats.deliveries.inc();
        }
    });
    matched
}

fn send_msg(mailbox: &Mailbox, msg: &Msg) -> SendOutcome {
    match msg.to_frame_bytes() {
        Ok(bytes) => mailbox.send(bytes),
        Err(_) => SendOutcome::Rejected,
    }
}
