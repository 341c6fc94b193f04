//! [`DaemonCore`]: what a broker daemon does with a message, sans I/O.
//!
//! A daemon is one broker of the paper's overlay speaking the framed
//! [`Msg`] protocol on numbered connections: links to neighbour daemons
//! and client connections of subscribers and publishers. This module is
//! everything such a daemon *decides* — which connection is what, whom a
//! neighbour-view frame may speak for, what a neighbour's summary says,
//! who owns a subscription, what a publish forwards and acknowledges,
//! what it counts — written once. It holds no socket, thread, channel or
//! clock. A *host* reports connections as they come and go
//! ([`DaemonCore::connected`], [`DaemonCore::closed`]), hands over each
//! decoded message ([`DaemonCore::step`]) and supplies a [`Sink`] that
//! carries the outputs away: `subsumd` posts them to bounded socket
//! outboxes, [`ChaosRun`](crate::ChaosRun) puts their frame bytes on a
//! faulty simulated network. DESIGN.md §16 lists what each host adds.
//!
//! # Event flow
//!
//! `Subscribe` admits the subscription into the [`BrokerCore`] (a client
//! the core refuses — id space exhausted, or a subscription outside the
//! schema — is disconnected) and eagerly
//! pushes what it added on every peer link: a `SummaryDelta` carrying
//! the own digest before and after the insert and a summary of the new
//! subscription alone. `Publish` delivers
//! locally and forwards a `Route` to each neighbour whose view has a
//! candidate; the `PublishAck` reports `accepted: false` if the sink
//! refused a required forward, and how many local subscriptions truly
//! match. A `Route` is delivered locally only. A client whose frame the
//! sink refuses is evicted ([`Sink::send`]); a `Deliver` counts
//! ([`DaemonCounters::deliveries`]) when the sink queues it, not when
//! the client reads it. Local delivery is
//! two-tier ([`BrokerCore::verify`]): a client never sees a SACS false
//! positive. A neighbour's *view* is the last `Summary` it sent that
//! decodes (DESIGN.md §10), with every `SummaryDelta` since merged in: a
//! delta applies to a view at its base digest, is ignored by a view
//! already at its after digest (a duplicate), and anything else — no
//! view, another base, bytes that do not decode, a merge that misses the
//! after digest — is answered by a `Pull`. A `Digest`, or the digest in
//! `Hello` and `HelloAck`, is answered by a `Pull` iff the view is stale,
//! and a `Pull` by the own summary. Those kinds and `Route` count only
//! on a peer link, all but `Route` only under that link's broker id: a
//! client cannot speak for a neighbour.

use std::collections::BTreeMap;
use std::sync::Arc;

use subsum_core::{ArithWidth, BrokerSummary, MatchScratch, SummaryCodec, SummaryDigest};
use subsum_net::NodeId;
use subsum_telemetry::{names, Counter};
use subsum_types::{BrokerId, Event, Subscription, SubscriptionId, TypeError};

use crate::core::BrokerCore;
use crate::msg::Msg;
use crate::snapshot::BrokerCheckpoint;

/// A host's name for one connection. Never reused while the daemon
/// lives: a subscription stays owned by the connection that made it.
pub type ConnId = u64;

/// What a daemon knows about the far end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepted but not yet classified by a first message.
    Unknown,
    /// A neighbour daemon's link.
    Peer(BrokerId),
    /// A subscriber/publisher client.
    Client,
}

/// Where a [`DaemonCore`]'s outputs go. The host answers each one:
/// acknowledgements and counters depend on whether a message was
/// actually queued, so an output cannot be a returned value.
pub trait Sink {
    /// Queues `msg` on `conn`; `false` if it was not queued (unknown or
    /// closed connection, a full outbox, a payload beyond the frame
    /// limit). A refused `Deliver` or ack has no repair, so its client is
    /// evicted: closed, counted, sent nothing more. A peer link repairs:
    /// a refused `Route` turns the ack, a refused push is pulled again.
    fn send(&mut self, conn: ConnId, msg: &Msg) -> bool;
    /// Closes `conn` from this end; the remote side sees EOF.
    fn close(&mut self, conn: ConnId);
}

/// Everything one daemon counts, once per fact, readable while it runs:
/// the protocol counts [`DaemonCore`] keeps and the I/O counts a socket
/// host fills in. A process hosting several daemons reports each apart.
#[derive(Debug, Default)]
pub struct DaemonCounters {
    /// Digest mismatches that triggered a summary pull.
    pub resyncs: Counter,
    /// `Summary` and `SummaryDelta` frames accepted from peer links (a
    /// decodable summary replaces that peer's view, a delta merges into
    /// it).
    pub summaries_rx: Counter,
    /// Summary pushes sent: one `SummaryDelta` per subscribe and link,
    /// plus full summaries (host waves and pull answers).
    pub summaries_tx: Counter,
    /// Client publishes acknowledged as fully accepted.
    pub acked: Counter,
    /// Client publishes acknowledged as rejected: a required `Route`
    /// was not queued, because the link's outbox was full or no link to
    /// that neighbour is up.
    pub rejected: Counter,
    /// `Deliver` messages the sink queued for clients. A queued frame
    /// may never be read: an evicted client's outbox is dropped with it.
    pub deliveries: Counter,
    /// Clients disconnected because the sink refused a frame to them.
    pub evicted: Counter,
    /// What the host wrote to this daemon's sockets.
    pub tx: TxCounters,
    /// Frames decoded off this daemon's sockets.
    pub frames_rx: Counter,
    /// Bytes read from this daemon's sockets.
    pub bytes_rx: Counter,
    /// Peer dials beyond each link's first (epoch re-handshakes).
    pub reconnects: Counter,
}

/// Frames and bytes a host wrote to one daemon's sockets.
#[derive(Debug, Default)]
pub struct TxCounters {
    /// Frames written.
    pub frames_tx: Counter,
    /// Bytes written, frame headers included.
    pub bytes_tx: Counter,
}

impl DaemonCounters {
    /// Each non-zero count under its telemetry name, as a run report's
    /// `counters` section holds it. The counts no report names
    /// (`summaries_rx`, `summaries_tx`, `deliveries`) are left out.
    pub fn listing(&self) -> Vec<(&'static str, u64)> {
        [
            (names::TRANSPORT_RESYNCS, &self.resyncs),
            (names::PUBLISH_ACKED, &self.acked),
            (names::PUBLISH_REJECTED, &self.rejected),
            (names::TRANSPORT_CLIENTS_EVICTED, &self.evicted),
            (names::TRANSPORT_FRAMES_TX, &self.tx.frames_tx),
            (names::TRANSPORT_BYTES_TX, &self.tx.bytes_tx),
            (names::TRANSPORT_FRAMES_RX, &self.frames_rx),
            (names::TRANSPORT_BYTES_RX, &self.bytes_rx),
            (names::TRANSPORT_RECONNECTS, &self.reconnects),
        ]
        .into_iter()
        .map(|(name, count)| (name, count.get()))
        .filter(|&(_, n)| n > 0)
        .collect()
    }
}

/// The protocol state machine of one daemon. See the [module docs](self).
#[derive(Debug)]
pub struct DaemonCore {
    core: BrokerCore,
    /// Last received summary of each neighbour, with every delta since
    /// merged in.
    views: BTreeMap<NodeId, BrokerSummary>,
    /// Wire codec of summaries in both directions, over the core's layout.
    codec: SummaryCodec,
    /// Matcher scratch reused across every event this daemon matches.
    scratch: MatchScratch,
    /// Which client connection owns each local subscription.
    sub_owner: BTreeMap<SubscriptionId, ConnId>,
    /// Every live connection, ascending: newer connections sort last.
    roles: BTreeMap<ConnId, Role>,
    counters: Arc<DaemonCounters>,
}

impl DaemonCore {
    /// A daemon around `core`, with no connections and no views yet.
    pub fn new(core: BrokerCore) -> Self {
        DaemonCore {
            codec: SummaryCodec::new(core.layout(), ArithWidth::Eight),
            core,
            views: BTreeMap::new(),
            scratch: MatchScratch::new(),
            sub_owner: BTreeMap::new(),
            roles: BTreeMap::new(),
            counters: Arc::default(),
        }
    }

    /// The broker behind the protocol.
    pub fn broker(&self) -> &BrokerCore {
        &self.core
    }

    /// The broker, for what a host does to it outside the protocol
    /// (cancelling a subscription).
    pub fn broker_mut(&mut self) -> &mut BrokerCore {
        &mut self.core
    }

    /// This daemon's counters, shareable with whoever reports them.
    pub fn counters(&self) -> &Arc<DaemonCounters> {
        &self.counters
    }

    fn id(&self) -> BrokerId {
        BrokerId(self.core.id())
    }

    /// The last summary received from neighbour `peer`, if any.
    pub fn view(&self, peer: NodeId) -> Option<&BrokerSummary> {
        self.views.get(&peer)
    }

    /// The digest gate of anti-entropy: whether a pull is due because
    /// the stored view of `peer` disagrees with its advertised digest.
    /// Holding no view is always stale — absent is not empty.
    pub fn view_is_stale(&self, peer: NodeId, advertised: SummaryDigest) -> bool {
        self.views.get(&peer).map(BrokerSummary::digest) != Some(advertised)
    }

    /// Replaces the broker's state by `checkpoint` (`None`: a crash) and
    /// forgets every view: a restarted daemon re-learns its neighbours.
    pub fn restore(&mut self, checkpoint: Option<BrokerCheckpoint>) {
        self.core.restore(checkpoint);
        self.views.clear();
    }

    /// A connection came up. A dialled link is born `Peer(_)`; an
    /// accepted one is `Unknown` until its first message tells.
    pub fn connected(&mut self, conn: ConnId, role: Role) {
        self.roles.insert(conn, role);
    }

    /// A connection went away; later messages under its id are dropped.
    pub fn closed(&mut self, conn: ConnId) {
        self.roles.remove(&conn);
    }

    /// Admits `sub` for connection `conn` and tells no one: the part of
    /// a `Subscribe` before the ack and the push. A host calls it to
    /// populate a broker whose links are not up yet.
    ///
    /// # Errors
    ///
    /// As [`BrokerCore::subscribe`]: the local id space is exhausted, or
    /// `sub` is outside the schema.
    pub fn subscribe(
        &mut self,
        conn: ConnId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        let id = self.core.subscribe(sub)?;
        self.sub_owner.insert(id, conn);
        Ok(id)
    }

    /// Pushes the own summary on every peer link: a host's unasked
    /// waves (start-up, a naive repair round).
    ///
    /// # Errors
    ///
    /// A [`TypeError`] if the summary does not fit the wire layout;
    /// nothing is sent.
    pub fn push_summary(&self, sink: &mut impl Sink) -> Result<(), TypeError> {
        let sent = self.to_peers(&self.summary_frame()?, sink);
        self.counters.summaries_tx.add(sent);
        Ok(())
    }

    /// Advertises the own summary's digest on every peer link: one
    /// anti-entropy round.
    pub fn advertise_digest(&self, sink: &mut impl Sink) {
        let (from, digest) = (self.id(), self.core.own().digest());
        self.to_peers(&Msg::Digest { from, digest }, sink);
    }

    /// The `Hello` that opens a peer link at connection `epoch`: this
    /// broker's id and own digest. The far end answers `HelloAck` with
    /// its digest, and each end pulls only a view that differs.
    pub fn hello(&self, epoch: u64) -> Msg {
        Msg::Hello {
            broker: self.id(),
            epoch,
            digest: self.core.own().digest(),
        }
    }

    /// The own summary as the `Summary` frame this daemon ships, unasked
    /// or as the answer to a pull.
    fn summary_frame(&self) -> Result<Msg, TypeError> {
        let (from, bytes) = (self.id(), self.codec.encode(self.core.own())?);
        Ok(Msg::Summary { from, bytes })
    }

    /// Pushes what admitting `sub` under `id` added to the own summary,
    /// whose digest went from `base` to `digest`, on every peer link: the
    /// eager push after a `Subscribe`. A subscription that left the
    /// summary as it was (the §6 filter shadowed it) ships an empty
    /// delta, so one subscribe is still one push.
    ///
    /// # Errors
    ///
    /// A [`TypeError`] if the subscription does not fit the wire layout;
    /// nothing is sent.
    fn push_delta(
        &self,
        base: SummaryDigest,
        digest: SummaryDigest,
        id: SubscriptionId,
        sub: &Subscription,
        sink: &mut impl Sink,
    ) -> Result<(), TypeError> {
        let schema = self.core.schema().clone();
        let added = if digest == base {
            BrokerSummary::new(schema)
        } else {
            BrokerSummary::rebuild(schema, [(id, sub)])
        };
        let delta = Msg::SummaryDelta {
            from: self.id(),
            base,
            digest,
            bytes: self.codec.encode(&added)?,
        };
        let sent = self.to_peers(&delta, sink);
        self.counters.summaries_tx.add(sent);
        Ok(())
    }

    /// Applies neighbour `from`'s delta from `base` to `digest` to its
    /// view; returns `false` if the view must be pulled instead. A view
    /// already at `digest` has seen the frame. A merge that misses
    /// `digest` keeps the union, which only over-approximates, until the
    /// pull's answer replaces it.
    fn apply_delta(
        &mut self,
        from: NodeId,
        base: SummaryDigest,
        digest: SummaryDigest,
        bytes: &[u8],
    ) -> bool {
        let Some(view) = self.views.get_mut(&from) else {
            return false;
        };
        let at = view.digest();
        if at == digest {
            return true;
        }
        if at != base || self.codec.merge_decoded(bytes, view).is_err() {
            return false;
        }
        view.digest() == digest
    }

    /// Counts a resync and pulls the full summary on `conn`.
    fn pull(&self, conn: ConnId, sink: &mut impl Sink) {
        self.counters.resyncs.inc();
        sink.send(conn, &Msg::Pull { from: self.id() });
    }

    /// Sends `msg` on every peer link, oldest link first; returns how
    /// many links queued it.
    fn to_peers(&self, msg: &Msg, sink: &mut impl Sink) -> u64 {
        let links = self
            .roles
            .iter()
            .filter(|(_, role)| matches!(role, Role::Peer(_)));
        links.filter(|(&conn, _)| sink.send(conn, msg)).count() as u64
    }

    /// Applies one message that arrived on `conn`. A connection never
    /// reported [`connected`](DaemonCore::connected) (or since closed)
    /// has no say. `Shutdown` is the host's to act on.
    pub fn step(&mut self, conn: ConnId, msg: Msg, sink: &mut impl Sink) {
        let Some(role) = self.roles.get_mut(&conn) else {
            return;
        };
        // The first message tells what an accepted connection is;
        // established connections keep their tag.
        if *role == Role::Unknown {
            match &msg {
                Msg::Hello { broker, .. } => *role = Role::Peer(*broker),
                Msg::Subscribe { .. } | Msg::Publish { .. } => *role = Role::Client,
                _ => {}
            }
        }
        let role = *role;
        match msg {
            // A neighbour-view frame speaks only for the broker its link
            // belongs to: on a client or unclassified connection, or
            // under another broker's id, it is dropped.
            Msg::Hello {
                broker,
                epoch,
                digest,
            } if role == Role::Peer(broker) => {
                sink.send(
                    conn,
                    &Msg::HelloAck {
                        broker: self.id(),
                        epoch,
                        digest: self.core.own().digest(),
                    },
                );
                // Then the digest it carries, as from a `Digest`.
                let from = broker;
                self.step(conn, Msg::Digest { from, digest }, sink);
            }
            Msg::HelloAck {
                broker: from,
                digest,
                ..
            }
            | Msg::Digest { from, digest }
                if role == Role::Peer(from) =>
            {
                // The digest gate: pull iff the view is stale.
                if self.view_is_stale(from.0, digest) {
                    self.pull(conn, sink);
                }
            }
            Msg::Pull { from } if role == Role::Peer(from) => {
                // A summary outside the wire layout is not answered.
                if let Ok(summary) = self.summary_frame() {
                    if sink.send(conn, &summary) {
                        self.counters.summaries_tx.inc();
                    }
                }
            }
            Msg::Summary { from, bytes } if role == Role::Peer(from) => {
                // One that does not decode leaves the view as it was.
                if let Ok(summary) = self.codec.decode(&bytes, self.core.schema()) {
                    self.views.insert(from.0, summary);
                }
                // Counted last: whoever reads the counter finds the view in place.
                self.counters.summaries_rx.inc();
            }
            Msg::SummaryDelta {
                from,
                base,
                digest,
                bytes,
            } if role == Role::Peer(from) => {
                if !self.apply_delta(from.0, base, digest, &bytes) {
                    self.pull(conn, sink);
                }
                self.counters.summaries_rx.inc();
            }
            Msg::Hello { .. }
            | Msg::HelloAck { .. }
            | Msg::Digest { .. }
            | Msg::Pull { .. }
            | Msg::Summary { .. }
            | Msg::SummaryDelta { .. } => {}
            Msg::Route { origin: _, event } => {
                if matches!(role, Role::Peer(_)) {
                    self.deliver_local(&event, sink);
                }
            }
            Msg::Subscribe { sub } => {
                let base = self.core.own().digest();
                let Ok(id) = self.subscribe(conn, &sub) else {
                    // No id to acknowledge with: refuse by hanging up.
                    self.roles.remove(&conn);
                    sink.close(conn);
                    return;
                };
                let ack = Msg::SubscribeAck { id };
                to_client(&mut self.roles, &self.counters, conn, &ack, sink);
                // Eager propagation: every connected neighbour gets what
                // the subscription added, at once (one outside the wire
                // layout is not pushed).
                let digest = self.core.own().digest();
                let _ = self.push_delta(base, digest, id, &sub, sink);
            }
            Msg::Publish { seq, event } => {
                let matched = self.deliver_local(&event, sink);
                let mut accepted = true;
                for peer in self.interested_neighbours(&event) {
                    let forward = Msg::Route {
                        origin: self.id(),
                        event: event.clone(),
                    };
                    let sent = self
                        .peer_conn(BrokerId(peer))
                        .is_some_and(|link| sink.send(link, &forward));
                    if !sent {
                        accepted = false;
                    }
                }
                if accepted {
                    self.counters.acked.inc();
                } else {
                    self.counters.rejected.inc();
                }
                let ack = Msg::PublishAck {
                    seq,
                    accepted,
                    matched,
                };
                to_client(&mut self.roles, &self.counters, conn, &ack, sink);
            }
            // Client-bound messages arriving at a daemon are protocol
            // noise; drop them.
            Msg::SubscribeAck { .. } | Msg::PublishAck { .. } | Msg::Deliver { .. } => {}
            Msg::Shutdown => {}
        }
    }

    /// The newest live link to a neighbour daemon, if any.
    fn peer_conn(&self, peer: BrokerId) -> Option<ConnId> {
        self.roles
            .iter()
            .rev()
            .find(|(_, role)| **role == Role::Peer(peer))
            .map(|(&conn, _)| conn)
    }

    /// Neighbours whose view holds a candidate for `event`.
    fn interested_neighbours(&mut self, event: &Event) -> Vec<NodeId> {
        let scratch = &mut self.scratch;
        self.views
            .iter()
            .filter(|(_, view)| !view.match_event_into(event, scratch).matched.is_empty())
            .map(|(&peer, _)| peer)
            .collect()
    }

    /// Delivers `event` to the local subscriptions it truly matches and
    /// returns how many there are (one whose client is gone or evicted,
    /// or restored from a checkpoint and not re-attached, counts but
    /// receives nothing).
    fn deliver_local(&mut self, event: &Event, sink: &mut impl Sink) -> u32 {
        let DaemonCore {
            core,
            scratch,
            sub_owner,
            roles,
            counters,
            ..
        } = self;
        let mut matched = 0;
        for &candidate in &core.own().match_event_into(event, scratch).matched {
            core.verify(event, candidate, |id| {
                matched += 1;
                let Some(&owner) = sub_owner.get(&id).filter(|c| roles.contains_key(c)) else {
                    return;
                };
                let deliver = Msg::Deliver {
                    id,
                    event: event.clone(),
                };
                if to_client(roles, counters, owner, &deliver, sink) {
                    counters.deliveries.inc();
                }
            });
        }
        matched
    }
}

/// Sends `msg` on `conn` if it is live and returns whether the sink
/// queued it. A client the sink refuses is evicted ([`Sink::send`]); its
/// subscriptions stay, owned by the closed connection.
fn to_client(
    roles: &mut BTreeMap<ConnId, Role>,
    counters: &DaemonCounters,
    conn: ConnId,
    msg: &Msg,
    sink: &mut impl Sink,
) -> bool {
    let Some(&role) = roles.get(&conn) else {
        return false;
    };
    let sent = sink.send(conn, msg);
    if !sent && role == Role::Client {
        roles.remove(&conn);
        sink.close(conn);
        counters.evicted.inc();
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use subsum_types::{stock_schema, IdLayout, LocalSubId, NumOp, StrOp};

    /// The link between the two daemons of a [`Pair`], at both ends.
    const LINK: ConnId = 0;

    /// Daemons 0 and 1 joined by one link, no socket anywhere.
    struct Pair {
        daemons: [DaemonCore; 2],
        closed: Vec<(usize, ConnId)>,
    }

    /// What one daemon sends during one step; nothing is refused.
    #[derive(Default)]
    struct Sent {
        sent: Vec<(ConnId, Msg)>,
        closed: Vec<ConnId>,
    }

    impl Sink for Sent {
        fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
            self.sent.push((conn, msg.clone()));
            true
        }

        fn close(&mut self, conn: ConnId) {
            self.closed.push(conn);
        }
    }

    /// `(daemon, connection, message)`.
    type Out = (usize, ConnId, Msg);

    impl Pair {
        /// Daemon 1 (restored from `checkpoint`) dials daemon 0; the
        /// handshake pulls both summaries across.
        fn start(checkpoint: Option<BrokerCheckpoint>) -> Pair {
            let mut pair = Pair {
                daemons: [daemon(0, None), daemon(1, checkpoint)],
                closed: Vec::new(),
            };
            pair.daemons[0].connected(LINK, Role::Unknown);
            pair.daemons[1].connected(LINK, Role::Peer(BrokerId(0)));
            let hello = pair.daemons[1].hello(1);
            assert_eq!(pair.step(0, LINK, hello), []);
            for d in 0..2 {
                assert_eq!(pair.counters(d).summaries_rx.get(), 1, "daemon {d}");
            }
            pair
        }

        /// `msg` arrives at daemon `d` on `conn`; link frames are carried
        /// across until the link is quiet. Returns, in order, what was
        /// sent on every other connection.
        fn step(&mut self, d: usize, conn: ConnId, msg: Msg) -> Vec<Out> {
            let mut out = Vec::new();
            let mut queue = VecDeque::from([(d, conn, msg)]);
            while let Some((d, conn, msg)) = queue.pop_front() {
                let mut sent = Sent::default();
                self.daemons[d].step(conn, msg, &mut sent);
                for (conn, msg) in sent.sent {
                    match conn {
                        LINK => queue.push_back((1 - d, LINK, msg)),
                        _ => out.push((d, conn, msg)),
                    }
                }
                self.closed
                    .extend(sent.closed.into_iter().map(|conn| (d, conn)));
            }
            out
        }

        /// A fresh accepted connection at daemon `d`.
        fn accept(&mut self, d: usize, conn: ConnId) -> ConnId {
            self.daemons[d].connected(conn, Role::Unknown);
            conn
        }

        fn counters(&self, d: usize) -> &DaemonCounters {
            self.daemons[d].counters()
        }

        fn subscribe(&mut self, d: usize, conn: ConnId, sub: Subscription) -> SubscriptionId {
            match self.step(d, conn, Msg::Subscribe { sub })[..] {
                [(_, _, Msg::SubscribeAck { id })] => id,
                ref other => panic!("expected one SubscribeAck, got {other:?}"),
            }
        }

        fn publish(&mut self, d: usize, conn: ConnId, event: &Event) -> Vec<Out> {
            let event = event.clone();
            self.step(d, conn, Msg::Publish { seq: 7, event })
        }
    }

    fn layout() -> IdLayout {
        IdLayout::new(1 << 16, 1 << 20, stock_schema().len() as u32).unwrap()
    }

    /// Daemon `b`, empty or restored from `checkpoint`, with no
    /// connections.
    fn daemon(b: NodeId, checkpoint: Option<BrokerCheckpoint>) -> DaemonCore {
        DaemonCore::new(BrokerCore::new(b, stock_schema(), layout(), checkpoint))
    }

    /// Everything `d` sends, on any connection, while it applies `msg`.
    fn answer(d: &mut DaemonCore, conn: ConnId, msg: Msg) -> Vec<(ConnId, Msg)> {
        let mut sent = Sent::default();
        d.step(conn, msg, &mut sent);
        sent.sent
    }

    /// `summary` as broker `from` puts it on the wire.
    fn wire(from: NodeId, summary: &BrokerSummary) -> Msg {
        let codec = SummaryCodec::new(layout(), ArithWidth::Eight);
        summary_bytes(from, codec.encode(summary).unwrap())
    }

    /// The delta broker `from` ships when the rows of `added` take its
    /// summary from `before` to `after`.
    fn delta(
        from: NodeId,
        before: &BrokerSummary,
        after: &BrokerSummary,
        added: &BrokerSummary,
    ) -> Msg {
        let Msg::Summary { bytes, .. } = wire(from, added) else {
            unreachable!()
        };
        delta_bytes(from, before, after, bytes)
    }

    fn delta_bytes(
        from: NodeId,
        before: &BrokerSummary,
        after: &BrokerSummary,
        bytes: Vec<u8>,
    ) -> Msg {
        Msg::SummaryDelta {
            from: BrokerId(from),
            base: before.digest(),
            digest: after.digest(),
            bytes,
        }
    }

    fn summary_bytes(from: NodeId, bytes: Vec<u8>) -> Msg {
        let from = BrokerId(from);
        Msg::Summary { from, bytes }
    }

    fn digest(from: NodeId, summary: &BrokerSummary) -> Msg {
        Msg::Digest {
            from: BrokerId(from),
            digest: summary.digest(),
        }
    }

    fn pull(from: NodeId) -> Msg {
        Msg::Pull {
            from: BrokerId(from),
        }
    }

    /// A summary holding one `price < 3` subscription of broker `b`.
    fn summary_of(b: NodeId) -> BrokerSummary {
        let mut summary = BrokerSummary::new(stock_schema());
        summary.insert(BrokerId(b), LocalSubId(0), &price_lt(3.0));
        summary
    }

    fn ack(accepted: bool, matched: u32) -> Msg {
        Msg::PublishAck {
            seq: 7,
            accepted,
            matched,
        }
    }

    fn deliver(id: SubscriptionId, event: &Event) -> Msg {
        let event = event.clone();
        Msg::Deliver { id, event }
    }

    fn price_lt(bound: f64) -> Subscription {
        Subscription::builder(&stock_schema())
            .num("price", NumOp::Lt, bound)
            .unwrap()
            .build()
            .unwrap()
    }

    fn cheap_event(price: f64) -> Event {
        Event::builder(&stock_schema())
            .num("price", price)
            .unwrap()
            .build()
    }

    fn symbol_sub(op: StrOp, text: &str) -> Subscription {
        Subscription::builder(&stock_schema())
            .str_op("symbol", op, text)
            .unwrap()
            .build()
            .unwrap()
    }

    /// `Summary`, `Digest`, `Pull`, `Hello` and `HelloAck` speak for the
    /// broker a peer link belongs to. A client connection claiming to be
    /// neighbour B must not replace A's view of B — with an empty view in
    /// its place A would stop forwarding B's matches, a false negative at
    /// the summary tier — nor make A pull or answer.
    #[test]
    fn peer_frames_off_a_peer_link_get_no_reply_and_change_no_view() {
        let mut pair = Pair::start(None);
        let client_b = pair.accept(1, 10);
        let sub_id = pair.subscribe(1, client_b, price_lt(10.0));
        assert_eq!(pair.counters(0).summaries_rx.get(), 2, "B's push reached A");

        // Under B's name, as a daemon would send them; A's view of B is
        // stale against the empty digest, and the delta starts at that
        // view but ends elsewhere (A would merge it, then pull).
        let empty = BrokerSummary::new(stock_schema());
        let hello_ack = Msg::HelloAck {
            broker: BrokerId(1),
            epoch: 1,
            digest: empty.digest(),
        };
        let view_of_b = pair.daemons[0].view(1).unwrap().clone();
        let forged_delta = |from| delta(from, &view_of_b, &empty, &summary_of(from));
        let forged = [
            wire(1, &empty),
            digest(1, &empty),
            pull(1),
            hello_ack,
            forged_delta(1),
        ];
        // Once on an unclassified connection, once more after a publish
        // has made it a client connection.
        let rogue = pair.accept(0, 11);
        for _ in 0..2 {
            for msg in forged.clone() {
                assert_eq!(pair.step(0, rogue, msg), []);
            }
            let acked = pair.publish(0, rogue, &cheap_event(50.0));
            assert_eq!(acked, [(0, rogue, ack(true, 0))]);
        }
        // A `Hello` on the now-client connection, or on B's link under
        // another broker's id, speaks for nobody.
        let hello = |broker| Msg::Hello {
            broker: BrokerId(broker),
            epoch: 2,
            digest: empty.digest(),
        };
        assert_eq!(pair.step(0, rogue, hello(1)), []);
        assert_eq!(answer(&mut pair.daemons[0], LINK, hello(2)), []);
        // Nor does a delta on B's link under another broker's id.
        assert_eq!(answer(&mut pair.daemons[0], LINK, forged_delta(2)), []);
        assert_eq!(pair.daemons[0].view(1), Some(&view_of_b));
        assert!(pair.daemons[0].view(2).is_none());
        let a = pair.counters(0);
        let counts = (a.summaries_rx.get(), a.resyncs.get(), a.summaries_tx.get());
        assert_eq!(counts, (2, 1, 1), "B's push and the handshake only");

        // A still routes to B what B's subscription matches.
        let client_a = pair.accept(0, 12);
        let event = cheap_event(5.0);
        assert_eq!(
            pair.publish(0, client_a, &event),
            [
                (0, client_a, ack(true, 0)),
                (1, client_b, deliver(sub_id, &event))
            ]
        );
    }

    /// SACS generalises `symbol = "OTE"` and `symbol prefix "OT"` under one
    /// `OT*` row, so the summary tier reports both for `OTX`. The owner's
    /// exact store must decide: one `Deliver`, under the prefix id, whether
    /// the event was published locally or routed in from a peer.
    #[test]
    fn owner_verification_keeps_summary_false_positives_from_clients() {
        let mut pair = Pair::start(None);
        let client_a = pair.accept(0, 10);
        let id_exact = pair.subscribe(0, client_a, symbol_sub(StrOp::Eq, "OTE"));
        let id_prefix = pair.subscribe(0, client_a, symbol_sub(StrOp::Prefix, "OT"));
        assert_ne!(id_exact, id_prefix);
        assert_eq!(pair.counters(1).summaries_rx.get(), 3, "both pushes at B");
        let otx = Event::builder(&stock_schema())
            .str("symbol", "OTX")
            .unwrap()
            .build();
        let delivered = (0, client_a, deliver(id_prefix, &otx));

        // Published at the owner itself: the ack counts verified matches.
        assert_eq!(
            pair.publish(0, client_a, &otx),
            [delivered.clone(), (0, client_a, ack(true, 1))]
        );
        // Routed in from the peer: `symbol = OTE` gets no second Deliver.
        let client_b = pair.accept(1, 11);
        assert_eq!(
            pair.publish(1, client_b, &otx),
            [(1, client_b, ack(true, 0)), delivered]
        );
        assert_eq!(pair.counters(0).deliveries.get(), 2);
    }

    /// A daemon whose local id space is used up refuses the subscription by
    /// closing the client's connection; it neither mints an id outside the
    /// wire layout nor pushes a summary it cannot encode.
    #[test]
    fn id_space_exhaustion_disconnects_the_client_and_pushes_nothing() {
        let mut pair = Pair::start(Some(BrokerCheckpoint {
            next_local: 1 << 20,
            subs: vec![],
        }));
        let refused = pair.accept(1, 10);
        let sub = price_lt(10.0);
        assert_eq!(pair.step(1, refused, Msg::Subscribe { sub }), []);
        assert_eq!(pair.closed, [(1, refused)], "no id to acknowledge with");
        // The refused connection is gone for good.
        assert_eq!(pair.publish(1, refused, &cheap_event(5.0)), []);

        // B is still serving.
        let client_b = pair.accept(1, 11);
        assert_eq!(
            pair.publish(1, client_b, &cheap_event(5.0)),
            [(1, client_b, ack(true, 0))]
        );
        assert_eq!(pair.counters(1).summaries_tx.get(), 1, "nothing pushed");
        assert_eq!(pair.counters(0).summaries_rx.get(), 1, "nothing received");
        let fin = pair.daemons[1].broker().checkpoint();
        assert_eq!(fin.next_local, 1 << 20);
        assert!(fin.subs.is_empty());
    }

    /// A `Subscribe` frame is outside input: a constraint on an
    /// attribute the schema lacks, or of the other kind, has no summary
    /// row. The client is refused like one the id space cannot admit,
    /// and the daemon keeps serving.
    #[test]
    fn a_subscription_outside_the_schema_disconnects_the_client() {
        use subsum_types::{AttrId, Constraint, Num, Predicate};
        let mut pair = Pair::start(None);
        let price_lt_1 = Predicate::Num(NumOp::Lt, Num::new(1.0).unwrap());
        let symbol = stock_schema().attr_id("symbol").unwrap();
        for attr in [AttrId(stock_schema().len() as u16), symbol] {
            let pred = price_lt_1.clone();
            let sub = Subscription::from_constraints(vec![Constraint { attr, pred }]).unwrap();
            let refused = pair.accept(1, 10 + ConnId::from(attr.0));
            assert_eq!(pair.step(1, refused, Msg::Subscribe { sub }), []);
            assert_eq!(pair.closed.pop(), Some((1, refused)));
        }
        let client_b = pair.accept(1, 30);
        pair.subscribe(1, client_b, price_lt(10.0));
        assert_eq!(pair.daemons[1].broker().checkpoint().subs.len(), 1);
        assert_eq!(pair.counters(1).summaries_tx.get(), 2, "one push");
    }

    /// Fifty subscribes, each pushed as a delta gated on cached digests,
    /// leave B's own digest, A's view of B and a summary rebuilt from
    /// B's store all digest-equal, with no pull on either side: no
    /// subscribe left a stale cache entry behind.
    #[test]
    fn cached_digests_carry_fifty_subscribes_without_a_pull() {
        let mut pair = Pair::start(None);
        let client_b = pair.accept(1, 10);
        let resyncs = |pair: &Pair| [0, 1].map(|d| pair.counters(d).resyncs.get());
        let before = resyncs(&pair);
        let schema = stock_schema();
        let texts = ["OT", "OTE", "AB", "ABC", "X"];
        for k in 0..50 {
            let text = texts[k % texts.len()];
            let builder = Subscription::builder(&schema);
            let sub = match k % 5 {
                0 => builder.num("price", NumOp::Lt, k as f64),
                1 => builder.str_op("symbol", StrOp::Prefix, text),
                2 => builder
                    .num("volume", NumOp::Ge, k as f64)
                    .and_then(|b| b.str_op("exchange", StrOp::Eq, text)),
                // Two constraints on one string attribute: the insert
                // summarises them among themselves first.
                3 => builder
                    .str_op("symbol", StrOp::Prefix, text)
                    .and_then(|b| b.str_op("symbol", StrOp::Suffix, "E")),
                _ => builder
                    .num("price", NumOp::Gt, 1.0)
                    .and_then(|b| b.num("high", NumOp::Lt, k as f64)),
            };
            pair.subscribe(1, client_b, sub.unwrap().build().unwrap());
        }
        let own = pair.daemons[1].broker().own().digest();
        let view = pair.daemons[0].view(1).map(BrokerSummary::digest);
        let store = pair.daemons[1].broker().checkpoint().subs;
        let rebuilt = BrokerSummary::rebuild(schema, store.iter().map(|(id, s)| (*id, s)));
        assert_eq!(own.count, 50);
        assert_eq!(view, Some(own));
        assert_eq!(rebuilt.digest(), own);
        assert_eq!(resyncs(&pair), before, "no pull");
        assert_eq!(
            pair.counters(0).summaries_rx.get(),
            51,
            "the handshake and 50 deltas"
        );
    }

    /// A `Route` is a neighbour's word that its view of this broker
    /// matched: on an unclassified or a client connection it would be a
    /// publish that skips the ack and every counter.
    #[test]
    fn a_route_counts_only_on_a_peer_link() {
        let mut pair = Pair::start(None);
        let client_a = pair.accept(0, 10);
        let sub_id = pair.subscribe(0, client_a, price_lt(10.0));
        let event = cheap_event(5.0);
        let route = Msg::Route {
            origin: BrokerId(1),
            event: event.clone(),
        };

        let rogue = pair.accept(0, 11);
        assert_eq!(pair.step(0, rogue, route.clone()), []);
        let acked = pair.publish(0, rogue, &cheap_event(50.0));
        assert_eq!(acked, [(0, rogue, ack(true, 0))]);
        assert_eq!(pair.step(0, rogue, route.clone()), []);
        assert_eq!(pair.counters(0).deliveries.get(), 0);

        // The same frame on B's link is honoured.
        assert_eq!(
            pair.step(0, LINK, route),
            [(0, client_a, deliver(sub_id, &event))]
        );
        assert_eq!(pair.counters(0).deliveries.get(), 1);
    }

    /// A sink whose outboxes to the connections in `full` are full: it
    /// refuses every frame to them, and records what it was offered and
    /// what it closed.
    struct Refusing {
        full: Vec<ConnId>,
        offered: Vec<(ConnId, Msg)>,
        closed: Vec<ConnId>,
    }

    impl Refusing {
        fn new(full: &[ConnId]) -> Refusing {
            let (offered, closed) = (Vec::new(), Vec::new());
            let full = full.to_vec();
            Refusing {
                full,
                offered,
                closed,
            }
        }
    }

    impl Sink for Refusing {
        fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
            self.offered.push((conn, msg.clone()));
            !self.full.contains(&conn)
        }
        fn close(&mut self, conn: ConnId) {
            self.closed.push(conn);
        }
    }

    /// The ack and the counters follow what the sink answered, not what
    /// was offered to it. A forward that finds no link up — the view
    /// outlives it — is refused the same way.
    #[test]
    fn a_refused_forward_turns_the_ack_and_is_not_counted() {
        let mut pair = Pair::start(None);
        let client_a = pair.accept(0, 10);
        pair.subscribe(0, client_a, price_lt(10.0));
        let client_b = pair.accept(1, 11);
        let b = &mut pair.daemons[1];
        let mut sink = Refusing::new(&[LINK]);

        let tx = b.counters().summaries_tx.get();
        b.step(
            client_b,
            Msg::Subscribe {
                sub: price_lt(10.0),
            },
            &mut sink,
        );
        assert_eq!(b.counters().summaries_tx.get(), tx, "the push was refused");
        let event = cheap_event(5.0);
        b.step(client_b, Msg::Publish { seq: 7, event }, &mut sink);
        assert_eq!(sink.offered.last(), Some(&(client_b, ack(false, 1))));
        assert_eq!(b.counters().rejected.get(), 1);
        assert_eq!(b.counters().acked.get(), 0);
        assert_eq!(sink.closed, [], "a peer link is repaired, not closed");

        b.closed(LINK);
        assert!(b.view(0).is_some(), "the view outlives its link");
        let mut sink = Refusing::new(&[]);
        let event = cheap_event(5.0);
        b.step(client_b, Msg::Publish { seq: 7, event }, &mut sink);
        assert_eq!(sink.offered.last(), Some(&(client_b, ack(false, 1))));
        assert!(sink.offered.iter().all(|(conn, _)| *conn == client_b));
        assert_eq!(
            b.counters().listing(),
            [(names::TRANSPORT_RESYNCS, 1), (names::PUBLISH_REJECTED, 2)],
            "the handshake's pull and two rejects; a zero count is left out"
        );
    }

    /// A client whose frame the sink refuses cannot keep up, and a lost
    /// `Deliver` has no repair: the client is closed and counted once,
    /// and offered nothing more. The other subscriber of the same event
    /// still gets its `Deliver`, and the refused `Route` on the peer
    /// link closes no peer: it only turns the ack.
    #[test]
    fn a_client_the_sink_refuses_is_evicted_and_a_peer_is_not() {
        let mut pair = Pair::start(None);
        let client_b = pair.accept(1, 20);
        pair.subscribe(1, client_b, price_lt(10.0));
        let stalled = pair.accept(0, 10);
        let other = pair.accept(0, 11);
        let publisher = pair.accept(0, 12);
        let id_stalled = pair.subscribe(0, stalled, price_lt(10.0));
        let id_other = pair.subscribe(0, other, price_lt(10.0));
        let a = &mut pair.daemons[0];
        let mut sink = Refusing::new(&[stalled, LINK]);
        let event = cheap_event(5.0);
        let route = Msg::Route {
            origin: BrokerId(0),
            event: event.clone(),
        };

        let publish = Msg::Publish {
            seq: 7,
            event: event.clone(),
        };
        a.step(publisher, publish.clone(), &mut sink);
        assert_eq!(
            sink.offered,
            [
                (stalled, deliver(id_stalled, &event)),
                (other, deliver(id_other, &event)),
                (LINK, route.clone()),
                (publisher, ack(false, 2)),
            ]
        );
        assert_eq!(sink.closed, [stalled]);
        let counters = a.counters();
        assert_eq!((counters.evicted.get(), counters.deliveries.get()), (1, 1));

        // The evicted client's subscription still matches, and counts,
        // but the next publish offers its connection nothing.
        sink.offered.clear();
        a.step(publisher, publish, &mut sink);
        assert_eq!(
            sink.offered,
            [
                (other, deliver(id_other, &event)),
                (LINK, route),
                (publisher, ack(false, 2)),
            ]
        );
        assert_eq!(sink.closed, [stalled]);
        let counters = a.counters();
        assert_eq!((counters.evicted.get(), counters.deliveries.get()), (1, 2));
    }

    /// The digest gate, the answer to a pull and view replacement, frame
    /// by frame on the links to brokers 2 (`LINK`) and 3.
    #[test]
    fn peer_frame_decision_table() {
        let mut d = daemon(1, None);
        d.connected(LINK, Role::Peer(BrokerId(2)));
        d.connected(3, Role::Peer(BrokerId(3)));
        d.subscribe(10, &price_lt(5.0)).unwrap();
        let empty = BrokerSummary::new(stock_schema());
        let theirs = summary_of(2);
        let Msg::Summary { bytes: good, .. } = wire(2, &empty) else {
            unreachable!()
        };
        let mut corrupt = good.clone();
        corrupt[0] ^= 0xFF;
        let truncated = good[..good.len() - 1].to_vec();
        let pulled = |conn| vec![(conn, pull(1))];
        // Broker 2 gains a subscription, then another: each summary
        // after, and the one-subscription summary its delta ships.
        let grow = |before: &BrokerSummary, local, sub: Subscription| {
            let id = SubscriptionId::new(BrokerId(2), LocalSubId(local), sub.attr_mask());
            let mut after = before.clone();
            after.insert_with_id(id, &sub);
            (after, BrokerSummary::rebuild(stock_schema(), [(id, &sub)]))
        };
        let (grown, added) = grow(&theirs, 1, symbol_sub(StrOp::Prefix, "OT"));
        let (grown2, added2) = grow(&grown, 2, price_lt(9.0));
        // (connection, frame, what is sent back, the view of broker 2 after)
        let table = [
            // Digest: pull iff the stored view disagrees; absent is not empty.
            (LINK, digest(2, &empty), pulled(LINK), None),
            (LINK, wire(2, &theirs), vec![], Some(&theirs)),
            (LINK, digest(2, &theirs), vec![], Some(&theirs)),
            (LINK, digest(2, &empty), pulled(LINK), Some(&theirs)),
            (3, digest(3, &theirs), pulled(3), Some(&theirs)),
            // Summary: a duplicate changes nothing; bytes that do not decode
            // (truncated, corrupt, empty) leave the view as it was.
            (LINK, wire(2, &theirs), vec![], Some(&theirs)),
            (LINK, summary_bytes(2, truncated), vec![], Some(&theirs)),
            (
                LINK,
                summary_bytes(2, corrupt.clone()),
                vec![],
                Some(&theirs),
            ),
            (LINK, summary_bytes(2, Vec::new()), vec![], Some(&theirs)),
            // SummaryDelta: another base, no view (broker 3) and bytes
            // that do not decode are pulled, the view as it was; at its
            // base it merges, and a duplicate finds it applied. A merge
            // that misses the after digest is pulled and keeps the union.
            (
                LINK,
                delta(2, &empty, &grown, &added),
                pulled(LINK),
                Some(&theirs),
            ),
            (
                3,
                delta(3, &empty, &theirs, &theirs),
                pulled(3),
                Some(&theirs),
            ),
            (
                LINK,
                delta_bytes(2, &theirs, &grown, corrupt),
                pulled(LINK),
                Some(&theirs),
            ),
            (
                LINK,
                delta(2, &theirs, &grown, &added),
                vec![],
                Some(&grown),
            ),
            (
                LINK,
                delta(2, &theirs, &grown, &added),
                vec![],
                Some(&grown),
            ),
            (
                LINK,
                delta(2, &grown, &theirs, &added2),
                pulled(LINK),
                Some(&grown2),
            ),
        ];
        for (conn, frame, reply, view) in table {
            assert_eq!(answer(&mut d, conn, frame), reply);
            assert_eq!(d.view(2), view);
        }
        assert!(d.view(3).is_none());
        let counters = d.counters();
        let counts = (counters.resyncs.get(), counters.summaries_rx.get());
        assert_eq!(counts, (7, 11), "every peer frame counts");

        // Pull: the own summary, decodable by the peer's codec.
        let [(LINK, reply)] = &answer(&mut d, LINK, pull(2))[..] else {
            panic!("one answer on the link");
        };
        assert_eq!(d.counters().summaries_tx.get(), 1);
        let mut peer = daemon(2, None);
        peer.connected(LINK, Role::Peer(BrokerId(1)));
        assert_eq!(answer(&mut peer, LINK, reply.clone()), []);
        assert_eq!(peer.view(1), Some(d.broker().own()));
    }

    /// A subscribe pushes one `SummaryDelta` of what it added, and the
    /// peer's merged view is the subscriber's own summary — also when
    /// the §6 filter shadows the subscription and the delta is empty.
    #[test]
    fn a_subscribe_pushes_a_delta_the_peer_merges_into_its_view() {
        let mut pair = Pair::start(None);
        let client_b = pair.accept(1, 10);
        let b = &mut pair.daemons[1];
        let base = b.broker().own().digest();
        let sent = answer(b, client_b, Msg::Subscribe { sub: price_lt(9.0) });
        let [_, (LINK, push @ Msg::SummaryDelta { .. })] = &sent[..] else {
            panic!("an ack and one delta on the link, got {sent:?}");
        };
        let own = b.broker().own();
        let id = own.subscription_ids()[0];
        let added = BrokerSummary::rebuild(stock_schema(), [(id, &price_lt(9.0))]);
        let empty = BrokerSummary::new(stock_schema());
        assert_eq!(*push, delta(1, &empty, own, &added));
        assert_eq!(base, empty.digest());
        assert_eq!(pair.step(0, LINK, push.clone()), []);
        assert_eq!(
            pair.daemons[0].view(1),
            Some(pair.daemons[1].broker().own())
        );

        pair.daemons[1].broker_mut().set_subsumption_filter(true);
        for sub in [price_lt(8.0), symbol_sub(StrOp::Eq, "OTE")] {
            pair.subscribe(1, client_b, sub);
            assert_eq!(
                pair.daemons[0].view(1),
                Some(pair.daemons[1].broker().own())
            );
        }
        assert_eq!(pair.daemons[1].broker().shadowed_count(), 1);
        let (a, b) = (pair.counters(0), pair.counters(1));
        assert_eq!(
            (a.summaries_rx.get(), a.resyncs.get()),
            (4, 1),
            "no delta was pulled"
        );
        assert_eq!(b.summaries_tx.get(), 1 + 3);
    }

    #[test]
    fn an_absent_view_is_stale_even_against_the_empty_digest() {
        let mut d = daemon(1, None);
        d.connected(LINK, Role::Peer(BrokerId(2)));
        let empty = BrokerSummary::new(stock_schema());
        assert!(d.view_is_stale(2, empty.digest()));
        answer(&mut d, LINK, wire(2, &empty));
        assert!(!d.view_is_stale(2, empty.digest()));

        let other = summary_of(2);
        assert!(d.view_is_stale(2, other.digest()));
        answer(&mut d, LINK, wire(2, &other));
        assert_eq!(d.interested_neighbours(&cheap_event(1.0)), vec![2]);
        assert!(d.interested_neighbours(&cheap_event(7.0)).is_empty());

        // A restore forgets every view: stale again, pulled again.
        d.restore(Some(d.broker().checkpoint()));
        assert!(d.view(2).is_none());
        assert_eq!(answer(&mut d, LINK, digest(2, &other)), [(LINK, pull(1))]);
    }

    #[test]
    fn a_pull_on_a_summary_outside_the_wire_layout_gets_no_reply() {
        // A checkpoint written under a wider layout: local number 7 does
        // not fit the two local ids this layout has bits for.
        let schema = stock_schema();
        let sub = price_lt(1.0);
        let id = SubscriptionId::new(BrokerId(1), LocalSubId(7), sub.attr_mask());
        let cp = BrokerCheckpoint {
            next_local: 8,
            subs: vec![(id, sub)],
        };
        let layout = IdLayout::new(4, 2, schema.len() as u32).unwrap();
        let mut d = DaemonCore::new(BrokerCore::new(1, schema, layout, Some(cp)));
        d.connected(LINK, Role::Peer(BrokerId(2)));
        assert_eq!(d.broker().own().subscription_ids(), vec![id]);
        assert!(d.push_summary(&mut Sent::default()).is_err());
        assert_eq!(answer(&mut d, LINK, pull(2)), []);
        assert_eq!(d.counters().summaries_tx.get(), 0);
    }
}
