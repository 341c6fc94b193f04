//! [`DaemonCore`]: what a broker daemon does with a message, sans I/O.
//!
//! A daemon is one broker of the paper's overlay speaking the framed
//! [`Msg`] protocol on numbered connections: links to neighbour daemons
//! and client connections of subscribers and publishers. This module is
//! everything such a daemon *decides* — which connection is what, whom a
//! neighbour-view frame may speak for, who owns a subscription, what a
//! publish forwards and acknowledges, what it counts — written once. It
//! holds no socket, thread, channel or clock. A *host* reports
//! connections as they come and go ([`DaemonCore::connected`],
//! [`DaemonCore::closed`]), hands over each decoded message
//! ([`DaemonCore::step`]) and supplies a [`Sink`] that carries the
//! outputs away: `subsumd` posts them to socket mailboxes,
//! [`ChaosRun`](crate::ChaosRun) puts their frame bytes on a faulty
//! simulated network. DESIGN.md §16 lists what each host adds.
//!
//! # Event flow
//!
//! `Subscribe` admits the subscription into the [`BrokerCore`] (a client
//! the core refuses — id space exhausted — is disconnected) and eagerly
//! pushes the updated summary on every peer link. `Publish` delivers
//! locally and forwards a `Route` to each neighbour whose view has a
//! candidate; the `PublishAck` reports `accepted: false` if the sink
//! refused a required forward, and how many local subscriptions truly
//! match. A `Route` is delivered locally only. Local delivery is
//! two-tier ([`BrokerCore::match_local`]): a client never sees a SACS
//! false positive. `Hello`/`HelloAck` digests and `Summary`, `Digest`
//! and `Pull` frames all go through [`BrokerCore::on_peer`]. Those kinds
//! and `Route` count only on a peer link, the first three only under
//! that link's broker id: a client cannot speak for a neighbour.

use std::collections::BTreeMap;
use std::sync::Arc;

use subsum_telemetry::{names, Count, Counter};
use subsum_types::{BrokerId, Event, Subscription, SubscriptionId, TypeError};

use crate::core::{BrokerCore, PeerMsg};
use crate::msg::Msg;

static CNT_RESYNCS: Count = Count::new(names::TRANSPORT_RESYNCS);
static CNT_ACKED: Count = Count::new(names::PUBLISH_ACKED);
static CNT_REJECTED: Count = Count::new(names::PUBLISH_REJECTED);

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
    /// closed connection, backpressure, a payload beyond the frame limit).
    fn send(&mut self, conn: ConnId, msg: &Msg) -> bool;
    /// Closes `conn` from this end; the remote side sees EOF.
    fn close(&mut self, conn: ConnId);
}

/// Per-daemon protocol counters, readable while the daemon runs.
///
/// The process-global telemetry statics aggregate across every daemon
/// in the process (fine for a real deployment of one daemon per
/// process, useless for a test hosting several); these are scoped to
/// one daemon.
#[derive(Debug, Default)]
pub struct DaemonCounters {
    /// Digest mismatches that triggered a summary pull.
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

/// The protocol state machine of one daemon. See the [module docs](self).
#[derive(Debug)]
pub struct DaemonCore {
    core: BrokerCore,
    /// Which client connection owns each local subscription.
    sub_owner: BTreeMap<SubscriptionId, ConnId>,
    /// Every live connection, ascending: newer connections sort last.
    roles: BTreeMap<ConnId, Role>,
    counters: Arc<DaemonCounters>,
}

impl DaemonCore {
    /// A daemon around `core`, with no connections yet.
    pub fn new(core: BrokerCore) -> Self {
        DaemonCore {
            core,
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
    /// (crash and restore, cancelling a subscription).
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
    /// [`TypeError::IdOverflow`] once the local id space is exhausted.
    pub fn subscribe(
        &mut self,
        conn: ConnId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        let id = self.core.subscribe(sub)?;
        self.sub_owner.insert(id, conn);
        Ok(id)
    }

    /// Pushes the own summary on every peer link: the eager push after
    /// a `Subscribe`, and a host's unasked waves (start-up, a naive
    /// repair round).
    ///
    /// # Errors
    ///
    /// A [`TypeError`] if the summary does not fit the wire layout;
    /// nothing is sent.
    pub fn push_summary(&self, sink: &mut impl Sink) -> Result<(), TypeError> {
        self.to_peers(self.core.announce()?, sink);
        Ok(())
    }

    /// Advertises the own summary's digest on every peer link: one
    /// anti-entropy round.
    pub fn advertise_digest(&self, sink: &mut impl Sink) {
        self.to_peers(PeerMsg::Digest(self.core.own().digest()), sink);
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

    /// One neighbour-view message under this broker's id on every peer
    /// link, oldest link first.
    fn to_peers(&self, msg: PeerMsg, sink: &mut impl Sink) {
        let sends_summary = matches!(msg, PeerMsg::Summary(_));
        let msg = self.to_wire(msg);
        for (&conn, role) in &self.roles {
            if matches!(role, Role::Peer(_)) && sink.send(conn, &msg) && sends_summary {
                self.counters.summaries_tx.inc();
            }
        }
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
            Msg::Hello {
                broker: peer,
                epoch,
                digest,
            } => {
                sink.send(
                    conn,
                    &Msg::HelloAck {
                        broker: self.id(),
                        epoch,
                        digest: self.core.own().digest(),
                    },
                );
                self.peer_step(conn, role, peer, PeerMsg::Digest(digest), sink);
            }
            Msg::HelloAck {
                broker: peer,
                epoch: _,
                digest,
            } => self.peer_step(conn, role, peer, PeerMsg::Digest(digest), sink),
            Msg::Summary { from, bytes } => {
                self.peer_step(conn, role, from, PeerMsg::Summary(bytes), sink)
            }
            Msg::Digest { from, digest } => {
                self.peer_step(conn, role, from, PeerMsg::Digest(digest), sink)
            }
            Msg::Pull { from } => self.peer_step(conn, role, from, PeerMsg::Pull, sink),
            Msg::Route { origin: _, event } => {
                if matches!(role, Role::Peer(_)) {
                    self.deliver_local(&event, sink);
                }
            }
            Msg::Subscribe { sub } => {
                let Ok(id) = self.subscribe(conn, &sub) else {
                    // No id left to acknowledge with: refuse by hanging up.
                    self.roles.remove(&conn);
                    sink.close(conn);
                    return;
                };
                sink.send(conn, &Msg::SubscribeAck { id });
                // Eager propagation: every connected neighbor gets the
                // updated summary immediately (one outside the wire
                // layout is not pushed).
                let _ = self.push_summary(sink);
            }
            Msg::Publish { seq, event } => {
                let matched = self.deliver_local(&event, sink);
                let mut accepted = true;
                for peer in self.core.interested_neighbours(&event) {
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
                    CNT_ACKED.inc();
                    self.counters.acked.inc();
                } else {
                    CNT_REJECTED.inc();
                    self.counters.rejected.inc();
                }
                sink.send(
                    conn,
                    &Msg::PublishAck {
                        seq,
                        accepted,
                        matched,
                    },
                );
            }
            // Client-bound messages arriving at a daemon are protocol
            // noise; drop them.
            Msg::SubscribeAck { .. } | Msg::PublishAck { .. } | Msg::Deliver { .. } => {}
            Msg::Shutdown => {}
        }
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

    /// The newest live link to a neighbour daemon, if any.
    fn peer_conn(&self, peer: BrokerId) -> Option<ConnId> {
        self.roles
            .iter()
            .rev()
            .find(|(_, role)| **role == Role::Peer(peer))
            .map(|(&conn, _)| conn)
    }

    /// One neighbour-view protocol message from connection `conn`: the
    /// core decides, the daemon posts the reply and counts. The sender is
    /// the broker the *link* belongs to; a frame on a client or
    /// unclassified connection, or one claiming another broker's id, is
    /// dropped.
    fn peer_step(
        &mut self,
        conn: ConnId,
        role: Role,
        claimed: BrokerId,
        msg: PeerMsg,
        sink: &mut impl Sink,
    ) {
        if role != Role::Peer(claimed) {
            return;
        }
        let received_summary = matches!(msg, PeerMsg::Summary(_));
        let reply = self.core.on_peer(claimed.0, msg);
        if received_summary {
            // After the step: whoever reads the counter finds the view in place.
            self.counters.summaries_rx.inc();
        }
        let Some(reply) = reply else {
            return;
        };
        if reply == PeerMsg::Pull {
            CNT_RESYNCS.inc();
            self.counters.resyncs.inc();
        }
        let sends_summary = matches!(reply, PeerMsg::Summary(_));
        if sink.send(conn, &self.to_wire(reply)) && sends_summary {
            self.counters.summaries_tx.inc();
        }
    }

    /// Delivers `event` to the local subscriptions it truly matches and
    /// returns how many there are (one whose client is gone, or restored
    /// from a checkpoint and not re-attached, counts but receives
    /// nothing).
    fn deliver_local(&mut self, event: &Event, sink: &mut impl Sink) -> u32 {
        let DaemonCore {
            core,
            sub_owner,
            roles,
            counters,
        } = self;
        let mut matched = 0;
        core.match_local(event, |id| {
            matched += 1;
            let Some(&owner) = sub_owner.get(&id).filter(|c| roles.contains_key(c)) else {
                return;
            };
            let deliver = Msg::Deliver {
                id,
                event: event.clone(),
            };
            if sink.send(owner, &deliver) {
                counters.deliveries.inc();
            }
        });
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::BrokerCheckpoint;
    use std::collections::VecDeque;
    use subsum_types::{stock_schema, IdLayout, NumOp, StrOp};

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
        link: Vec<Msg>,
        other: Vec<(ConnId, Msg)>,
        closed: Vec<ConnId>,
    }

    impl Sink for Sent {
        fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
            match conn {
                LINK => self.link.push(msg.clone()),
                _ => self.other.push((conn, msg.clone())),
            }
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
            let schema = stock_schema();
            let layout = IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).unwrap();
            let daemon = |b, cp| DaemonCore::new(BrokerCore::new(b, schema.clone(), layout, cp));
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
                queue.extend(sent.link.into_iter().map(|msg| (1 - d, LINK, msg)));
                out.extend(sent.other.into_iter().map(|(conn, msg)| (d, conn, msg)));
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

    fn cheap_sub() -> Subscription {
        Subscription::builder(&stock_schema())
            .num("price", NumOp::Lt, 10.0)
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

    /// `Summary`, `Digest` and `Pull` speak for the broker a peer link
    /// belongs to. A client connection claiming to be neighbour B must not
    /// replace A's view of B: with an empty view in its place A would stop
    /// forwarding B's matches — a false negative at the summary tier.
    #[test]
    fn a_client_cannot_replace_a_peer_view() {
        let mut pair = Pair::start(None);
        let client_b = pair.accept(1, 10);
        let sub_id = pair.subscribe(1, client_b, cheap_sub());
        assert_eq!(pair.counters(0).summaries_rx.get(), 2, "B's push reached A");

        // An empty summary under B's name, encoded as a daemon would.
        let schema = stock_schema();
        let layout = IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).unwrap();
        let Ok(PeerMsg::Summary(bytes)) = BrokerCore::new(1, schema, layout, None).announce()
        else {
            panic!("an empty summary fits any layout");
        };
        let forged = Msg::Summary {
            from: BrokerId(1),
            bytes,
        };
        // Once on an unclassified connection, once more after a publish
        // has made it a client connection.
        let rogue = pair.accept(0, 11);
        for _ in 0..2 {
            assert_eq!(pair.step(0, rogue, forged.clone()), []);
            let acked = pair.publish(0, rogue, &cheap_event(50.0));
            assert_eq!(acked, [(0, rogue, ack(true, 0))]);
        }
        assert_eq!(pair.counters(0).summaries_rx.get(), 2);

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
        let sub = cheap_sub();
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

    /// A `Route` is a neighbour's word that its view of this broker
    /// matched: on an unclassified or a client connection it would be a
    /// publish that skips the ack and every counter.
    #[test]
    fn a_route_counts_only_on_a_peer_link() {
        let mut pair = Pair::start(None);
        let client_a = pair.accept(0, 10);
        let sub_id = pair.subscribe(0, client_a, cheap_sub());
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

    /// The ack and the counters follow what the sink answered, not what
    /// was offered to it.
    #[test]
    fn a_refused_forward_turns_the_ack_and_is_not_counted() {
        /// The peer link's mailbox is full; the clients' are not.
        struct LinkFull(Vec<(ConnId, Msg)>);
        impl Sink for LinkFull {
            fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
                self.0.push((conn, msg.clone()));
                conn != LINK
            }
            fn close(&mut self, _conn: ConnId) {}
        }
        let mut pair = Pair::start(None);
        let client_a = pair.accept(0, 10);
        pair.subscribe(0, client_a, cheap_sub());
        let client_b = pair.accept(1, 11);
        let b = &mut pair.daemons[1];
        let mut sink = LinkFull(Vec::new());

        let tx = b.counters().summaries_tx.get();
        b.step(client_b, Msg::Subscribe { sub: cheap_sub() }, &mut sink);
        assert_eq!(b.counters().summaries_tx.get(), tx, "the push was refused");
        let event = cheap_event(5.0);
        b.step(client_b, Msg::Publish { seq: 7, event }, &mut sink);
        assert_eq!(sink.0.last(), Some(&(client_b, ack(false, 1))));
        assert_eq!(b.counters().rejected.get(), 1);
        assert_eq!(b.counters().acked.get(), 0);
    }
}
