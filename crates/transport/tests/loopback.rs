//! Two-daemon loopback integration: the full client → daemon → peer
//! daemon → client path over real TCP sockets, plus the reconnect
//! guarantee (a restarted peer reconverges via digest comparison and a
//! single pull, not a full re-send), plus the same flow driven through
//! the actual `subsumd` binary with telemetry dumps. What a daemon
//! *decides* (role checks, owner verification, id exhaustion) is tested
//! without sockets, on `subsum_broker::DaemonCore`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use subsum_broker::BrokerCheckpoint;
use subsum_transport::{Client, DaemonConfig, DaemonHandle, FrameDecoder, Msg, Subsumd};
use subsum_types::{
    stock_schema, BrokerId, Event, LocalSubId, NumOp, StrOp, Subscription, SubscriptionId, Value,
};

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
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

/// Starts broker 0 (listen only) and broker 1 (dials broker 0), and
/// waits for the initial handshake to converge both directions.
fn start_pair() -> (DaemonHandle, DaemonHandle) {
    let a = Subsumd::start(DaemonConfig::new(BrokerId(0), stock_schema())).unwrap();
    let mut config_b = DaemonConfig::new(BrokerId(1), stock_schema());
    config_b.dial = vec![(BrokerId(0), a.addr())];
    let b = Subsumd::start(config_b).unwrap();
    // Fresh daemons have no views, so the first handshake pulls an
    // (empty) summary in both directions.
    wait_for("initial handshake", || {
        a.stats().summaries_rx.get() >= 1 && b.stats().summaries_rx.get() >= 1
    });
    (a, b)
}

#[test]
fn subscribe_propagate_publish_deliver_ack() {
    let (a, b) = start_pair();

    // Subscribe on A; the updated summary is eagerly pushed to B.
    let mut client_a = Client::connect(a.addr()).unwrap();
    let summaries_at_b = b.stats().summaries_rx.get();
    let sub_id = client_a.subscribe(&cheap_sub()).unwrap();
    assert_eq!(sub_id.broker, BrokerId(0));
    wait_for("summary propagation to B", || {
        b.stats().summaries_rx.get() > summaries_at_b
    });

    // Publish on B an event that matches A's subscription.
    let mut client_b = Client::connect(b.addr()).unwrap();
    let ack = client_b.publish(&cheap_event(5.0)).unwrap();
    assert!(ack.accepted, "publish must be accepted");
    assert_eq!(ack.matched, 0, "no local subscribers at B");

    // The event crosses B → A and reaches A's client.
    let (id, event) = client_a
        .poll_delivery(Duration::from_secs(10))
        .unwrap()
        .expect("delivery must arrive at A's client");
    assert_eq!(id, sub_id);
    assert_eq!(event, cheap_event(5.0));
    // The event loop bumps the counter after posting the frame, so the
    // client can hold the delivery before the count shows it.
    wait_for("A's delivery count", || a.stats().deliveries.get() == 1);

    // A non-matching publish is acked but never delivered.
    let ack = client_b.publish(&cheap_event(50.0)).unwrap();
    assert!(ack.accepted);
    assert!(client_a
        .poll_delivery(Duration::from_millis(200))
        .unwrap()
        .is_none());

    // Local delivery on the publishing daemon works too.
    let sub_b = client_b.subscribe(&cheap_sub()).unwrap();
    assert_eq!(sub_b.broker, BrokerId(1));
    let ack = client_b.publish(&cheap_event(3.0)).unwrap();
    assert_eq!(ack.matched, 1, "B now has a local subscriber");
    let (id, _) = client_b.next_delivery().unwrap();
    assert_eq!(id, sub_b);

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    a.join();
    b.join();
}

#[test]
fn restarted_peer_reconverges_via_digest_pull_not_resend() {
    let (a, b) = start_pair();

    // Give both daemons nonempty summaries.
    let mut client_a = Client::connect(a.addr()).unwrap();
    let sub_id = client_a.subscribe(&cheap_sub()).unwrap();
    let mut client_b = Client::connect(b.addr()).unwrap();
    client_b.subscribe(&cheap_sub()).unwrap();
    wait_for("cross-propagation of both summaries", || {
        a.stats().summaries_rx.get() >= 2 && b.stats().summaries_rx.get() >= 2
    });

    // Cleanly stop B, capturing its durable checkpoint.
    let resyncs_at_a = a.stats().resyncs.get();
    client_b.shutdown().unwrap();
    let fin = b.join();
    assert_eq!(fin.checkpoint.subs.len(), 1);

    // Restart B from the checkpoint: same broker id, same durable
    // state, fresh port, fresh epoch.
    let mut config_b = DaemonConfig::new(BrokerId(1), stock_schema());
    config_b.dial = vec![(BrokerId(0), a.addr())];
    config_b.checkpoint = Some(fin.checkpoint);
    let b2 = Subsumd::start(config_b).unwrap();

    // B' lost its view of A, so it pulls A's summary — exactly once.
    wait_for("restarted peer pulling A's summary", || {
        b2.stats().summaries_rx.get() >= 1
    });
    assert_eq!(
        b2.stats().resyncs.get(),
        1,
        "B' pulls because its views are gone"
    );

    // The checkpoint rebuilt B's summary digest-identically, so A saw a
    // matching digest in B's Hello: no pull, no full summary from B'.
    assert_eq!(
        a.stats().resyncs.get(),
        resyncs_at_a,
        "A's stored view matches the restarted peer's digest"
    );
    assert_eq!(
        b2.stats().summaries_tx.get(),
        0,
        "the restarted peer re-joined without re-sending its summary"
    );

    // Reconvergence is functional: publish on B' still reaches A.
    let mut client_b2 = Client::connect(b2.addr()).unwrap();
    let ack = client_b2.publish(&cheap_event(1.0)).unwrap();
    assert!(ack.accepted);
    let (id, _) = client_a
        .poll_delivery(Duration::from_secs(10))
        .unwrap()
        .expect("delivery after restart");
    assert_eq!(id, sub_id);

    client_a.shutdown().unwrap();
    client_b2.shutdown().unwrap();
    a.join();
    b2.join();
}

/// Bytes daemon `d` has written, once its writers have gone quiet.
fn settled_bytes_tx(d: &DaemonHandle) -> u64 {
    let mut last = d.stats().tx.bytes_tx.get();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = d.stats().tx.bytes_tx.get();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// Subscription `k` of a mixed population: disjoint price bands,
/// symbols, and exchange prefixes under fifty volume floors.
fn mixed_sub(k: u32) -> Subscription {
    let schema = stock_schema();
    let b = Subscription::builder(&schema);
    let b = match k % 3 {
        0 => {
            let lo = f64::from(k % 500) / 4.0;
            b.num("price", NumOp::Ge, lo)
                .and_then(|b| b.num("price", NumOp::Lt, lo + 0.25))
        }
        1 => b.str_op("symbol", StrOp::Eq, &format!("S{k}")),
        _ => b
            .num("volume", NumOp::Gt, f64::from(k % 50 * 1000))
            .and_then(|b| b.str_op("exchange", StrOp::Prefix, &format!("N{}", k % 40))),
    };
    b.unwrap().build().unwrap()
}

/// A subscribe ships only what it added. B restores 2 000
/// subscriptions (its summary alone is over a hundred kilobytes), yet
/// each further subscribe adds under a kilobyte to what B writes: the
/// ack and one `SummaryDelta`. A merges each delta into its view of B,
/// which ends equal to B's own summary: restarted from its checkpoint,
/// B says `Hello` with its digest and A finds nothing to pull.
#[test]
fn a_subscribe_ships_only_what_it_added() {
    const RESIDENT: u32 = 2_000;
    let subs = (0..RESIDENT)
        .map(|k| {
            let sub = mixed_sub(k);
            let id = SubscriptionId::new(BrokerId(1), LocalSubId(k), sub.attr_mask());
            (id, sub)
        })
        .collect();
    let checkpoint = BrokerCheckpoint {
        next_local: RESIDENT,
        subs,
    };
    let a = Subsumd::start(DaemonConfig::new(BrokerId(0), stock_schema())).unwrap();
    let start_b = |checkpoint| {
        let mut config_b = DaemonConfig::new(BrokerId(1), stock_schema());
        config_b.dial = vec![(BrokerId(0), a.addr())];
        config_b.checkpoint = Some(checkpoint);
        Subsumd::start(config_b).unwrap()
    };
    let b = start_b(checkpoint);
    wait_for("initial handshake", || {
        a.stats().summaries_rx.get() >= 1 && b.stats().summaries_rx.get() >= 1
    });
    let handshake = settled_bytes_tx(&b);
    assert!(
        handshake > 100_000,
        "B's summary crossed whole: {handshake} bytes"
    );

    let mut client_b = Client::connect(b.addr()).unwrap();
    for k in 0..8 {
        let (rx, written) = (a.stats().summaries_rx.get(), settled_bytes_tx(&b));
        client_b.subscribe(&mixed_sub(RESIDENT + k)).unwrap();
        wait_for("the push at A", || a.stats().summaries_rx.get() > rx);
        let added = settled_bytes_tx(&b) - written;
        assert!(added < 1024, "subscribe {k} wrote {added} bytes");
    }
    let resyncs_at_a = a.stats().resyncs.get();
    assert_eq!(
        resyncs_at_a, 1,
        "the handshake's pull only: every delta merged"
    );

    client_b.shutdown().unwrap();
    let fin = b.join();
    assert_eq!(fin.checkpoint.subs.len(), RESIDENT as usize + 8);
    let b2 = start_b(fin.checkpoint);
    wait_for("B' pulling A's summary", || {
        b2.stats().summaries_rx.get() >= 1
    });
    assert_eq!(
        a.stats().resyncs.get(),
        resyncs_at_a,
        "A's view of B is B's own summary"
    );

    Client::connect(a.addr()).unwrap().shutdown().unwrap();
    Client::connect(b2.addr()).unwrap().shutdown().unwrap();
    a.join();
    b2.join();
}

/// How long a raw client waits for a frame before the test fails.
const PATIENCE: Duration = Duration::from_secs(5);

/// A client on a raw socket: it can stop reading, gives up on a frame
/// after `PATIENCE`, and counts every byte it reads.
struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    bytes: u64,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        RawClient {
            stream,
            decoder: FrameDecoder::new(),
            bytes: 0,
        }
    }

    /// A client holding `cheap_sub`.
    fn subscriber(addr: SocketAddr) -> RawClient {
        let mut c = RawClient::connect(addr);
        c.send(&Msg::Subscribe { sub: cheap_sub() });
        assert!(matches!(c.next(), Msg::SubscribeAck { .. }));
        c
    }

    fn send(&mut self, msg: &Msg) {
        self.stream
            .write_all(&msg.to_frame_bytes().unwrap())
            .unwrap();
    }

    /// Publishes `event`, reads the delivery of it first if this client
    /// holds `cheap_sub` too, and checks the ack: accepted, `matched`
    /// matches. Returns how long it all took.
    fn publish(&mut self, seq: u32, event: Event, matched: u32) -> Duration {
        let sent = Instant::now();
        let k = volume(&event);
        self.send(&Msg::Publish { seq, event });
        let mut ack = self.next();
        if let Msg::Deliver { event, .. } = ack {
            assert_eq!(volume(&event), k);
            ack = self.next();
        }
        let want = Msg::PublishAck {
            seq,
            accepted: true,
            matched,
        };
        assert_eq!(ack, want);
        sent.elapsed()
    }

    /// The next message; panics if none decodes within `PATIENCE`.
    fn next(&mut self) -> Msg {
        self.next_or_eof().expect("the daemon hung up")
    }

    /// The next message, or `None` once the daemon has closed the
    /// connection (a frame it cut off short is not one).
    fn next_or_eof(&mut self) -> Option<Msg> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().unwrap() {
                return Some(Msg::decode_frame(&frame).unwrap());
            }
            let n = self.stream.read(&mut buf).expect("a frame in time");
            if n == 0 {
                return None;
            }
            self.bytes += n as u64;
            self.decoder.feed(&buf[..n]);
        }
    }
}

/// The volume a `bulky_event` carries: its number.
fn volume(event: &Event) -> u64 {
    let attr = stock_schema().attr_id("volume").unwrap();
    let Some(&Value::Int(k)) = event.get(attr) else {
        panic!("a bulky event carries its volume");
    };
    k as u64
}

/// Event `k` of a stall: matches `cheap_sub`, carries `k` as its volume,
/// and two strings near the wire limit, so a few dozen fill a socket.
fn bulky_event(k: u64) -> Event {
    let filler = "x".repeat(60_000);
    Event::builder(&stock_schema())
        .num("price", 5.0)
        .and_then(|b| b.int("volume", k as i64))
        .and_then(|b| b.str("symbol", filler.clone()))
        .and_then(|b| b.str("exchange", filler))
        .unwrap()
        .build()
}

/// A daemon with a four-frame outbound bound.
fn start_small() -> DaemonHandle {
    let mut config = DaemonConfig::new(BrokerId(0), stock_schema());
    config.mailbox_capacity = 4;
    Subsumd::start(config).unwrap()
}

/// What the daemon counted as written equals what its clients read.
/// Every frame and byte counts once, whether the event loop or the
/// writer wrote it.
fn assert_tx_counted_once(d: &DaemonHandle, frames: u64, clients: [&RawClient; 2]) {
    let want = (frames, clients.iter().map(|c| c.bytes).sum());
    let tx = &d.stats().tx;
    // The writer records a frame after its last byte left.
    let deadline = Instant::now() + PATIENCE;
    while (tx.frames_tx.get(), tx.bytes_tx.get()) != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!((tx.frames_tx.get(), tx.bytes_tx.get()), want);
}

/// A client that stops reading costs the others nothing: once its
/// socket and its four-frame outbox are full, its deliveries stop, and
/// the publisher's acks keep coming at once.
#[test]
fn reject_drops_a_stalled_clients_frames_and_keeps_acking() {
    let d = start_small();
    let _stalled = RawClient::subscriber(d.addr());
    let mut publisher = RawClient::connect(d.addr());
    let mut published = 0;
    while published < d.stats().deliveries.get() + 8 {
        assert!(
            published < 1_000,
            "the stalled client's socket never filled"
        );
        let waited = publisher.publish(published as u32, bulky_event(published), 1);
        assert!(
            waited < Duration::from_millis(100),
            "ack {published} took {waited:?}"
        );
        published += 1;
    }

    publisher.send(&Msg::Shutdown);
    d.join();
}

/// A `Deliver` has no repair protocol, so a client that cannot keep up
/// is evicted rather than silently short-changed: the daemon closes its
/// connection, and it reads an in-order, gap-free prefix of its
/// deliveries and then EOF. A second subscriber — here the publisher —
/// gets every delivery, and no ack waits for the stalled client.
#[test]
fn a_stalled_client_is_evicted_and_others_get_every_delivery() {
    let d = start_small();
    let mut stalled = RawClient::subscriber(d.addr());
    let mut publisher = RawClient::subscriber(d.addr());
    let mut published = 0;
    while d.stats().evicted.get() == 0 {
        assert!(published < 1_000, "the stalled client was never evicted");
        // Past the eviction its subscription still matches, but only
        // the publisher's receives.
        let waited = publisher.publish(published as u32, bulky_event(published), 2);
        assert!(
            waited < Duration::from_millis(100),
            "ack {published} took {waited:?}"
        );
        published += 1;
    }
    for k in published..published + 8 {
        publisher.publish(k as u32, bulky_event(k), 2);
    }
    published += 8;

    let mut got = 0;
    while let Some(msg) = stalled.next_or_eof() {
        let Msg::Deliver { event, .. } = msg else {
            panic!("only deliveries follow the subscribe ack, got {msg:?}");
        };
        assert_eq!(volume(&event), got, "a gap or a reordering");
        got += 1;
    }
    assert!(got < published, "the stalled client read all {got}");
    assert_eq!(d.stats().evicted.get(), 1);
    assert_tx_counted_once(&d, 2 + got + 2 * published, [&stalled, &publisher]);

    publisher.send(&Msg::Shutdown);
    d.join();
}

/// The same loopback flow through the real `subsumd` binary: two
/// processes, ephemeral ports, clean shutdown, telemetry dumps and
/// broker 0's checkpoint on disk. CI's `transport-smoke` job greps the
/// dumps for nonzero `transport.frames_rx` and `publish.acked`.
#[test]
fn subsumd_binary_two_process_loopback() {
    use std::io::BufRead;
    use std::process::{Child, Command, Stdio};

    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(tmp).unwrap();
    let dump_a = tmp.join("subsumd-b0.json");
    let dump_b = tmp.join("subsumd-b1.json");
    let ckpt_a = tmp.join("subsumd-loopback-b0.ckpt");
    let ckpt_a_tmp = tmp.join("subsumd-loopback-b0.ckpt.tmp");
    let _ = std::fs::remove_file(&dump_a);
    let _ = std::fs::remove_file(&dump_b);
    let _ = std::fs::remove_file(&ckpt_a);

    fn spawn_daemon(args: &[&str]) -> (Child, std::net::SocketAddr) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_subsumd"))
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        // First stdout line: "subsumd broker N listening on ADDR".
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .rsplit(' ')
            .next()
            .and_then(|a| a.trim().parse().ok())
            .unwrap_or_else(|| panic!("unparseable listen line {line:?}"));
        (child, addr)
    }

    let (mut proc_a, addr_a) = spawn_daemon(&[
        "--broker",
        "0",
        "--listen",
        "127.0.0.1:0",
        "--telemetry-json",
        dump_a.to_str().unwrap(),
        "--checkpoint",
        ckpt_a.to_str().unwrap(),
    ]);
    let dial = format!("0={addr_a}");
    let (mut proc_b, addr_b) = spawn_daemon(&[
        "--broker",
        "1",
        "--listen",
        "127.0.0.1:0",
        "--dial",
        &dial,
        "--telemetry-json",
        dump_b.to_str().unwrap(),
    ]);

    let mut client_a = Client::connect(addr_a).unwrap();
    let sub_id = client_a.subscribe(&cheap_sub()).unwrap();
    // No cross-process stats to poll; the publish below retries until
    // the summary has propagated and the delivery arrives.
    let mut client_b = Client::connect(addr_b).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let delivered = loop {
        let ack = client_b.publish(&cheap_event(5.0)).unwrap();
        assert!(ack.accepted);
        if let Some(d) = client_a.poll_delivery(Duration::from_millis(100)).unwrap() {
            break d;
        }
        assert!(
            Instant::now() < deadline,
            "delivery never crossed the processes"
        );
    };
    assert_eq!(delivered.0, sub_id);

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    assert!(proc_a.wait().unwrap().success());
    assert!(proc_b.wait().unwrap().success());

    // The dumps exist and carry the counters CI greps for.
    fn counter_value(report: &str, name: &str) -> u64 {
        let key = format!("\"{name}\":");
        let at = report
            .find(&key)
            .unwrap_or_else(|| panic!("counter {name} missing from dump: {report}"));
        report[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| panic!("counter {name} not numeric in dump: {report}"))
    }
    let report_a = std::fs::read_to_string(&dump_a).unwrap();
    let report_b = std::fs::read_to_string(&dump_b).unwrap();
    assert!(counter_value(&report_a, "transport.frames_rx") > 0);
    assert!(counter_value(&report_b, "transport.frames_rx") > 0);
    assert!(counter_value(&report_b, "publish.acked") > 0);

    // The checkpoint was replaced whole: it decodes to the one
    // subscription and the temporary it was written through is gone.
    let cp = BrokerCheckpoint::from_bytes(&std::fs::read(&ckpt_a).unwrap()).unwrap();
    assert_eq!(cp.subs, vec![(sub_id, cheap_sub())]);
    assert!(!ckpt_a_tmp.exists(), "temporary left behind");
}

/// A checkpoint file is outside input: `subsumd` refuses one written by
/// another broker instead of serving that broker's ids as its own.
#[test]
fn subsumd_binary_refuses_another_brokers_checkpoint() {
    use std::process::{Command, Stdio};

    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(tmp).unwrap();
    let path = tmp.join("subsumd-b0.ckpt");
    let sub = cheap_sub();
    let id = SubscriptionId::new(BrokerId(0), LocalSubId(0), sub.attr_mask());
    let bytes = BrokerCheckpoint {
        next_local: 1,
        subs: vec![(id, sub)],
    }
    .to_bytes();
    std::fs::write(&path, &bytes).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_subsumd"))
        .args(["--broker", "1", "--listen", "127.0.0.1:0", "--checkpoint"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A daemon that accepts the file serves until told to stop.
    wait_for("subsumd refusing the checkpoint", || {
        child.try_wait().unwrap().is_some()
    });
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("belongs to broker 0"), "stderr: {stderr}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "file left as it was");
}
