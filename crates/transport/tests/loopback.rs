//! Two-daemon loopback integration: the full client → daemon → peer
//! daemon → client path over real TCP sockets, plus the reconnect
//! guarantee (a restarted peer reconverges via digest comparison and a
//! single pull, not a full re-send), plus the same flow driven through
//! the actual `subsumd` binary with telemetry dumps.

use std::time::{Duration, Instant};

use subsum_broker::{BrokerCheckpoint, BrokerCore, PeerMsg};
use subsum_transport::{Client, DaemonConfig, DaemonHandle, Msg, Subsumd};
use subsum_types::{
    stock_schema, BrokerId, Event, IdLayout, LocalSubId, NumOp, StrOp, Subscription, SubscriptionId,
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

/// `Summary`, `Digest` and `Pull` speak for the broker a peer link
/// belongs to. A client connection claiming to be neighbour B must not
/// replace A's view of B: with an empty view in its place A would stop
/// forwarding B's matches — a false negative at the summary tier.
#[test]
fn a_client_cannot_replace_a_peer_view() {
    use std::io::{Read, Write};

    let (a, b) = start_pair();
    let mut client_b = Client::connect(b.addr()).unwrap();
    let summaries_at_a = a.stats().summaries_rx.get();
    let sub_id = client_b.subscribe(&cheap_sub()).unwrap();
    wait_for("summary propagation to A", || {
        a.stats().summaries_rx.get() > summaries_at_a
    });
    let summaries_at_a = a.stats().summaries_rx.get();

    // An empty summary under B's name, encoded as a daemon would.
    let schema = stock_schema();
    let layout = IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).unwrap();
    let Ok(PeerMsg::Summary(bytes)) = BrokerCore::new(1, schema, layout, None).announce() else {
        panic!("an empty summary fits any layout");
    };
    let forged = Msg::Summary {
        from: BrokerId(1),
        bytes,
    };
    let fence = Msg::Publish {
        seq: 7,
        event: cheap_event(50.0),
    };
    // Once on an unclassified connection, once more after the publish
    // has made it a client connection. A's event loop takes one
    // connection's frames in order and answers nothing but the two
    // publishes, so two acks' worth of bytes fences both forgeries.
    let mut rogue = std::net::TcpStream::connect(a.addr()).unwrap();
    for msg in [&forged, &fence, &forged, &fence] {
        rogue.write_all(&msg.to_frame_bytes().unwrap()).unwrap();
    }
    let ack = Msg::PublishAck {
        seq: 7,
        accepted: true,
        matched: 0,
    };
    let expected = ack.to_frame_bytes().unwrap().repeat(2);
    let mut acks = vec![0u8; expected.len()];
    rogue.read_exact(&mut acks).unwrap();
    assert_eq!(acks, expected);
    assert_eq!(a.stats().summaries_rx.get(), summaries_at_a);

    // A still routes to B what B's subscription matches.
    let mut client_a = Client::connect(a.addr()).unwrap();
    let ack = client_a.publish(&cheap_event(5.0)).unwrap();
    assert!(ack.accepted);
    let (id, _) = client_b
        .poll_delivery(Duration::from_secs(10))
        .unwrap()
        .expect("A kept its view of B and forwarded the event");
    assert_eq!(id, sub_id);

    drop(rogue);
    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    a.join();
    b.join();
}

fn symbol_sub(op: StrOp, text: &str) -> Subscription {
    Subscription::builder(&stock_schema())
        .str_op("symbol", op, text)
        .unwrap()
        .build()
        .unwrap()
}

/// SACS generalises `symbol = "OTE"` and `symbol prefix "OT"` under one
/// `OT*` row, so the summary tier reports both for `OTX`. The owner's
/// exact store must decide: one `Deliver`, under the prefix id, whether
/// the event was published locally or routed in from a peer.
#[test]
fn owner_verification_keeps_summary_false_positives_from_clients() {
    let (a, b) = start_pair();
    let mut client_a = Client::connect(a.addr()).unwrap();
    let summaries_at_b = b.stats().summaries_rx.get();
    let id_exact = client_a.subscribe(&symbol_sub(StrOp::Eq, "OTE")).unwrap();
    let id_prefix = client_a
        .subscribe(&symbol_sub(StrOp::Prefix, "OT"))
        .unwrap();
    assert_ne!(id_exact, id_prefix);
    wait_for("both pushes reaching B", || {
        b.stats().summaries_rx.get() >= summaries_at_b + 2
    });
    let otx = Event::builder(&stock_schema())
        .str("symbol", "OTX")
        .unwrap()
        .build();

    // Published at the owner itself.
    let ack = client_a.publish(&otx).unwrap();
    assert_eq!(ack.matched, 1, "the ack counts verified matches");
    // Routed in from the peer.
    let mut client_b = Client::connect(b.addr()).unwrap();
    let ack = client_b.publish(&otx).unwrap();
    assert!(ack.accepted);
    assert_eq!(ack.matched, 0);

    for path in ["local publish", "peer route"] {
        let (id, event) = client_a
            .poll_delivery(Duration::from_secs(10))
            .unwrap()
            .unwrap_or_else(|| panic!("{path}: the prefix subscription matches"));
        assert_eq!(id, id_prefix, "{path}");
        assert_eq!(event, otx);
    }
    assert!(
        client_a
            .poll_delivery(Duration::from_millis(200))
            .unwrap()
            .is_none(),
        "`symbol = OTE` does not match OTX: no third Deliver"
    );
    wait_for("A's delivery count", || a.stats().deliveries.get() == 2);

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    a.join();
    b.join();
}

/// A daemon whose local id space is used up refuses the subscription by
/// closing the client's connection; it neither mints an id outside the
/// wire layout nor pushes a summary it cannot encode.
#[test]
fn id_space_exhaustion_disconnects_the_client_and_pushes_nothing() {
    let a = Subsumd::start(DaemonConfig::new(BrokerId(0), stock_schema())).unwrap();
    let mut config_b = DaemonConfig::new(BrokerId(1), stock_schema());
    config_b.dial = vec![(BrokerId(0), a.addr())];
    config_b.checkpoint = Some(BrokerCheckpoint {
        next_local: 1 << 20,
        subs: vec![],
    });
    let b = Subsumd::start(config_b).unwrap();
    wait_for("initial handshake", || {
        a.stats().summaries_rx.get() >= 1 && b.stats().summaries_rx.get() >= 1
    });
    let (rx_at_a, tx_at_b) = (a.stats().summaries_rx.get(), b.stats().summaries_tx.get());

    let mut refused = Client::connect(b.addr()).unwrap();
    assert!(
        refused.subscribe(&cheap_sub()).is_err(),
        "no id is left to acknowledge with"
    );
    // B is still serving (and a publish round-trip gives any stray push
    // time to show up at A).
    let mut client_b = Client::connect(b.addr()).unwrap();
    let ack = client_b.publish(&cheap_event(5.0)).unwrap();
    assert!(ack.accepted);
    assert_eq!(ack.matched, 0);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(b.stats().summaries_tx.get(), tx_at_b, "nothing pushed");
    assert_eq!(a.stats().summaries_rx.get(), rx_at_a, "nothing received");

    let fin = {
        client_b.shutdown().unwrap();
        b.join()
    };
    assert_eq!(fin.checkpoint.next_local, 1 << 20);
    assert!(fin.checkpoint.subs.is_empty());
    Client::connect(a.addr()).unwrap().shutdown().unwrap();
    a.join();
}

/// The same loopback flow through the real `subsumd` binary: two
/// processes, ephemeral ports, clean shutdown, telemetry dumps on disk.
/// CI's `transport-smoke` job greps the dumps for nonzero
/// `transport.frames_rx` and `publish.acked`.
#[test]
fn subsumd_binary_two_process_loopback() {
    use std::io::BufRead;
    use std::process::{Child, Command, Stdio};

    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(tmp).unwrap();
    let dump_a = tmp.join("subsumd-b0.json");
    let dump_b = tmp.join("subsumd-b1.json");
    let _ = std::fs::remove_file(&dump_a);
    let _ = std::fs::remove_file(&dump_b);

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
