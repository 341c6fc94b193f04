//! One `BrokerCore`, provably: the same subscribe/unsubscribe sequence
//! fed to a broker of each in-process host yields the same ids, the same
//! summary digest and the same checkpoint bytes — and a bare core, or
//! a fresh system's broker, restored from those bytes is
//! indistinguishable from all of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_broker::{BrokerCheckpoint, BrokerCore, ChaosConfig, ChaosRun, SummaryPubSub};
use subsum_net::{FaultPlan, NodeId, Topology};
use subsum_types::{IdLayout, SubscriptionId};
use subsum_workload::{PaperParams, Workload};

const BROKER: NodeId = 2;

#[test]
fn every_host_drives_the_same_broker() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut workload = Workload::new(PaperParams::default(), 0.7);
    let schema = workload.schema().clone();
    let topology = Topology::line(4);

    let mut sys = SummaryPubSub::new(topology.clone(), schema.clone(), 1000).unwrap();
    let mut chaos = ChaosRun::new(
        topology,
        schema.clone(),
        FaultPlan::reliable(1),
        ChaosConfig::default(),
    )
    .unwrap();

    let mut live: Vec<SubscriptionId> = Vec::new();
    let (mut subscribed, mut cancelled) = (0, 0);
    for _ in 0..200 {
        if !live.is_empty() && rng.gen_range(0..10) < 3 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(sys.unsubscribe(id));
            assert!(chaos.unsubscribe(id));
            cancelled += 1;
        } else {
            let sub = workload.subscription(&mut rng);
            let id = sys.subscribe(BROKER, &sub).unwrap();
            assert_eq!(chaos.subscribe(BROKER, &sub).unwrap(), id);
            live.push(id);
            subscribed += 1;
        }
    }
    assert!(subscribed > 100 && cancelled > 30, "the sequence churns");
    // A cancelled id stays cancelled everywhere.
    let gone = SubscriptionId::new(
        live[0].broker,
        subsum_types::LocalSubId(u32::MAX),
        live[0].mask,
    );
    assert!(!sys.unsubscribe(gone) && !chaos.unsubscribe(gone));

    // Same durable state, byte for byte.
    let bytes = sys.broker(BROKER).checkpoint().to_bytes();
    assert_eq!(chaos.broker(BROKER).checkpoint().to_bytes(), bytes);

    // A bare core restored from those bytes, under yet another layout
    // (ids do not depend on it).
    let layout = IdLayout::new(16, 1 << 12, schema.len() as u32).unwrap();
    let restored = BrokerCore::new(
        BROKER,
        schema.clone(),
        layout,
        Some(BrokerCheckpoint::from_bytes(&bytes).unwrap()),
    );
    assert_eq!(restored.checkpoint().to_bytes(), bytes);
    assert_eq!(restored.exact().len(), live.len());

    // The same bytes restored into a fresh system's broker.
    let mut fresh = SummaryPubSub::new(Topology::line(4), schema, 1000).unwrap();
    let checkpoint = BrokerCheckpoint::from_bytes(&bytes).unwrap();
    fresh.restore(BROKER, checkpoint).unwrap();
    assert_eq!(fresh.broker(BROKER).checkpoint().to_bytes(), bytes);

    // After a period boundary every host holds the canonical summary a
    // restart would rebuild (the chaos node re-summarises on cancel).
    sys.propagate().unwrap();
    let canonical = restored.own().digest();
    assert_eq!(sys.broker(BROKER).own().digest(), canonical);
    assert_eq!(chaos.broker(BROKER).own().digest(), canonical);
    assert_eq!(fresh.broker(BROKER).own().digest(), canonical);
    #[cfg(debug_assertions)]
    restored.own().validate();
}
