//! Crash-recovery demo: every broker writes its checkpoint to disk, the
//! deployment "restarts", and it continues serving the same
//! subscriptions.
//!
//! A broker's only durable state is its checkpoint (its id counter and
//! exact subscription store), one file per broker, as `subsumd
//! --checkpoint` keeps it. The overlay and the schema are static
//! configuration: the restarted system is built from them and each
//! broker restored from its own file.
//!
//! Run with: `cargo run --example snapshot_recovery`

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum::broker::{BrokerCheckpoint, SummaryPubSub};
use subsum::net::{NodeId, Topology};
use subsum::workload::StockFeed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut feed = StockFeed::new();
    let schema = feed.schema().clone();
    let mut rng = StdRng::seed_from_u64(11);

    // A running deployment with live subscriptions.
    let mut system = SummaryPubSub::new(Topology::cable_wireless_24(), schema.clone(), 1000)?;
    let brokers = system.topology().len() as NodeId;
    for b in 0..brokers {
        for _ in 0..3 {
            system.subscribe(b, &feed.trader_subscription(&mut rng))?;
        }
    }
    system.propagate()?;
    println!("running: {} subscriptions", system.subscription_count());

    // Persist the durable state: one checkpoint file per broker.
    let dir = std::env::temp_dir().join(format!("subsum_checkpoints_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = |b: NodeId| dir.join(format!("b{b}.ckpt"));
    for b in 0..brokers {
        std::fs::write(path(b), system.broker(b).checkpoint().to_bytes())?;
    }
    println!("checkpoints: {brokers} files in {}", dir.display());

    // "Crash" — drop the system — then restart from the static config
    // and each broker's file, and re-propagate.
    drop(system);
    let mut restored = SummaryPubSub::new(Topology::cable_wireless_24(), schema, 1000)?;
    for b in 0..brokers {
        let checkpoint = BrokerCheckpoint::from_bytes(&std::fs::read(path(b))?)?;
        restored.restore(b, checkpoint)?;
    }
    restored.propagate()?;
    println!("restored: {} subscriptions", restored.subscription_count());

    // Service continues: quotes keep matching the persisted traders.
    let mut deliveries = 0;
    for k in 0..100 {
        let quote = feed.quote(&mut rng);
        deliveries += restored.publish(k % brokers, &quote).deliveries.len();
    }
    println!("post-recovery: {deliveries} deliveries over 100 quotes");
    assert!(deliveries > 0);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
