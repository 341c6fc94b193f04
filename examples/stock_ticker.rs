//! A live stock-ticker scenario on the deterministic engine: 24
//! brokers (one per backbone PoP), traders subscribing price bands, a
//! market feed publishing quotes — the workload the paper's introduction
//! motivates.
//!
//! Run with: `cargo run --example stock_ticker`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum::broker::SummaryPubSub;
use subsum::net::Topology;
use subsum::workload::StockFeed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = Topology::cable_wireless_24();
    let mut feed = StockFeed::new();
    let schema = feed.schema().clone();
    let mut system = SummaryPubSub::new(topology, schema, 10_000)?;
    let mut rng = StdRng::seed_from_u64(42);

    // 120 traders, five per broker, each with a symbol + price-band
    // subscription.
    let mut subscriptions = 0;
    for broker in 0..24u16 {
        for _ in 0..5 {
            let sub = feed.trader_subscription(&mut rng);
            system.subscribe(broker, &sub)?;
            subscriptions += 1;
        }
    }
    println!("registered {subscriptions} trader subscriptions");

    // One propagation period: brokers exchange subscription summaries.
    let period = system.propagate()?;
    println!(
        "summary propagation: {} hops, {} bytes (vs {} bytes of raw subscriptions)",
        period.hops(),
        period.metrics.payload_bytes,
        subscriptions * 50 * 23 // naive broadcast estimate
    );

    // The market opens: 200 quotes from random exchange gateways.
    let mut total_deliveries = 0;
    let mut matched_quotes = 0;
    for _ in 0..200 {
        let quote = feed.quote(&mut rng);
        let gateway = rng.gen_range(0..24u16);
        let deliveries = system.publish(gateway, &quote).deliveries;
        if !deliveries.is_empty() {
            matched_quotes += 1;
            total_deliveries += deliveries.len();
        }
    }
    println!("published 200 quotes: {matched_quotes} matched, {total_deliveries} deliveries");
    assert!(
        total_deliveries > 0,
        "a realistic feed must trigger traders"
    );

    Ok(())
}
