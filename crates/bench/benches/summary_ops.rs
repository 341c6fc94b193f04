//! Microbenchmarks of the summary data structures: dissolution (insert),
//! multi-broker merging, and the wire codec.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_bench::time;
use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec};
use subsum_types::{BrokerId, IdLayout, LocalSubId, Subscription};
use subsum_workload::{PaperParams, Workload};

fn prepared(n: usize, subsumption: f64, seed: u64) -> (Vec<Subscription>, BrokerSummary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut workload = Workload::new(PaperParams::default(), subsumption);
    let schema = workload.schema().clone();
    let subs = workload.subscriptions(n, &mut rng);
    let mut summary = BrokerSummary::new(schema);
    for (i, sub) in subs.iter().enumerate() {
        summary.insert(BrokerId(0), LocalSubId(i as u32), sub);
    }
    (subs, summary)
}

fn bench_insert() {
    for &p in &[0.1, 0.9] {
        let (subs, _) = prepared(1000, p, 1);
        let schema = subsum_workload::experiment_schema(&PaperParams::default());
        let name = format!("insert/dissolve_1000_subs/p{}", (p * 100.0) as u32);
        time(&name, subs.len() as u64, 30, || {
            let mut s = BrokerSummary::new(schema.clone());
            for (i, sub) in subs.iter().enumerate() {
                s.insert(BrokerId(0), LocalSubId(i as u32), sub);
            }
            s.subscription_count()
        });
    }
}

fn bench_merge() {
    for &p in &[0.1, 0.9] {
        let (_, a) = prepared(500, p, 2);
        let (_, b) = prepared(500, p, 3);
        let name = format!("merge/merge_500_into_500/p{}", (p * 100.0) as u32);
        time(&name, 500, 30, || {
            let mut m = a.clone();
            m.merge(&b);
            m.subscription_count()
        });
    }
}

fn bench_codec() {
    let (_, summary) = prepared(1000, 0.5, 4);
    let schema = summary.schema().clone();
    let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Four);
    let bytes = codec.encode(&summary).unwrap();
    time("codec/encode_1000_subs", bytes.len() as u64, 30, || {
        codec.encode(&summary).unwrap().len()
    });
    time("codec/decode_1000_subs", bytes.len() as u64, 30, || {
        codec.decode(&bytes, &schema).unwrap().subscription_count()
    });
}

fn main() {
    bench_insert();
    bench_merge();
    bench_codec();
}
