//! Steady-state allocation check for one broker's step of Algorithm 3.
//!
//! A counting allocator wraps the system allocator. Once a
//! [`MatchScratch`], a BROCLI buffer and an `unexamined` buffer are warm,
//! `routing::examine` — match, BROCLI update, next-hop choice over the
//! topology's cached distance row — must perform zero heap allocations at
//! every broker, and so must `Topology::distances`.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::routing::examine;
use subsum_broker::{propagate, RoutingOptions};
use subsum_core::{ArithWidth, BrokerSummary, MatchScratch, SummaryCodec};
use subsum_net::{NodeId, Topology};
use subsum_types::{BrokerId, Event, IdLayout, LocalSubId, SubscriptionId};
use subsum_workload::{PaperParams, Workload};

use counting_alloc::allocations;

#[test]
fn a_warm_examine_step_allocates_nothing() {
    const SUBS_PER_BROKER: usize = 40;
    let topology = Topology::cable_wireless_24();
    let n = topology.len();
    let mut rng = StdRng::seed_from_u64(29);
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let own: Vec<BrokerSummary> = (0..n as NodeId)
        .map(|b| {
            let mut s = BrokerSummary::new(schema.clone());
            for (i, sub) in workload
                .subscriptions(SUBS_PER_BROKER, &mut rng)
                .iter()
                .enumerate()
            {
                s.insert(BrokerId(b), LocalSubId(i as u32), sub);
            }
            s
        })
        .collect();
    let layout = IdLayout::new(n as u64, SUBS_PER_BROKER as u64, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Eight);
    let stored = propagate(&topology, &own, &codec).unwrap().stored;
    let events: Vec<Event> = (0..8).map(|_| workload.event(0.5, &mut rng)).collect();
    let options = RoutingOptions::new();

    let mut scratch = MatchScratch::new();
    let mut brocli = vec![false; n];
    let mut unexamined: Vec<SubscriptionId> = Vec::new();
    // One pass over every (broker, event) pair: compiles each stored
    // summary's plan and grows the three buffers to their high water.
    let step = |scratch: &mut MatchScratch, brocli: &mut [bool], unexamined: &mut Vec<_>| {
        let mut total = 0usize;
        for (at, here) in stored.iter().enumerate() {
            for event in &events {
                brocli.fill(false);
                let next = examine(
                    &topology,
                    here,
                    at as NodeId,
                    event,
                    &options,
                    scratch,
                    brocli,
                    unexamined,
                );
                total += unexamined.len() + next.map_or(0, |(v, d)| v as usize + d as usize);
            }
        }
        total
    };
    let warm = step(&mut scratch, &mut brocli, &mut unexamined);
    assert!(warm > 0, "fixture must produce candidates or next hops");

    // The count is per thread, so parallel tests cannot disturb the
    // measured region; the retries only absorb one-off lazy set-up on
    // this thread. A real per-step allocation shows up on every attempt.
    const PASSES: usize = 20;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            total += step(&mut scratch, &mut brocli, &mut unexamined);
            for v in 0..n as NodeId {
                total += topology.distances(v).iter().sum::<u32>() as usize;
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "a warm examine step allocated ({last_delta} allocations across {PASSES} passes)"
    );
}
