//! The one-partition store behind the ledger's two sharded reference
//! rows (`core.sharded_match_ns`, `core.snapshot_flip_us`).
//!
//! [`ShardedSummary`] keeps the canonical [`BrokerSummary`] behind a
//! writer mutex and publishes a compiled clone of it as an `Arc`: a
//! matcher clones the current `Arc` and probes with no lock held, so a
//! writer never waits for a probe, and a retired clone is freed when its
//! last matcher drops it. It holds one partition whatever shard count it
//! is given; ROADMAP item 7(a) deletes the type with the two rows.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use subsum_types::{Event, Subscription, SubscriptionId};

use crate::summary::{BrokerSummary, MatchOutcome, MatchScratch};

/// Working memory of [`ShardedSummary::match_event_into`]: the flat
/// matcher's scratch.
pub type ShardScratch = MatchScratch;

/// A [`BrokerSummary`] whose matchers probe a published snapshot.
///
/// All methods take `&self`. Writers serialize on the canonical summary;
/// when a mutation changed its rows, the writer compiles the match plan
/// and publishes a clone, which shares the compiled plan. A matcher
/// holds the publication lock for one `Arc::clone` only and never
/// compiles, and a no-op mutation publishes nothing. `matched` is
/// identical to the flat [`BrokerSummary::match_event_into`].
#[derive(Debug)]
pub struct ShardedSummary {
    /// The canonical summary every mutation applies to.
    flat: Mutex<BrokerSummary>,
    /// A compiled clone of `flat` as of its last row change.
    published: Mutex<Arc<BrokerSummary>>,
}

// Matchers on several threads share one store: that needs `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ShardedSummary>();
};

/// Locks `m`; a poisoned lock is recovered, not propagated, so no
/// caller panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedSummary {
    /// Wraps `flat`. `shard_count` is ignored: the store holds one
    /// partition.
    pub fn from_flat(flat: BrokerSummary, _shard_count: usize) -> Self {
        flat.compile_if_stale();
        ShardedSummary {
            published: Mutex::new(Arc::new(flat.clone())),
            flat: Mutex::new(flat),
        }
    }

    /// The current snapshot; its lock is held only for the clone.
    fn published(&self) -> Arc<BrokerSummary> {
        Arc::clone(&lock(&self.published))
    }

    /// Mutates the canonical summary under the writer lock. A mutation
    /// that changed the rows dropped the cached plan: compile it and
    /// publish a clone that shares it.
    fn mutate(&self, f: impl FnOnce(&mut BrokerSummary)) {
        let mut flat = lock(&self.flat);
        f(&mut flat);
        if flat.compile_if_stale() {
            let next = Arc::new(flat.clone());
            // Swapped under the lock, dropped outside it: freeing the
            // retired snapshot does not stall the next matcher.
            let retired = std::mem::replace(&mut *lock(&self.published), next);
            drop(retired);
        }
    }

    /// As [`BrokerSummary::insert_with_id`]. An everywhere-unsatisfiable
    /// subscription publishes nothing.
    pub fn insert_with_id(&self, id: SubscriptionId, sub: &Subscription) {
        self.mutate(|flat| flat.insert_with_id(id, sub));
    }

    /// As [`BrokerSummary::remove`]. An unknown id publishes nothing.
    pub fn remove(&self, id: SubscriptionId) {
        self.mutate(|flat| flat.remove(id));
    }

    /// As [`BrokerSummary::match_event_into`], on the current snapshot.
    /// Zero heap allocations at steady state.
    pub fn match_event_into<'s>(
        &self,
        event: &Event,
        scratch: &'s mut ShardScratch,
    ) -> &'s MatchOutcome {
        self.published().match_event_into(event, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, Schema};

    /// `price` ranges over four brokers, every other one also
    /// constraining `volume`.
    fn population(schema: &Schema, count: u32) -> Vec<(SubscriptionId, Subscription)> {
        let entry = |i: u32| {
            let lo = f64::from(i % 40);
            let mut b = Subscription::builder(schema).num("price", NumOp::Ge, lo);
            b = b.unwrap().num("price", NumOp::Lt, lo + 17.0);
            if i % 2 == 0 {
                b = b
                    .unwrap()
                    .num("volume", NumOp::Gt, f64::from(i % 9) * 100.0);
            }
            let sub = b.unwrap().build().unwrap();
            let broker = BrokerId((i % 4) as u16);
            (
                SubscriptionId::new(broker, LocalSubId(i), sub.attr_mask()),
                sub,
            )
        };
        (0..count).map(entry).collect()
    }

    #[test]
    fn noop_mutations_do_not_swap_the_partition() {
        let schema = stock_schema();
        let subs = population(&schema, 40);
        let store = ShardedSummary::from_flat(BrokerSummary::new(schema.clone()), 1);
        for (id, sub) in &subs[..39] {
            store.insert_with_id(*id, sub);
        }
        // Holding `before` keeps its allocation alive, so a new snapshot
        // can never reuse its address.
        let before = store.published();
        let kept = || Arc::ptr_eq(&store.published(), &before);
        let (absent, absent_sub) = &subs[39];
        store.remove(*absent);
        assert!(kept(), "remove of an unknown id");
        let unsat = Subscription::builder(&schema).num("price", NumOp::Lt, 1.0);
        let unsat = unsat.unwrap().num("price", NumOp::Gt, 2.0).unwrap();
        let unsat = unsat.build().unwrap();
        store.insert_with_id(
            SubscriptionId::new(BrokerId(9), LocalSubId(9), unsat.attr_mask()),
            &unsat,
        );
        assert!(kept(), "insert of an unsatisfiable subscription");
        store.insert_with_id(*absent, absent_sub);
        assert!(!kept(), "real insert");
    }

    /// Two matchers, each with its own scratch, race a writer that
    /// inserts and then removes a population. Whatever snapshot a
    /// matcher cloned, its output is sorted and drawn from what was
    /// inserted; once the writer is done, the store matches what the
    /// flat build does.
    #[test]
    fn matchers_race_a_writer() {
        let schema = stock_schema();
        let subs = population(&schema, 240);
        let event = |k: u32| {
            let b = Event::builder(&schema).num("price", 3.0 + f64::from(k) * 4.5);
            b.unwrap()
                .num("volume", f64::from(k % 9) * 100.0)
                .unwrap()
                .build()
        };
        let events: Vec<Event> = (0..12).map(event).collect();
        let store = ShardedSummary::from_flat(BrokerSummary::new(schema.clone()), 1);
        let done = &Mutex::new(false);
        // Both matchers are running before the writer's first swap.
        let start = &std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut scratch = ShardScratch::new();
                    start.wait();
                    while !*lock(done) {
                        for event in &events {
                            let out = store.match_event_into(event, &mut scratch);
                            assert!(out.matched.windows(2).all(|w| w[0] < w[1]));
                            for id in &out.matched {
                                assert!(subs.iter().any(|(s, _)| s == id), "{id:?}");
                            }
                        }
                    }
                });
            }
            start.wait();
            for (id, sub) in &subs {
                store.insert_with_id(*id, sub);
            }
            for (id, _) in subs.iter().step_by(3) {
                store.remove(*id);
            }
            *lock(done) = true;
        });
        let mut flat = BrokerSummary::rebuild(schema, subs.iter().map(|(id, s)| (*id, s)));
        for (id, _) in subs.iter().step_by(3) {
            flat.remove(*id);
        }
        let mut scratch = ShardScratch::new();
        for event in &events {
            let want = flat.match_event(event);
            assert_eq!(store.match_event_into(event, &mut scratch).matched, want);
        }
    }
}
