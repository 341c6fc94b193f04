//! Seeded input generation, input digests and the brute-force oracle.
//!
//! Everything here runs **before** a workload's set-up clock starts and
//! uses only `subsum-workload`'s generators (the paper's §5 model) plus
//! `Subscription::matches`; the program under test sees the generated
//! subscriptions and events and nothing else.

use std::collections::BTreeMap;

use subsum_types::{
    AttrId, AttrKind, BrokerId, ByteWriter, Event, LocalSubId, Predicate, Schema, Subscription,
    SubscriptionId, Value,
};

/// FNV-1a over the deterministic byte encodings of generated inputs, so
/// two runs can be shown to have used the same input.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn subscription(&mut self, broker: u16, sub: &Subscription) {
        let mut w = ByteWriter::new();
        w.u16(broker);
        sub.encode(&mut w);
        self.bytes(&w.into_bytes());
    }

    pub fn event(&mut self, broker: u16, event: &Event) {
        let mut w = ByteWriter::new();
        w.u16(broker);
        event.encode(&mut w);
        self.bytes(&w.into_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The id `SummaryPubSub::subscribe` / `subsumd` will assign to the
/// `local`-th subscription accepted at `broker` — both number
/// subscriptions with a per-broker counter, so the oracle can name ids
/// before the program runs. Every subscribe call checks the prediction.
pub fn predicted_id(broker: u16, local: u32, sub: &Subscription) -> SubscriptionId {
    SubscriptionId::new(BrokerId(broker), LocalSubId(local), sub.attr_mask())
}

/// An event satisfying every constraint of `sub` (and carrying no other
/// attribute): the probe published to observe when a fresh subscription
/// becomes routable. `None` if no single value per attribute satisfies
/// the constraints tried (never the case for generated subscriptions).
pub fn witness_event(schema: &Schema, sub: &Subscription) -> Option<Event> {
    let mut per_attr: BTreeMap<AttrId, Vec<&Predicate>> = BTreeMap::new();
    for c in sub.constraints() {
        per_attr.entry(c.attr).or_default().push(&c.pred);
    }
    let mut builder = Event::builder(schema);
    for (attr, preds) in per_attr {
        let kind = schema.kind(attr);
        // Candidate values: every operand the constraints name (a
        // closed bound or an equality operand satisfies its own
        // constraint; the concatenated literal segments of a pattern
        // match that pattern).
        let candidates = preds.iter().filter_map(|p| match p {
            Predicate::Num(_, bound) => match kind {
                AttrKind::Float => Value::float(bound.get()).ok(),
                AttrKind::Integer => Some(Value::Int(bound.get() as i64)),
                AttrKind::Date => Some(Value::Date(bound.get() as i64)),
                AttrKind::String => None,
            },
            Predicate::Str(pattern) => Some(Value::Str(pattern.segments().concat())),
            Predicate::StrNe(_) => None,
        });
        let value = candidates
            .into_iter()
            .find(|v| preds.iter().all(|p| p.eval(v)))?;
        builder = builder.set_id(attr, value).ok()?;
    }
    let event = builder.build();
    sub.matches(&event).then_some(event)
}

/// Brute-force oracle: for each event, the ascending ids of the
/// subscriptions in `population` that `Subscription::matches` accepts.
/// Splits the events over `threads` scoped threads (the oracle runs
/// outside every timed interval).
pub fn oracle(
    population: &[(SubscriptionId, &Subscription)],
    events: &[&Event],
    threads: usize,
) -> Vec<Vec<SubscriptionId>> {
    let one = |event: &Event| -> Vec<SubscriptionId> {
        let mut ids: Vec<SubscriptionId> = population
            .iter()
            .filter(|(_, sub)| sub.matches(event))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    };
    let threads = threads.clamp(1, events.len().max(1));
    if threads == 1 {
        return events.iter().map(|e| one(e)).collect();
    }
    let chunk = events.len().div_ceil(threads);
    let mut out: Vec<Vec<SubscriptionId>> = Vec::with_capacity(events.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|e| one(e)).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            // A panicking oracle thread is a harness bug: propagate it.
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// A cheap order-sensitive fold of an ascending id list; the timed loops
/// store this (plus the count) per operation instead of comparing id
/// vectors inside the timed interval.
pub fn fold_ids<'a>(ids: impl IntoIterator<Item = &'a SubscriptionId>) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for id in ids {
        let word = (u64::from(id.broker.0) << 48) ^ (u64::from(id.local.0) << 8) ^ id.mask.0;
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(17);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use subsum_workload::{PaperParams, Workload};

    #[test]
    fn witness_matches_every_generated_subscription() {
        let mut w = Workload::new(PaperParams::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        let schema = w.schema().clone();
        for sub in w.subscriptions(500, &mut rng) {
            let e = witness_event(&schema, &sub).expect("witness exists");
            assert!(sub.matches(&e));
            assert_eq!(e.len(), sub.attr_mask().count() as usize);
        }
    }

    #[test]
    fn oracle_is_thread_count_independent_and_digest_is_stable() {
        let mut w = Workload::new(PaperParams::default(), 0.9);
        let mut rng = StdRng::seed_from_u64(5);
        let subs = w.subscriptions(2_000, &mut rng);
        let events: Vec<Event> = (0..64).map(|_| w.event(0.9, &mut rng)).collect();
        let population: Vec<(SubscriptionId, &Subscription)> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| (predicted_id((i % 24) as u16, (i / 24) as u32, s), s))
            .collect();
        let refs: Vec<&Event> = events.iter().collect();
        let a = oracle(&population, &refs, 1);
        let b = oracle(&population, &refs, 3);
        assert_eq!(a, b);
        assert!(
            a.iter().any(|ids| !ids.is_empty()),
            "hit rate too low to test"
        );

        let digest = |seed: u64| {
            let mut w = Workload::new(PaperParams::default(), 0.9);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Digest::default();
            for (i, s) in w.subscriptions(100, &mut rng).iter().enumerate() {
                d.subscription(i as u16, s);
            }
            d.event(0, &w.event(0.5, &mut rng));
            d.hex()
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }
}
