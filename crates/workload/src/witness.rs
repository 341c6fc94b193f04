//! Witness events: an event built to match a given subscription, so a
//! test or a benchmark can publish something a resident subscription is
//! known to want instead of hoping a random event hits one.

use std::collections::BTreeMap;

use subsum_types::{AttrId, AttrKind, Event, Predicate, Schema, Subscription, Value};

/// An event satisfying every constraint of `sub` and carrying no other
/// attribute. `None` if no single value per attribute satisfies the
/// constraints tried (never the case for [`Workload`](crate::Workload)
/// subscriptions).
///
/// The candidate values for an attribute are the operands its
/// constraints name: a closed bound or an equality operand satisfies
/// its own constraint, and the concatenated literal segments of a
/// pattern match that pattern. The first candidate that satisfies all
/// of them is taken.
pub fn witness_event(schema: &Schema, sub: &Subscription) -> Option<Event> {
    let mut per_attr: BTreeMap<AttrId, Vec<&Predicate>> = BTreeMap::new();
    for c in sub.constraints() {
        per_attr.entry(c.attr).or_default().push(&c.pred);
    }
    let mut builder = Event::builder(schema);
    for (attr, preds) in per_attr {
        let kind = schema.kind(attr);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PaperParams, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn witness_matches_every_generated_subscription() {
        for subsumption in [0.1, 0.5, 0.9] {
            let mut w = Workload::new(PaperParams::default(), subsumption);
            let mut rng = StdRng::seed_from_u64(11);
            let schema = w.schema().clone();
            for sub in w.subscriptions(500, &mut rng) {
                let e = witness_event(&schema, &sub).expect("witness exists");
                assert!(sub.matches(&e));
                assert_eq!(e.len(), sub.attr_mask().count() as usize);
            }
        }
    }
}
