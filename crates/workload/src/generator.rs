//! Subscription and event generators reproducing the paper's workload
//! model (§5.1–5.2).
//!
//! The model's key knob is the **subsumption probability** `p`: a
//! generated constraint is *subsumed* with probability `p`, meaning it
//! collapses into existing summary rows —
//!
//! * arithmetic: "all subsumed values fall into the `n_sr` ranges of the
//!   attribute"; a subsumed constraint *is* one of the attribute's `n_sr`
//!   canonical sub-ranges (expressed as a `≥ lo ∧ ≤ hi` pair), while a
//!   non-subsumed constraint is an equality on a fresh distinct value
//!   outside the ranges (a new AACS_E row);
//! * string: a subsumed constraint is one of the attribute's canonical
//!   prefix patterns (an existing SACS row), while a non-subsumed
//!   constraint is a fresh literal of `s_sv` bytes (a new row).

use rand::Rng;

use subsum_types::{AttrId, AttrKind, Event, NumOp, Schema, StrOp, Subscription, Value};

use crate::params::PaperParams;

/// Builds the `n_t`-attribute experiment schema: 40% arithmetic
/// (`num0`, `num1`, …, alternating float/integer) and 60% string
/// (`str0`, `str1`, …), matching §5.1's attribute mix.
pub fn experiment_schema(params: &PaperParams) -> Schema {
    let n_arith = (params.nt as f64 * params.arith_fraction).round() as usize;
    let mut b = Schema::builder();
    for k in 0..n_arith {
        let kind = if k % 2 == 0 {
            AttrKind::Float
        } else {
            AttrKind::Integer
        };
        b = b
            .attr(format!("num{k}"), kind)
            .expect("generated names are unique");
    }
    for k in 0..params.nt - n_arith {
        b = b
            .attr(format!("str{k}"), AttrKind::String)
            .expect("generated names are unique");
    }
    b.build()
}

/// The `j`-th canonical sub-range of arithmetic attribute `attr`
/// (`j < n_sr`): disjoint blocks `[1000·(j+1), 1000·(j+1) + 100]`,
/// distinct per attribute.
fn canonical_range(attr: AttrId, j: usize) -> (f64, f64) {
    let base = 1000.0 * (j as f64 + 1.0) + 10_000.0 * attr.index() as f64;
    (base, base + 100.0)
}

/// The `k`-th canonical prefix pool entry for string attribute `attr`.
fn canonical_prefix(attr: AttrId, k: usize) -> String {
    format!("p{}x{k}v", attr.index())
}

/// Generates subscriptions and matching events under the paper's model.
#[derive(Debug)]
pub struct Workload {
    schema: Schema,
    params: PaperParams,
    /// Subsumption probability `p` for this workload.
    subsumption: f64,
    /// Size of the canonical prefix pool per string attribute.
    prefix_pool: usize,
    /// Counter guaranteeing distinct non-subsumed values.
    next_unique: u64,
}

impl Workload {
    /// Creates a workload over the experiment schema.
    pub fn new(params: PaperParams, subsumption: f64) -> Self {
        let schema = experiment_schema(&params);
        Workload {
            schema,
            params,
            subsumption,
            prefix_pool: params.nsr.max(2),
            next_unique: 0,
        }
    }

    /// The schema subscriptions and events are generated over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The parameter set in force.
    pub fn params(&self) -> &PaperParams {
        &self.params
    }

    fn fresh_unique(&mut self) -> u64 {
        let v = self.next_unique;
        self.next_unique += 1;
        v
    }

    /// Generates one subscription: `n_t/2` attributes (40% arithmetic),
    /// each constraint subsumed with probability `p`.
    pub fn subscription<R: Rng>(&mut self, rng: &mut R) -> Subscription {
        let arith_attrs: Vec<AttrId> = self.schema.arithmetic_attrs().collect();
        let string_attrs: Vec<AttrId> = self.schema.string_attrs().collect();
        let n_arith = self.params.arith_per_sub().min(arith_attrs.len());
        let n_string = self.params.strings_per_sub().min(string_attrs.len());

        let schema = self.schema.clone();
        let mut b = Subscription::builder(&schema);
        for &attr in pick_distinct(&arith_attrs, n_arith, rng).iter() {
            let name = schema.spec(attr).name.clone();
            if rng.gen::<f64>() < self.subsumption {
                // Subsumed: exactly one of the n_sr canonical sub-ranges.
                let j = rng.gen_range(0..self.params.nsr);
                let (lo, hi) = canonical_range(attr, j);
                b = b
                    .num(&name, NumOp::Ge, lo)
                    .and_then(|b| b.num(&name, NumOp::Le, hi))
                    .expect("schema-checked constraint");
            } else {
                // Non-subsumed: a fresh equality value outside all ranges.
                let v = 500_000.0 + self.fresh_unique() as f64;
                b = b
                    .num(&name, NumOp::Eq, v)
                    .expect("schema-checked constraint");
            }
        }
        for &attr in pick_distinct(&string_attrs, n_string, rng).iter() {
            let name = schema.spec(attr).name.clone();
            if rng.gen::<f64>() < self.subsumption {
                let k = rng.gen_range(0..self.prefix_pool);
                b = b
                    .str_op(&name, StrOp::Prefix, &canonical_prefix(attr, k))
                    .expect("schema-checked constraint");
            } else {
                // Fresh literal of s_sv bytes.
                let lit = format!(
                    "u{:0>width$}",
                    self.fresh_unique(),
                    width = self.params.ssv - 1
                );
                b = b
                    .str_op(&name, StrOp::Eq, &lit)
                    .expect("schema-checked constraint");
            }
        }
        b.build().expect("generated subscriptions are non-empty")
    }

    /// Generates `count` subscriptions.
    pub fn subscriptions<R: Rng>(&mut self, count: usize, rng: &mut R) -> Vec<Subscription> {
        (0..count).map(|_| self.subscription(rng)).collect()
    }

    /// Generates one event: `n_t/2` attributes; arithmetic values land in
    /// a canonical range with probability `hit_rate` (else a fresh
    /// value), string values extend a canonical prefix with probability
    /// `hit_rate`. The rate is per value: matching a subscription also
    /// takes carrying all of its attributes, so even at 1.0 only about
    /// one event in 3840 matches a given fully subsumed subscription.
    pub fn event<R: Rng>(&mut self, hit_rate: f64, rng: &mut R) -> Event {
        let arith_attrs: Vec<AttrId> = self.schema.arithmetic_attrs().collect();
        let string_attrs: Vec<AttrId> = self.schema.string_attrs().collect();
        let n_arith = self.params.arith_per_sub().min(arith_attrs.len());
        let n_string = self.params.strings_per_sub().min(string_attrs.len());

        let schema = self.schema.clone();
        let mut b = Event::builder(&schema);
        for &attr in pick_distinct(&arith_attrs, n_arith, rng).iter() {
            let v = if rng.gen::<f64>() < hit_rate {
                let j = rng.gen_range(0..self.params.nsr);
                let (lo, hi) = canonical_range(attr, j);
                lo + ((hi - lo) * rng.gen::<f64>()).floor()
            } else {
                900_000.0 + self.fresh_unique() as f64
            };
            let value = match schema.kind(attr) {
                AttrKind::Float => Value::float(v).expect("finite"),
                AttrKind::Integer => Value::Int(v as i64),
                AttrKind::Date => Value::Date(v as i64),
                AttrKind::String => unreachable!("arith attrs only"),
            };
            b = b.set_id(attr, value).expect("kind-checked");
        }
        for &attr in pick_distinct(&string_attrs, n_string, rng).iter() {
            let s = if rng.gen::<f64>() < hit_rate {
                let k = rng.gen_range(0..self.prefix_pool);
                format!("{}{}", canonical_prefix(attr, k), rng.gen_range(0..100))
            } else {
                format!("w{}", self.fresh_unique())
            };
            b = b.set_id(attr, Value::Str(s)).expect("kind-checked");
        }
        b.build()
    }
}

fn pick_distinct<R: Rng, T: Copy>(pool: &[T], count: usize, rng: &mut R) -> Vec<T> {
    use rand::seq::SliceRandom;
    let mut v: Vec<T> = pool.to_vec();
    v.shuffle(rng);
    v.truncate(count);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use subsum_core::{BrokerSummary, SummaryStats};
    use subsum_types::{BrokerId, LocalSubId};

    #[test]
    fn schema_shape() {
        let schema = experiment_schema(&PaperParams::default());
        assert_eq!(schema.len(), 10);
        assert_eq!(schema.arithmetic_attrs().count(), 4);
        assert_eq!(schema.string_attrs().count(), 6);
    }

    #[test]
    fn subscription_has_expected_attribute_mix() {
        let mut w = Workload::new(PaperParams::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let sub = w.subscription(&mut rng);
        // 2 arithmetic + 3 string distinct attributes.
        assert_eq!(sub.attr_mask().count(), 5);
    }

    #[test]
    fn subscription_size_near_table2_average() {
        // Table 2: the average subscription is about 50 bytes.
        let mut w = Workload::new(PaperParams::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let schema = w.schema().clone();
        let total: usize = (0..200)
            .map(|_| w.subscription(&mut rng).wire_size(&schema, 4))
            .sum();
        let avg = total as f64 / 200.0;
        assert!((35.0..70.0).contains(&avg), "average size {avg}");
    }

    #[test]
    fn full_subsumption_keeps_summary_rows_minimal() {
        // p = 1: every constraint is canonical → AACS has at most n_sr
        // rows per attribute and SACS at most the pool size.
        let params = PaperParams::default();
        let mut w = Workload::new(params, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let schema = w.schema().clone();
        let mut summary = BrokerSummary::new(schema.clone());
        for i in 0..200u32 {
            let sub = w.subscription(&mut rng);
            summary.insert(BrokerId(0), LocalSubId(i), &sub);
        }
        let stats = SummaryStats::of(&summary);
        let n_arith = schema.arithmetic_attrs().count();
        let n_string = schema.string_attrs().count();
        assert!(stats.range_rows <= n_arith * params.nsr);
        assert_eq!(stats.point_rows, 0);
        assert!(stats.pattern_rows <= n_string * 2);
    }

    #[test]
    fn zero_subsumption_grows_rows_linearly() {
        let mut w = Workload::new(PaperParams::default(), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let schema = w.schema().clone();
        let mut summary = BrokerSummary::new(schema.clone());
        for i in 0..100u32 {
            let sub = w.subscription(&mut rng);
            summary.insert(BrokerId(0), LocalSubId(i), &sub);
        }
        let stats = SummaryStats::of(&summary);
        // Every arithmetic constraint is a distinct equality row; every
        // string constraint a distinct literal row.
        assert_eq!(stats.point_rows, 100 * 2);
        assert_eq!(stats.pattern_rows, 100 * 3);
        assert_eq!(stats.range_rows, 0);
    }

    #[test]
    fn high_subsumption_shrinks_summaries() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = experiment_schema(&PaperParams::default());
        let sizes: Vec<usize> = [0.1, 0.9]
            .iter()
            .map(|&p| {
                let mut w = Workload::new(PaperParams::default(), p);
                let mut summary = BrokerSummary::new(schema.clone());
                for i in 0..300u32 {
                    let sub = w.subscription(&mut rng);
                    summary.insert(BrokerId(0), LocalSubId(i), &sub);
                }
                SummaryStats::of(&summary).total_size(subsum_core::SizeParams::default())
            })
            .collect();
        assert!(
            sizes[1] < sizes[0],
            "p=0.9 summary ({}) should be smaller than p=0.1 ({})",
            sizes[1],
            sizes[0]
        );
    }

    /// What [`Workload::event`] documents at hit rate 1: every value is
    /// canonical. Whole-subscription hits are still rare — an event must
    /// carry all five attributes a subscription constrains (2 of 4
    /// arithmetic, 3 of 6 string: 1 in 6 × 20) and then land in the same
    /// one of the `n_sr` = 2 ranges / 2 prefixes on each (1 in 2⁵), so
    /// 1 in 3840 per (event, subscription) pair, ≈ 1.3 % per event
    /// against 50 subscriptions. 2000 events expect ≈ 26 hits per seed;
    /// 200 expected 2.6 and came up empty about one seed in fourteen.
    #[test]
    fn events_hit_subscriptions_at_high_hit_rate() {
        let params = PaperParams::default();
        let canonical = |attr: AttrId, value: &Value| match value.as_str() {
            Some(s) => (0..params.nsr.max(2)).any(|k| s.starts_with(&canonical_prefix(attr, k))),
            None => {
                let v = value.as_num().expect("arithmetic value").get();
                (0..params.nsr).any(|j| {
                    let (lo, hi) = canonical_range(attr, j);
                    (lo..hi).contains(&v)
                })
            }
        };
        for seed in 0..5 {
            let mut w = Workload::new(params, 1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let subs: Vec<Subscription> = w.subscriptions(50, &mut rng);
            let mut matches = 0;
            for _ in 0..2000 {
                let e = w.event(1.0, &mut rng);
                for (attr, value) in e.iter() {
                    assert!(
                        canonical(attr, value),
                        "{attr} = {value:?} is not canonical"
                    );
                }
                if subs.iter().any(|s| s.matches(&e)) {
                    matches += 1;
                }
            }
            assert!(
                matches > 0,
                "seed {seed}: canonical events should hit canonical subscriptions"
            );
        }
    }

    #[test]
    fn zero_hit_rate_events_never_match_fresh_values() {
        let mut w = Workload::new(PaperParams::default(), 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let subs = w.subscriptions(50, &mut rng);
        for _ in 0..100 {
            let e = w.event(0.0, &mut rng);
            assert!(!subs.iter().any(|s| s.matches(&e)));
        }
    }

    #[test]
    fn generated_values_are_f32_exact() {
        // The wire codec at s_st = 4 must round-trip workload values.
        let mut w = Workload::new(PaperParams::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(8);
        let schema = w.schema().clone();
        let layout = subsum_types::IdLayout::new(24, 1000, schema.len() as u32).unwrap();
        let codec = subsum_core::SummaryCodec::new(layout, subsum_core::ArithWidth::Four);
        let mut summary = BrokerSummary::new(schema.clone());
        for i in 0..100u32 {
            let sub = w.subscription(&mut rng);
            summary.insert(BrokerId(0), LocalSubId(i), &sub);
        }
        let bytes = codec.encode(&summary).unwrap();
        let decoded = codec.decode(&bytes, &schema).unwrap();
        assert_eq!(decoded, summary);
    }
}
