//! Seeded summaries for the crate's golden and differential tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp, Subscription};

use crate::summary::BrokerSummary;

const NUM_OPS: [NumOp; 6] = [
    NumOp::Eq,
    NumOp::Ne,
    NumOp::Lt,
    NumOp::Le,
    NumOp::Gt,
    NumOp::Ge,
];

const STR_OPS: [StrOp; 5] = [
    StrOp::Eq,
    StrOp::Ne,
    StrOp::Prefix,
    StrOp::Suffix,
    StrOp::Contains,
];

/// A subscription over the stock schema drawn from `rng`: one to three
/// constraints on any arithmetic attribute (quarter values, and thirds
/// that 4-byte floats round) or either string attribute (every
/// operator, and globs with an interior `*`); `None` when the drawn
/// constraints do not build.
pub(crate) fn random_subscription(rng: &mut StdRng) -> Option<Subscription> {
    let schema = stock_schema();
    let mut b = Subscription::builder(&schema);
    for _ in 0..rng.gen_range(1..4) {
        b = if rng.gen() {
            let attr = &schema
                .spec(subsum_types::AttrId(rng.gen_range(2u16..7)))
                .name;
            let k = rng.gen_range(-40i32..40) as f64;
            let v = if rng.gen_range(0..4) == 0 {
                k / 3.0
            } else {
                k / 4.0
            };
            let op = NUM_OPS[rng.gen_range(0..NUM_OPS.len())];
            b.num(attr, op, v).expect("arithmetic attribute")
        } else {
            let attr = if rng.gen() { "exchange" } else { "symbol" };
            let text = rng.string("abc", 1..=3);
            if rng.gen_range(0..5) == 0 {
                b.str_pattern(attr, &format!("{text}*{}", rng.string("abc", 1..=2)))
                    .expect("string attribute")
            } else {
                let op = STR_OPS[rng.gen_range(0..STR_OPS.len())];
                b.str_op(attr, op, &text).expect("string attribute")
            }
        };
    }
    b.build().ok()
}

/// A summary over the stock schema built from `n` draws of
/// [`random_subscription`], each owned by any of 24 brokers.
pub(crate) fn random_summary(rng: &mut StdRng, n: u32) -> BrokerSummary {
    let mut summary = BrokerSummary::new(stock_schema());
    for local in 0..n {
        if let Some(sub) = random_subscription(rng) {
            summary.insert(BrokerId(rng.gen_range(0..24)), LocalSubId(local), &sub);
        }
    }
    summary
}

/// [`random_summary`] from a fixed seed.
pub(crate) fn seeded_summary(seed: u64, n: u32) -> BrokerSummary {
    random_summary(&mut StdRng::seed_from_u64(seed), n)
}

/// 64-bit FNV-1a, the fingerprint the golden tests pin.
pub(crate) fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
