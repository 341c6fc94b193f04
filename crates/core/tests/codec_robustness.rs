//! Robustness of the summary wire codec: decoding adversarial input
//! (truncations, bit flips, random garbage) must return an error or a
//! structurally valid summary — never panic, never overrun.

use rand::check::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec, WireError};
use subsum_types::{stock_schema, BrokerId, IdLayout, LocalSubId, NumOp, StrOp, Subscription};

fn sample_bytes(seed: u64) -> (Vec<u8>, SummaryCodec) {
    let schema = stock_schema();
    let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Four);
    let mut summary = BrokerSummary::new(schema.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..20u32 {
        let sub = if rng.gen() {
            Subscription::builder(&schema)
                .num("price", NumOp::Lt, rng.gen_range(-100.0..100.0f64).round())
                .unwrap()
                .build()
                .unwrap()
        } else {
            Subscription::builder(&schema)
                .str_op(
                    "symbol",
                    StrOp::Prefix,
                    &format!("S{}", rng.gen_range(0..9)),
                )
                .unwrap()
                .build()
                .unwrap()
        };
        summary.insert(BrokerId(rng.gen_range(0..24)), LocalSubId(i), &sub);
    }
    (codec.encode(&summary).unwrap().to_vec(), codec)
}

/// Every truncation of a valid stream decodes to an error (or, for
/// the lucky prefix that is itself complete, a valid summary) without
/// panicking.
#[test]
fn truncations_never_panic() {
    check("truncations_never_panic", 256, |g| {
        let seed = g.gen_range(0u64..50);
        let cut_frac = g.gen_range(0.0f64..1.0);
        let (bytes, codec) = sample_bytes(seed);
        let schema = stock_schema();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = codec.decode(&bytes[..cut], &schema);
    });
}

/// Byte corruption never panics; if it decodes, the result is
/// re-encodable.
#[test]
fn bit_flips_never_panic() {
    check("bit_flips_never_panic", 256, |g| {
        let seed = g.gen_range(0u64..50);
        let flips = g.vec(1..8, |g| (g.gen_range(0usize..4096), g.gen_range(0u8..8)));
        flip_and_decode(seed, &flips);
    });
}

fn flip_and_decode(seed: u64, flips: &[(usize, u8)]) {
    let (mut bytes, codec) = sample_bytes(seed);
    let schema = stock_schema();
    for &(pos, bit) in flips {
        let p = pos % bytes.len();
        bytes[p] ^= 1 << bit;
    }
    if let Ok(decoded) = codec.decode(&bytes, &schema) {
        // A successfully decoded summary must be internally
        // consistent: it validates (in debug builds, where `validate`
        // exists) and encodes again.
        #[cfg(debug_assertions)]
        decoded.validate();
        let _ = codec.encode(&decoded);
    }
}

/// A once-failing input: a single low-bit flip deep in the stream.
#[test]
fn one_low_bit_flipped_at_offset_2917() {
    flip_and_decode(6, &[(2917, 0)]);
}

/// The matcher skips ids whose `c3` mask names an attribute the event
/// lacks, which is exact only if every id sits on attributes its mask
/// names. Flipping off, in an encoded summary, the mask bit of the
/// attribute an id is posted under must get an error, not an install.
#[test]
fn an_id_whose_mask_loses_its_row_attribute_is_refused() {
    let schema = stock_schema();
    let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Four);
    let sub = Subscription::builder(&schema)
        .num("price", NumOp::Lt, 10.0)
        .unwrap()
        .build()
        .unwrap();
    let mut summary = BrokerSummary::new(schema.clone());
    let id = summary.insert(BrokerId(5), LocalSubId(7), &sub);
    let mut bytes = codec.encode(&summary).unwrap();
    assert_eq!(codec.decode(&bytes, &schema).unwrap(), summary);
    let mut packed = Vec::new();
    layout.encode_bytes(id, &mut packed).unwrap();
    let at: Vec<usize> = (0..=bytes.len() - packed.len())
        .filter(|&i| bytes[i..i + packed.len()] == packed[..])
        .collect();
    assert_eq!(at.len(), 1, "the id's bytes occur once");
    // `c3` is the low end of the packed id, attribute 0 least significant.
    let price = schema.attr_id("price").unwrap();
    let byte = at[0] + packed.len() - 1 - price.index() / 8;
    bytes[byte] ^= 1 << (price.index() % 8);
    assert_eq!(
        codec.decode(&bytes, &schema).unwrap_err(),
        WireError::PostingOutsideMask(price.0)
    );
}

/// Pure garbage never panics.
#[test]
fn random_garbage_never_panics() {
    check("random_garbage_never_panics", 256, |g| {
        let bytes = g.vec(0..512, |g| g.gen::<u8>());
        let schema = stock_schema();
        let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Four);
        let _ = codec.decode(&bytes, &schema);
    });
}

/// The arithmetic size computation agrees byte-for-byte with a real
/// encode, at both wire widths, on randomly built summaries
/// (mixtures of range, point, and string-pattern rows).
#[test]
fn encoded_len_matches_encode() {
    check("encoded_len_matches_encode", 256, |g| {
        let seed = g.gen_range(0u64..200);
        let schema = stock_schema();
        let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
        let mut summary = BrokerSummary::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..rng.gen_range(0..30u32) {
            let mut b = Subscription::builder(&schema);
            if rng.gen() {
                b = b
                    .num("price", NumOp::Lt, rng.gen_range(-100.0..100.0f64).round())
                    .unwrap();
            }
            if rng.gen() {
                b = b
                    .num("volume", NumOp::Eq, rng.gen_range(0..50) as f64)
                    .unwrap();
            }
            if rng.gen::<f64>() < 0.5 {
                let ops = [StrOp::Eq, StrOp::Prefix, StrOp::Suffix, StrOp::Contains];
                b = b
                    .str_op(
                        "symbol",
                        ops[rng.gen_range(0..4)],
                        &format!("S{}", rng.gen_range(0..9)),
                    )
                    .unwrap();
            }
            if let Ok(sub) = b.build() {
                summary.insert(BrokerId(rng.gen_range(0..24)), LocalSubId(i), &sub);
            }
        }
        for width in [ArithWidth::Four, ArithWidth::Eight] {
            let codec = SummaryCodec::new(layout, width);
            let encoded = codec.encode(&summary).unwrap();
            assert_eq!(codec.encoded_len(&summary).unwrap(), encoded.len());
        }
    });
}
