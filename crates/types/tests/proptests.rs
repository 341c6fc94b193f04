//! Property-based tests for the pattern, interval and identifier layers.

use rand::check::check;
use rand::rngs::StdRng;
use rand::Rng;

use subsum_types::{
    AttrId, AttrMask, BrokerId, IdLayout, Interval, IntervalSet, LocalSubId, Num, NumOp, Pattern,
    SubscriptionId,
};

/// A random glob pattern over a tiny alphabet, as its textual form.
fn pattern_text(g: &mut StdRng) -> String {
    // Sequences of segments (length 1–3 over {a, b, c}) and stars.
    g.vec(0..6, |g| {
        if g.gen() {
            "*".to_owned()
        } else {
            g.string("abc", 1..=3)
        }
    })
    .concat()
}

/// A random string matched by `pat`: instantiate each wildcard with a
/// random short string over the same alphabet.
fn instantiate(pat: &Pattern, fills: &[String]) -> String {
    let mut out = String::new();
    let mut fill_iter = fills.iter().cycle();
    let mut next_fill = || fill_iter.next().cloned().unwrap_or_default();
    if !pat.anchored_start() {
        out.push_str(&next_fill());
    }
    for (i, seg) in pat.segments().iter().enumerate() {
        if i > 0 {
            out.push_str(&next_fill());
        }
        out.push_str(seg);
    }
    if !pat.anchored_end() {
        out.push_str(&next_fill());
    }
    if pat.segments().is_empty() && pat.is_universal() {
        out.push_str(&next_fill());
    }
    out
}

/// Instantiating a pattern's wildcards always yields a matching string.
#[test]
fn instantiation_matches() {
    check("instantiation_matches", 256, |g| {
        let text = pattern_text(g);
        let fills = g.vec(1..4, |g| g.string("abc", 0..=4));
        let pat = Pattern::parse(&text).unwrap();
        let s = instantiate(&pat, &fills);
        assert!(
            pat.matches(&s),
            "pattern {pat} rejects its instantiation {s:?}"
        );
    });
}

/// Soundness of covering: if p covers q, every instantiation of q is
/// matched by p.
#[test]
fn covers_is_sound() {
    check("covers_is_sound", 256, |g| {
        let ptext = pattern_text(g);
        let qtext = pattern_text(g);
        let fills = g.vec(1..4, |g| g.string("abc", 0..=4));
        let p = Pattern::parse(&ptext).unwrap();
        let q = Pattern::parse(&qtext).unwrap();
        if p.covers(&q) {
            let s = instantiate(&q, &fills);
            assert!(p.matches(&s), "covers({p}, {q}) but {p} rejects {s:?}");
        }
    });
}

/// Covering is reflexive.
#[test]
fn covers_is_reflexive() {
    check("covers_is_reflexive", 256, |g| {
        let text = pattern_text(g);
        let p = Pattern::parse(&text).unwrap();
        assert!(p.covers(&p));
    });
}

/// Covering is transitive on observed triples.
#[test]
fn covers_is_transitive() {
    check("covers_is_transitive", 256, |g| {
        let a = pattern_text(g);
        let b = pattern_text(g);
        let c = pattern_text(g);
        let (a, b, c) = (
            Pattern::parse(&a).unwrap(),
            Pattern::parse(&b).unwrap(),
            Pattern::parse(&c).unwrap(),
        );
        if a.covers(&b) && b.covers(&c) {
            assert!(a.covers(&c), "covers not transitive: {a} ⊇ {b} ⊇ {c}");
        }
    });
}

/// Display/parse round-trips to the same pattern.
#[test]
fn pattern_display_roundtrip() {
    check("pattern_display_roundtrip", 256, |g| {
        let text = pattern_text(g);
        let p = Pattern::parse(&text).unwrap();
        let q = Pattern::parse(&p.to_string()).unwrap();
        assert_eq!(p, q);
    });
}

fn num(g: &mut StdRng) -> Num {
    Num::new(g.gen_range(-1000i32..1000) as f64 / 4.0).unwrap()
}

fn interval(g: &mut StdRng) -> Interval {
    let (a, b) = (num(g), num(g));
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    use subsum_types::{LowerBound, UpperBound};
    Interval::new(
        if g.gen() {
            LowerBound::Incl(lo)
        } else {
            LowerBound::Excl(lo)
        },
        if g.gen() {
            UpperBound::Incl(hi)
        } else {
            UpperBound::Excl(hi)
        },
    )
}

fn interval_set(g: &mut StdRng) -> IntervalSet {
    g.vec(0..5, interval)
        .into_iter()
        .fold(IntervalSet::empty(), |acc, iv| {
            acc.union(&IntervalSet::from_interval(iv))
        })
}

/// Union membership equals disjunction of memberships.
#[test]
fn union_is_pointwise_or() {
    check("union_is_pointwise_or", 256, |g| {
        let a = interval_set(g);
        let b = interval_set(g);
        let v = num(g);
        let u = a.union(&b);
        assert_eq!(u.contains(v), a.contains(v) || b.contains(v));
    });
}

/// Intersection membership equals conjunction of memberships.
#[test]
fn intersection_is_pointwise_and() {
    check("intersection_is_pointwise_and", 256, |g| {
        let a = interval_set(g);
        let b = interval_set(g);
        let v = num(g);
        let i = a.intersect(&b);
        assert_eq!(i.contains(v), a.contains(v) && b.contains(v));
    });
}

/// Canonical form: parts are sorted, disjoint and non-adjacent, so a
/// set equals the union of itself with itself.
#[test]
fn union_is_idempotent() {
    check("union_is_idempotent", 256, |g| {
        let a = interval_set(g);
        assert_eq!(a.union(&a), a);
    });
}

/// covers() agrees with pointwise membership on samples.
#[test]
fn covers_sound_on_samples() {
    check("covers_sound_on_samples", 256, |g| {
        let a = interval_set(g);
        let b = interval_set(g);
        let vs = g.vec(1..20, num);
        if a.covers(&b) {
            for v in vs {
                if b.contains(v) {
                    assert!(a.contains(v));
                }
            }
        }
    });
}

/// without_point removes exactly the point.
#[test]
fn without_point_semantics() {
    check("without_point_semantics", 256, |g| {
        let a = interval_set(g);
        let p = num(g);
        let v = num(g);
        let w = a.without_point(p);
        if v == p {
            assert!(!w.contains(v));
        } else {
            assert_eq!(w.contains(v), a.contains(v));
        }
    });
}

/// NumOp solution sets agree with direct evaluation.
#[test]
fn numop_solution_pointwise() {
    check("numop_solution_pointwise", 256, |g| {
        let v = num(g);
        let bound = num(g);
        for op in [
            NumOp::Eq,
            NumOp::Ne,
            NumOp::Lt,
            NumOp::Le,
            NumOp::Gt,
            NumOp::Ge,
        ] {
            assert_eq!(op.solution(bound).contains(v), op.eval(v, bound));
        }
    });
}

/// Subscription id packing round-trips through both the integer and
/// byte encodings for arbitrary in-range components.
#[test]
fn id_roundtrip() {
    check("id_roundtrip", 256, |g| {
        let brokers = g.gen_range(1u64..5000);
        let max_subs = g.gen_range(1u64..2_000_000);
        let attrs = g.gen_range(1u32..33);
        let broker = g.gen::<u16>();
        let local = g.gen::<u32>();
        let mask_bits = g.gen::<u64>();
        let layout = IdLayout::new(brokers, max_subs, attrs).unwrap();
        let broker = BrokerId(broker % brokers.min(u16::MAX as u64 + 1) as u16);
        let local = LocalSubId(local % max_subs.min(u32::MAX as u64 + 1) as u32);
        let mask = AttrMask(mask_bits & ((1u64 << attrs) - 1));
        let id = SubscriptionId::new(broker, local, mask);
        let packed = layout.encode(id).unwrap();
        assert_eq!(layout.decode(packed), id);
        let mut buf = Vec::new();
        layout.encode_bytes(id, &mut buf).unwrap();
        assert_eq!(buf.len(), layout.byte_len());
        let (decoded, used) = layout.decode_bytes(&buf).unwrap();
        assert_eq!(decoded, id);
        assert_eq!(used, buf.len());
    });
}

/// Mask iteration and count agree.
#[test]
fn mask_iter_count() {
    check("mask_iter_count", 256, |g| {
        let bits = g.gen::<u64>();
        let mask = AttrMask(bits);
        let collected: AttrMask = mask.iter().collect();
        assert_eq!(collected, mask);
        assert_eq!(mask.iter().count() as u32, mask.count());
        for a in mask.iter() {
            assert!(mask.contains(a));
        }
        assert!(!mask.contains(AttrId(64)));
    });
}
