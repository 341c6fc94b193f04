//! Subscriptions: conjunctions of attribute constraints, with exact
//! matching, normalization and subsumption.

use std::collections::BTreeMap;
use std::fmt;

use crate::constraint::{Constraint, NumOp, Predicate, StrOp};
use crate::error::TypeError;
use crate::event::Event;
use crate::id::AttrMask;
use crate::interval::IntervalSet;
use crate::pattern::Pattern;
use crate::schema::{AttrId, Schema};
use crate::value::{Num, Value};

/// A subscription: an event matches iff **all** attribute constraints are
/// satisfied (paper §2.1). Events may carry more attributes than the
/// subscription mentions; they may not omit a constrained attribute.
///
/// # Example
///
/// ```
/// use subsum_types::{Schema, AttrKind, Subscription, NumOp};
/// # fn main() -> Result<(), subsum_types::TypeError> {
/// let schema = Schema::builder().attr("price", AttrKind::Float)?.build();
/// let sub = Subscription::builder(&schema)
///     .num("price", NumOp::Gt, 8.30)?
///     .num("price", NumOp::Lt, 8.70)?
///     .build()?;
/// assert_eq!(sub.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    constraints: Vec<Constraint>,
}

impl Subscription {
    /// Starts building a subscription against `schema`.
    pub fn builder(schema: &Schema) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            schema,
            constraints: Vec::new(),
        }
    }

    /// Creates a subscription from raw constraints.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::EmptySubscription`] if `constraints` is empty.
    pub fn from_constraints(constraints: Vec<Constraint>) -> Result<Self, TypeError> {
        if constraints.is_empty() {
            return Err(TypeError::EmptySubscription);
        }
        Ok(Subscription { constraints })
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The number of constraints (not distinct attributes).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if there are no constraints (unreachable through the
    /// constructors, which reject empty subscriptions).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Checks that every constraint names an attribute of `schema` and
    /// fits its kind, as the checked builder does: a decoded
    /// subscription (a client's frame, a checkpoint file) was built
    /// without a schema, and a summary has no row for either.
    ///
    /// # Errors
    ///
    /// [`TypeError::UnknownAttribute`] or [`TypeError::KindMismatch`]
    /// for the first constraint that does not fit.
    pub fn check(&self, schema: &Schema) -> Result<(), TypeError> {
        for c in &self.constraints {
            if c.attr.index() >= schema.len() {
                return Err(TypeError::UnknownAttribute(c.attr.to_string()));
            }
            c.check_kind(schema)?;
        }
        Ok(())
    }

    /// The set of distinct constrained attributes as a bit mask — the
    /// `c3` component of the subscription's identifier (paper §3.2).
    pub fn attr_mask(&self) -> AttrMask {
        let mut mask = AttrMask::empty();
        for c in &self.constraints {
            mask.set(c.attr);
        }
        mask
    }

    /// Exact matching: `true` iff the event carries every constrained
    /// attribute and every constraint is satisfied.
    pub fn matches(&self, event: &Event) -> bool {
        self.constraints
            .iter()
            .all(|c| event.get(c.attr).is_some_and(|v| c.eval(v)))
    }

    /// Dissolves the subscription into its per-attribute normal form:
    /// arithmetic conjunctions become interval sets, string conjunctions
    /// become constraint lists. This is the form the summary structures
    /// ingest (paper §2.3: "each incoming subscription is dissolved into
    /// its attribute-value pairs").
    pub fn normalize(&self) -> NormalizedSubscription {
        let mut attrs: BTreeMap<AttrId, NormalizedAttr> = BTreeMap::new();
        for c in &self.constraints {
            match &c.pred {
                Predicate::Num(op, bound) => {
                    let sol = op.solution(*bound);
                    match attrs
                        .entry(c.attr)
                        .or_insert_with(|| NormalizedAttr::Arithmetic(IntervalSet::all()))
                    {
                        NormalizedAttr::Arithmetic(set) => *set = set.intersect(&sol),
                        // A named attribute has one kind (paper §3
                        // assumption i). The checked builder never mixes
                        // kinds, but decoded input could: a mixed
                        // conjunction is unsatisfiable, so it normalizes
                        // to the empty interval set.
                        slot @ NormalizedAttr::String(_) => {
                            *slot = NormalizedAttr::Arithmetic(IntervalSet::empty())
                        }
                    }
                }
                Predicate::Str(p) => {
                    match attrs
                        .entry(c.attr)
                        .or_insert_with(|| NormalizedAttr::String(Vec::new()))
                    {
                        NormalizedAttr::String(list) => {
                            list.push(StringConstraint::Pattern(p.clone()))
                        }
                        // Mixed kinds: unsatisfiable (see the arithmetic
                        // arm above).
                        slot @ NormalizedAttr::Arithmetic(_) => {
                            *slot = NormalizedAttr::Arithmetic(IntervalSet::empty())
                        }
                    }
                }
                Predicate::StrNe(s) => {
                    match attrs
                        .entry(c.attr)
                        .or_insert_with(|| NormalizedAttr::String(Vec::new()))
                    {
                        NormalizedAttr::String(list) => list.push(StringConstraint::Ne(s.clone())),
                        // Mixed kinds: unsatisfiable (see the arithmetic
                        // arm above).
                        slot @ NormalizedAttr::Arithmetic(_) => {
                            *slot = NormalizedAttr::Arithmetic(IntervalSet::empty())
                        }
                    }
                }
            }
        }
        NormalizedSubscription { attrs }
    }

    /// Returns `false` if the constraint conjunction is unsatisfiable by
    /// any event (e.g. `price < 1 ∧ price > 2`). String conjunctions are
    /// conservatively treated as satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        self.normalize().attrs.values().all(|a| match a {
            NormalizedAttr::Arithmetic(set) => !set.is_empty(),
            NormalizedAttr::String(_) => true,
        })
    }

    /// Subscription subsumption (the Siena notion, paper §2.2): `self`
    /// covers `other` if every event matching `other` matches `self`.
    ///
    /// The test is *sound* (never claims coverage that does not hold) and
    /// complete for arithmetic attributes and single-constraint string
    /// attributes; multi-pattern string conjunctions use a sufficient
    /// pairwise condition, as content-based routers do in practice.
    pub fn covers(&self, other: &Subscription) -> bool {
        let a = self.normalize();
        let b = other.normalize();
        // Every attribute self constrains must be constrained by other
        // (otherwise an event matching other could omit the attribute).
        for (attr, na) in &a.attrs {
            let Some(nb) = b.attrs.get(attr) else {
                return false;
            };
            match (na, nb) {
                (NormalizedAttr::Arithmetic(sa), NormalizedAttr::Arithmetic(sb)) => {
                    if !sa.covers(sb) {
                        return false;
                    }
                }
                (NormalizedAttr::String(la), NormalizedAttr::String(lb)) => {
                    let all_covered = la.iter().all(|ca| lb.iter().any(|cb| ca.covers(cb)));
                    if !all_covered {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// The subscription's size in bytes under the paper's accounting model
    /// (§5.1): per constraint, attribute name length + one operator byte +
    /// operand size. The paper's Table 2 workloads average 50 bytes.
    pub fn wire_size(&self, schema: &Schema, arith_width: usize) -> usize {
        self.constraints
            .iter()
            .map(|c| schema.spec(c.attr).name.len() + 1 + c.pred.operand_wire_size(arith_width))
            .sum()
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                f.write_str(" && ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A single normalized string-attribute constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StringConstraint {
    /// A pattern test (covers equality, prefix, suffix, containment, glob).
    Pattern(Pattern),
    /// Inequality with a specific string.
    Ne(String),
}

impl StringConstraint {
    /// Evaluates against a string value.
    pub fn eval(&self, s: &str) -> bool {
        match self {
            StringConstraint::Pattern(p) => p.matches(s),
            StringConstraint::Ne(t) => s != t,
        }
    }

    /// Sound covering test: `true` implies every string satisfying `other`
    /// satisfies `self`.
    pub fn covers(&self, other: &StringConstraint) -> bool {
        match (self, other) {
            (StringConstraint::Pattern(p), StringConstraint::Pattern(q)) => p.covers(q),
            // A pattern covers `≠ s` only if it matches everything except
            // possibly `s`; for glob patterns only the universal pattern
            // qualifies.
            (StringConstraint::Pattern(p), StringConstraint::Ne(_)) => p.is_universal(),
            // `≠ s` covers a pattern whose language excludes `s`. For the
            // test to be sound on infinite languages we require that the
            // pattern cannot match `s`.
            (StringConstraint::Ne(s), StringConstraint::Pattern(q)) => !q.matches(s),
            (StringConstraint::Ne(s), StringConstraint::Ne(t)) => s == t,
        }
    }

    /// A pattern that over-approximates this constraint (never rejects a
    /// satisfying string). `≠` constraints widen to the universal pattern;
    /// this is what the SACS summary stores for them.
    pub fn over_approximation(&self) -> Pattern {
        match self {
            StringConstraint::Pattern(p) => p.clone(),
            StringConstraint::Ne(_) => Pattern::universal(),
        }
    }
}

impl fmt::Display for StringConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StringConstraint::Pattern(p) => write!(f, "~ {p}"),
            StringConstraint::Ne(s) => write!(f, "!= {s:?}"),
        }
    }
}

/// Per-attribute normal form of one subscription's constraints.
#[derive(Debug, Clone, PartialEq)]
pub enum NormalizedAttr {
    /// The intersection of all arithmetic constraints on the attribute.
    Arithmetic(IntervalSet),
    /// The conjunction of all string constraints on the attribute.
    String(Vec<StringConstraint>),
}

/// A subscription dissolved into per-attribute constraints; see
/// [`Subscription::normalize`].
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedSubscription {
    attrs: BTreeMap<AttrId, NormalizedAttr>,
}

impl NormalizedSubscription {
    /// Iterates over `(attribute, normalized constraint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &NormalizedAttr)> {
        self.attrs.iter().map(|(k, v)| (*k, v))
    }

    /// The normalized constraint for `attr`, if the attribute is
    /// constrained.
    pub fn get(&self, attr: AttrId) -> Option<&NormalizedAttr> {
        self.attrs.get(&attr)
    }

    /// The number of distinct constrained attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if no attribute is constrained.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

/// Incremental [`Subscription`] construction; see [`Subscription::builder`].
#[derive(Debug)]
pub struct SubscriptionBuilder<'a> {
    schema: &'a Schema,
    constraints: Vec<Constraint>,
}

impl SubscriptionBuilder<'_> {
    /// Adds an arithmetic constraint `name <op> value`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`], [`TypeError::KindMismatch`]
    /// or [`TypeError::NanValue`].
    pub fn num(mut self, name: &str, op: NumOp, value: f64) -> Result<Self, TypeError> {
        let attr = self.schema.require(name)?;
        let pred = Predicate::Num(op, Num::new(value)?);
        self.constraints
            .push(Constraint::checked(self.schema, attr, pred)?);
        Ok(self)
    }

    /// Adds a string constraint `name <op> operand`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] or [`TypeError::KindMismatch`].
    pub fn str_op(mut self, name: &str, op: StrOp, operand: &str) -> Result<Self, TypeError> {
        let attr = self.schema.require(name)?;
        let pred = Predicate::from_str_op(op, operand)?;
        self.constraints
            .push(Constraint::checked(self.schema, attr, pred)?);
        Ok(self)
    }

    /// Adds a glob-pattern constraint such as `N*SE` (shorthand for
    /// [`StrOp::Pattern`]).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`], [`TypeError::KindMismatch`]
    /// or [`TypeError::InvalidPattern`].
    pub fn str_pattern(self, name: &str, pattern: &str) -> Result<Self, TypeError> {
        self.str_op(name, StrOp::Pattern, pattern)
    }

    /// Adds a pre-built constraint (kind-checked).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::KindMismatch`] if the constraint's predicate
    /// does not fit its attribute's declared kind.
    pub fn constraint(mut self, c: Constraint) -> Result<Self, TypeError> {
        self.constraints
            .push(Constraint::checked(self.schema, c.attr, c.pred)?);
        Ok(self)
    }

    /// Finalizes the subscription.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::EmptySubscription`] if no constraint was added.
    pub fn build(self) -> Result<Subscription, TypeError> {
        Subscription::from_constraints(self.constraints)
    }
}

/// Convenience: evaluates a normalized attribute against an event value.
pub fn normalized_attr_eval(attr: &NormalizedAttr, value: &Value) -> bool {
    match attr {
        NormalizedAttr::Arithmetic(set) => match value.as_num() {
            Some(v) => set.contains(v),
            None => false,
        },
        NormalizedAttr::String(list) => match value.as_str() {
            Some(s) => list.iter().all(|c| c.eval(s)),
            None => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::stock_schema;

    fn paper_sub1(schema: &Schema) -> Subscription {
        // Fig. 3, Subscription 1.
        Subscription::builder(schema)
            .str_pattern("exchange", "N*SE")
            .unwrap()
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .build()
            .unwrap()
    }

    fn paper_sub2(schema: &Schema) -> Subscription {
        // Fig. 3, Subscription 2.
        Subscription::builder(schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .num("price", NumOp::Eq, 8.20)
            .unwrap()
            .num("volume", NumOp::Gt, 130000.0)
            .unwrap()
            .num("low", NumOp::Lt, 8.05)
            .unwrap()
            .build()
            .unwrap()
    }

    fn paper_event(schema: &Schema) -> Event {
        // Fig. 2.
        Event::builder(schema)
            .str("exchange", "NYSE")
            .unwrap()
            .str("symbol", "OTE")
            .unwrap()
            .date("when", 1057055125)
            .unwrap()
            .num("price", 8.40)
            .unwrap()
            .int("volume", 132700)
            .unwrap()
            .num("high", 8.80)
            .unwrap()
            .num("low", 8.22)
            .unwrap()
            .build()
    }

    #[test]
    fn paper_example_matching() {
        let schema = stock_schema();
        let e = paper_event(&schema);
        // §3.3 Example 1: S1 matches, S2 does not (price ≠ 8.20, low not < 8.05).
        assert!(paper_sub1(&schema).matches(&e));
        assert!(!paper_sub2(&schema).matches(&e));
    }

    #[test]
    fn missing_attribute_fails_match() {
        let schema = stock_schema();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let e = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .build();
        assert!(!sub.matches(&e));
    }

    #[test]
    fn event_may_have_extra_attributes() {
        let schema = stock_schema();
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        assert!(sub.matches(&paper_event(&schema)));
    }

    #[test]
    fn attr_mask_has_distinct_attrs() {
        let schema = stock_schema();
        let s1 = paper_sub1(&schema);
        // exchange, symbol, price — 3 distinct attributes, 4 constraints.
        assert_eq!(s1.len(), 4);
        assert_eq!(s1.attr_mask().count(), 3);
        let s2 = paper_sub2(&schema);
        assert_eq!(s2.attr_mask().count(), 4);
    }

    #[test]
    fn normalize_intersects_arithmetic() {
        let schema = stock_schema();
        let s1 = paper_sub1(&schema);
        let n = s1.normalize();
        let price = schema.attr_id("price").unwrap();
        match n.get(price).unwrap() {
            NormalizedAttr::Arithmetic(set) => {
                assert_eq!(set.len(), 1);
                assert!(set.contains(Num::new(8.40).unwrap()));
                assert!(!set.contains(Num::new(8.30).unwrap()));
                assert!(!set.contains(Num::new(8.70).unwrap()));
            }
            _ => panic!("price should be arithmetic"),
        }
    }

    #[test]
    fn unsatisfiable_detected() {
        let schema = stock_schema();
        let s = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .num("price", NumOp::Gt, 2.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(!s.is_satisfiable());
        assert!(paper_sub1(&schema).is_satisfiable());
    }

    #[test]
    fn covers_arithmetic() {
        let schema = stock_schema();
        let wide = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 5.0)
            .unwrap()
            .num("price", NumOp::Lt, 6.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn covers_requires_attribute_superset_direction() {
        let schema = stock_schema();
        // self constrains fewer attributes than other: may cover.
        let broad = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .num("price", NumOp::Lt, 10.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(broad.covers(&narrow));
        // The reverse cannot hold: events matching `broad` may lack price.
        assert!(!narrow.covers(&broad));
    }

    #[test]
    fn covers_string_patterns() {
        let schema = stock_schema();
        let general = Subscription::builder(&schema)
            .str_pattern("symbol", "m*t")
            .unwrap()
            .build()
            .unwrap();
        let specific = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "microsoft")
            .unwrap()
            .build()
            .unwrap();
        assert!(general.covers(&specific));
        assert!(!specific.covers(&general));
    }

    #[test]
    fn covers_ne_constraints() {
        let schema = stock_schema();
        let ne = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Ne, "IBM")
            .unwrap()
            .build()
            .unwrap();
        let eq_other = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        let eq_same = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "IBM")
            .unwrap()
            .build()
            .unwrap();
        assert!(ne.covers(&eq_other));
        assert!(!ne.covers(&eq_same));
        assert!(ne.covers(&ne));
    }

    #[test]
    fn covers_agrees_with_matching_on_samples() {
        let schema = stock_schema();
        let subs = [paper_sub1(&schema), paper_sub2(&schema)];
        let events = [paper_event(&schema)];
        for a in &subs {
            for b in &subs {
                if a.covers(b) {
                    for e in &events {
                        if b.matches(e) {
                            assert!(a.matches(e));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_subscription_rejected() {
        let schema = stock_schema();
        assert_eq!(
            Subscription::builder(&schema).build().unwrap_err(),
            TypeError::EmptySubscription
        );
    }

    #[test]
    fn wire_size_plausible() {
        let schema = stock_schema();
        let s1 = paper_sub1(&schema);
        // exchange(8)+1+4 + symbol(6)+1+3 + price(5)+1+4 + price(5)+1+4 = 43.
        assert_eq!(s1.wire_size(&schema, 4), 43);
    }

    #[test]
    fn normalized_attr_eval_agrees_with_exact_match() {
        let schema = stock_schema();
        let e = paper_event(&schema);
        for sub in [paper_sub1(&schema), paper_sub2(&schema)] {
            let n = sub.normalize();
            let normalized_match = n
                .iter()
                .all(|(attr, na)| e.get(attr).is_some_and(|v| normalized_attr_eval(na, v)));
            assert_eq!(normalized_match, sub.matches(&e));
        }
    }
}
