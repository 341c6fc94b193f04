//! Attribute constraints: the atoms a subscription dissolves into.

use std::fmt;

use crate::error::TypeError;
use crate::interval::{Interval, IntervalSet};
use crate::pattern::Pattern;
use crate::schema::{AttrId, AttrKind, Schema};
use crate::value::{Num, Value};

/// Comparison operators over arithmetic attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl NumOp {
    /// Evaluates `value <op> bound`.
    pub fn eval(self, value: Num, bound: Num) -> bool {
        match self {
            NumOp::Eq => value == bound,
            NumOp::Ne => value != bound,
            NumOp::Lt => value < bound,
            NumOp::Le => value <= bound,
            NumOp::Gt => value > bound,
            NumOp::Ge => value >= bound,
        }
    }

    /// The solution set `{ x : x <op> bound }` as an interval set.
    pub fn solution(self, bound: Num) -> IntervalSet {
        match self {
            NumOp::Eq => IntervalSet::from_interval(Interval::point(bound)),
            NumOp::Ne => IntervalSet::all().without_point(bound),
            NumOp::Lt => IntervalSet::from_interval(Interval::less_than(bound)),
            NumOp::Le => IntervalSet::from_interval(Interval::at_most(bound)),
            NumOp::Gt => IntervalSet::from_interval(Interval::greater_than(bound)),
            NumOp::Ge => IntervalSet::from_interval(Interval::at_least(bound)),
        }
    }
}

impl fmt::Display for NumOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NumOp::Eq => "=",
            NumOp::Ne => "!=",
            NumOp::Lt => "<",
            NumOp::Le => "<=",
            NumOp::Gt => ">",
            NumOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Operators over string attributes.
///
/// `Prefix`, `Suffix`, `Contains` and `Pattern` are all compiled to
/// [`Pattern`]s; the paper writes them `>*`, `*<` and `*` respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrOp {
    /// Exact equality.
    Eq,
    /// Inequality (`≠`).
    Ne,
    /// The value starts with the operand (paper: `>*`).
    Prefix,
    /// The value ends with the operand (paper: `*<`).
    Suffix,
    /// The value contains the operand (paper: `*`).
    Contains,
    /// The operand is a glob pattern such as `N*SE`.
    Pattern,
}

impl fmt::Display for StrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrOp::Eq => "=",
            StrOp::Ne => "!=",
            StrOp::Prefix => ">*",
            StrOp::Suffix => "*<",
            StrOp::Contains => "*",
            StrOp::Pattern => "~",
        };
        f.write_str(s)
    }
}

/// The predicate of a [`Constraint`]: an operator applied to an operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// An arithmetic comparison.
    Num(NumOp, Num),
    /// A string pattern test (equality, prefix, suffix, containment and
    /// glob all compile to patterns).
    Str(Pattern),
    /// String inequality: satisfied by every string except the operand.
    StrNe(String),
}

impl Predicate {
    /// Builds a string predicate from an operator and operand.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidPattern`] if a `Pattern` operand fails
    /// to parse.
    pub fn from_str_op(op: StrOp, operand: &str) -> Result<Self, TypeError> {
        Ok(match op {
            StrOp::Eq => Predicate::Str(Pattern::literal(operand)),
            StrOp::Ne => Predicate::StrNe(operand.to_owned()),
            StrOp::Prefix => Predicate::Str(Pattern::prefix(operand)),
            StrOp::Suffix => Predicate::Str(Pattern::suffix(operand)),
            StrOp::Contains => Predicate::Str(Pattern::substring(operand)),
            StrOp::Pattern => Predicate::Str(Pattern::parse(operand)?),
        })
    }

    /// Evaluates the predicate against an event value. Returns `false` on
    /// kind mismatch (an arithmetic predicate never matches a string
    /// value and vice versa).
    pub fn eval(&self, value: &Value) -> bool {
        match self {
            Predicate::Num(op, bound) => match value.as_num() {
                Some(v) => op.eval(v, *bound),
                None => false,
            },
            Predicate::Str(pat) => match value.as_str() {
                Some(s) => pat.matches(s),
                None => false,
            },
            Predicate::StrNe(operand) => match value.as_str() {
                Some(s) => s != operand,
                None => false,
            },
        }
    }

    /// Returns `true` if the predicate applies to arithmetic values.
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Predicate::Num(..))
    }

    /// The operand's size in bytes under the paper's accounting model
    /// (§5.1): arithmetic operands cost `s_st`, string operands one byte
    /// per character.
    pub fn operand_wire_size(&self, arith_width: usize) -> usize {
        match self {
            Predicate::Num(..) => arith_width,
            Predicate::Str(p) => p.wire_size(),
            Predicate::StrNe(s) => s.len(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Num(op, v) => write!(f, "{op} {v}"),
            Predicate::Str(p) => write!(f, "~ {p}"),
            Predicate::StrNe(s) => write!(f, "!= {s:?}"),
        }
    }
}

/// A single attribute constraint: “attribute `attr` satisfies `pred`”.
///
/// A subscription is a conjunction of constraints; several constraints may
/// target the same attribute (Fig. 4 of the paper shows `price < 8.70 ∧
/// price > 8.30` dissolving into one AACS sub-range).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The constrained attribute.
    pub attr: AttrId,
    /// The predicate the attribute's value must satisfy.
    pub pred: Predicate,
}

impl Constraint {
    /// Creates a constraint, checking the predicate against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::KindMismatch`] if an arithmetic predicate
    /// targets a string attribute or vice versa.
    pub fn checked(schema: &Schema, attr: AttrId, pred: Predicate) -> Result<Self, TypeError> {
        let c = Constraint { attr, pred };
        c.check_kind(schema)?;
        Ok(c)
    }

    /// The kind check of [`Constraint::checked`].
    pub(crate) fn check_kind(&self, schema: &Schema) -> Result<(), TypeError> {
        let kind = schema.kind(self.attr);
        let ok = match (&self.pred, kind) {
            (Predicate::Num(..), k) => k.is_arithmetic(),
            (Predicate::Str(_) | Predicate::StrNe(_), AttrKind::String) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(TypeError::KindMismatch {
                attribute: schema.spec(self.attr).name.clone(),
                expected: kind,
            })
        }
    }

    /// Evaluates the constraint against an event value for its attribute.
    pub fn eval(&self, value: &Value) -> bool {
        self.pred.eval(value)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.attr, self.pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::stock_schema;

    fn n(v: f64) -> Num {
        Num::new(v).unwrap()
    }

    #[test]
    fn num_op_eval() {
        assert!(NumOp::Eq.eval(n(1.0), n(1.0)));
        assert!(NumOp::Ne.eval(n(1.0), n(2.0)));
        assert!(NumOp::Lt.eval(n(1.0), n(2.0)));
        assert!(!NumOp::Lt.eval(n(2.0), n(2.0)));
        assert!(NumOp::Le.eval(n(2.0), n(2.0)));
        assert!(NumOp::Gt.eval(n(3.0), n(2.0)));
        assert!(NumOp::Ge.eval(n(2.0), n(2.0)));
    }

    #[test]
    fn num_op_solution_agrees_with_eval() {
        let bounds = [n(-1.5), n(0.0), n(3.25)];
        let samples = [n(-2.0), n(-1.5), n(-1.0), n(0.0), n(3.0), n(3.25), n(4.0)];
        for op in [
            NumOp::Eq,
            NumOp::Ne,
            NumOp::Lt,
            NumOp::Le,
            NumOp::Gt,
            NumOp::Ge,
        ] {
            for b in bounds {
                let sol = op.solution(b);
                for v in samples {
                    assert_eq!(
                        sol.contains(v),
                        op.eval(v, b),
                        "op {op} bound {b} value {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn str_predicates() {
        let eq = Predicate::from_str_op(StrOp::Eq, "OTE").unwrap();
        assert!(eq.eval(&Value::from("OTE")));
        assert!(!eq.eval(&Value::from("OTEX")));

        let pre = Predicate::from_str_op(StrOp::Prefix, "OT").unwrap();
        assert!(pre.eval(&Value::from("OTE")));
        assert!(!pre.eval(&Value::from("XOT")));

        let suf = Predicate::from_str_op(StrOp::Suffix, "SE").unwrap();
        assert!(suf.eval(&Value::from("NYSE")));
        assert!(!suf.eval(&Value::from("SEX")));

        let sub = Predicate::from_str_op(StrOp::Contains, "YS").unwrap();
        assert!(sub.eval(&Value::from("NYSE")));
        assert!(!sub.eval(&Value::from("NSE")));

        let ne = Predicate::from_str_op(StrOp::Ne, "OTE").unwrap();
        assert!(!ne.eval(&Value::from("OTE")));
        assert!(ne.eval(&Value::from("XYZ")));

        let pat = Predicate::from_str_op(StrOp::Pattern, "N*SE").unwrap();
        assert!(pat.eval(&Value::from("NYSE")));
        assert!(!pat.eval(&Value::from("NYS")));
    }

    #[test]
    fn kind_mismatch_on_eval_returns_false() {
        let p = Predicate::Num(NumOp::Eq, n(1.0));
        assert!(!p.eval(&Value::from("1.0")));
        let s = Predicate::from_str_op(StrOp::Eq, "x").unwrap();
        assert!(!s.eval(&Value::Int(1)));
    }

    #[test]
    fn checked_constraint_enforces_kinds() {
        let schema = stock_schema();
        let price = schema.attr_id("price").unwrap();
        let symbol = schema.attr_id("symbol").unwrap();
        assert!(Constraint::checked(&schema, price, Predicate::Num(NumOp::Lt, n(8.7))).is_ok());
        assert!(Constraint::checked(
            &schema,
            symbol,
            Predicate::from_str_op(StrOp::Eq, "OTE").unwrap()
        )
        .is_ok());
        let err =
            Constraint::checked(&schema, symbol, Predicate::Num(NumOp::Lt, n(1.0))).unwrap_err();
        assert!(matches!(err, TypeError::KindMismatch { .. }));
        let err = Constraint::checked(
            &schema,
            price,
            Predicate::from_str_op(StrOp::Eq, "x").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::KindMismatch { .. }));
    }

    #[test]
    fn date_and_int_values_satisfy_num_predicates() {
        let p = Predicate::Num(NumOp::Gt, n(130000.0));
        assert!(p.eval(&Value::Int(132700)));
        assert!(!p.eval(&Value::Int(130000)));
        assert!(p.eval(&Value::Date(200000)));
    }

    #[test]
    fn operand_wire_sizes() {
        assert_eq!(Predicate::Num(NumOp::Eq, n(1.0)).operand_wire_size(4), 4);
        assert_eq!(
            Predicate::from_str_op(StrOp::Eq, "NYSE")
                .unwrap()
                .operand_wire_size(4),
            4
        );
        // Prefix renders as "OT*": 3 bytes.
        assert_eq!(
            Predicate::from_str_op(StrOp::Prefix, "OT")
                .unwrap()
                .operand_wire_size(4),
            3
        );
    }
}
