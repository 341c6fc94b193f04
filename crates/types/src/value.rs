//! Attribute values: totally ordered numbers and the [`Value`] enum.

use std::cmp::Ordering;
use std::fmt;

use crate::error::TypeError;

/// A finite, totally ordered numeric value.
///
/// All arithmetic attribute kinds (`Integer`, `Float`, `Date`) are
/// normalized to `Num` inside summary structures, which need a total order
/// to maintain the AACS sub-range partition of the paper's §3.1. `Num`
/// rejects NaN at construction so that `Ord`, `Eq` and `Hash` are lawful.
///
/// Integers are represented exactly up to 2⁵³ in magnitude (the mantissa
/// width of an IEEE-754 double); the paper's workloads use values far below
/// this bound.
///
/// # Example
///
/// ```
/// use subsum_types::Num;
/// let a = Num::new(8.30).unwrap();
/// let b = Num::new(8.70).unwrap();
/// assert!(a < b);
/// assert!(Num::new(f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Num(f64);

impl Num {
    /// Zero.
    pub const ZERO: Num = Num(0.0);

    /// Creates a `Num` from a finite or infinite float.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NanValue`] if `v` is NaN.
    pub fn new(v: f64) -> Result<Self, TypeError> {
        if v.is_nan() {
            Err(TypeError::NanValue)
        } else {
            // Normalize -0.0 to 0.0 so Eq/Hash agree with Ord.
            Ok(Num(if v == 0.0 { 0.0 } else { v }))
        }
    }

    /// Returns the raw floating point value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl From<i64> for Num {
    fn from(v: i64) -> Self {
        Num(v as f64)
    }
}

impl From<i32> for Num {
    fn from(v: i32) -> Self {
        Num(v as f64)
    }
}

impl From<u32> for Num {
    fn from(v: u32) -> Self {
        Num(v as f64)
    }
}

impl TryFrom<f64> for Num {
    type Error = TypeError;

    fn try_from(v: f64) -> Result<Self, TypeError> {
        Num::new(v)
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Num {}

impl PartialOrd for Num {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Num {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is excluded and -0.0 normalized at construction, so IEEE
        // total order coincides with numeric order here.
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for Num {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // -0.0 normalized at construction, so bit equality matches Eq.
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A typed attribute value carried by events and constraints.
///
/// The variants mirror the primitive attribute kinds of the paper's event
/// schema (Fig. 2): strings, integers, floats and dates. Dates are
/// represented as seconds since the Unix epoch and behave as arithmetic
/// values throughout the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A UTF-8 string value.
    Str(String),
    /// A 64-bit signed integer value.
    Int(i64),
    /// A finite floating point value.
    Float(Num),
    /// A date, in seconds since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Creates a float value.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NanValue`] if `v` is NaN.
    pub fn float(v: f64) -> Result<Self, TypeError> {
        Ok(Value::Float(Num::new(v)?))
    }

    /// Returns the value as a totally ordered number, if it is arithmetic.
    ///
    /// Strings return `None`.
    pub fn as_num(&self) -> Option<Num> {
        match self {
            Value::Str(_) => None,
            Value::Int(v) | Value::Date(v) => Some(Num::from(*v)),
            Value::Float(v) => Some(*v),
        }
    }

    /// Returns the value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if the value is arithmetic (integer, float or date).
    pub fn is_arithmetic(&self) -> bool {
        !matches!(self, Value::Str(_))
    }

    /// The encoded size of this value in bytes, as accounted by the paper's
    /// bandwidth model (§5.1): strings cost one byte per character
    /// (`s_sv`), arithmetic values cost the storage size of their type
    /// (`s_st`, 4 bytes by default in Table 2... dates and 64-bit integers
    /// are clamped to the configured arithmetic width).
    pub fn wire_size(&self, arith_width: usize) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => arith_width,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<Num> for Value {
    fn from(v: Num) -> Self {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "@{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn num_rejects_nan() {
        assert_eq!(Num::new(f64::NAN).unwrap_err(), TypeError::NanValue);
    }

    #[test]
    fn num_accepts_infinities() {
        assert!(Num::new(f64::INFINITY).is_ok());
        assert!(Num::new(f64::NEG_INFINITY).unwrap() < Num::ZERO);
    }

    #[test]
    fn num_total_order() {
        let mut v = [
            Num::new(3.5).unwrap(),
            Num::new(-1.0).unwrap(),
            Num::ZERO,
            Num::new(f64::INFINITY).unwrap(),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|n| n.get()).collect::<Vec<_>>(),
            vec![-1.0, 0.0, 3.5, f64::INFINITY]
        );
    }

    #[test]
    fn negative_zero_normalizes() {
        let a = Num::new(0.0).unwrap();
        let b = Num::new(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn value_as_num_for_arithmetic_kinds() {
        assert_eq!(Value::Int(42).as_num(), Some(Num::from(42i64)));
        assert_eq!(Value::Date(100).as_num(), Some(Num::from(100i64)));
        assert_eq!(
            Value::float(1.5).unwrap().as_num(),
            Some(Num::new(1.5).unwrap())
        );
        assert_eq!(Value::from("x").as_num(), None);
    }

    #[test]
    fn value_wire_size() {
        assert_eq!(Value::from("NYSE").wire_size(4), 4);
        assert_eq!(Value::from("microsoft").wire_size(4), 9);
        assert_eq!(Value::Int(7).wire_size(4), 4);
        assert_eq!(Value::Date(7).wire_size(8), 8);
    }

    #[test]
    fn value_display_nonempty() {
        for v in [
            Value::from(""),
            Value::Int(0),
            Value::float(0.0).unwrap(),
            Value::Date(0),
        ] {
            assert!(!format!("{v}").is_empty());
        }
    }
}
