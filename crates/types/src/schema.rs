//! Attribute schemata: the ordered, system-wide set of typed attributes.
//!
//! The paper (§3) assumes that (i) a named attribute has a single data
//! type, (ii) the set of attributes is predefined, and (iii) the set is
//! ordered and known to every broker. [`Schema`] captures exactly this
//! contract: an immutable, ordered list of `(name, kind)` pairs shared by
//! all brokers of a system.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::TypeError;
use crate::value::Value;

/// Maximum number of attributes per schema, fixed by the width of the
/// `c3` attribute bit mask (see [`AttrMask`](crate::AttrMask)).
pub const MAX_ATTRIBUTES: usize = 64;

/// The primitive kind of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// UTF-8 string, summarized via SACS.
    String,
    /// 64-bit signed integer, summarized via AACS.
    Integer,
    /// Finite 64-bit float, summarized via AACS.
    Float,
    /// Date (epoch seconds), summarized via AACS.
    Date,
}

impl AttrKind {
    /// Returns `true` for kinds summarized by the arithmetic structure
    /// (AACS): integers, floats and dates.
    pub fn is_arithmetic(self) -> bool {
        !matches!(self, AttrKind::String)
    }

    /// Returns `true` if `value` is acceptable for this kind.
    pub fn accepts(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (AttrKind::String, Value::Str(_))
                | (AttrKind::Integer, Value::Int(_))
                | (AttrKind::Float, Value::Float(_))
                | (AttrKind::Date, Value::Date(_))
        )
    }
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrKind::String => "string",
            AttrKind::Integer => "integer",
            AttrKind::Float => "float",
            AttrKind::Date => "date",
        };
        f.write_str(s)
    }
}

/// Index of an attribute within its [`Schema`] (position in the ordered
/// attribute list). Doubles as the attribute's bit position in the `c3`
/// component of subscription ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute's position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The declaration of a single attribute: name and kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeSpec {
    /// The attribute's unique name.
    pub name: String,
    /// The attribute's primitive kind.
    pub kind: AttrKind,
}

/// An immutable, ordered attribute schema shared by every broker.
///
/// Cheap to clone (`Arc` internally). Build with [`Schema::builder`].
///
/// # Example
///
/// ```
/// use subsum_types::{Schema, AttrKind};
/// # fn main() -> Result<(), subsum_types::TypeError> {
/// let schema = Schema::builder()
///     .attr("symbol", AttrKind::String)?
///     .attr("price", AttrKind::Float)?
///     .build();
/// assert_eq!(schema.len(), 2);
/// let price = schema.attr_id("price").unwrap();
/// assert!(schema.spec(price).kind.is_arithmetic());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug)]
struct SchemaInner {
    attrs: Vec<AttributeSpec>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { attrs: Vec::new() }
    }

    /// The number of attributes.
    pub fn len(&self) -> usize {
        self.inner.attrs.len()
    }

    /// Returns `true` if the schema declares no attributes.
    pub fn is_empty(&self) -> bool {
        self.inner.attrs.is_empty()
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.inner.by_name.get(name).copied()
    }

    /// Looks up an attribute id by name, or errors.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] if the name is undeclared.
    pub fn require(&self, name: &str) -> Result<AttrId, TypeError> {
        self.attr_id(name)
            .ok_or_else(|| TypeError::UnknownAttribute(name.to_owned()))
    }

    /// The declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this schema.
    pub fn spec(&self, id: AttrId) -> &AttributeSpec {
        &self.inner.attrs[id.index()]
    }

    /// The kind of attribute `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this schema.
    pub fn kind(&self, id: AttrId) -> AttrKind {
        self.spec(id).kind
    }

    /// Iterates over `(id, spec)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttributeSpec)> {
        self.inner
            .attrs
            .iter()
            .enumerate()
            .map(|(i, s)| (AttrId(i as u16), s))
    }

    /// Iterates over the ids of arithmetic attributes.
    pub fn arithmetic_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.iter()
            .filter(|(_, s)| s.kind.is_arithmetic())
            .map(|(id, _)| id)
    }

    /// Iterates over the ids of string attributes.
    pub fn string_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.iter()
            .filter(|(_, s)| !s.kind.is_arithmetic())
            .map(|(id, _)| id)
    }

    /// Structural equality check used to verify that two brokers share a
    /// schema before exchanging summaries.
    pub fn is_compatible(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.attrs == other.inner.attrs
    }

    /// Returns `true` if `self` extends `base`: same attributes in the
    /// same order, possibly with more appended. Append-only extension is
    /// the paper's dynamic-schema evolution (§6): existing attribute ids
    /// and `c3` masks stay valid; only the mask widens.
    pub fn is_extension_of(&self, base: &Schema) -> bool {
        self.inner.attrs.len() >= base.inner.attrs.len()
            && self.inner.attrs[..base.inner.attrs.len()] == base.inner.attrs[..]
    }

    /// Starts building an extended schema containing all of this schema's
    /// attributes; see [`Schema::is_extension_of`].
    ///
    /// # Example
    ///
    /// ```
    /// use subsum_types::{Schema, AttrKind};
    /// # fn main() -> Result<(), subsum_types::TypeError> {
    /// let v1 = Schema::builder().attr("price", AttrKind::Float)?.build();
    /// let v2 = v1.to_builder().attr("currency", AttrKind::String)?.build();
    /// assert!(v2.is_extension_of(&v1));
    /// assert_eq!(v2.attr_id("price"), v1.attr_id("price"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_builder(&self) -> SchemaBuilder {
        SchemaBuilder {
            attrs: self.inner.attrs.clone(),
        }
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.is_compatible(other)
    }
}

impl Eq for Schema {}

/// Incremental [`Schema`] construction; see [`Schema::builder`].
#[derive(Debug)]
pub struct SchemaBuilder {
    attrs: Vec<AttributeSpec>,
}

impl SchemaBuilder {
    /// Declares an attribute.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::DuplicateAttribute`] if `name` repeats, or
    /// [`TypeError::TooManyAttributes`] past [`MAX_ATTRIBUTES`].
    pub fn attr(mut self, name: impl Into<String>, kind: AttrKind) -> Result<Self, TypeError> {
        let name = name.into();
        if self.attrs.iter().any(|a| a.name == name) {
            return Err(TypeError::DuplicateAttribute(name));
        }
        if self.attrs.len() >= MAX_ATTRIBUTES {
            return Err(TypeError::TooManyAttributes(self.attrs.len() + 1));
        }
        self.attrs.push(AttributeSpec { name, kind });
        Ok(self)
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        let by_name = self
            .attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), AttrId(i as u16)))
            .collect();
        Schema {
            inner: Arc::new(SchemaInner {
                attrs: self.attrs,
                by_name,
            }),
        }
    }
}

/// The stock-quote schema used throughout the paper's examples
/// (Fig. 2): `exchange`, `symbol`, `when`, `price`, `volume`, `high`,
/// `low`.
#[expect(
    clippy::expect_used,
    reason = "seven distinct literal names: the builder cannot reject them"
)]
pub fn stock_schema() -> Schema {
    Schema::builder()
        .attr("exchange", AttrKind::String)
        .and_then(|b| b.attr("symbol", AttrKind::String))
        .and_then(|b| b.attr("when", AttrKind::Date))
        .and_then(|b| b.attr("price", AttrKind::Float))
        .and_then(|b| b.attr("volume", AttrKind::Integer))
        .and_then(|b| b.attr("high", AttrKind::Float))
        .and_then(|b| b.attr("low", AttrKind::Float))
        .expect("stock schema is valid")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_indexes() {
        let s = stock_schema();
        assert_eq!(s.len(), 7);
        assert_eq!(s.attr_id("exchange"), Some(AttrId(0)));
        assert_eq!(s.attr_id("low"), Some(AttrId(6)));
        assert_eq!(s.attr_id("nope"), None);
        assert_eq!(s.spec(AttrId(3)).name, "price");
        assert_eq!(s.kind(AttrId(3)), AttrKind::Float);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Schema::builder()
            .attr("a", AttrKind::Float)
            .unwrap()
            .attr("a", AttrKind::String)
            .unwrap_err();
        assert_eq!(err, TypeError::DuplicateAttribute("a".into()));
    }

    #[test]
    fn too_many_attributes_rejected() {
        let mut b = Schema::builder();
        for i in 0..MAX_ATTRIBUTES {
            b = b.attr(format!("a{i}"), AttrKind::Float).unwrap();
        }
        let err = b.attr("overflow", AttrKind::Float).unwrap_err();
        assert!(matches!(err, TypeError::TooManyAttributes(_)));
    }

    #[test]
    fn arithmetic_and_string_partitions() {
        let s = stock_schema();
        let arith: Vec<_> = s.arithmetic_attrs().collect();
        let strs: Vec<_> = s.string_attrs().collect();
        assert_eq!(arith.len(), 5);
        assert_eq!(strs.len(), 2);
        assert_eq!(arith.len() + strs.len(), s.len());
    }

    #[test]
    fn kind_accepts_values() {
        use crate::Value;
        assert!(AttrKind::String.accepts(&Value::from("x")));
        assert!(!AttrKind::String.accepts(&Value::Int(1)));
        assert!(AttrKind::Integer.accepts(&Value::Int(1)));
        assert!(AttrKind::Float.accepts(&Value::float(1.0).unwrap()));
        assert!(!AttrKind::Float.accepts(&Value::Int(1)));
        assert!(AttrKind::Date.accepts(&Value::Date(0)));
    }

    #[test]
    fn compatibility_is_structural() {
        let a = stock_schema();
        let b = stock_schema();
        assert!(a.is_compatible(&b));
        assert_eq!(a, b);
        let c = Schema::builder()
            .attr("x", AttrKind::Float)
            .unwrap()
            .build();
        assert!(!a.is_compatible(&c));
    }

    #[test]
    fn extension_semantics() {
        let v1 = stock_schema();
        let v2 = v1
            .to_builder()
            .attr("currency", AttrKind::String)
            .unwrap()
            .build();
        assert!(v2.is_extension_of(&v1));
        assert!(v1.is_extension_of(&v1));
        assert!(!v1.is_extension_of(&v2));
        assert_eq!(v2.len(), v1.len() + 1);
        // Existing ids unchanged.
        for (id, spec) in v1.iter() {
            assert_eq!(v2.attr_id(&spec.name), Some(id));
        }
        // A reordered schema is not an extension.
        let other = Schema::builder()
            .attr("symbol", AttrKind::String)
            .unwrap()
            .attr("exchange", AttrKind::String)
            .unwrap()
            .build();
        assert!(!other.is_extension_of(&v1));
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let a = stock_schema();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
