//! Events: untyped sets of typed attribute–value pairs (paper §2.1, Fig. 2).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::TypeError;
use crate::schema::{AttrId, Schema};
use crate::value::{Num, Value};

/// A published event: a set of attribute values conforming to a [`Schema`].
///
/// An event may carry any subset of the schema's attributes — matching
/// against subscriptions only requires that every *subscription* attribute
/// be present and satisfied; events may carry more (paper §2.1).
///
/// # Example
///
/// ```
/// use subsum_types::{Schema, AttrKind, Event};
/// # fn main() -> Result<(), subsum_types::TypeError> {
/// let schema = Schema::builder()
///     .attr("symbol", AttrKind::String)?
///     .attr("price", AttrKind::Float)?
///     .build();
/// let event = Event::builder(&schema)
///     .str("symbol", "OTE")?
///     .num("price", 8.40)?
///     .build();
/// assert_eq!(event.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Event {
    attrs: BTreeMap<AttrId, Value>,
}

impl Event {
    /// Starts building an event against `schema`.
    pub fn builder(schema: &Schema) -> EventBuilder<'_> {
        EventBuilder {
            schema,
            attrs: BTreeMap::new(),
        }
    }

    /// The value of attribute `attr`, if present.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.attrs.get(&attr)
    }

    /// The number of attributes carried.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if the event carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(attribute, value)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.attrs.iter().map(|(k, v)| (*k, v))
    }

    /// Sets an attribute value without schema validation (decoder
    /// internals; snapshots and wire input carry their schema alongside).
    pub(crate) fn set_raw(&mut self, attr: AttrId, value: Value) {
        self.attrs.insert(attr, value);
    }

    /// The event's size in bytes under the paper's accounting model
    /// (§5.1): per attribute, the name length plus the value size
    /// (strings one byte per character, arithmetic values `arith_width`).
    pub fn wire_size(&self, schema: &Schema, arith_width: usize) -> usize {
        self.attrs
            .iter()
            .map(|(id, v)| schema.spec(*id).name.len() + v.wire_size(arith_width))
            .sum()
    }
}

/// Incremental [`Event`] construction; see [`Event::builder`].
#[derive(Debug)]
pub struct EventBuilder<'a> {
    schema: &'a Schema,
    attrs: BTreeMap<AttrId, Value>,
}

impl EventBuilder<'_> {
    /// Sets a string attribute.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] for undeclared names and
    /// [`TypeError::KindMismatch`] for non-string attributes.
    pub fn str(self, name: &str, value: impl Into<String>) -> Result<Self, TypeError> {
        self.set(name, Value::Str(value.into()))
    }

    /// Sets an arithmetic attribute from a float, coercing to the
    /// attribute's declared kind (integer and date values are rounded).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`], [`TypeError::KindMismatch`]
    /// for string attributes, or [`TypeError::NanValue`].
    pub fn num(self, name: &str, value: f64) -> Result<Self, TypeError> {
        let id = self.schema.require(name)?;
        let v = match self.schema.kind(id) {
            crate::schema::AttrKind::Integer => Value::Int(value.round() as i64),
            crate::schema::AttrKind::Date => Value::Date(value.round() as i64),
            crate::schema::AttrKind::Float => Value::Float(Num::new(value)?),
            crate::schema::AttrKind::String => {
                return Err(TypeError::KindMismatch {
                    attribute: name.to_owned(),
                    expected: crate::schema::AttrKind::String,
                })
            }
        };
        self.set_id(id, v)
    }

    /// Sets an integer attribute.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] or [`TypeError::KindMismatch`].
    pub fn int(self, name: &str, value: i64) -> Result<Self, TypeError> {
        self.set(name, Value::Int(value))
    }

    /// Sets a date attribute (epoch seconds).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] or [`TypeError::KindMismatch`].
    pub fn date(self, name: &str, epoch_seconds: i64) -> Result<Self, TypeError> {
        self.set(name, Value::Date(epoch_seconds))
    }

    /// Sets an attribute from a pre-built [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownAttribute`] or [`TypeError::KindMismatch`].
    pub fn set(self, name: &str, value: Value) -> Result<Self, TypeError> {
        let id = self.schema.require(name)?;
        if !self.schema.kind(id).accepts(&value) {
            return Err(TypeError::KindMismatch {
                attribute: name.to_owned(),
                expected: self.schema.kind(id),
            });
        }
        self.set_id(id, value)
    }

    /// Sets an attribute by id without a kind check (the caller guarantees
    /// the value kind; used by generators on hot paths).
    pub fn set_id(mut self, id: AttrId, value: Value) -> Result<Self, TypeError> {
        self.attrs.insert(id, value);
        Ok(self)
    }

    /// Finalizes the event.
    pub fn build(self) -> Event {
        Event { attrs: self.attrs }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (id, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{id}={v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::stock_schema;

    #[test]
    fn builds_paper_fig2_event() {
        let schema = stock_schema();
        let e = Event::builder(&schema)
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
            .build();
        assert_eq!(e.len(), 7);
        let price = schema.attr_id("price").unwrap();
        assert_eq!(e.get(price).unwrap().as_num(), Num::new(8.40).ok());
    }

    #[test]
    fn unknown_attribute_rejected() {
        let schema = stock_schema();
        let err = Event::builder(&schema).str("nope", "x").unwrap_err();
        assert_eq!(err, TypeError::UnknownAttribute("nope".into()));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let schema = stock_schema();
        assert!(Event::builder(&schema).int("symbol", 3).is_err());
        assert!(Event::builder(&schema).str("price", "8.4").is_err());
        assert!(Event::builder(&schema).num("symbol", 1.0).is_err());
    }

    #[test]
    fn num_coerces_to_declared_kind() {
        let schema = stock_schema();
        let e = Event::builder(&schema)
            .num("volume", 132700.4)
            .unwrap()
            .num("when", 100.0)
            .unwrap()
            .build();
        let volume = schema.attr_id("volume").unwrap();
        let when = schema.attr_id("when").unwrap();
        assert_eq!(e.get(volume), Some(&Value::Int(132700)));
        assert_eq!(e.get(when), Some(&Value::Date(100)));
    }

    #[test]
    fn wire_size_counts_names_and_values() {
        let schema = stock_schema();
        let e = Event::builder(&schema)
            .str("exchange", "NYSE")
            .unwrap()
            .num("price", 8.40)
            .unwrap()
            .build();
        // "exchange"(8) + "NYSE"(4) + "price"(5) + 4 = 21.
        assert_eq!(e.wire_size(&schema, 4), 21);
    }

    #[test]
    fn iter_in_schema_order() {
        let schema = stock_schema();
        let e = Event::builder(&schema)
            .num("price", 1.0)
            .unwrap()
            .str("exchange", "N")
            .unwrap()
            .build();
        let ids: Vec<_> = e.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 3]);
    }
}
