//! Wire codec for raw subscriptions.
//!
//! Summaries have their own codec in `subsum-core`; this one serializes
//! *exact* subscriptions, used by (a) the baselines, which ship raw
//! subscriptions, (b) broker checkpoints, which persist each broker's
//! exact store for recovery, and (c) the client protocol.
//!
//! Format (all integers big-endian):
//!
//! ```text
//! sub_id       := u16 broker, u32 local, u64 mask   (14 bytes, fixed)
//!
//! subscription := u16 n_constraints, constraint*
//! constraint   := u16 attr, u8 tag, operand
//! tag          := 0..=5 NumOp(Eq Ne Lt Le Gt Ge)  → f64 operand
//!               | 6 Str pattern                   → str16 rendered glob
//!               | 7 StrNe                         → str16 literal
//!
//! event        := u16 n_attrs, attr_value*
//! attr_value   := u16 attr, u8 kind, value
//! kind         := 0 Str → str16 | 1 Int → u64(two's complement)
//!               | 2 Float → f64 | 3 Date → u64(two's complement)
//! ```

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::constraint::{Constraint, NumOp, Predicate};
use crate::event::Event;
use crate::id::{AttrMask, BrokerId, LocalSubId, SubscriptionId};
use crate::pattern::Pattern;
use crate::schema::{AttrId, MAX_ATTRIBUTES};
use crate::subscription::Subscription;
use crate::value::Num;
use crate::value::Value;

/// Constraint wire tags. Each tag is written by exactly one encoder arm
/// and matched by name in the decoder; the `cargo xtask check` wire-tag
/// lint rejects a tag constant that is not referenced on both sides.
const TAG_NUM_EQ: u8 = 0;
const TAG_NUM_NE: u8 = 1;
const TAG_NUM_LT: u8 = 2;
const TAG_NUM_LE: u8 = 3;
const TAG_NUM_GT: u8 = 4;
const TAG_NUM_GE: u8 = 5;
const TAG_STR_PATTERN: u8 = 6;
const TAG_STR_NE: u8 = 7;

/// Event value kind tags, paired the same way.
const KIND_STR: u8 = 0;
const KIND_INT: u8 = 1;
const KIND_FLOAT: u8 = 2;
const KIND_DATE: u8 = 3;

impl SubscriptionId {
    /// Writes the id at full width (14 bytes), independent of any
    /// [`IdLayout`](crate::IdLayout): checkpoints and the client
    /// protocol carry ids this way.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u16(self.broker.0);
        w.u32(self.local.0);
        w.u64(self.mask.0);
    }

    /// Reads an id written by [`SubscriptionId::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<SubscriptionId, DecodeError> {
        Ok(SubscriptionId::new(
            BrokerId(r.u16()?),
            LocalSubId(r.u32()?),
            AttrMask(r.u64()?),
        ))
    }
}

impl Subscription {
    /// Serializes the subscription to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u16(self.constraints().len() as u16);
        for c in self.constraints() {
            w.u16(c.attr.0);
            match &c.pred {
                Predicate::Num(op, v) => {
                    let tag = match op {
                        NumOp::Eq => TAG_NUM_EQ,
                        NumOp::Ne => TAG_NUM_NE,
                        NumOp::Lt => TAG_NUM_LT,
                        NumOp::Le => TAG_NUM_LE,
                        NumOp::Gt => TAG_NUM_GT,
                        NumOp::Ge => TAG_NUM_GE,
                    };
                    w.u8(tag);
                    w.f64(v.get());
                }
                Predicate::Str(p) => {
                    w.u8(TAG_STR_PATTERN);
                    w.str16(&p.to_string());
                }
                Predicate::StrNe(s) => {
                    w.u8(TAG_STR_NE);
                    w.str16(s);
                }
            }
        }
    }

    /// Deserializes a subscription written by [`Subscription::encode`].
    ///
    /// No schema travels with it: check the result against the
    /// receiver's with [`Subscription::check`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Subscription, DecodeError> {
        let n = r.u16()? as usize;
        let mut constraints = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let attr = AttrId(r.u16()?);
            // The `c3` mask has one bit per attribute id, and none past
            // its width to set.
            if attr.index() >= MAX_ATTRIBUTES {
                return Err(DecodeError::Malformed("attribute id beyond the mask width"));
            }
            let tag = r.u8()?;
            let pred = match tag {
                TAG_NUM_EQ | TAG_NUM_NE | TAG_NUM_LT | TAG_NUM_LE | TAG_NUM_GT | TAG_NUM_GE => {
                    let op = match tag {
                        TAG_NUM_EQ => NumOp::Eq,
                        TAG_NUM_NE => NumOp::Ne,
                        TAG_NUM_LT => NumOp::Lt,
                        TAG_NUM_LE => NumOp::Le,
                        TAG_NUM_GT => NumOp::Gt,
                        _ => NumOp::Ge,
                    };
                    let v =
                        Num::new(r.f64()?).map_err(|_| DecodeError::Malformed("NaN operand"))?;
                    Predicate::Num(op, v)
                }
                TAG_STR_PATTERN => {
                    let text = r.str16()?;
                    let p =
                        Pattern::parse(text).map_err(|_| DecodeError::Malformed("glob pattern"))?;
                    Predicate::Str(p)
                }
                TAG_STR_NE => Predicate::StrNe(r.str16()?.to_owned()),
                _ => return Err(DecodeError::Malformed("constraint tag")),
            };
            constraints.push(Constraint { attr, pred });
        }
        Subscription::from_constraints(constraints)
            .map_err(|_| DecodeError::Malformed("empty subscription"))
    }
}

impl Event {
    /// Serializes the event to `w` — the payload brokers forward during
    /// event routing.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u16(self.len() as u16);
        for (attr, value) in self.iter() {
            w.u16(attr.0);
            match value {
                Value::Str(s) => {
                    w.u8(KIND_STR);
                    w.str16(s);
                }
                Value::Int(v) => {
                    w.u8(KIND_INT);
                    w.u64(*v as u64);
                }
                Value::Float(v) => {
                    w.u8(KIND_FLOAT);
                    w.f64(v.get());
                }
                Value::Date(v) => {
                    w.u8(KIND_DATE);
                    w.u64(*v as u64);
                }
            }
        }
    }

    /// Deserializes an event written by [`Event::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Event, DecodeError> {
        let n = r.u16()? as usize;
        let mut event = Event::default();
        for _ in 0..n {
            let attr = AttrId(r.u16()?);
            // Matching folds the event's attributes into a `c3` mask.
            if attr.index() >= MAX_ATTRIBUTES {
                return Err(DecodeError::Malformed("attribute id beyond the mask width"));
            }
            let value = match r.u8()? {
                KIND_STR => Value::Str(r.str16()?.to_owned()),
                KIND_INT => Value::Int(r.u64()? as i64),
                KIND_FLOAT => {
                    Value::float(r.f64()?).map_err(|_| DecodeError::Malformed("NaN event value"))?
                }
                KIND_DATE => Value::Date(r.u64()? as i64),
                _ => return Err(DecodeError::Malformed("value kind")),
            };
            event.set_raw(attr, value);
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::stock_schema;
    use crate::StrOp;

    fn roundtrip(sub: &Subscription) -> Subscription {
        let mut w = ByteWriter::new();
        sub.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = Subscription::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        decoded
    }

    #[test]
    fn roundtrip_mixed_constraints() {
        let schema = stock_schema();
        let sub = Subscription::builder(&schema)
            .str_pattern("exchange", "N*SE")
            .unwrap()
            .str_op("symbol", StrOp::Ne, "IBM")
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .num("volume", NumOp::Ge, 130000.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(roundtrip(&sub), sub);
    }

    #[test]
    fn roundtrip_all_num_ops() {
        let schema = stock_schema();
        for op in [
            NumOp::Eq,
            NumOp::Ne,
            NumOp::Lt,
            NumOp::Le,
            NumOp::Gt,
            NumOp::Ge,
        ] {
            let sub = Subscription::builder(&schema)
                .num("price", op, -3.25)
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(roundtrip(&sub), sub);
        }
    }

    #[test]
    fn roundtrip_all_str_ops() {
        let schema = stock_schema();
        for op in [
            StrOp::Eq,
            StrOp::Ne,
            StrOp::Prefix,
            StrOp::Suffix,
            StrOp::Contains,
        ] {
            let sub = Subscription::builder(&schema)
                .str_op("symbol", op, "OT")
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(roundtrip(&sub), sub);
        }
    }

    #[test]
    fn event_roundtrip() {
        use crate::event::Event;
        let schema = stock_schema();
        let e = Event::builder(&schema)
            .str("exchange", "NYSE")
            .unwrap()
            .str("symbol", "OTE")
            .unwrap()
            .date("when", 1_057_055_125)
            .unwrap()
            .num("price", 8.40)
            .unwrap()
            .int("volume", -5)
            .unwrap()
            .build();
        let mut w = ByteWriter::new();
        e.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = Event::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded, e);
    }

    #[test]
    fn event_bad_input_rejected() {
        use crate::event::Event;
        let mut w = ByteWriter::new();
        w.u16(1);
        w.u16(0);
        w.u8(9); // bad kind
        let bytes = w.into_bytes();
        assert!(Event::decode(&mut ByteReader::new(&bytes)).is_err());
        assert!(Event::decode(&mut ByteReader::new(&[0])).is_err());
        // An attribute the `c3` mask has no bit for.
        let mut w = ByteWriter::new();
        w.u16(1);
        w.u16(MAX_ATTRIBUTES as u16);
        w.u8(KIND_INT);
        w.u64(1);
        let bytes = w.into_bytes();
        assert_eq!(
            Event::decode(&mut ByteReader::new(&bytes)),
            Err(DecodeError::Malformed("attribute id beyond the mask width"))
        );
    }

    #[test]
    fn bad_input_rejected() {
        // Bad tag.
        let mut w = ByteWriter::new();
        w.u16(1);
        w.u16(0);
        w.u8(99);
        let bytes = w.into_bytes();
        assert!(Subscription::decode(&mut ByteReader::new(&bytes)).is_err());
        // Truncation.
        let schema = stock_schema();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let mut w = ByteWriter::new();
        sub.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Subscription::decode(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
        // An attribute the `c3` mask has no bit for.
        let mut w = ByteWriter::new();
        w.u16(1);
        w.u16(MAX_ATTRIBUTES as u16);
        w.u8(TAG_NUM_LT);
        w.f64(1.0);
        let bytes = w.into_bytes();
        assert_eq!(
            Subscription::decode(&mut ByteReader::new(&bytes)),
            Err(DecodeError::Malformed("attribute id beyond the mask width"))
        );
        // Zero constraints.
        let mut w = ByteWriter::new();
        w.u16(0);
        let bytes = w.into_bytes();
        assert!(Subscription::decode(&mut ByteReader::new(&bytes)).is_err());
    }
}
