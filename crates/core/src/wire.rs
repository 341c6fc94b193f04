//! Wire format for subscription summaries.
//!
//! This codec produces the byte streams brokers actually exchange during
//! summary propagation; its measured sizes are what the bandwidth
//! experiments (Fig. 8) account, and they track the analytic model of
//! [`stats`](crate::stats) (equations 1 and 2) up to a small fixed header
//! overhead per attribute.
//!
//! Arithmetic values are encoded at the configured `s_st` width — 4 bytes
//! (IEEE-754 single) per Table 2, or 8 bytes for lossless round-trips.
//! Subscription ids are bit-packed per [`IdLayout`], occupying exactly
//! `s_id` bytes each.

use std::fmt;

use subsum_types::{
    AttrId, ByteReader, ByteWriter, DecodeError, IdLayout, Interval, LowerBound, Num, Pattern,
    Schema, SubscriptionId, TypeError, UpperBound,
};

use crate::idlist::SubIdList;
use crate::summary::BrokerSummary;

/// Arithmetic value width on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArithWidth {
    /// 4-byte IEEE-754 single precision — the paper's `s_st = 4`
    /// (Table 2). Values beyond single precision are rounded.
    #[default]
    Four,
    /// 8-byte IEEE-754 double precision — lossless.
    Eight,
}

impl ArithWidth {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            ArithWidth::Four => 4,
            ArithWidth::Eight => 8,
        }
    }
}

/// Errors from [`SummaryCodec::decode`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The byte stream was truncated or structurally malformed.
    Decode(DecodeError),
    /// A decoded component violated the type layer (bad pattern, id
    /// overflow, NaN).
    Type(TypeError),
    /// The version byte is unknown.
    UnsupportedVersion(u8),
    /// An attribute index exceeded the schema.
    AttributeOutOfRange(u16),
    /// A subscription id sat in a row of this attribute although its
    /// `c3` mask does not name the attribute. The matcher skips every id
    /// whose mask names an attribute the event lacks, which is exact
    /// only when no id is posted outside its mask.
    PostingOutsideMask(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "summary decode failed: {e}"),
            WireError::Type(e) => write!(f, "summary decode produced invalid data: {e}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported summary version {v}"),
            WireError::AttributeOutOfRange(a) => {
                write!(f, "attribute index {a} outside the schema")
            }
            WireError::PostingOutsideMask(a) => {
                write!(
                    f,
                    "an id posted under attribute {a} lacks it in its c3 mask"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

impl From<TypeError> for WireError {
    fn from(e: TypeError) -> Self {
        WireError::Type(e)
    }
}

const VERSION: u8 = 1;

/// Arithmetic width wire tags (the byte after the version). Written by
/// the encoder and matched by name in the decoder; the `cargo xtask
/// check` wire-tag lint enforces the pairing.
const TAG_WIDTH_FOUR: u8 = 4;
const TAG_WIDTH_EIGHT: u8 = 8;

/// Encoder/decoder for [`BrokerSummary`] byte streams.
///
/// # Example
///
/// ```
/// use subsum_core::{BrokerSummary, SummaryCodec, ArithWidth};
/// use subsum_types::{stock_schema, IdLayout, Subscription, NumOp,
///                    BrokerId, LocalSubId};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = stock_schema();
/// let layout = IdLayout::new(24, 1000, schema.len() as u32)?;
/// let codec = SummaryCodec::new(layout, ArithWidth::Eight);
///
/// let mut summary = BrokerSummary::new(schema.clone());
/// let sub = Subscription::builder(&schema)
///     .num("price", NumOp::Gt, 8.30)?
///     .build()?;
/// summary.insert(BrokerId(3), LocalSubId(7), &sub);
///
/// let bytes = codec.encode(&summary)?;
/// let decoded = codec.decode(&bytes, &schema)?;
/// assert_eq!(decoded, summary);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryCodec {
    layout: IdLayout,
    width: ArithWidth,
}

impl SummaryCodec {
    /// Creates a codec for the given id layout and arithmetic width.
    pub fn new(layout: IdLayout, width: ArithWidth) -> Self {
        SummaryCodec { layout, width }
    }

    /// The id layout in force.
    pub fn layout(&self) -> IdLayout {
        self.layout
    }

    /// Serializes a summary.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if a subscription id exceeds the
    /// codec's layout.
    pub fn encode(&self, summary: &BrokerSummary) -> Result<Vec<u8>, TypeError> {
        let mut w = ByteWriter::new();
        w.u8(VERSION);
        w.u8(match self.width {
            ArithWidth::Four => TAG_WIDTH_FOUR,
            ArithWidth::Eight => TAG_WIDTH_EIGHT,
        });
        let schema = summary.schema();

        // Row postings are dense ids internal to the summary; the wire
        // stays representation-free, so each list is resolved to full
        // subscription ids through one reused buffer before encoding.
        let mut resolved = SubIdList::new();

        let arith_attrs: Vec<_> = schema
            .arithmetic_attrs()
            .filter_map(|a| summary.arith_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
            .collect();
        w.u16(arith_attrs.len() as u16);
        for (attr, s) in arith_attrs {
            w.u16(attr.0);
            w.u32(s.range_rows() as u32);
            w.u32(s.point_rows() as u32);
            for row in s.ranges() {
                self.put_interval(&mut w, &row.interval);
                summary.resolve_postings(&row.ids, &mut resolved);
                self.put_idlist(&mut w, &resolved)?;
            }
            for (v, ids) in s.points() {
                self.put_num(&mut w, v);
                summary.resolve_postings(ids, &mut resolved);
                self.put_idlist(&mut w, &resolved)?;
            }
        }

        let string_attrs: Vec<_> = schema
            .string_attrs()
            .filter_map(|a| summary.string_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
            .collect();
        w.u16(string_attrs.len() as u16);
        for (attr, s) in string_attrs {
            w.u16(attr.0);
            w.u32(s.row_count() as u32);
            for (pattern, ids) in s.rows() {
                w.str16(&pattern.to_string());
                summary.resolve_postings(ids, &mut resolved);
                self.put_idlist(&mut w, &resolved)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// The exact byte size [`SummaryCodec::encode`] would produce,
    /// computed arithmetically — no encode pass, no allocation. The
    /// chaos and bandwidth accounting paths call this per message, so
    /// sizing must not cost an encode of the full summary.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] under the same conditions as
    /// `encode`.
    pub fn encoded_len(&self, summary: &BrokerSummary) -> Result<usize, TypeError> {
        let id_len = self.layout.byte_len();
        let num_len = self.width.bytes();
        let dense_ids = summary.intern_table();
        // An id list costs a u32 count plus `s_id` bytes per id; overflow
        // is checked per id so the error conditions match `encode`.
        let idlist_len = |ids: &[crate::idlist::DenseId]| -> Result<usize, TypeError> {
            for &d in ids {
                self.layout.encode(dense_ids.resolve(d))?;
            }
            // BOUND: in-memory id-list sizes are far below usize::MAX.
            Ok(4 + ids.len() * id_len)
        };
        let schema = summary.schema();
        let mut len = 1 + 1 + 2; // BOUND: version + width tag + arith attr count

        for (_, s) in schema
            .arithmetic_attrs()
            .filter_map(|a| summary.arith_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
        {
            len += 2 + 4 + 4; // BOUND: attr + range count + point count
            for row in s.ranges() {
                // Per-row byte counts are far below usize::MAX.
                // BOUND: 0..=2 finite interval endpoints.
                let finite = usize::from(!matches!(row.interval.lo(), LowerBound::NegInf))
                    + usize::from(!matches!(row.interval.hi(), UpperBound::PosInf));
                // BOUND: as above.
                len += 1 + finite * num_len + idlist_len(&row.ids)?;
            }
            for (_, ids) in s.points() {
                len += num_len + idlist_len(ids)?; // BOUND: one point row
            }
        }

        len += 2; // BOUND: string attr count
        for (_, s) in schema
            .string_attrs()
            .filter_map(|a| summary.string_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
        {
            len += 2 + 4; // BOUND: attr + row count
            for (pattern, ids) in s.rows() {
                len += 2 + pattern.wire_size() + idlist_len(ids)?; // BOUND: one row
            }
        }
        Ok(len)
    }

    /// Deserializes a summary over `schema`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the stream is truncated, of an unknown
    /// version, or structurally invalid for the schema.
    pub fn decode(&self, bytes: &[u8], schema: &Schema) -> Result<BrokerSummary, WireError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let width = match r.u8()? {
            TAG_WIDTH_FOUR => ArithWidth::Four,
            TAG_WIDTH_EIGHT => ArithWidth::Eight,
            _ => return Err(WireError::Decode(DecodeError::Malformed("arith width"))),
        };
        let mut summary = BrokerSummary::new(schema.clone());

        // Two-phase decode: first collect every row with its full
        // subscription ids, then hand the batch to the summary so it can
        // rebuild its dense-id state once, linearly, over the union.
        let mut arith_rows = Vec::new();
        let mut point_rows = Vec::new();
        let mut string_rows = Vec::new();

        let n_arith = r.u16()?;
        for _ in 0..n_arith {
            let attr = r.u16()?;
            if attr as usize >= schema.len() {
                return Err(WireError::AttributeOutOfRange(attr));
            }
            let attr = AttrId(attr);
            let n_ranges = r.u32()?;
            let n_points = r.u32()?;
            for _ in 0..n_ranges {
                let iv = self.get_interval(&mut r, width)?;
                let ids = self.get_idlist(&mut r, attr)?;
                arith_rows.push((attr, iv, ids));
            }
            for _ in 0..n_points {
                let v = self.get_num(&mut r, width)?;
                let ids = self.get_idlist(&mut r, attr)?;
                point_rows.push((attr, v, ids));
            }
        }

        let n_str = r.u16()?;
        for _ in 0..n_str {
            let attr = r.u16()?;
            if attr as usize >= schema.len() {
                return Err(WireError::AttributeOutOfRange(attr));
            }
            let attr = AttrId(attr);
            let n_rows = r.u32()?;
            for _ in 0..n_rows {
                let text = r.str16()?.to_owned();
                let pattern = Pattern::parse(&text)?;
                let ids = self.get_idlist(&mut r, attr)?;
                string_rows.push((attr, pattern, ids));
            }
        }
        summary.install_decoded_rows(&arith_rows, &point_rows, &string_rows);
        Ok(summary)
    }

    fn put_num(&self, w: &mut ByteWriter, v: Num) {
        match self.width {
            ArithWidth::Four => w.u32((v.get() as f32).to_bits()),
            ArithWidth::Eight => w.f64(v.get()),
        }
    }

    fn get_num(&self, r: &mut ByteReader<'_>, width: ArithWidth) -> Result<Num, WireError> {
        let raw = match width {
            ArithWidth::Four => f32::from_bits(r.u32()?) as f64,
            ArithWidth::Eight => r.f64()?,
        };
        Ok(Num::new(raw)?)
    }

    fn put_interval(&self, w: &mut ByteWriter, iv: &Interval) {
        let mut flags = 0u8;
        let (lo_val, lo_flags) = match iv.lo() {
            LowerBound::NegInf => (None, 0b0001),
            LowerBound::Incl(v) => (Some(v), 0b0010),
            LowerBound::Excl(v) => (Some(v), 0),
        };
        let (hi_val, hi_flags) = match iv.hi() {
            UpperBound::PosInf => (None, 0b0100),
            UpperBound::Incl(v) => (Some(v), 0b1000),
            UpperBound::Excl(v) => (Some(v), 0),
        };
        flags |= lo_flags | hi_flags;
        w.u8(flags);
        if let Some(v) = lo_val {
            self.put_num(w, v);
        }
        if let Some(v) = hi_val {
            self.put_num(w, v);
        }
    }

    fn get_interval(
        &self,
        r: &mut ByteReader<'_>,
        width: ArithWidth,
    ) -> Result<Interval, WireError> {
        let flags = r.u8()?;
        let lo = if flags & 0b0001 != 0 {
            LowerBound::NegInf
        } else {
            let v = self.get_num(r, width)?;
            if flags & 0b0010 != 0 {
                LowerBound::Incl(v)
            } else {
                LowerBound::Excl(v)
            }
        };
        let hi = if flags & 0b0100 != 0 {
            UpperBound::PosInf
        } else {
            let v = self.get_num(r, width)?;
            if flags & 0b1000 != 0 {
                UpperBound::Incl(v)
            } else {
                UpperBound::Excl(v)
            }
        };
        Ok(Interval::new(lo, hi))
    }

    fn put_idlist(&self, w: &mut ByteWriter, ids: &[SubscriptionId]) -> Result<(), TypeError> {
        w.u32(ids.len() as u32);
        let mut buf = Vec::with_capacity(self.layout.byte_len());
        for &id in ids {
            buf.clear();
            self.layout.encode_bytes(id, &mut buf)?;
            w.bytes(&buf);
        }
        Ok(())
    }

    /// Reads the id list of one row of attribute `attr`, refusing an id
    /// whose `c3` mask does not name `attr`.
    fn get_idlist(&self, r: &mut ByteReader<'_>, attr: AttrId) -> Result<SubIdList, WireError> {
        let n = r.u32()? as usize;
        let id_len = self.layout.byte_len();
        let mut out = SubIdList::with_capacity(n.min(4096));
        for _ in 0..n {
            let raw = r.bytes(id_len)?;
            let (id, _) = self
                .layout
                .decode_bytes(raw)
                .ok_or(WireError::Decode(DecodeError::UnexpectedEnd))?;
            if !id.mask.contains(attr) {
                return Err(WireError::PostingOutsideMask(attr.0));
            }
            out.push(id);
        }
        // Wire input is untrusted: restore the sorted-dedup invariant the
        // summary structures rely on (well-formed streams are already
        // sorted, making this a no-op check).
        // BOUND: windows(2) slices always hold exactly two elements.
        if !out.windows(2).all(|w| w[0] < w[1]) {
            out.sort_unstable();
            out.dedup();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp, Subscription};

    fn codec(schema: &Schema, width: ArithWidth) -> SummaryCodec {
        let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
        SummaryCodec::new(layout, width)
    }

    fn sample_summary(schema: &Schema) -> BrokerSummary {
        let mut summary = BrokerSummary::new(schema.clone());
        let s1 = Subscription::builder(schema)
            .str_pattern("exchange", "N*SE")
            .unwrap()
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .num("price", NumOp::Lt, 8.75)
            .unwrap()
            .num("price", NumOp::Gt, 8.25)
            .unwrap()
            .build()
            .unwrap();
        let s2 = Subscription::builder(schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .num("price", NumOp::Eq, 8.25)
            .unwrap()
            .num("volume", NumOp::Gt, 130000.0)
            .unwrap()
            .build()
            .unwrap();
        summary.insert(BrokerId(3), LocalSubId(1), &s1);
        summary.insert(BrokerId(5), LocalSubId(2), &s2);
        summary
    }

    #[test]
    fn roundtrip_lossless_width8() {
        let schema = stock_schema();
        let summary = sample_summary(&schema);
        let c = codec(&schema, ArithWidth::Eight);
        let bytes = c.encode(&summary).unwrap();
        let decoded = c.decode(&bytes, &schema).unwrap();
        assert_eq!(decoded, summary);
    }

    #[test]
    fn roundtrip_width4_preserves_f32_values() {
        let schema = stock_schema();
        // Quarter fractions and small integers are f32-exact.
        let summary = sample_summary(&schema);
        let c = codec(&schema, ArithWidth::Four);
        let bytes = c.encode(&summary).unwrap();
        let decoded = c.decode(&bytes, &schema).unwrap();
        assert_eq!(decoded, summary);
        // The 4-byte stream is strictly smaller.
        let c8 = codec(&schema, ArithWidth::Eight);
        assert!(bytes.len() < c8.encode(&summary).unwrap().len());
    }

    #[test]
    fn empty_summary_roundtrip() {
        let schema = stock_schema();
        let summary = BrokerSummary::new(schema.clone());
        let c = codec(&schema, ArithWidth::Four);
        let bytes = c.encode(&summary).unwrap();
        assert_eq!(c.decode(&bytes, &schema).unwrap(), summary);
        // Header: version + width + two zero counters.
        assert_eq!(bytes.len(), 1 + 1 + 2 + 2);
    }

    #[test]
    fn truncated_stream_errors() {
        let schema = stock_schema();
        let summary = sample_summary(&schema);
        let c = codec(&schema, ArithWidth::Eight);
        let bytes = c.encode(&summary).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                c.decode(&bytes[..cut], &schema).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Four);
        let err = c.decode(&[9, 4, 0, 0, 0, 0], &schema).unwrap_err();
        assert_eq!(err, WireError::UnsupportedVersion(9));
    }

    #[test]
    fn attribute_out_of_range_rejected() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Four);
        let mut w = ByteWriter::new();
        w.u8(1); // version
        w.u8(4); // width
        w.u16(1); // one arithmetic attr
        w.u16(99); // bogus attribute index
        w.u32(0);
        w.u32(0);
        w.u16(0);
        let err = c.decode(&w.into_bytes(), &schema).unwrap_err();
        assert_eq!(err, WireError::AttributeOutOfRange(99));
    }

    #[test]
    fn an_id_posted_outside_its_mask_is_rejected() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Four);
        let price = schema.attr_id("price").unwrap();
        let volume = schema.attr_id("volume").unwrap();
        // A `price` row holding an id whose mask names `volume` only.
        let stray = SubscriptionId::new(BrokerId(1), LocalSubId(2), [volume].into_iter().collect());
        let mut w = ByteWriter::new();
        w.u8(VERSION);
        w.u8(TAG_WIDTH_FOUR);
        w.u16(1); // one arithmetic attr
        w.u16(price.0);
        w.u32(0); // no ranges
        w.u32(1); // one point
        w.u32(8.25f32.to_bits());
        c.put_idlist(&mut w, &[stray]).unwrap();
        w.u16(0); // no string attrs
        let err = c.decode(&w.into_bytes(), &schema).unwrap_err();
        assert_eq!(err, WireError::PostingOutsideMask(price.0));
    }

    #[test]
    fn size_tracks_analytic_model() {
        use crate::stats::{SizeParams, SummaryStats};
        let schema = stock_schema();
        let summary = sample_summary(&schema);
        let c = codec(&schema, ArithWidth::Four);
        let measured = c.encoded_len(&summary).unwrap();
        let analytic = SummaryStats::of(&summary).total_size(SizeParams::default());
        // The wire stream adds per-attribute headers, interval flags and
        // list length prefixes; it must stay within a small factor of the
        // analytic size and never undercount.
        assert!(measured >= analytic);
        assert!(
            measured <= 2 * analytic + 64,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn decode_of_merged_summaries_roundtrips() {
        let schema = stock_schema();
        let mut a = sample_summary(&schema);
        let mut b = BrokerSummary::new(schema.clone());
        let s3 = Subscription::builder(&schema)
            .num("low", NumOp::Lt, 8.0)
            .unwrap()
            .build()
            .unwrap();
        b.insert(BrokerId(7), LocalSubId(9), &s3);
        a.merge(&b);
        let c = codec(&schema, ArithWidth::Eight);
        let bytes = c.encode(&a).unwrap();
        assert_eq!(c.decode(&bytes, &schema).unwrap(), a);
    }
}
