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

use std::fmt::{self, Write as _};
use std::ops::Range;

use subsum_types::{
    AttrId, ByteReader, ByteWriter, DecodeError, IdLayout, Interval, LowerBound, Num, Pattern,
    Schema, TypeError, UpperBound,
};

use crate::idlist::{DenseId, IdList, SubIdList};
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
    /// An equality row of this attribute lies inside a sub-range row
    /// that shares an id with it. The matcher counts each arithmetic
    /// attribute once per id without deduplicating, which is exact only
    /// when no id is posted under both.
    PointInsideRange(u16),
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
            WireError::PointInsideRange(a) => {
                write!(
                    f,
                    "an equality row of attribute {a} lies inside a sub-range row sharing its id"
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

/// A decoded stream, ready to install: the sorted ids its installing
/// rows name, every row's postings as ranks into that list, and the rows
/// in wire order, each naming its span of `postings`.
#[derive(Debug)]
pub(crate) struct DecodedRows<'a> {
    /// Every id of a row that installs, sorted and deduplicated.
    pub(crate) ids: SubIdList,
    /// All rows' postings, each the rank of its id in `ids`.
    pub(crate) postings: IdList,
    /// The AACS sub-range rows.
    pub(crate) ranges: Vec<(AttrId, Interval, Range<usize>)>,
    /// The AACS equality rows.
    pub(crate) points: Vec<(AttrId, Num, Range<usize>)>,
    /// The SACS rows.
    pub(crate) strings: Vec<(AttrId, RowPattern<'a>, Range<usize>)>,
}

/// A SACS row's pattern as the decoder reads it: wire text without a
/// `*` is the literal itself, borrowed from the input; any other text
/// parses to a pattern with wildcards.
#[derive(Debug)]
pub(crate) enum RowPattern<'a> {
    /// A wildcard-free row.
    Literal(&'a str),
    /// A row with at least one wildcard.
    Wildcard(Pattern),
}

/// The distinct `keys`, ascending, and each key's rank among them, from
/// one sort of (key, position) pairs; `n` is the number of keys.
fn rank_keys<K: Ord + Copy>(keys: impl Iterator<Item = K>, n: usize) -> (Vec<K>, IdList) {
    let mut pairs: Vec<(K, usize)> = keys.zip(0..).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    let mut table: Vec<K> = Vec::new();
    let mut ranks: IdList = vec![0; n];
    for (k, at) in pairs {
        if table.last() != Some(&k) {
            table.push(k);
        }
        // BOUND: `table` holds at least `k`.
        let rank = table.len() - 1;
        if let Some(slot) = ranks.get_mut(at) {
            *slot = rank as DenseId;
        }
    }
    (table, ranks)
}

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
        // stays representation-free, so every id of the summary is
        // packed once and each posting copies its id's bytes.
        let packed = self.pack_ids(summary)?;

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
                self.put_postings(&mut w, &packed, &row.ids);
            }
            for (v, ids) in s.points() {
                self.put_num(&mut w, v);
                self.put_postings(&mut w, &packed, ids);
            }
        }

        let string_attrs: Vec<_> = schema
            .string_attrs()
            .filter_map(|a| summary.string_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
            .collect();
        w.u16(string_attrs.len() as u16);
        let mut text = String::new();
        for (attr, s) in string_attrs {
            w.u16(attr.0);
            w.u32(s.row_count() as u32);
            for row in s.wildcards() {
                text.clear();
                // Writing into a `String` cannot fail.
                let _ = write!(text, "{}", row.pattern);
                w.str16(&text);
                self.put_postings(&mut w, &packed, &row.ids);
            }
            // A literal row's text is the literal itself.
            for (lit, ids) in s.sorted_literals() {
                w.str16(lit);
                self.put_postings(&mut w, &packed, ids);
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
        for id in summary.intern_table().live_ids() {
            self.layout.encode(id)?;
        }
        let id_len = self.layout.byte_len();
        let num_len = self.width.bytes();
        // An id list costs a u32 count plus `s_id` bytes per id.
        // BOUND: in-memory id-list sizes are far below usize::MAX.
        let idlist_len = |ids: &[DenseId]| 4 + ids.len() * id_len;
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
                len += 1 + finite * num_len + idlist_len(&row.ids);
            }
            for (_, ids) in s.points() {
                len += num_len + idlist_len(ids); // BOUND: one point row
            }
        }

        len += 2; // BOUND: string attr count
        for (_, s) in schema
            .string_attrs()
            .filter_map(|a| summary.string_summary(a).map(|s| (a, s)))
            .filter(|(_, s)| !s.is_empty())
        {
            len += 2 + 4; // BOUND: attr + row count
            for row in s.wildcards() {
                len += 2 + row.pattern.wire_size() + idlist_len(&row.ids); // BOUND: one row
            }
            for (lit, ids) in s.literals() {
                len += 2 + lit.len() + idlist_len(ids); // BOUND: one row
            }
        }
        Ok(len)
    }

    /// Deserializes a summary over `schema`.
    ///
    /// One pass reads every row, its ids into one arena of packed
    /// integers; one sort of the arena gives the summary's id table and
    /// every posting's rank in it, and the rows then install in wire
    /// order (see `BrokerSummary::install_decoded_rows`).
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
        // The id arena: no row holds more ids than the bytes left.
        let capacity = r.remaining() / self.layout.byte_len().max(1);
        let rows = self.read_rows(&mut r, width, schema, Vec::with_capacity(capacity))?;
        let mut summary = BrokerSummary::new(schema.clone());
        summary
            .install_decoded_rows(rows)
            .map_err(|attr| WireError::PointInsideRange(attr.0))?;
        Ok(summary)
    }

    /// Decodes `bytes` under `view`'s schema and merges the rows into
    /// it: how a delta frame installs at the neighbour. `view` is left
    /// as it was when the bytes do not decode.
    ///
    /// # Errors
    ///
    /// As [`SummaryCodec::decode`].
    pub fn merge_decoded(&self, bytes: &[u8], view: &mut BrokerSummary) -> Result<(), WireError> {
        let delta = self.decode(bytes, view.schema())?;
        view.merge_rows(&delta);
        Ok(())
    }

    /// Reads every row after the width tag, each row's ids onto the end
    /// of `keys` as packed integers: `c1` in the high bits, then `c2`,
    /// then `c3`, so integer order is `SubscriptionId` order.
    fn read_rows<'a>(
        &self,
        r: &mut ByteReader<'a>,
        width: ArithWidth,
        schema: &Schema,
        mut keys: Vec<u128>,
    ) -> Result<DecodedRows<'a>, WireError> {
        let (mut ranges, mut points, mut strings) = (Vec::new(), Vec::new(), Vec::new());
        let n_arith = r.u16()?;
        for _ in 0..n_arith {
            let attr = r.u16()?;
            // An AACS block names an arithmetic attribute of the schema.
            if !schema.arithmetic_attrs().any(|a| a.0 == attr) {
                return Err(WireError::AttributeOutOfRange(attr));
            }
            let attr = AttrId(attr);
            let n_ranges = r.u32()?;
            let n_points = r.u32()?;
            for _ in 0..n_ranges {
                let iv = self.get_interval(r, width)?;
                let mut span = self.get_ids(r, attr, &mut keys)?;
                // A range row with an empty interval installs nothing, so
                // its ids (once checked) take no slot in the id table.
                if iv.is_empty() {
                    keys.truncate(span.start);
                    span.end = span.start;
                }
                ranges.push((attr, iv, span));
            }
            for _ in 0..n_points {
                let v = self.get_num(r, width)?;
                let span = self.get_ids(r, attr, &mut keys)?;
                points.push((attr, v, span));
            }
        }

        let n_str = r.u16()?;
        for _ in 0..n_str {
            let attr = r.u16()?;
            // A SACS block names a string attribute of the schema.
            if !schema.string_attrs().any(|a| a.0 == attr) {
                return Err(WireError::AttributeOutOfRange(attr));
            }
            let attr = AttrId(attr);
            let n_rows = r.u32()?;
            for _ in 0..n_rows {
                let text = r.str16()?;
                let pattern = if text.contains('*') {
                    RowPattern::Wildcard(Pattern::parse(text)?)
                } else {
                    RowPattern::Literal(text)
                };
                let span = self.get_ids(r, attr, &mut keys)?;
                strings.push((attr, pattern, span));
            }
        }

        // The id table, the distinct ids of every row that installs, and
        // each posting's rank in it. Keys of up to 64 bits sort as `u64`,
        // which halves the pairs the sort moves.
        let (ids, postings) = if self.layout.bit_len() <= u64::BITS {
            let (table, postings) = rank_keys(keys.iter().map(|&k| k as u64), keys.len());
            let ids = table.into_iter().map(|k| self.layout.decode(k.into()));
            (ids.collect(), postings)
        } else {
            let (table, postings) = rank_keys(keys.iter().copied(), keys.len());
            let ids = table.into_iter().map(|k| self.layout.decode(k));
            (ids.collect(), postings)
        };
        Ok(DecodedRows {
            ids,
            postings,
            ranges,
            points,
            strings,
        })
    }

    /// Packs every live id of `summary` in dense order, `s_id` bytes
    /// each; a free slot, which no posting names, packs as zeros.
    fn pack_ids(&self, summary: &BrokerSummary) -> Result<Vec<u8>, TypeError> {
        let table = summary.intern_table();
        let id_len = self.layout.byte_len();
        // BOUND: an in-memory id table times at most 14 bytes per id.
        let mut packed = Vec::with_capacity(table.ids_slice().len() * id_len);
        for slot in table.slots() {
            match slot {
                Some(id) => self.layout.encode_bytes(id, &mut packed)?,
                // BOUND: as above.
                None => packed.resize(packed.len() + id_len, 0),
            }
        }
        Ok(packed)
    }

    /// Writes an id list: its length, then each posting's packed id.
    fn put_postings(&self, w: &mut ByteWriter, packed: &[u8], dense: &[DenseId]) {
        let id_len = self.layout.byte_len();
        w.u32(dense.len() as u32);
        for &d in dense {
            // BOUND: a posting is a rank in the id table `packed` holds,
            // `id_len` bytes per id.
            let at = d as usize * id_len;
            w.bytes(&packed[at..at + id_len]); // BOUND: as above.
        }
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

    /// Reads the id list of one row of attribute `attr` onto the end of
    /// `keys` and returns its span there, refusing an id whose `c3` mask
    /// does not name `attr`.
    fn get_ids(
        &self,
        r: &mut ByteReader<'_>,
        attr: AttrId,
        keys: &mut Vec<u128>,
    ) -> Result<Range<usize>, WireError> {
        let n = r.u32()? as usize;
        let id_len = self.layout.byte_len().max(1);
        // `IdLayout::decode` keeps the low 16 bits of `c1`: clear the
        // padding bits above them, so that equal keys are equal ids.
        let kept_bits = u16::BITS + self.layout.local_bits() + self.layout.attr_bits();
        let keep = u128::MAX
            .checked_shr(u128::BITS.saturating_sub(kept_bits))
            .unwrap_or(0);
        let attr_bit = u32::from(attr.0);
        let in_mask = (attr_bit < self.layout.attr_bits()).then(|| 1u128 << attr_bit);
        // The ids present are checked before a short list fails, in the
        // order reading them one by one would check them.
        let present = n.min(r.remaining() / id_len);
        // BOUND: present * id_len <= r.remaining().
        let raw = r.bytes(present * id_len)?;
        let start = keys.len();
        for bytes in raw.chunks_exact(id_len) {
            let key = bytes.iter().fold(0, |k, &b| (k << 8) | u128::from(b)) & keep;
            match in_mask {
                Some(bit) if key & bit != 0 => keys.push(key),
                _ => return Err(WireError::PostingOutsideMask(attr.0)),
            }
        }
        if present < n {
            return Err(WireError::Decode(DecodeError::UnexpectedEnd));
        }
        // Wire input is untrusted: restore the sorted-dedup invariant the
        // summary structures rely on (well-formed streams are already
        // sorted, making this a no-op check).
        let row = keys.get(start..).unwrap_or(&[]);
        // BOUND: windows(2) slices always hold exactly two elements.
        if !row.windows(2).all(|w| w[0] < w[1]) {
            let mut row = keys.split_off(start);
            row.sort_unstable();
            row.dedup();
            keys.extend_from_slice(&row);
        }
        Ok(start..keys.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aacs::RangeSummary;
    use crate::sacs::PatternSummary;
    use rand::check::check;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use subsum_types::{
        stock_schema, BrokerId, LocalSubId, NumOp, StrOp, Subscription, SubscriptionId,
    };

    fn codec(schema: &Schema, width: ArithWidth) -> SummaryCodec {
        let layout = IdLayout::new(24, 1000, schema.len() as u32).unwrap();
        SummaryCodec::new(layout, width)
    }

    /// Writes an id list of full ids, OR-ing `pad` into the first byte
    /// of each packed id.
    fn put_idlist(c: &SummaryCodec, w: &mut ByteWriter, ids: &[SubscriptionId], pad: u8) {
        w.u32(ids.len() as u32);
        for &id in ids {
            let mut packed = Vec::new();
            c.layout.encode_bytes(id, &mut packed).unwrap();
            packed[0] |= pad;
            w.bytes(&packed);
        }
    }

    /// A decoder with no id arena: every id read one at a time into a
    /// per-row list, the id table rebuilt from the union of the
    /// installing rows, each posting found by binary search in it, and
    /// every row inserted through the `insert_*` calls in wire order
    /// (ranges, then points, then string rows), each pattern parsed.
    fn row_by_row_decode(
        c: &SummaryCodec,
        bytes: &[u8],
        schema: &Schema,
    ) -> Result<BrokerSummary, WireError> {
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
        let idlist = |r: &mut ByteReader<'_>, attr: AttrId| -> Result<SubIdList, WireError> {
            let mut out = SubIdList::new();
            for _ in 0..r.u32()? {
                let raw = r.bytes(c.layout.byte_len())?;
                let (id, _) = c.layout.decode_bytes(raw).unwrap();
                if !id.mask.contains(attr) {
                    return Err(WireError::PostingOutsideMask(attr.0));
                }
                out.push(id);
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        };
        let attr = |r: &mut ByteReader<'_>, arithmetic: bool| -> Result<AttrId, WireError> {
            let a = r.u16()?;
            if a as usize >= schema.len() || schema.kind(AttrId(a)).is_arithmetic() != arithmetic {
                return Err(WireError::AttributeOutOfRange(a));
            }
            Ok(AttrId(a))
        };
        let (mut ranges, mut points, mut strings) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..r.u16()? {
            let a = attr(&mut r, true)?;
            let (n_ranges, n_points) = (r.u32()?, r.u32()?);
            for _ in 0..n_ranges {
                let iv = c.get_interval(&mut r, width)?;
                ranges.push((a, iv, idlist(&mut r, a)?));
            }
            for _ in 0..n_points {
                let v = c.get_num(&mut r, width)?;
                points.push((a, v, idlist(&mut r, a)?));
            }
        }
        for _ in 0..r.u16()? {
            let a = attr(&mut r, false)?;
            for _ in 0..r.u32()? {
                let pattern = Pattern::parse(r.str16()?)?;
                strings.push((a, pattern, idlist(&mut r, a)?));
            }
        }
        let mut ids: SubIdList = ranges
            .iter()
            .filter(|(_, iv, _)| !iv.is_empty())
            .flat_map(|(_, _, ids)| ids)
            .chain(points.iter().flat_map(|(_, _, ids)| ids))
            .chain(strings.iter().flat_map(|(_, _, ids)| ids))
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let dense = |list: &SubIdList| -> IdList {
            list.iter()
                .map(|id| ids.binary_search(id).unwrap() as DenseId)
                .collect()
        };
        let mut arith: Vec<Option<RangeSummary>> = vec![None; schema.len()];
        let mut sacs: Vec<Option<PatternSummary>> = vec![None; schema.len()];
        for (a, iv, list) in &ranges {
            if !iv.is_empty() && !list.is_empty() {
                arith[a.index()]
                    .get_or_insert_with(RangeSummary::new)
                    .insert_interval_ids(*iv, &dense(list));
            }
        }
        for (a, v, list) in &points {
            if !list.is_empty() {
                arith[a.index()]
                    .get_or_insert_with(RangeSummary::new)
                    .insert_point_ids(*v, &dense(list));
            }
        }
        for (a, pattern, list) in &strings {
            if !list.is_empty() {
                sacs[a.index()]
                    .get_or_insert_with(PatternSummary::new)
                    .insert_ids(pattern.clone(), &dense(list));
            }
        }
        Ok(BrokerSummary::from_parts(schema.clone(), ids, arith, sacs))
    }

    /// One attribute's AACS block: attribute, ranges, points.
    type ArithBlock = (u16, Vec<(Interval, SubIdList)>, Vec<(Num, SubIdList)>);

    /// A stream as rows, before it is written: what `encode` writes, or
    /// a perturbation of it.
    #[derive(Debug, Clone, Default)]
    struct Rows {
        arith: Vec<ArithBlock>,
        strings: Vec<(u16, Vec<(String, SubIdList)>)>,
    }

    impl Rows {
        /// The rows `encode` writes for `summary`, in its order.
        fn of(summary: &BrokerSummary) -> Rows {
            let table = summary.intern_table();
            let resolve = |dense: &IdList| dense.iter().map(|&d| table.resolve(d)).collect();
            let schema = summary.schema();
            let mut rows = Rows::default();
            for a in schema.arithmetic_attrs() {
                if let Some(s) = summary.arith_summary(a).filter(|s| !s.is_empty()) {
                    let ranges = s
                        .ranges()
                        .iter()
                        .map(|row| (row.interval, resolve(&row.ids)))
                        .collect();
                    let points = s.points().map(|(v, ids)| (v, resolve(ids))).collect();
                    rows.arith.push((a.0, ranges, points));
                }
            }
            for a in schema.string_attrs() {
                if let Some(s) = summary.string_summary(a).filter(|s| !s.is_empty()) {
                    let texts = s.rows().map(|(p, ids)| (p.to_string(), resolve(ids)));
                    rows.strings.push((a.0, texts.collect()));
                }
            }
            rows
        }

        /// The stream `c` writes for these rows, `pad` OR-ed into the
        /// first byte of every id.
        fn write(&self, c: &SummaryCodec, pad: u8) -> Vec<u8> {
            let mut w = ByteWriter::new();
            w.u8(VERSION);
            w.u8(match c.width {
                ArithWidth::Four => TAG_WIDTH_FOUR,
                ArithWidth::Eight => TAG_WIDTH_EIGHT,
            });
            w.u16(self.arith.len() as u16);
            for (a, ranges, points) in &self.arith {
                w.u16(*a);
                w.u32(ranges.len() as u32);
                w.u32(points.len() as u32);
                for (iv, ids) in ranges {
                    c.put_interval(&mut w, iv);
                    put_idlist(c, &mut w, ids, pad);
                }
                for (v, ids) in points {
                    c.put_num(&mut w, *v);
                    put_idlist(c, &mut w, ids, pad);
                }
            }
            w.u16(self.strings.len() as u16);
            for (a, texts) in &self.strings {
                w.u16(*a);
                w.u32(texts.len() as u32);
                for (text, ids) in texts {
                    w.str16(text);
                    put_idlist(c, &mut w, ids, pad);
                }
            }
            w.into_bytes()
        }

        /// One perturbation a crafted or lossy stream can carry.
        fn perturb(&mut self, g: &mut StdRng) {
            let num = |x: f64| Num::new(x).unwrap();
            // A value 4-byte floats round onto `x`'s neighbourhood.
            let beside = |x: f64| x + x.abs() * 1e-12 + 1e-300;
            let arith = self.arith.len();
            let strings = self.strings.len();
            match g.gen_range(0..10) {
                // Rows out of order: literals ahead of wildcards, ranges
                // and points unsorted.
                0 if arith > 0 => {
                    let (_, ranges, points) = &mut self.arith[g.gen_range(0..arith)];
                    ranges.shuffle(g);
                    points.shuffle(g);
                }
                1 if strings > 0 => self.strings[g.gen_range(0..strings)].1.shuffle(g),
                // An attribute's block twice.
                2 if arith > 0 => {
                    let block = self.arith[g.gen_range(0..arith)].clone();
                    self.arith.push(block);
                }
                3 if strings > 0 => {
                    let block = self.strings[g.gen_range(0..strings)].clone();
                    self.strings.push(block);
                }
                4..=6 if arith > 0 => {
                    let (a, ranges, points) = &mut self.arith[g.gen_range(0..arith)];
                    let some: SubIdList = ranges
                        .iter()
                        .flat_map(|(_, ids)| ids)
                        .copied()
                        .filter(|_| g.gen())
                        .collect();
                    let lo = g.gen_range(-40i32..40) as f64 / 4.0;
                    match g.gen_range(0..6) {
                        // A range row overlapping others.
                        0 => ranges.push((Interval::closed(num(lo), num(lo + 2.5)), some)),
                        // One 4-byte floats make a point.
                        1 => ranges.push((Interval::closed(num(lo), num(beside(lo))), some)),
                        // One 4-byte floats make empty, naming an id no
                        // other row names.
                        2 => {
                            let mask = [AttrId(*a)].into_iter().collect();
                            let fresh = SubscriptionId::new(BrokerId(23), LocalSubId(1000), mask);
                            let iv = Interval::open(num(lo), num(beside(lo)));
                            ranges.insert(g.gen_range(0..=ranges.len()), (iv, vec![fresh]));
                        }
                        // A point again, or one 4-byte floats collapse
                        // onto it, with some of its ids.
                        3 if !points.is_empty() => {
                            let (v, ids) = points[g.gen_range(0..points.len())].clone();
                            let v = if g.gen() { v.get() } else { beside(v.get()) };
                            let ids = ids.into_iter().filter(|_| g.gen()).collect();
                            points.push((num(v), ids));
                        }
                        // A point inside a range row sharing its id.
                        4 if !ranges.is_empty() => {
                            let (iv, ids) = ranges[g.gen_range(0..ranges.len())].clone();
                            points.push((num(interior(&iv)), ids.into_iter().take(1).collect()));
                        }
                        // A range row split where 4-byte floats join it
                        // again.
                        _ if !ranges.is_empty() => {
                            let at = g.gen_range(0..ranges.len());
                            let (iv, ids) = ranges[at].clone();
                            let (m, after) = (interior(&iv), beside(interior(&iv)));
                            if iv.contains(num(m)) && iv.contains(num(after)) {
                                let head = Interval::new(iv.lo(), UpperBound::Excl(num(m)));
                                let tail = Interval::new(LowerBound::Incl(num(after)), iv.hi());
                                ranges[at] = (head, ids.clone());
                                ranges.insert(at + 1, (tail, ids));
                            }
                        }
                        _ => {}
                    }
                }
                // A literal a wildcard row covers, or a literal again,
                // with another row's ids.
                7 if strings > 0 => {
                    let (_, texts) = &mut self.strings[g.gen_range(0..strings)];
                    let text = texts[g.gen_range(0..texts.len())].0.clone();
                    let ids = texts[g.gen_range(0..texts.len())].1.clone();
                    let literal = Pattern::parse(&text).unwrap().segments().concat();
                    texts.insert(g.gen_range(0..=texts.len()), (literal, ids));
                }
                // A wildcard row covering another, or covered by it.
                8 if strings > 0 => {
                    let (_, texts) = &mut self.strings[g.gen_range(0..strings)];
                    let (text, ids) = texts[g.gen_range(0..texts.len())].clone();
                    let wider = match text.chars().next() {
                        Some(c) if g.gen() => format!("{c}*"),
                        _ => "*".to_owned(),
                    };
                    let wildcard = if g.gen() { wider } else { format!("{text}*c") };
                    texts.insert(g.gen_range(0..=texts.len()), (wildcard, ids));
                }
                // An id list unsorted, with a repeat.
                _ if arith > 0 => {
                    let (_, ranges, _) = &mut self.arith[g.gen_range(0..arith)];
                    if !ranges.is_empty() {
                        let at = g.gen_range(0..ranges.len());
                        let ids = &mut ranges[at].1;
                        ids.reverse();
                        if let Some(&first) = ids.first() {
                            ids.push(first);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// A value inside `iv`, or beside its one finite bound.
    fn interior(iv: &Interval) -> f64 {
        let lo = match iv.lo() {
            LowerBound::NegInf => None,
            LowerBound::Incl(v) | LowerBound::Excl(v) => Some(v.get()),
        };
        let hi = match iv.hi() {
            UpperBound::PosInf => None,
            UpperBound::Incl(v) | UpperBound::Excl(v) => Some(v.get()),
        };
        match (lo, hi) {
            (Some(a), Some(b)) => (a + b) / 2.0,
            (None, Some(b)) => b - 1.0,
            (Some(a), None) => a + 1.0,
            (None, None) => 0.0,
        }
    }

    /// `decode` installs every stream exactly as inserting its rows one
    /// by one in wire order does: streams as `encode` writes them, at
    /// both widths and at 22-, 43- and 112-bit ids, and the same
    /// streams with rows shuffled, blocks repeated, ranges overlapping,
    /// literals ahead of or covered by wildcards, points and literals
    /// repeated, values 4-byte floats collapse, unsorted id lists, and
    /// padding bits set above the packed ids. The one difference is a
    /// stream whose insertion leaves a point inside a range row sharing
    /// an id: `decode` refuses it. Every decoded summary validates.
    #[test]
    fn decode_equals_row_by_row_insertion() {
        let schema = stock_schema();
        let layouts = [
            IdLayout::new(24, 1024, 7).unwrap(),
            IdLayout::new(1 << 16, 1 << 20, 7).unwrap(),
            IdLayout::new(1 << 16, 1 << 32, 64).unwrap(),
        ];
        check("decode_equals_row_by_row_insertion", 256, |g| {
            let n = g.gen_range(0..40);
            let summary = crate::testkit::random_summary(g, n);
            let layout = layouts[g.gen_range(0..layouts.len())];
            let width = if g.gen() {
                ArithWidth::Four
            } else {
                ArithWidth::Eight
            };
            let c = SummaryCodec::new(layout, width);
            let mut rows = Rows::of(&summary);
            assert_eq!(rows.write(&c, 0), c.encode(&summary).unwrap());
            let perturbed = g.gen_range(0..4) > 0;
            if perturbed {
                for _ in 0..g.gen_range(1..4) {
                    rows.perturb(g);
                }
            }
            let spare = layout.byte_len() as u32 * 8 - layout.bit_len();
            let pad = if perturbed && spare > 0 && g.gen() {
                g.gen::<u8>() & !(u8::MAX >> spare)
            } else {
                0
            };
            let bytes = rows.write(&c, pad);
            match (
                c.decode(&bytes, &schema),
                row_by_row_decode(&c, &bytes, &schema),
            ) {
                (Ok(got), Ok(want)) => {
                    got.validate();
                    assert_eq!(got, want);
                    if !perturbed && width == ArithWidth::Eight {
                        assert_eq!(got, summary);
                    }
                }
                (Err(WireError::PointInsideRange(a)), Ok(want)) => {
                    let shared = |a: u16| {
                        want.arith_summary(AttrId(a))
                            .is_some_and(|s| s.point_inside_shared_range().is_some())
                    };
                    assert!(shared(a));
                    assert!(!(0..a).any(shared), "the first such attribute is named");
                }
                (got, want) => assert_eq!(got.err(), want.err()),
            }
        });
    }

    /// A point row inside a range row sharing its id is what the
    /// insertion paths never build: the compiled plan counted the id's
    /// `price` twice, so an event with only `price = 5` matched an id
    /// that also constrains `volume`, while the scan did not.
    #[test]
    fn a_point_inside_a_range_row_sharing_its_id_is_refused() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Eight);
        let price = schema.attr_id("price").unwrap();
        let volume = schema.attr_id("volume").unwrap();
        let id = SubscriptionId::new(
            BrokerId(1),
            LocalSubId(2),
            [price, volume].into_iter().collect(),
        );
        let n = |x: f64| Num::new(x).unwrap();
        let rows = Rows {
            arith: vec![
                (
                    price.0,
                    vec![(Interval::closed(n(0.0), n(10.0)), vec![id])],
                    vec![(n(5.0), vec![id])],
                ),
                (volume.0, vec![], vec![(n(1.0), vec![id])]),
            ],
            strings: vec![],
        };
        assert_eq!(
            c.decode(&rows.write(&c, 0), &schema).unwrap_err(),
            WireError::PointInsideRange(price.0)
        );
    }

    /// An AACS block names an arithmetic attribute and a SACS block a
    /// string one: a block under the other kind is refused, even when
    /// its ids carry that attribute in their masks.
    #[test]
    fn a_block_under_an_attribute_of_the_other_kind_is_refused() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Eight);
        let price = schema.attr_id("price").unwrap();
        let symbol = schema.attr_id("symbol").unwrap();
        let id = SubscriptionId::new(
            BrokerId(1),
            LocalSubId(2),
            [price, symbol].into_iter().collect(),
        );
        let n = |x: f64| Num::new(x).unwrap();
        let ranges_under_symbol = Rows {
            arith: vec![(
                symbol.0,
                vec![(Interval::closed(n(0.0), n(10.0)), vec![id])],
                vec![],
            )],
            strings: vec![],
        };
        let literal_under_price = Rows {
            arith: vec![],
            strings: vec![(price.0, vec![("OTE".to_owned(), vec![id])])],
        };
        for (rows, attr) in [(ranges_under_symbol, symbol), (literal_under_price, price)] {
            let bytes = rows.write(&c, 0);
            let want = WireError::AttributeOutOfRange(attr.0);
            assert_eq!(c.decode(&bytes, &schema).unwrap_err(), want);
            assert_eq!(row_by_row_decode(&c, &bytes, &schema).unwrap_err(), want);
        }
    }

    /// Rows whose id lists are empty install nothing: no attribute
    /// summary is created for them.
    #[test]
    fn rows_without_ids_install_nothing() {
        let schema = stock_schema();
        let c = codec(&schema, ArithWidth::Eight);
        let price = schema.attr_id("price").unwrap();
        let symbol = schema.attr_id("symbol").unwrap();
        let n = |x: f64| Num::new(x).unwrap();
        let rows = Rows {
            arith: vec![(
                price.0,
                vec![(Interval::closed(n(0.0), n(1.0)), vec![])],
                vec![(n(5.0), vec![])],
            )],
            strings: vec![(
                symbol.0,
                vec![("OTE".to_owned(), vec![]), ("O*".to_owned(), vec![])],
            )],
        };
        let bytes = rows.write(&c, 0);
        let decoded = c.decode(&bytes, &schema).unwrap();
        assert_eq!(decoded, BrokerSummary::new(schema.clone()));
        assert_eq!(decoded, row_by_row_decode(&c, &bytes, &schema).unwrap());
    }

    /// Bits above a 43-bit id's `c1` decode as `IdLayout::decode` reads
    /// them: dropped above 16 bits of `c1`, so two such ids are one.
    #[test]
    fn padding_bits_above_an_id_decode_as_the_layout_reads_them() {
        let schema = stock_schema();
        let layout = IdLayout::new(1 << 16, 1 << 20, 7).unwrap();
        let c = SummaryCodec::new(layout, ArithWidth::Eight);
        let price = schema.attr_id("price").unwrap();
        let id = SubscriptionId::new(BrokerId(9), LocalSubId(2), [price].into_iter().collect());
        let n = |x: f64| Num::new(x).unwrap();
        let mut w = ByteWriter::new();
        w.u8(VERSION);
        w.u8(TAG_WIDTH_EIGHT);
        w.u16(1);
        w.u16(price.0);
        w.u32(0);
        w.u32(1);
        c.put_num(&mut w, n(5.0));
        w.u32(2);
        for pad in [0b1000_0000, 0] {
            let mut packed = Vec::new();
            layout.encode_bytes(id, &mut packed).unwrap();
            packed[0] |= pad;
            w.bytes(&packed);
        }
        w.u16(0);
        let bytes = w.into_bytes();
        let decoded = c.decode(&bytes, &schema).unwrap();
        assert_eq!(decoded, row_by_row_decode(&c, &bytes, &schema).unwrap());
        assert_eq!(decoded.subscription_ids(), vec![id]);
        decoded.validate();
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
        put_idlist(&c, &mut w, &[stray], 0);
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

    /// The encoder's bytes, fingerprinted for fixed seeded summaries at
    /// both widths: a rewrite of `encode` must leave every byte as is.
    #[test]
    fn encode_bytes_match_the_golden_fingerprints() {
        // 43-bit ids (the daemons' layout) and 112-bit ids.
        let layouts = [
            IdLayout::new(1 << 16, 1 << 20, 7).unwrap(),
            IdLayout::new(1 << 16, 1 << 32, 64).unwrap(),
        ];
        // (FNV-1a, length) per seed, layout and width, in loop order.
        let want: [(u64, usize); 12] = [
            (0x7584_6f7a_3dfc_25a5, 0x6ea),
            (0x16d6_cff6_ca41_761d, 0x7f6),
            (0x5df7_afb4_9b94_bfeb, 0xd3a),
            (0xe5b7_e9fd_3855_7ff7, 0xe46),
            (0x4948_a0db_2b07_10ec, 0x11d00),
            (0x54e9_6c4f_e19d_cb11, 0x1262c),
            (0xab2e_fec4_74d6_2be7, 0x28380),
            (0xca2c_8bf0_c831_a1d2, 0x28cac),
            (0xc995_b5fb_c18f_4be3, 0x718a4),
            (0x531e_03cd_2a0a_f35f, 0x72cb0),
            (0xc13f_403f_1502_4110, 0x10603c),
            (0x26ca_fcf8_adcd_1940, 0x107448),
        ];
        let mut got = Vec::new();
        for (seed, n) in [(11u64, 40u32), (12, 400), (13, 1200)] {
            let summary = crate::testkit::seeded_summary(seed, n);
            for layout in layouts {
                for width in [ArithWidth::Four, ArithWidth::Eight] {
                    let c = SummaryCodec::new(layout, width);
                    let bytes = c.encode(&summary).unwrap();
                    assert_eq!(c.encoded_len(&summary).unwrap(), bytes.len());
                    got.push((crate::testkit::fingerprint(&bytes), bytes.len()));
                }
            }
        }
        assert_eq!(got, want);
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
