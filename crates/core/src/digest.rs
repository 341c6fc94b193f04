//! Compact summary digests for anti-entropy comparison.
//!
//! Two brokers that should agree on a summary (a broker's own summary
//! and a neighbor's view of it) compare a 24-byte [`SummaryDigest`]
//! instead of shipping the full summary: a subscription count, an
//! order-independent hash of the subscription-id set, and a structural
//! checksum over every AACS/SACS row. Matching digests mean the views
//! agree; a mismatch triggers a full summary re-send.
//!
//! The structural checksum folds per-row hashes with a commutative
//! wrapping add *within* each attribute, so it is independent of row
//! iteration order — but it is **not** independent of how rows were
//! formed: SACS covering/absorption can split the same id multiset into
//! different rows under exotic insertion orders. Digest-compared
//! summaries must therefore be built by the same insertion discipline;
//! the chaos/recovery layer inserts everywhere in ascending
//! subscription-id order (which equals subscribe order, checkpoint
//! restore order, and oracle rebuild order), making the checksum a
//! sound equality witness there.
//!
//! The per-attribute hashes and the id-set hash are derived state that
//! a summary caches ([`DigestCell`]): a mutation drops the entries of
//! the attributes it touched and the id-set hash, and the next digest
//! re-hashes only those. A subscribe into a large summary then costs a
//! digest the rows of the attributes that subscription constrains, not
//! every row.

use std::sync::OnceLock;

use subsum_types::{AttrId, LowerBound, Num, Pattern, SubscriptionId, UpperBound};

use crate::idlist::IdList;
use crate::summary::BrokerSummary;

/// The 64-bit splitmix finalizer (kept local: `subsum-core` must not
/// depend on the net crate that also defines it).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn hash_id(id: SubscriptionId) -> u64 {
    let packed = ((id.broker.0 as u64) << 32) | id.local.0 as u64;
    mix64(mix64(packed) ^ id.mask.0)
}

#[inline]
fn fold(h: u64, x: u64) -> u64 {
    // Order-sensitive fold (within a row the id list is sorted, so
    // sensitivity is fine and cheaper than another mix per element).
    mix64(h ^ x)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        // BOUND: chunks(8) yields at most word.len() == 8 bytes.
        word[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(word) ^ chunk.len() as u64);
    }
    fold(h, bytes.len() as u64)
}

fn hash_num(h: u64, n: Num) -> u64 {
    fold(h, n.get().to_bits())
}

fn hash_pattern(mut h: u64, p: &Pattern) -> u64 {
    h = fold(
        h,
        p.anchored_start() as u64 | (p.anchored_end() as u64) << 1,
    );
    h = fold(h, p.segments().len() as u64);
    for seg in p.segments() {
        h = hash_bytes(h, seg.as_bytes());
    }
    h
}

/// `hash_pattern` of `Pattern::literal(s)`, without building it: both
/// ends anchored, and one segment unless `s` is empty.
fn hash_literal(mut h: u64, s: &str) -> u64 {
    h = fold(h, 0b11);
    h = fold(h, u64::from(!s.is_empty()));
    if !s.is_empty() {
        h = hash_bytes(h, s.as_bytes());
    }
    h
}

/// Folds the subscription ids of one row, resolved through `ids` (the
/// intern table, sorted, so the row's ids fold in id order).
fn hash_row_ids(ids: &[SubscriptionId], dense: &IdList, mut h: u64) -> u64 {
    h = fold(h, dense.len() as u64);
    for &d in dense {
        // BOUND: a posting is a rank in the intern table.
        h = fold(h, hash_id(ids[d as usize]));
    }
    h
}

/// A 24-byte equality witness for a [`BrokerSummary`].
///
/// # Example
///
/// ```
/// use subsum_core::BrokerSummary;
/// use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, Subscription};
///
/// # fn main() -> Result<(), subsum_types::TypeError> {
/// let schema = stock_schema();
/// let sub = Subscription::builder(&schema)
///     .num("price", NumOp::Lt, 8.70)?
///     .build()?;
/// let mut a = BrokerSummary::new(schema.clone());
/// let mut b = BrokerSummary::new(schema.clone());
/// a.insert(BrokerId(1), LocalSubId(0), &sub);
/// assert_ne!(a.digest(), b.digest());
/// b.insert(BrokerId(1), LocalSubId(0), &sub);
/// assert_eq!(a.digest(), b.digest());
/// assert_eq!(a.digest().to_bytes().len(), subsum_core::SummaryDigest::WIRE_BYTES);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SummaryDigest {
    /// Number of distinct subscriptions summarized.
    pub count: u64,
    /// Order-independent hash of the subscription-id set.
    pub id_hash: u64,
    /// Structural checksum over all AACS/SACS rows (row-order
    /// independent within each attribute).
    pub structure: u64,
}

impl SummaryDigest {
    /// Serialized size of a digest on the wire.
    pub const WIRE_BYTES: usize = 24;

    /// Big-endian serialization: `count · id_hash · structure`.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        // BOUND: constant ranges inside the fixed 24-byte array.
        out[..8].copy_from_slice(&self.count.to_be_bytes());
        out[8..16].copy_from_slice(&self.id_hash.to_be_bytes());
        out[16..].copy_from_slice(&self.structure.to_be_bytes()); // BOUND: ditto
        out
    }

    /// Parses [`Self::to_bytes`] output; `None` on a short/long buffer.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_BYTES {
            return None;
        }
        let word = |i: usize| {
            let mut w = [0u8; 8];
            // BOUND: len == WIRE_BYTES (checked above); i is 0, 8 or 16.
            w.copy_from_slice(&bytes[i..i + 8]);
            u64::from_be_bytes(w)
        };
        Some(SummaryDigest {
            count: word(0),
            id_hash: word(8),
            structure: word(16),
        })
    }
}

/// The cached digest entries of a [`BrokerSummary`]: one attribute hash
/// per schema attribute and the id-set hash, each computed on first use
/// and kept until a mutation drops it. Like the plan cell, it is derived
/// state: invisible to equality, copied by `Clone`.
#[derive(Debug, Clone)]
pub(crate) struct DigestCell {
    attr_hash: Vec<OnceLock<u64>>,
    id_hash: OnceLock<u64>,
}

impl DigestCell {
    /// An empty cell over `attrs` schema attributes.
    pub(crate) fn new(attrs: usize) -> Self {
        DigestCell {
            attr_hash: vec![OnceLock::new(); attrs],
            id_hash: OnceLock::new(),
        }
    }

    /// Drops the id-set hash and the hashes of `attrs`: the attributes
    /// whose rows a mutation touched.
    pub(crate) fn invalidate(&mut self, attrs: impl IntoIterator<Item = AttrId>) {
        self.id_hash.take();
        for attr in attrs {
            if let Some(cell) = self.attr_hash.get_mut(attr.index()) {
                cell.take();
            }
        }
    }

    /// Drops every entry.
    pub(crate) fn invalidate_all(&mut self) {
        self.id_hash.take();
        for cell in &mut self.attr_hash {
            cell.take();
        }
    }

    /// The cached hash of `attr`, if one was computed since its last
    /// mutation.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn cached_attr(&self, attr: AttrId) -> Option<u64> {
        self.attr_hash.get(attr.index())?.get().copied()
    }

    /// The cached id-set hash, if one was computed since the last
    /// mutation.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn cached_ids(&self) -> Option<u64> {
        self.id_hash.get().copied()
    }
}

impl PartialEq for DigestCell {
    /// Always equal: the digest is a pure function of the summary rows,
    /// which the owning summary's `PartialEq` already compares.
    fn eq(&self, _: &DigestCell) -> bool {
        true
    }
}

/// The salt of one attribute's hash.
fn attr_salt(attr: AttrId) -> u64 {
    mix64(0xA77A ^ attr.0 as u64)
}

impl BrokerSummary {
    /// Computes the summary's anti-entropy digest. Linear in the rows of
    /// the attributes mutated since the last call, and in the live ids
    /// if any mutation happened: the summary caches each attribute's
    /// hash and the id-set hash until a mutation touches them. No
    /// ordering of rows is assumed.
    pub fn digest(&self) -> SummaryDigest {
        let cell = self.digest_cell();
        let id_hash = *cell.id_hash.get_or_init(|| self.id_hash());
        self.fold_digest(id_hash, |attr| match cell.attr_hash.get(attr.index()) {
            Some(cached) => *cached.get_or_init(|| self.attr_hash(attr)),
            None => self.attr_hash(attr),
        })
    }

    /// [`BrokerSummary::digest`] computed from every row, past the
    /// cache: what the cached digest must equal.
    #[cfg(any(test, debug_assertions))]
    pub fn digest_uncached(&self) -> SummaryDigest {
        self.fold_digest(self.id_hash(), |attr| self.attr_hash(attr))
    }

    /// The digest over `id_hash` and each attribute's hash.
    fn fold_digest(&self, id_hash: u64, attr_hash: impl Fn(AttrId) -> u64) -> SummaryDigest {
        let structure = self.schema().iter().fold(0u64, |acc, (attr, _spec)| {
            acc.wrapping_add(mix64(attr_salt(attr) ^ attr_hash(attr)))
        });
        SummaryDigest {
            count: self.subscription_count() as u64,
            id_hash,
            structure,
        }
    }

    /// The order-independent hash of the live id set.
    pub(crate) fn id_hash(&self) -> u64 {
        self.intern_table()
            .live_ids()
            .fold(0u64, |acc, id| acc.wrapping_add(hash_id(id)))
    }

    /// The hash of one attribute's rows: each row's hash, postings
    /// resolved to their ids through the whole intern table, folded by
    /// a commutative add.
    pub(crate) fn attr_hash(&self, attr: AttrId) -> u64 {
        let ids = self.intern_table().ids_slice();
        let attr_salt = attr_salt(attr);
        let mut attr_hash = 0u64;
        if let Some(aacs) = self.arith_summary(attr) {
            for row in aacs.ranges() {
                let mut h = fold(attr_salt, 0x5A4E47);
                h = match row.interval.lo() {
                    LowerBound::NegInf => fold(h, 0),
                    LowerBound::Incl(n) => hash_num(fold(h, 1), n),
                    LowerBound::Excl(n) => hash_num(fold(h, 2), n),
                };
                h = match row.interval.hi() {
                    UpperBound::PosInf => fold(h, 0),
                    UpperBound::Incl(n) => hash_num(fold(h, 1), n),
                    UpperBound::Excl(n) => hash_num(fold(h, 2), n),
                };
                attr_hash = attr_hash.wrapping_add(hash_row_ids(ids, &row.ids, h));
            }
            for (num, idlist) in aacs.points() {
                let h = hash_num(fold(attr_salt, 0x50_49_4E_54), num);
                attr_hash = attr_hash.wrapping_add(hash_row_ids(ids, idlist, h));
            }
        }
        if let Some(sacs) = self.string_summary(attr) {
            // Rows fold by a commutative add, so each group is walked
            // where it lies.
            let salt = fold(attr_salt, 0x504154);
            for row in sacs.wildcards() {
                let h = hash_pattern(salt, &row.pattern);
                attr_hash = attr_hash.wrapping_add(hash_row_ids(ids, &row.ids, h));
            }
            for (lit, idlist) in sacs.literals() {
                let h = hash_literal(salt, lit);
                attr_hash = attr_hash.wrapping_add(hash_row_ids(ids, idlist, h));
            }
        }
        attr_hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp, Subscription};

    fn subs() -> (subsum_types::Schema, Vec<Subscription>) {
        let schema = stock_schema();
        let subs = vec![
            Subscription::builder(&schema)
                .num("price", NumOp::Gt, 8.30)
                .unwrap()
                .num("price", NumOp::Lt, 8.70)
                .unwrap()
                .build()
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("symbol", StrOp::Prefix, "OT")
                .unwrap()
                .build()
                .unwrap(),
            Subscription::builder(&schema)
                .num("volume", NumOp::Eq, 1000.0)
                .unwrap()
                .str_op("symbol", StrOp::Eq, "OTE")
                .unwrap()
                .build()
                .unwrap(),
        ];
        (schema, subs)
    }

    #[test]
    fn equal_builds_have_equal_digests() {
        let (schema, subs) = subs();
        let build = || {
            let mut s = BrokerSummary::new(schema.clone());
            for (i, sub) in subs.iter().enumerate() {
                s.insert(BrokerId(3), LocalSubId(i as u32), sub);
            }
            s
        };
        assert_eq!(build().digest(), build().digest());
        assert_eq!(build().digest().count, subs.len() as u64);
    }

    #[test]
    fn any_divergence_changes_the_digest() {
        let (schema, subs) = subs();
        let mut full = BrokerSummary::new(schema.clone());
        let mut partial = BrokerSummary::new(schema.clone());
        for (i, sub) in subs.iter().enumerate() {
            full.insert(BrokerId(3), LocalSubId(i as u32), sub);
            if i + 1 < subs.len() {
                partial.insert(BrokerId(3), LocalSubId(i as u32), sub);
            }
        }
        let (df, dp) = (full.digest(), partial.digest());
        assert_ne!(df, dp);
        assert_ne!(df.count, dp.count);
        assert_ne!(df.id_hash, dp.id_hash);

        // Same count, different owner broker: id hash catches it.
        let mut other = BrokerSummary::new(schema.clone());
        for (i, sub) in subs.iter().enumerate() {
            other.insert(BrokerId(4), LocalSubId(i as u32), sub);
        }
        assert_eq!(other.digest().count, df.count);
        assert_ne!(other.digest().id_hash, df.id_hash);
    }

    #[test]
    fn structure_detects_constraint_drift_with_same_ids() {
        let schema = stock_schema();
        let a_sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 5.0)
            .unwrap()
            .build()
            .unwrap();
        let b_sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 6.0)
            .unwrap()
            .build()
            .unwrap();
        let mut a = BrokerSummary::new(schema.clone());
        let mut b = BrokerSummary::new(schema.clone());
        a.insert(BrokerId(1), LocalSubId(0), &a_sub);
        b.insert(BrokerId(1), LocalSubId(0), &b_sub);
        let (da, db) = (a.digest(), b.digest());
        assert_eq!(da.count, db.count);
        assert_eq!(da.id_hash, db.id_hash);
        assert_ne!(da.structure, db.structure, "structure must see the bound");
    }

    #[test]
    fn wire_round_trip() {
        let (schema, subs) = subs();
        let mut s = BrokerSummary::new(schema);
        for (i, sub) in subs.iter().enumerate() {
            s.insert(BrokerId(9), LocalSubId(i as u32), sub);
        }
        let d = s.digest();
        let bytes = d.to_bytes();
        assert_eq!(SummaryDigest::from_bytes(&bytes), Some(d));
        assert_eq!(SummaryDigest::from_bytes(&bytes[..23]), None);
    }

    /// Digests travel between daemons, so how `digest` walks the rows
    /// may change but its values may not.
    #[test]
    fn digests_match_the_pinned_values() {
        let (schema, subs) = subs();
        let mut fixture = BrokerSummary::new(schema);
        for (i, sub) in subs.iter().enumerate() {
            fixture.insert(BrokerId(3), LocalSubId(i as u32), sub);
        }
        let seeded = crate::testkit::seeded_summary(21, 800);
        let pinned = |count, id_hash, structure| SummaryDigest {
            count,
            id_hash,
            structure,
        };
        assert_eq!(
            fixture.digest(),
            pinned(3, 0xd072_51b2_cf53_c54e, 0xf465_d72f_3c42_1012)
        );
        assert_eq!(
            seeded.digest(),
            pinned(796, 0xd36f_af19_17bb_ed17, 0x6c55_5a09_0cb5_170f)
        );
    }

    /// The attributes whose cached hash a mutation dropped.
    fn dropped(s: &BrokerSummary) -> Vec<AttrId> {
        let cell = s.digest_cell();
        let attrs = s.schema().iter().map(|(attr, _)| attr);
        attrs.filter(|&a| cell.cached_attr(a).is_none()).collect()
    }

    /// Warms the digest of `s`, applies `mutate` and checks that it
    /// dropped the id-set hash and exactly the `touched` attributes'
    /// hashes, that it respaced the intern table iff `respaces`, and
    /// that the digest equals one computed from every row.
    fn assert_drops(
        s: &mut BrokerSummary,
        what: &str,
        touched: &[AttrId],
        respaces: bool,
        mutate: impl FnOnce(&mut BrokerSummary),
    ) {
        s.digest();
        assert!(dropped(s).is_empty() && s.digest_cell().cached_ids().is_some());
        let slots = s.intern_table().ids_slice().len();
        mutate(s);
        let resized = s.intern_table().ids_slice().len() != slots;
        assert_eq!(resized, respaces, "{what}");
        assert_eq!(dropped(s), touched, "{what}");
        let ids_dropped = s.digest_cell().cached_ids().is_none();
        assert_eq!(ids_dropped, !touched.is_empty(), "{what}");
        assert_eq!(s.digest(), s.digest_uncached(), "{what}");
    }

    /// With the digest warm, a one-subscription insert, removal and
    /// merge each drop the id-set hash and the hashes of the
    /// subscription's two attributes only. The id ends broker 5's block,
    /// so it takes a spare slot; an id that sorts before every slot finds
    /// none and respaces the table, and the renumbered postings keep
    /// every other attribute's hash. Removing an absent id drops nothing.
    #[test]
    fn a_mutation_drops_only_the_attributes_it_touched() {
        let schema = stock_schema();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .build()
            .unwrap();
        let touched: Vec<AttrId> = sub.attr_mask().iter().collect();
        assert_eq!(touched.len(), 2);
        let id = SubscriptionId::new(BrokerId(5), LocalSubId(10_000), sub.attr_mask());
        let first = SubscriptionId::new(BrokerId(0), LocalSubId(0), sub.attr_mask());
        let delta = BrokerSummary::rebuild(schema.clone(), [(id, &sub)]);
        let mut s = crate::testkit::seeded_summary(21, 800);
        let t = &touched;
        assert_drops(&mut s, "insert", t, false, |s| s.insert_with_id(id, &sub));
        assert_drops(&mut s, "remove", t, false, |s| s.remove(id));
        assert_drops(&mut s, "merge", t, false, |s| s.merge(&delta));
        assert_drops(&mut s, "remove", t, false, |s| s.remove(id));
        assert_drops(&mut s, "remove absent", &[], false, |s| s.remove(id));
        assert_drops(&mut s, "insert first", t, true, |s| {
            s.insert_with_id(first, &sub)
        });
    }

    #[test]
    fn merge_of_identical_summary_is_digest_stable() {
        let (schema, subs) = subs();
        let mut s = BrokerSummary::new(schema);
        for (i, sub) in subs.iter().enumerate() {
            s.insert(BrokerId(2), LocalSubId(i as u32), sub);
        }
        let before = s.digest();
        let copy = s.clone();
        s.merge(&copy);
        #[cfg(debug_assertions)]
        s.validate();
        assert_eq!(s.digest(), before, "self-merge must be a digest no-op");
    }
}
