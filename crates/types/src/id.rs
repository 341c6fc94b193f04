//! Subscription identifiers: the bit-packed `(c1, c2, c3)` ids of §3.2.
//!
//! A subscription id concatenates three components:
//!
//! * `c1` — the id of the broker owning the subscription, in
//!   `⌈log₂(brokers)⌉` bits;
//! * `c2` — the broker-local subscription number, in
//!   `⌈log₂(max outstanding subscriptions)⌉` bits;
//! * `c3` — one bit per schema attribute, set for attributes the
//!   subscription constrains.
//!
//! [`IdLayout`] fixes the widths for a system; [`SubscriptionId`] is the
//! decoded form. The layout's `encode`/`decode` pair is the wire format
//! used whenever ids travel inside summaries, and `byte_len` is the `s_id`
//! quantity of the paper's bandwidth equations.

use std::fmt;

use crate::error::TypeError;
use crate::schema::AttrId;

/// Identifier of a broker in the overlay (the `c1` component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BrokerId(pub u16);

impl BrokerId {
    /// The broker's index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BrokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Broker-local subscription number (the `c2` component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalSubId(pub u32);

impl fmt::Display for LocalSubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A set of attribute ids as a 64-bit mask (the `c3` component).
///
/// # Example
///
/// ```
/// use subsum_types::{AttrMask, AttrId};
/// let mut m = AttrMask::empty();
/// m.set(AttrId(3));
/// m.set(AttrId(5));
/// assert_eq!(m.count(), 2);
/// assert!(m.contains(AttrId(3)));
/// assert!(!m.contains(AttrId(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttrMask(pub u64);

impl AttrMask {
    /// The empty mask.
    pub fn empty() -> Self {
        AttrMask(0)
    }

    /// Marks an attribute as present.
    pub fn set(&mut self, attr: AttrId) {
        debug_assert!(attr.index() < 64, "attribute id exceeds mask width");
        self.0 |= 1u64 << attr.index();
    }

    /// Tests whether an attribute is present.
    pub fn contains(self, attr: AttrId) -> bool {
        attr.index() < 64 && (self.0 >> attr.index()) & 1 == 1
    }

    /// The number of attributes present (the match counter target of the
    /// paper's Algorithm 1, step 2).
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the present attribute ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = AttrId> {
        (0..64u16)
            .filter(move |i| (self.0 >> i) & 1 == 1)
            .map(AttrId)
    }
}

impl FromIterator<AttrId> for AttrMask {
    fn from_iter<T: IntoIterator<Item = AttrId>>(iter: T) -> Self {
        let mut m = AttrMask::empty();
        for a in iter {
            m.set(a);
        }
        m
    }
}

impl fmt::Binary for AttrMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// A fully qualified subscription identifier `(c1, c2, c3)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubscriptionId {
    /// `c1`: the broker the subscription belongs to.
    pub broker: BrokerId,
    /// `c2`: the subscription's number at that broker.
    pub local: LocalSubId,
    /// `c3`: the attributes the subscription constrains.
    pub mask: AttrMask,
}

impl SubscriptionId {
    /// Creates an id from its components.
    pub fn new(broker: BrokerId, local: LocalSubId, mask: AttrMask) -> Self {
        SubscriptionId {
            broker,
            local,
            mask,
        }
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.broker, self.local)
    }
}

/// The bit layout of subscription ids for one system configuration.
///
/// Mirrors the paper's example (§3.2): a system with 4 brokers, 8
/// outstanding subscriptions per broker and 7 attributes packs ids into
/// 2 + 3 + 7 = 12 bits.
///
/// # Example
///
/// ```
/// use subsum_types::IdLayout;
/// let layout = IdLayout::new(4, 8, 7).unwrap();
/// assert_eq!(layout.bit_len(), 12);
/// assert_eq!(layout.byte_len(), 2);
/// let layout = IdLayout::new(1000, 1_000_000, 10).unwrap();
/// assert_eq!(layout.bit_len(), 10 + 20 + 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdLayout {
    broker_bits: u32,
    local_bits: u32,
    attr_bits: u32,
}

/// Number of bits needed to represent `n` distinct values (⌈log₂ n⌉,
/// minimum 1).
fn bits_for(n: u64) -> u32 {
    if n <= 2 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

impl IdLayout {
    /// Computes the layout for a system of `brokers` brokers, each holding
    /// at most `max_subs` outstanding subscriptions, over a schema of
    /// `attrs` attributes.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::TooManyAttributes`] if `attrs > 64`, and
    /// [`TypeError::IdOverflow`] if `brokers > 2¹⁶` or `max_subs > 2³²`:
    /// [`BrokerId`] and [`LocalSubId`] hold no more, so a wider `c1` or
    /// `c2` would let two packed ids decode to one id.
    pub fn new(brokers: u64, max_subs: u64, attrs: u32) -> Result<Self, TypeError> {
        if attrs > 64 {
            return Err(TypeError::TooManyAttributes(attrs as usize));
        }
        if brokers > 1 << u16::BITS {
            return Err(TypeError::IdOverflow {
                component: "c1",
                value: brokers,
                bits: u16::BITS,
            });
        }
        if max_subs > 1 << u32::BITS {
            return Err(TypeError::IdOverflow {
                component: "c2",
                value: max_subs,
                bits: u32::BITS,
            });
        }
        Ok(IdLayout {
            broker_bits: bits_for(brokers.max(1)),
            local_bits: bits_for(max_subs.max(1)),
            attr_bits: attrs,
        })
    }

    /// Width of `c1` in bits.
    pub fn broker_bits(&self) -> u32 {
        self.broker_bits
    }

    /// Width of `c2` in bits.
    pub fn local_bits(&self) -> u32 {
        self.local_bits
    }

    /// Width of `c3` in bits.
    pub fn attr_bits(&self) -> u32 {
        self.attr_bits
    }

    /// Total id width in bits.
    pub fn bit_len(&self) -> u32 {
        self.broker_bits + self.local_bits + self.attr_bits
    }

    /// Total id width in whole bytes — the `s_id` of the paper's
    /// bandwidth equations (Table 2 uses 4).
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8) as usize
    }

    /// Packs an id into an integer: `c1` in the most significant bits,
    /// then `c2`, then `c3` (attribute 0 in the least significant bit).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if a component exceeds its width.
    pub fn encode(&self, id: SubscriptionId) -> Result<u128, TypeError> {
        let broker = id.broker.0 as u64;
        if self.broker_bits < 64 && broker >= (1u64 << self.broker_bits) {
            return Err(TypeError::IdOverflow {
                component: "c1",
                value: broker,
                bits: self.broker_bits,
            });
        }
        let local = id.local.0 as u64;
        if self.local_bits < 64 && local >= (1u64 << self.local_bits) {
            return Err(TypeError::IdOverflow {
                component: "c2",
                value: local,
                bits: self.local_bits,
            });
        }
        let mask = id.mask.0;
        if self.attr_bits < 64 && mask >= (1u64 << self.attr_bits) {
            return Err(TypeError::IdOverflow {
                component: "c3",
                value: mask,
                bits: self.attr_bits,
            });
        }
        let mut packed: u128 = broker as u128;
        packed = (packed << self.local_bits) | local as u128;
        packed = (packed << self.attr_bits) | mask as u128;
        Ok(packed)
    }

    /// Unpacks an id packed by [`IdLayout::encode`]. Bits above `c1`'s
    /// low 16 are dropped.
    pub fn decode(&self, packed: u128) -> SubscriptionId {
        let attr_mask = low_bits(self.attr_bits);
        let local_mask = low_bits(self.local_bits);
        let mask = (packed & attr_mask) as u64;
        let local = ((packed >> self.attr_bits) & local_mask) as u64;
        let broker = (packed >> (self.attr_bits + self.local_bits)) as u64;
        SubscriptionId {
            broker: BrokerId(broker as u16),
            local: LocalSubId(local as u32),
            mask: AttrMask(mask),
        }
    }

    /// Serializes an id to exactly [`IdLayout::byte_len`] big-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if a component exceeds its width.
    pub fn encode_bytes(&self, id: SubscriptionId, out: &mut Vec<u8>) -> Result<(), TypeError> {
        let packed = self.encode(id)?;
        let n = self.byte_len();
        for i in (0..n).rev() {
            out.push((packed >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Deserializes an id written by [`IdLayout::encode_bytes`].
    ///
    /// Returns `None` if fewer than [`IdLayout::byte_len`] bytes remain.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Option<(SubscriptionId, usize)> {
        let n = self.byte_len();
        if bytes.len() < n {
            return None;
        }
        let mut packed: u128 = 0;
        // BOUND: bytes.len() >= n was checked above.
        for &b in &bytes[..n] {
            packed = (packed << 8) | b as u128;
        }
        Some((self.decode(packed), n))
    }
}

fn low_bits(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_matches_paper_examples() {
        // §3.2: 1000 brokers → 10 bits; 1,000,000 subscriptions → 20 bits.
        assert_eq!(bits_for(1000), 10);
        assert_eq!(bits_for(1_000_000), 20);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
    }

    #[test]
    fn paper_fig6_example() {
        // 4 brokers, 8 subscriptions, 7 attributes: subscription 1 at
        // broker 2 with attributes {3, 5, 6}.
        let layout = IdLayout::new(4, 8, 7).unwrap();
        assert_eq!(layout.broker_bits(), 2);
        assert_eq!(layout.local_bits(), 3);
        assert_eq!(layout.attr_bits(), 7);
        assert_eq!(layout.bit_len(), 12);
        let mask: AttrMask = [AttrId(3), AttrId(5), AttrId(6)].into_iter().collect();
        let id = SubscriptionId::new(BrokerId(2), LocalSubId(1), mask);
        let packed = layout.encode(id).unwrap();
        // c1=10, c2=001, c3=1101000 (attribute 0 least significant).
        #[allow(clippy::unusual_byte_groupings)] // grouped as c1_c2_c3
        let expected = 0b10_001_1101000;
        assert_eq!(packed, expected);
        assert_eq!(layout.decode(packed), id);
    }

    #[test]
    fn roundtrip_bytes() {
        let layout = IdLayout::new(24, 1000, 10).unwrap();
        let id = SubscriptionId::new(
            BrokerId(23),
            LocalSubId(999),
            [AttrId(0), AttrId(9)].into_iter().collect(),
        );
        let mut buf = Vec::new();
        layout.encode_bytes(id, &mut buf).unwrap();
        assert_eq!(buf.len(), layout.byte_len());
        let (decoded, consumed) = layout.decode_bytes(&buf).unwrap();
        assert_eq!(decoded, id);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn overflow_detected() {
        let layout = IdLayout::new(4, 8, 7).unwrap();
        let too_big_broker = SubscriptionId::new(BrokerId(4), LocalSubId(0), AttrMask::empty());
        assert!(matches!(
            layout.encode(too_big_broker),
            Err(TypeError::IdOverflow {
                component: "c1",
                ..
            })
        ));
        let too_big_local = SubscriptionId::new(BrokerId(0), LocalSubId(8), AttrMask::empty());
        assert!(matches!(
            layout.encode(too_big_local),
            Err(TypeError::IdOverflow {
                component: "c2",
                ..
            })
        ));
        let too_big_mask = SubscriptionId::new(BrokerId(0), LocalSubId(0), AttrMask(1 << 7));
        assert!(matches!(
            layout.encode(too_big_mask),
            Err(TypeError::IdOverflow {
                component: "c3",
                ..
            })
        ));
    }

    #[test]
    fn too_many_attrs_rejected() {
        assert!(IdLayout::new(4, 8, 65).is_err());
        assert!(IdLayout::new(4, 8, 64).is_ok());
    }

    /// A layout with a wider `c1` or `c2` than `BrokerId`/`LocalSubId`
    /// hold would decode two packed ids to one: a packed `c1` of 65 536
    /// came back as `BrokerId(0)`.
    #[test]
    fn layouts_wider_than_the_id_fields_are_refused() {
        assert!(IdLayout::new(1 << 16, 1 << 32, 64).is_ok());
        assert!(matches!(
            IdLayout::new((1 << 16) + 1, 8, 7),
            Err(TypeError::IdOverflow {
                component: "c1",
                ..
            })
        ));
        assert!(matches!(
            IdLayout::new(4, (1 << 32) + 1, 7),
            Err(TypeError::IdOverflow {
                component: "c2",
                ..
            })
        ));
        let widest = IdLayout::new(1 << 16, 1 << 32, 64).unwrap();
        assert_eq!(widest.bit_len(), 16 + 32 + 64);
        let id = SubscriptionId::new(BrokerId(u16::MAX), LocalSubId(u32::MAX), AttrMask(u64::MAX));
        assert_eq!(widest.decode(widest.encode(id).unwrap()), id);
    }

    #[test]
    fn mask_iter_and_count() {
        let mask: AttrMask = [AttrId(1), AttrId(5), AttrId(63)].into_iter().collect();
        assert_eq!(mask.count(), 3);
        let ids: Vec<u16> = mask.iter().map(|a| a.0).collect();
        assert_eq!(ids, vec![1, 5, 63]);
        assert!(mask.contains(AttrId(63)));
        assert!(!mask.contains(AttrId(0)));
    }

    #[test]
    fn decode_bytes_short_input() {
        let layout = IdLayout::new(24, 1000, 10).unwrap();
        assert!(layout.decode_bytes(&[0u8]).is_none());
    }

    #[test]
    fn table2_sid_is_four_bytes() {
        // Table 2: s_id = 4 bytes. With 24 brokers (5 bits), 1000
        // outstanding subscriptions (10 bits) and 10 attributes, ids pack
        // into 25 bits → 4 bytes.
        let layout = IdLayout::new(24, 1000, 10).unwrap();
        assert_eq!(layout.byte_len(), 4);
    }
}
