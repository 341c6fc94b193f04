//! Broker checkpoints: the one durable format.
//!
//! A broker's only durable state is its own subscriptions: the local-id
//! counter and the exact store, written as a [`BrokerCheckpoint`]. The
//! schema and the overlay are static configuration that a restarting
//! host reads again; summaries, §6 shadow maps and neighbour views are
//! derived, so a restore re-derives the shadow maps and the next
//! propagation (or pull) rebuilds the rest. Every host restores a
//! broker from the same bytes:
//! [`SummaryPubSub::restore`](crate::SummaryPubSub::restore),
//! [`ChaosRun`](crate::ChaosRun)'s restarts and `subsumd --checkpoint`.
//!
//! A checkpoint file is outside input. [`BrokerCheckpoint::from_bytes`]
//! refuses what the bytes alone show to be wrong, and
//! [`BrokerCheckpoint::check`] what only the restoring broker's own
//! configuration (its id, schema and id layout) can show.

use subsum_net::NodeId;
use subsum_types::{
    ByteReader, ByteWriter, DecodeError, IdLayout, Schema, Subscription, SubscriptionId,
};

const CHECKPOINT_MAGIC: u32 = 0x5342_4B50; // "SBKP"
/// Version 2 appends the checksum; version 1 files are refused.
const CHECKPOINT_VERSION: u8 = 2;

/// 64-bit FNV-1a. Its per-byte step is a bijection of the state, so
/// any single-byte change to the input changes the hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Why a checkpoint is refused.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Not a checkpoint (bad magic), an unknown version, a checksum
    /// mismatch, or content no broker can restore from.
    Format(&'static str),
    /// Truncated or structurally malformed content.
    Decode(DecodeError),
    /// The checkpoint holds the ids of broker `owner`, not of the
    /// `broker` restoring it.
    Foreign {
        /// The broker whose ids the checkpoint holds.
        owner: NodeId,
        /// The broker that was to restore it.
        broker: NodeId,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Format(what) => write!(f, "snapshot format error: {what}"),
            SnapshotError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
            SnapshotError::Foreign { owner, broker } => {
                write!(
                    f,
                    "checkpoint belongs to broker {owner}, not broker {broker}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// The durable state of a *single* broker: its local-id counter and its
/// exact subscription store, id-sorted. This is what a broker writes to
/// stable storage between crashes; everything else (summaries, neighbor
/// views, intern tables) is derived and re-learned after restart.
///
/// A checkpoint carries no schema or topology: the restarting broker
/// re-reads those from its static configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BrokerCheckpoint {
    /// The next unassigned local subscription id.
    pub next_local: u32,
    /// The exact store, sorted by subscription id (so a summary rebuilt
    /// from a checkpoint uses the canonical ascending-id insertion order
    /// and is digest-comparable to the pre-crash summary).
    pub subs: Vec<(SubscriptionId, Subscription)>,
}

impl BrokerCheckpoint {
    /// Serializes the checkpoint with the deterministic byte codec,
    /// followed by the big-endian FNV-1a checksum of every byte before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(CHECKPOINT_MAGIC);
        w.u8(CHECKPOINT_VERSION);
        w.u32(self.next_local);
        w.u32(self.subs.len() as u32);
        for (id, sub) in &self.subs {
            id.encode(&mut w);
            sub.encode(&mut w);
        }
        let mut bytes = w.into_bytes();
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_be_bytes());
        bytes
    }

    /// Parses a checkpoint produced by [`BrokerCheckpoint::to_bytes`].
    /// After the magic and version, the checksum is verified before
    /// anything else is read.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on a malformed or truncated stream,
    /// on a checksum mismatch, and on one a broker cannot safely restore
    /// from: a stored id at or above `next_local`, ids of more than one
    /// broker, or an id whose `c3` mask is not the set of attributes its
    /// subscription constrains.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != CHECKPOINT_MAGIC {
            return Err(SnapshotError::Format("bad checkpoint magic"));
        }
        if r.u8()? != CHECKPOINT_VERSION {
            return Err(SnapshotError::Format("unsupported checkpoint version"));
        }
        let body_len = bytes
            .len()
            .checked_sub(8)
            .ok_or(DecodeError::UnexpectedEnd)?;
        let (body, sum) = bytes.split_at(body_len);
        if fnv1a(body) != ByteReader::new(sum).u64()? {
            return Err(SnapshotError::Format("checkpoint checksum mismatch"));
        }
        let mut r = ByteReader::new(body);
        r.bytes(5)?; // magic and version, checked above
        let next_local = r.u32()?;
        let n = r.u32()? as usize;
        let mut subs = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let id = SubscriptionId::decode(&mut r)?;
            let sub = Subscription::decode(&mut r)?;
            subs.push((id, sub));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Format("trailing checkpoint bytes"));
        }
        // BOUND: windows(2) slices always hold exactly two elements.
        if !subs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(SnapshotError::Format("checkpoint subs not id-sorted"));
        }
        // The restored broker mints `next_local` next: a stored id at or
        // above it would be minted again and replace the restored entry.
        if subs.iter().any(|(id, _)| id.local.0 >= next_local) {
            return Err(SnapshotError::Format("checkpoint id not below next_local"));
        }
        let owner = subs.first().map(|(id, _)| id.broker);
        if subs.iter().any(|(id, _)| Some(id.broker) != owner) {
            return Err(SnapshotError::Format("checkpoint ids of several brokers"));
        }
        // The summary counts an id's postings up to its mask's popcount:
        // a mask short of an attribute is refused by every peer
        // (`PostingOutsideMask`), one with an extra attribute never matches.
        if subs.iter().any(|(id, sub)| id.mask != sub.attr_mask()) {
            return Err(SnapshotError::Format(
                "checkpoint id mask is not its attributes",
            ));
        }
        Ok(BrokerCheckpoint { next_local, subs })
    }

    /// Refuses a checkpoint that broker `broker` under `schema` and
    /// `layout` must not restore: one holding another broker's ids,
    /// which it would serve as its own; a subscription with a constraint
    /// on an attribute `schema` lacks or of a kind it does not declare,
    /// which its summary has no row for; or an id `layout` cannot
    /// encode, which would make every summary push and pull answer fail
    /// to encode. Every host that restores a broker from outside input
    /// calls this first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Foreign`] for the first id of another broker, or
    /// [`SnapshotError::Format`] for a subscription outside `schema` or
    /// an id outside `layout`.
    pub fn check(
        &self,
        broker: NodeId,
        schema: &Schema,
        layout: IdLayout,
    ) -> Result<(), SnapshotError> {
        if let Some((id, _)) = self.subs.iter().find(|(id, _)| id.broker.0 != broker) {
            return Err(SnapshotError::Foreign {
                owner: id.broker.0,
                broker,
            });
        }
        if self.subs.iter().any(|(_, sub)| sub.check(schema).is_err()) {
            return Err(SnapshotError::Format(
                "checkpoint subscription outside the schema",
            ));
        }
        if self.subs.iter().any(|(id, _)| layout.encode(*id).is_err()) {
            return Err(SnapshotError::Format("checkpoint id outside the id layout"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use subsum_net::Topology;
    use subsum_types::{
        stock_schema, AttrId, AttrMask, Constraint, Event, LocalSubId, Num, NumOp, Predicate, StrOp,
    };

    use crate::SummaryPubSub;

    fn populated_system(filter: bool) -> SummaryPubSub {
        let schema = stock_schema();
        let mut sys = SummaryPubSub::new(Topology::fig7_tree(), schema.clone(), 1000).unwrap();
        sys.set_subsumption_filter(filter);
        let mut rng = StdRng::seed_from_u64(5);
        for b in 0..13u16 {
            for k in 0..6 {
                let sub = if k % 2 == 0 {
                    Subscription::builder(&schema)
                        .num("price", NumOp::Lt, rng.gen_range(1..50) as f64)
                        .unwrap()
                        .build()
                        .unwrap()
                } else {
                    Subscription::builder(&schema)
                        .str_op(
                            "symbol",
                            StrOp::Prefix,
                            &format!("S{}", rng.gen_range(0..4)),
                        )
                        .unwrap()
                        .build()
                        .unwrap()
                };
                sys.subscribe(b, &sub).unwrap();
            }
        }
        sys
    }

    /// Every broker restarted from its checkpoint bytes, with the §6
    /// filter on: the shadow maps are re-derived, not stored, so the
    /// restored system shadows as much, summarises the same and
    /// delivers the same.
    #[test]
    fn a_restore_re_derives_the_shadow_maps() {
        let mut original = populated_system(true);
        let shadowed: usize = (0..13u16).map(|b| original.shadowed_count(b)).sum();
        assert!(shadowed > 0, "workload must exercise shadowing");
        original.propagate().unwrap();
        let schema = original.schema().clone();
        let mut restored =
            SummaryPubSub::new(original.topology().clone(), schema.clone(), 1000).unwrap();
        restored.set_subsumption_filter(true);
        for b in 0..13u16 {
            let bytes = original.broker(b).checkpoint().to_bytes();
            let cp = BrokerCheckpoint::from_bytes(&bytes).unwrap();
            restored.restore(b, cp).unwrap();
            assert_eq!(restored.shadowed_count(b), original.shadowed_count(b));
            assert_eq!(restored.broker(b).own(), original.broker(b).own());
        }
        restored.propagate().unwrap();

        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let event = Event::builder(&schema)
                .num("price", rng.gen_range(0..60) as f64)
                .unwrap()
                .str("symbol", format!("S{}x", rng.gen_range(0..5)))
                .unwrap()
                .build();
            let publisher = rng.gen_range(0..13u16);
            let delivered = |sys: &SummaryPubSub| -> Vec<_> {
                let out = sys.publish(publisher, &event);
                out.deliveries.iter().map(|d| d.id).collect()
            };
            assert_eq!(delivered(&restored), delivered(&original));
            assert_eq!(delivered(&original), original.oracle_matches(&event));
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_rejection() {
        let sys = populated_system(false);
        for b in 0..13u16 {
            let cp = sys.broker(b).checkpoint();
            assert!(cp.subs.windows(2).all(|w| w[0].0 < w[1].0), "id-sorted");
            let bytes = cp.to_bytes();
            assert_eq!(BrokerCheckpoint::from_bytes(&bytes).unwrap(), cp);
            // Truncations never panic, always reject.
            for cut in (0..bytes.len()).step_by(11) {
                assert!(BrokerCheckpoint::from_bytes(&bytes[..cut]).is_err());
            }
        }
        assert!(matches!(
            BrokerCheckpoint::from_bytes(&[0, 0, 0, 0, 1]),
            Err(SnapshotError::Format("bad checkpoint magic"))
        ));
        // A version-1 file (no checksum) is refused.
        let mut v1 = sys.broker(0).checkpoint().to_bytes();
        v1[4] = 1;
        assert_eq!(
            BrokerCheckpoint::from_bytes(&v1),
            Err(SnapshotError::Format("unsupported checkpoint version"))
        );
    }

    /// Well-formed bytes no broker may restore from are refused as a
    /// file; the ones only a given broker may not restore from are
    /// refused by `check`, and by every host's restore through it.
    #[test]
    fn refused_checkpoints_restore_nowhere() {
        let mut sys = populated_system(false);
        let cp = sys.broker(0).checkpoint();
        let refuse = |bad: &BrokerCheckpoint| BrokerCheckpoint::from_bytes(&bad.to_bytes()).err();
        let refused = |what| Some(SnapshotError::Format(what));
        // A counter that would mint a stored id again.
        let mut stale_counter = cp.clone();
        stale_counter.next_local -= 1;
        assert_eq!(
            refuse(&stale_counter),
            refused("checkpoint id not below next_local")
        );
        let mut two_brokers = cp.clone();
        two_brokers.subs.extend(sys.broker(1).checkpoint().subs);
        assert_eq!(
            refuse(&two_brokers),
            refused("checkpoint ids of several brokers")
        );
        // An id whose `c3` mask lacks its one attribute, or names one more.
        let mut extra = cp.subs[0].0.mask;
        extra.set(sys.schema().attr_id("volume").unwrap());
        for mask in [AttrMask::empty(), extra] {
            let mut bad_mask = cp.clone();
            bad_mask.subs[0].0.mask = mask;
            assert_eq!(
                refuse(&bad_mask),
                refused("checkpoint id mask is not its attributes")
            );
        }

        // Another broker's store, as a file and as a restore.
        let schema = sys.schema().clone();
        let foreign = sys.broker(1).checkpoint();
        assert_eq!(refuse(&foreign), None);
        let owned_elsewhere = SnapshotError::Foreign {
            owner: 1,
            broker: 0,
        };
        let layout = sys.codec().layout();
        assert_eq!(
            foreign.check(0, &schema, layout),
            Err(owned_elsewhere.clone())
        );
        assert_eq!(sys.restore(0, foreign), Err(owned_elsewhere));
        assert_eq!(sys.broker(0).checkpoint(), cp, "nothing restored");
        assert_eq!(cp.check(0, &schema, layout), Ok(()));

        // A constraint on an attribute the schema lacks, or of the other
        // kind: the summary has no row for either.
        let symbol = schema.attr_id("symbol").unwrap();
        let price_lt_1 = Predicate::Num(NumOp::Lt, Num::new(1.0).unwrap());
        for attr in [AttrId(schema.len() as u16), symbol] {
            let sub = Subscription::from_constraints(vec![Constraint {
                attr,
                pred: price_lt_1.clone(),
            }])
            .unwrap();
            let mut outside = cp.clone();
            let id = SubscriptionId::new(cp.subs[0].0.broker, cp.subs[0].0.local, sub.attr_mask());
            outside.subs[0] = (id, sub);
            let outside = BrokerCheckpoint::from_bytes(&outside.to_bytes()).unwrap();
            let refused = refused("checkpoint subscription outside the schema");
            assert_eq!(outside.check(0, &schema, layout).err(), refused);
            assert_eq!(sys.restore(0, outside).err(), refused);
        }
        // An id past the 1 000-subscription capacity's ten local-id bits:
        // no summary holding it would encode.
        let mut past_layout = cp.clone();
        let (id, sub) = past_layout.subs.pop().unwrap();
        let far = SubscriptionId::new(id.broker, LocalSubId(1 << 10), id.mask);
        past_layout.subs.push((far, sub));
        past_layout.next_local = (1 << 10) + 1;
        let past_layout = BrokerCheckpoint::from_bytes(&past_layout.to_bytes()).unwrap();
        let refused = refused("checkpoint id outside the id layout");
        assert_eq!(past_layout.check(0, &schema, layout).err(), refused);
        assert_eq!(sys.restore(0, past_layout).err(), refused);
        assert_eq!(sys.broker(0).checkpoint(), cp, "nothing restored");
    }

    /// A flipped bit anywhere in a checkpoint — in a constraint operand,
    /// or in a local id that stays sorted — would restore a different
    /// broker: the checksum refuses it.
    #[test]
    fn bit_flipped_checkpoints_are_refused() {
        let sys = populated_system(false);
        let bytes = sys.broker(0).checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << (i % 8);
            assert!(BrokerCheckpoint::from_bytes(&flipped).is_err(), "byte {i}");
        }
    }
}
