//! Broker-state snapshots: persist and restore a [`SummaryPubSub`].
//!
//! A production pub/sub deployment must survive restarts without losing
//! the outstanding subscriptions. A snapshot captures everything not
//! derivable from code: the schema, the overlay, and each broker's
//! durable state — its [`BrokerCheckpoint`]. Summaries, §6 shadow maps
//! and multi-broker state are *not* persisted: a restore re-derives the
//! shadow maps, and the first propagation rebuilds the summaries exactly.
//!
//! Format: magic, version, schema (names + kinds), topology (edge list),
//! flags and capacity, then each broker's checkpoint bytes (each ending
//! in its own checksum), all via the deterministic byte codec. Either
//! kind of durable input is checked by [`BrokerCheckpoint::from_bytes`]
//! before anything restores from it.

use subsum_net::{NodeId, Topology};
use subsum_types::{
    AttrKind, ByteReader, ByteWriter, DecodeError, Schema, Subscription, SubscriptionId,
};

use crate::system::SummaryPubSub;

const MAGIC: u32 = 0x5355_4253; // "SUBS"
const VERSION: u8 = 2;

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

/// Errors from [`SummaryPubSub::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The stream is not a snapshot (bad magic) or of an unknown version.
    Format(&'static str),
    /// Truncated or structurally malformed content.
    Decode(DecodeError),
    /// Decoded content violates the type layer.
    Type(subsum_types::TypeError),
    /// Decoded topology is invalid.
    Topology(subsum_net::TopologyError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Format(what) => write!(f, "snapshot format error: {what}"),
            SnapshotError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
            SnapshotError::Type(e) => write!(f, "snapshot content invalid: {e}"),
            SnapshotError::Topology(e) => write!(f, "snapshot topology invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<subsum_types::TypeError> for SnapshotError {
    fn from(e: subsum_types::TypeError) -> Self {
        SnapshotError::Type(e)
    }
}

impl From<subsum_net::TopologyError> for SnapshotError {
    fn from(e: subsum_net::TopologyError) -> Self {
        SnapshotError::Topology(e)
    }
}

/// The durable state of a *single* broker: its local-id counter and its
/// exact subscription store, id-sorted. This is what a broker writes to
/// stable storage between crashes; everything else (summaries, neighbor
/// views, intern tables) is derived and re-learned after restart.
///
/// Unlike the whole-system snapshot, a checkpoint carries no schema or
/// topology — the restarting broker re-reads those from its static
/// configuration.
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
}

impl SummaryPubSub {
    /// Serializes the durable state (schema, overlay, each broker's
    /// checkpoint). See the [module docs](self) for what is and is not
    /// captured.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u8(VERSION);

        // Schema.
        let schema = self.schema();
        w.u16(schema.len() as u16);
        for (_, spec) in schema.iter() {
            w.str16(&spec.name);
            w.u8(match spec.kind {
                AttrKind::String => 0,
                AttrKind::Integer => 1,
                AttrKind::Float => 2,
                AttrKind::Date => 3,
            });
        }

        // Topology.
        let topology = self.topology();
        w.u16(topology.len() as u16);
        let edges: Vec<_> = topology.edges().collect();
        w.u32(edges.len() as u32);
        for (a, b) in edges {
            w.u16(a);
            w.u16(b);
        }

        // System flags and capacity.
        w.u8(u8::from(self.subsumption_filter_enabled()));
        w.u64(self.max_subs_per_broker());

        // Per-broker checkpoints.
        for b in 0..topology.len() as NodeId {
            let checkpoint = self.broker(b).checkpoint().to_bytes();
            w.u32(checkpoint.len() as u32);
            w.bytes(&checkpoint);
        }
        w.into_bytes()
    }

    /// Restores a system from a snapshot produced by
    /// [`SummaryPubSub::to_snapshot`]. Summaries are rebuilt; run
    /// [`SummaryPubSub::propagate`] before publishing.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the stream is malformed or
    /// internally inconsistent: a broker's checkpoint that
    /// [`BrokerCheckpoint::from_bytes`] refuses, or one holding another
    /// broker's ids.
    pub fn from_snapshot(bytes: &[u8]) -> Result<SummaryPubSub, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(SnapshotError::Format("bad magic"));
        }
        if r.u8()? != VERSION {
            return Err(SnapshotError::Format("unsupported version"));
        }

        let n_attrs = r.u16()? as usize;
        let mut sb = Schema::builder();
        for _ in 0..n_attrs {
            let name = r.str16()?.to_owned();
            let kind = match r.u8()? {
                0 => AttrKind::String,
                1 => AttrKind::Integer,
                2 => AttrKind::Float,
                3 => AttrKind::Date,
                _ => return Err(SnapshotError::Format("unknown attribute kind")),
            };
            sb = sb.attr(name, kind)?;
        }
        let schema = sb.build();

        let n_brokers = r.u16()? as usize;
        let n_edges = r.u32()? as usize;
        let mut edges = Vec::with_capacity(n_edges.min(1 << 16));
        for _ in 0..n_edges {
            edges.push((r.u16()?, r.u16()?));
        }
        let topology = Topology::from_edges(n_brokers, &edges)?;

        let filter = r.u8()? != 0;
        let max_subs = r.u64()?;

        let mut sys = SummaryPubSub::new(topology, schema, max_subs)?;
        sys.set_subsumption_filter(filter);

        for b in 0..n_brokers as NodeId {
            let len = r.u32()? as usize;
            let checkpoint = BrokerCheckpoint::from_bytes(r.bytes(len)?)?;
            if checkpoint.subs.iter().any(|(id, _)| id.broker.0 != b) {
                return Err(SnapshotError::Format("snapshot broker holds foreign ids"));
            }
            sys.brokers[b as usize].restore(Some(checkpoint));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Format("trailing bytes"));
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use subsum_types::{stock_schema, AttrMask, Event, NumOp, StrOp};

    /// `sys`'s snapshot with broker `b`'s checkpoint bytes replaced by
    /// `body`.
    fn snapshot_with(sys: &SummaryPubSub, b: NodeId, body: &[u8]) -> Vec<u8> {
        let n = sys.topology().len() as NodeId;
        let bodies: Vec<_> = (0..n)
            .map(|i| sys.broker(i).checkpoint().to_bytes())
            .collect();
        let mut bytes = sys.to_snapshot();
        let old: usize = bodies.iter().map(|own| 4 + own.len()).sum();
        bytes.truncate(bytes.len() - old);
        for (i, own) in bodies.iter().enumerate() {
            let body = if i == b as usize { body } else { own };
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(body);
        }
        bytes
    }

    fn populated_system(filter: bool) -> (SummaryPubSub, Vec<SubscriptionId>) {
        let schema = stock_schema();
        let mut sys = SummaryPubSub::new(Topology::fig7_tree(), schema.clone(), 1000).unwrap();
        sys.set_subsumption_filter(filter);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ids = Vec::new();
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
                ids.push(sys.subscribe(b, &sub).unwrap());
            }
        }
        (sys, ids)
    }

    #[test]
    fn snapshot_roundtrip_preserves_behavior() {
        let (mut original, _) = populated_system(false);
        original.propagate().unwrap();
        let snapshot = original.to_snapshot();
        let mut restored = SummaryPubSub::from_snapshot(&snapshot).unwrap();
        restored.propagate().unwrap();

        let schema = original.schema().clone();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let event = Event::builder(&schema)
                .num("price", rng.gen_range(0..60) as f64)
                .unwrap()
                .str("symbol", format!("S{}x", rng.gen_range(0..5)))
                .unwrap()
                .build();
            let publisher = rng.gen_range(0..13u16);
            let a: Vec<_> = original
                .publish(publisher, &event)
                .deliveries
                .iter()
                .map(|d| d.id)
                .collect();
            let b: Vec<_> = restored
                .publish(publisher, &event)
                .deliveries
                .iter()
                .map(|d| d.id)
                .collect();
            assert_eq!(a, b);
            assert_eq!(a, original.oracle_matches(&event));
        }
    }

    #[test]
    fn snapshot_roundtrip_with_shadow_maps() {
        let (mut original, ids) = populated_system(true);
        let shadowed: usize = (0..13u16).map(|b| original.shadowed_count(b)).sum();
        assert!(shadowed > 0, "workload must exercise shadowing");
        original.propagate().unwrap();
        let snapshot = original.to_snapshot();
        let mut restored = SummaryPubSub::from_snapshot(&snapshot).unwrap();
        let restored_shadowed: usize = (0..13u16).map(|b| restored.shadowed_count(b)).sum();
        assert_eq!(shadowed, restored_shadowed);
        // Re-derived, not stored: the same coverers, so the same summaries.
        for b in 0..13u16 {
            assert_eq!(restored.broker(b).own(), original.broker(b).own());
        }
        restored.propagate().unwrap();

        // Ids keep working: new subscriptions continue the local counters
        // without collisions.
        let schema = restored.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("high", NumOp::Gt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let new_id = restored.subscribe(3, &sub).unwrap();
        assert!(
            !ids.contains(&new_id),
            "restored counters must not reuse ids"
        );
    }

    #[test]
    fn checkpoint_roundtrip_and_rejection() {
        let (sys, _) = populated_system(false);
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
        // A whole-system snapshot is not a checkpoint.
        assert!(BrokerCheckpoint::from_bytes(&sys.to_snapshot()).is_err());
    }

    /// Well-formed bytes a broker must not restore from, refused alike as
    /// a checkpoint file and as broker 0's body in a snapshot.
    #[test]
    fn refused_checkpoints_restore_from_neither_a_file_nor_a_snapshot() {
        let (sys, _) = populated_system(false);
        let cp = sys.broker(0).checkpoint();
        assert_eq!(snapshot_with(&sys, 0, &cp.to_bytes()), sys.to_snapshot());
        // What `bad` is refused with as a file and as a snapshot body.
        let refuse = |bad: &BrokerCheckpoint| {
            let bytes = bad.to_bytes();
            let file = BrokerCheckpoint::from_bytes(&bytes).err();
            let snapshot = snapshot_with(&sys, 0, &bytes);
            (file, SummaryPubSub::from_snapshot(&snapshot).err())
        };
        let both = |what| {
            let refused = SnapshotError::Format(what);
            (Some(refused.clone()), Some(refused))
        };
        // A counter that would mint a stored id again.
        let mut stale_counter = cp.clone();
        stale_counter.next_local -= 1;
        assert_eq!(
            refuse(&stale_counter),
            both("checkpoint id not below next_local")
        );
        // Ids of several brokers, and in a snapshot another broker's ids.
        let mut two_brokers = cp.clone();
        two_brokers.subs.extend(sys.broker(1).checkpoint().subs);
        assert_eq!(
            refuse(&two_brokers),
            both("checkpoint ids of several brokers")
        );
        let foreign = refuse(&sys.broker(1).checkpoint());
        let owned_elsewhere = Some(SnapshotError::Format("snapshot broker holds foreign ids"));
        assert_eq!(foreign, (None, owned_elsewhere));
        // An id whose `c3` mask lacks its one attribute, or names one more.
        let mut extra = cp.subs[0].0.mask;
        extra.set(sys.schema().attr_id("volume").unwrap());
        for mask in [AttrMask::empty(), extra] {
            let mut bad_mask = cp.clone();
            bad_mask.subs[0].0.mask = mask;
            assert_eq!(
                refuse(&bad_mask),
                both("checkpoint id mask is not its attributes")
            );
        }
    }

    /// A flipped bit anywhere in a checkpoint — in a constraint operand,
    /// or in a local id that stays sorted — would restore a different
    /// broker: the checksum refuses it, as a file and as a snapshot body.
    #[test]
    fn bit_flipped_checkpoints_restore_from_neither_a_file_nor_a_snapshot() {
        let (sys, _) = populated_system(false);
        let bytes = sys.broker(0).checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << (i % 8);
            assert!(BrokerCheckpoint::from_bytes(&flipped).is_err(), "byte {i}");
            let snapshot = snapshot_with(&sys, 0, &flipped);
            assert!(SummaryPubSub::from_snapshot(&snapshot).is_err(), "byte {i}");
        }
    }

    /// A 262 KB snapshot naming 65 535 brokers on a connected path would
    /// ask the topology for a 16 GiB distance matrix: it is refused
    /// before anything is allocated.
    #[test]
    fn snapshot_naming_too_many_brokers_is_refused() {
        let n = NodeId::MAX;
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u16(0); // no attributes
        w.u16(n);
        w.u32(u32::from(n) - 1);
        for v in 1..n {
            w.u16(v - 1);
            w.u16(v);
        }
        assert_eq!(
            SummaryPubSub::from_snapshot(&w.into_bytes()).err(),
            Some(SnapshotError::Topology(
                subsum_net::TopologyError::TooLarge(usize::from(n))
            ))
        );
    }

    #[test]
    fn malformed_snapshots_rejected() {
        assert!(matches!(
            SummaryPubSub::from_snapshot(&[]),
            Err(SnapshotError::Decode(_))
        ));
        assert!(matches!(
            SummaryPubSub::from_snapshot(&[0, 0, 0, 0, 1]),
            Err(SnapshotError::Format("bad magic"))
        ));
        let (sys, _) = populated_system(false);
        let mut bytes = sys.to_snapshot();
        bytes.push(0xFF);
        assert!(matches!(
            SummaryPubSub::from_snapshot(&bytes),
            Err(SnapshotError::Format("trailing bytes"))
        ));
        // Truncations never panic.
        let bytes = sys.to_snapshot();
        for cut in (0..bytes.len()).step_by(37) {
            assert!(SummaryPubSub::from_snapshot(&bytes[..cut]).is_err());
        }
    }
}
