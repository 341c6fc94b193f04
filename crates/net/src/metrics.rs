//! Network cost accounting: bytes, messages and hops.
//!
//! The paper's primary metrics (§5) are (i) network bandwidth in bytes
//! exchanged, (ii) storage, (iii) hop counts for subscription propagation
//! and (iv) hop counts for event routing, where *one hop is any message
//! sent from one broker to another, whether or not they are overlay
//! neighbors* (§5.2.1). [`NetMetrics`] accumulates these quantities;
//! algorithms call [`NetMetrics::record`] for every broker→broker message.

use crate::topology::NodeId;

/// Accumulated traffic counters for one experiment run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Total broker→broker messages (the paper's hop count).
    pub messages: u64,
    /// Total payload bytes, weighted by the overlay path length each
    /// message traverses (bandwidth actually consumed by links).
    pub link_bytes: u64,
    /// Total payload bytes at the application layer (unweighted).
    pub payload_bytes: u64,
    /// Messages sent per broker.
    pub sent_per_broker: Vec<u64>,
    /// Messages received per broker.
    pub received_per_broker: Vec<u64>,
    /// Bytes sent per broker (unweighted payload).
    pub bytes_per_broker: Vec<u64>,
}

impl NetMetrics {
    /// Creates zeroed counters for `n` brokers.
    pub fn new(n: usize) -> Self {
        NetMetrics {
            messages: 0,
            link_bytes: 0,
            payload_bytes: 0,
            sent_per_broker: vec![0; n],
            received_per_broker: vec![0; n],
            bytes_per_broker: vec![0; n],
        }
    }

    /// Records one broker→broker message of `bytes` payload traversing
    /// `path_len` overlay links (1 for neighbor sends; the BFS distance
    /// for direct non-neighbor sends, which the underlay still carries
    /// across that many links).
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: usize, path_len: u32) {
        self.messages += 1;
        self.payload_bytes += bytes as u64;
        self.link_bytes += bytes as u64 * u64::from(path_len.max(1));
        self.sent_per_broker[from as usize] += 1;
        self.received_per_broker[to as usize] += 1;
        self.bytes_per_broker[from as usize] += bytes as u64;
    }

    /// Merges counters from another run segment.
    ///
    /// Segments may cover different broker populations (e.g. a run that
    /// grew its overlay between periods): the per-broker vectors grow to
    /// the larger population, zero-padding the brokers the smaller
    /// segment never saw.
    pub fn merge(&mut self, other: &NetMetrics) {
        let n = self.sent_per_broker.len().max(other.sent_per_broker.len());
        self.sent_per_broker.resize(n, 0);
        self.received_per_broker.resize(n, 0);
        self.bytes_per_broker.resize(n, 0);
        self.messages += other.messages;
        self.link_bytes += other.link_bytes;
        self.payload_bytes += other.payload_bytes;
        for i in 0..other.sent_per_broker.len() {
            self.sent_per_broker[i] += other.sent_per_broker[i];
            self.received_per_broker[i] += other.received_per_broker[i];
            self.bytes_per_broker[i] += other.bytes_per_broker[i];
        }
    }

    /// The most-loaded broker's sent+received message count (load
    /// balancing metric for the virtual-degree ablation).
    pub fn max_broker_load(&self) -> u64 {
        self.sent_per_broker
            .iter()
            .zip(&self.received_per_broker)
            .map(|(s, r)| s + r)
            .max()
            .unwrap_or(0)
    }

    /// Mean messages per broker (sent + received).
    pub fn mean_broker_load(&self) -> f64 {
        if self.sent_per_broker.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .sent_per_broker
            .iter()
            .zip(&self.received_per_broker)
            .map(|(s, r)| s + r)
            .sum();
        total as f64 / self.sent_per_broker.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = NetMetrics::new(3);
        m.record(0, 1, 100, 1);
        m.record(0, 2, 50, 3);
        assert_eq!(m.messages, 2);
        assert_eq!(m.payload_bytes, 150);
        assert_eq!(m.link_bytes, 100 + 150);
        assert_eq!(m.sent_per_broker, vec![2, 0, 0]);
        assert_eq!(m.received_per_broker, vec![0, 1, 1]);
        assert_eq!(m.bytes_per_broker, vec![150, 0, 0]);
    }

    #[test]
    fn zero_path_len_counts_as_one_link() {
        let mut m = NetMetrics::new(2);
        m.record(0, 1, 10, 0);
        assert_eq!(m.link_bytes, 10);
    }

    #[test]
    fn merge_sums() {
        let mut a = NetMetrics::new(2);
        a.record(0, 1, 10, 1);
        let mut b = NetMetrics::new(2);
        b.record(1, 0, 20, 2);
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.payload_bytes, 30);
        assert_eq!(a.link_bytes, 10 + 40);
        assert_eq!(a.max_broker_load(), 2);
        assert_eq!(a.mean_broker_load(), 2.0);
    }

    #[test]
    fn merge_disjoint_broker_sets_is_a_union() {
        // Segments whose active brokers never overlap: the merge is the
        // disjoint union of the per-broker vectors.
        let mut a = NetMetrics::new(4);
        a.record(0, 1, 10, 1);
        let mut b = NetMetrics::new(4);
        b.record(2, 3, 20, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.sent_per_broker, vec![1, 0, 1, 0]);
        assert_eq!(ab.received_per_broker, vec![0, 1, 0, 1]);
        assert_eq!(ab.bytes_per_broker, vec![10, 0, 20, 0]);
        // Commutative on disjoint segments.
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba, ab);
    }

    #[test]
    fn merge_overlapping_broker_sets_sums_shared_brokers() {
        let mut a = NetMetrics::new(3);
        a.record(0, 1, 10, 1);
        a.record(1, 2, 5, 1);
        let mut b = NetMetrics::new(3);
        b.record(1, 0, 20, 2);
        a.merge(&b);
        assert_eq!(a.sent_per_broker, vec![1, 2, 0]);
        assert_eq!(a.received_per_broker, vec![1, 1, 1]);
        assert_eq!(a.bytes_per_broker, vec![10, 25, 0]);
        assert_eq!(a.messages, 3);
        assert_eq!(a.payload_bytes, 35);
    }

    #[test]
    fn merge_with_empty_is_identity_and_remerge_adds_again() {
        let mut a = NetMetrics::new(2);
        a.record(0, 1, 10, 1);
        let before = a.clone();
        a.merge(&NetMetrics::new(2));
        assert_eq!(a, before, "merging an empty segment changes nothing");
        a.merge(&NetMetrics::new(0));
        assert_eq!(a, before, "zero-broker segment changes nothing");
        // Counters are additive, not idempotent: re-merging the same
        // segment doubles it. Guard that explicitly so callers fold each
        // segment exactly once.
        let mut twice = before.clone();
        twice.merge(&before);
        assert_eq!(twice.messages, 2 * before.messages);
        assert_eq!(twice.payload_bytes, 2 * before.payload_bytes);
        assert_eq!(twice.sent_per_broker, vec![2, 0]);
    }

    #[test]
    fn merge_mismatched_sizes_grows_to_larger_population() {
        let mut a = NetMetrics::new(2);
        a.record(0, 1, 10, 1);
        let mut b = NetMetrics::new(4);
        b.record(3, 2, 20, 2);
        a.merge(&b);
        assert_eq!(a.sent_per_broker, vec![1, 0, 0, 1]);
        assert_eq!(a.received_per_broker, vec![0, 1, 1, 0]);
        assert_eq!(a.bytes_per_broker, vec![10, 0, 0, 20]);
        assert_eq!(a.messages, 2);
        // Merging a smaller population into a larger one pads the same way.
        let mut c = NetMetrics::new(1);
        c.record(0, 0, 5, 1);
        a.merge(&c);
        assert_eq!(a.sent_per_broker, vec![2, 0, 0, 1]);
        assert_eq!(a.payload_bytes, 35);
    }
}
