//! Seeded mutation fuzz of the one durable decoder,
//! [`BrokerCheckpoint::from_bytes`]. Each case writes a real broker's
//! checkpoint, then overwrites, inserts and truncates bytes of its body
//! and recomputes the trailing checksum, so that the mutants reach the
//! parser instead of stopping at the checksum gate. Whatever the bytes,
//! the decoder must not panic; what it accepts must re-encode to itself;
//! and what [`BrokerCheckpoint::check`] admits must restore into a core
//! whose summary is sound, and into a daemon that can ship it.

use rand::check::check;
use rand::rngs::StdRng;
use rand::Rng;

use subsum_broker::{BrokerCheckpoint, BrokerCore, ConnId, DaemonCore, Msg, Sink};
use subsum_core::BrokerSummary;
use subsum_types::IdLayout;
use subsum_workload::{PaperParams, Workload};

/// 64-bit FNV-1a, the checkpoint's trailing checksum of every byte
/// before it (big-endian).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A daemon with no connections: nothing to send to, nothing to close.
struct NoLinks;

impl Sink for NoLinks {
    fn send(&mut self, _conn: ConnId, _msg: &Msg) -> bool {
        false
    }

    fn close(&mut self, _conn: ConnId) {}
}

/// `bytes` with one to three mutations of its body (mostly a byte
/// overwritten, else bytes inserted or the body truncated) and the
/// checksum recomputed.
fn mutant(bytes: &[u8], g: &mut StdRng) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    for _ in 0..g.gen_range(1..4) {
        let at = g.gen_range(0..=body.len());
        match g.gen_range(0..6) {
            0..=3 if at < body.len() => body[at] = g.gen(),
            4 => drop(body.splice(at..at, g.vec(1..5, |g| g.gen::<u8>()))),
            _ => body.truncate(at),
        }
    }
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    body
}

#[test]
fn mutated_checkpoints_parse_round_trip_and_restore_soundly() {
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let layout = IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).unwrap();
    let (mut mutants, mut accepted, mut restored) = (0u32, 0u32, 0u32);
    check("mutated_checkpoints_restore_soundly", 64, |g| {
        // A broker that admitted a few subscriptions and cancelled some.
        let mut core = BrokerCore::new(1, schema.clone(), layout, None);
        for _ in 0..g.gen_range(0..8) {
            let id = core.subscribe(&workload.subscription(g)).unwrap();
            if g.gen_range(0..4) == 0 {
                core.unsubscribe(id);
            }
        }
        let bytes = core.checkpoint().to_bytes();
        // Unmutated, the bytes restore the live broker's summary.
        let cp = BrokerCheckpoint::from_bytes(&bytes).unwrap();
        core.rebuild();
        let digest = BrokerCore::new(1, schema.clone(), layout, Some(cp))
            .own()
            .digest();
        assert_eq!(digest, core.own().digest());
        for _ in 0..32 {
            mutants += 1;
            let Ok(cp) = BrokerCheckpoint::from_bytes(&mutant(&bytes, g)) else {
                continue;
            };
            accepted += 1;
            assert_eq!(BrokerCheckpoint::from_bytes(&cp.to_bytes()), Ok(cp.clone()));
            // A mutant may name another broker: restore it as that one's.
            let owner = cp.subs.first().map_or(1, |(id, _)| id.broker.0);
            if cp.check(owner, &schema, layout).is_err() {
                continue;
            }
            restored += 1;
            let rebuilt =
                BrokerSummary::rebuild(schema.clone(), cp.subs.iter().map(|(id, s)| (*id, s)));
            let core = BrokerCore::new(owner, schema.clone(), layout, Some(cp));
            #[cfg(debug_assertions)]
            core.own().validate();
            assert_eq!(*core.own(), rebuilt);
            // Every id fits the wire: the daemon's full push encodes.
            assert_eq!(DaemonCore::new(core).push_summary(&mut NoLinks), Ok(()));
        }
    });
    // A mutator whose every mutant is refused would test nothing.
    if mutants >= 64 * 32 {
        assert!(accepted > mutants / 20, "{accepted} of {mutants} accepted");
        assert!(restored > accepted / 2, "{restored} of {accepted} restored");
    }
}
