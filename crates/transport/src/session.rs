//! Per-connection session plumbing: bounded outbound mailboxes with an
//! explicit backpressure policy, and the writer threads that drain them
//! onto sockets.
//!
//! Every connection a daemon holds — peer or client — writes through a
//! [`Mailbox`]: a bounded queue of encoded frames drained by one writer
//! thread per socket. The bound is the backpressure mechanism; what
//! happens when it is hit is the [`BackpressurePolicy`]:
//!
//! * [`Block`](BackpressurePolicy::Block) — the sender stalls until the
//!   writer catches up. Lossless, but a slow peer slows the daemon's
//!   event loop (classic head-of-line blocking).
//! * [`Reject`](BackpressurePolicy::Reject) — the send fails
//!   immediately and the frame is dropped. The daemon stays responsive;
//!   the caller sees [`SendOutcome::Rejected`] and surfaces it (a
//!   rejected peer forward turns the client's `PublishAck` into
//!   `accepted: false`; a rejected summary push leaves the peer's view
//!   stale until this daemon's next push replaces it or the link's next
//!   `Hello`/`HelloAck` digest exchange pulls it — `subsumd` advertises
//!   a digest only in that handshake, a periodic round is ROADMAP
//!   item 9).
//!
//! Either way the `net.mailbox_full` counter records each full-queue
//! encounter, so saturation is visible in telemetry before it becomes
//! an outage.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use subsum_telemetry::{names, Count, Counter};

static CNT_FRAMES_TX: Count = Count::new(names::TRANSPORT_FRAMES_TX);
static CNT_BYTES_TX: Count = Count::new(names::TRANSPORT_BYTES_TX);
static CNT_MAILBOX_FULL: Count = Count::new(names::NET_MAILBOX_FULL);

/// What a daemon does when a peer's outbound mailbox is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Stall the sender until the writer drains a slot (lossless).
    Block,
    /// Drop the frame and report [`SendOutcome::Rejected`] (lossy but
    /// non-blocking). The default: matches the simulator's lossy-link
    /// model; see the [module docs](self) for what repairs a lost push.
    #[default]
    Reject,
}

/// Result of posting a frame to a [`Mailbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame was queued for the writer.
    Sent,
    /// The mailbox was full under [`BackpressurePolicy::Reject`]; the
    /// frame was dropped.
    Rejected,
    /// The writer is gone (socket closed or writer thread exited).
    Disconnected,
}

/// A bounded outbound queue of encoded frames, drained by one writer
/// thread per socket.
#[derive(Debug, Clone)]
pub struct Mailbox {
    tx: SyncSender<Vec<u8>>,
    policy: BackpressurePolicy,
}

impl Mailbox {
    /// Creates a mailbox bounded at `capacity` frames, returning the
    /// receiving end for a writer thread.
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> (Mailbox, Receiver<Vec<u8>>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        (Mailbox { tx, policy }, rx)
    }

    /// The policy in force.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Posts one encoded frame.
    ///
    /// Under [`BackpressurePolicy::Block`] this blocks while the
    /// mailbox is full; under [`BackpressurePolicy::Reject`] a full
    /// mailbox drops the frame. Both record `net.mailbox_full` when
    /// the bound is hit.
    pub fn send(&self, frame_bytes: Vec<u8>) -> SendOutcome {
        match self.tx.try_send(frame_bytes) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Disconnected(_)) => SendOutcome::Disconnected,
            Err(TrySendError::Full(bytes)) => {
                CNT_MAILBOX_FULL.inc();
                match self.policy {
                    BackpressurePolicy::Reject => SendOutcome::Rejected,
                    BackpressurePolicy::Block => match self.tx.send(bytes) {
                        Ok(()) => SendOutcome::Sent,
                        Err(_) => SendOutcome::Disconnected,
                    },
                }
            }
        }
    }
}

/// Per-daemon transmit counters, mirrored locally so tests can assert
/// on one daemon's traffic (the global [`Count`] statics aggregate
/// across every daemon in the process).
#[derive(Debug, Default)]
pub struct TxStats {
    /// Frames written to this daemon's sockets.
    pub frames_tx: Counter,
    /// Bytes written to this daemon's sockets.
    pub bytes_tx: Counter,
}

/// Spawns the writer thread for one socket: drains `rx` and writes each
/// frame to `stream` until the mailbox closes or the socket errors.
pub fn spawn_writer(
    mut stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    stats: Arc<TxStats>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if stream.write_all(&frame).is_err() {
                // Reader side notices the broken socket and tears the
                // session down; the writer just stops draining.
                return;
            }
            CNT_FRAMES_TX.inc();
            CNT_BYTES_TX.add(frame.len() as u64);
            stats.frames_tx.inc();
            stats.bytes_tx.add(frame.len() as u64);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_policy_drops_when_full() {
        let (mb, rx) = Mailbox::new(2, BackpressurePolicy::Reject);
        assert_eq!(mb.send(vec![1]), SendOutcome::Sent);
        assert_eq!(mb.send(vec![2]), SendOutcome::Sent);
        assert_eq!(mb.send(vec![3]), SendOutcome::Rejected);
        assert_eq!(rx.recv().unwrap(), vec![1]);
        // One slot free again.
        assert_eq!(mb.send(vec![4]), SendOutcome::Sent);
        drop(rx);
        assert_eq!(mb.send(vec![5]), SendOutcome::Disconnected);
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let (mb, rx) = Mailbox::new(1, BackpressurePolicy::Block);
        assert_eq!(mb.send(vec![1]), SendOutcome::Sent);
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            (rx.recv().unwrap(), rx.recv().unwrap())
        });
        // Full; blocks until the drainer frees the slot.
        assert_eq!(mb.send(vec![2]), SendOutcome::Sent);
        assert_eq!(drainer.join().unwrap(), (vec![1], vec![2]));
    }
}
