//! Per-connection session plumbing: what a daemon does with the frames
//! it sends — written by the event loop itself while the socket keeps
//! up, handed to a writer thread when it does not — and the bounded
//! backlog whose [`BackpressurePolicy`] says what happens when even
//! that is full.
//!
//! Every connection a daemon holds — peer or client — has one
//! `Outbox`. The frames one `DaemonCore::step` sends to it wait in a
//! pending buffer, and the event loop writes them in one `write` when
//! the step ends (`Outbox::flush`). The socket has a send timeout of
//! 1 ms (`SEND_TIMEOUT`), so that write never holds the loop for longer:
//! what the socket does not take goes, frame by frame, to the
//! connection's writer thread through a [`Mailbox`], and while that
//! backlog is not empty the loop writes nothing itself, so no frame
//! overtakes another. The writer retries a write the timeout cut short;
//! it stops only when the socket fails or the connection is dropped.
//!
//! Pending and backlogged frames together are bounded by the mailbox
//! capacity; what happens when the bound is hit is the
//! [`BackpressurePolicy`]:
//!
//! * [`Block`](BackpressurePolicy::Block) — the sender stalls until the
//!   writer catches up. Lossless, but a slow peer slows the daemon's
//!   event loop (classic head-of-line blocking).
//! * [`Reject`](BackpressurePolicy::Reject) — the send fails
//!   immediately and the frame is dropped. The daemon stays responsive;
//!   the caller sees the refusal and surfaces it (a rejected peer
//!   forward turns the client's `PublishAck` into `accepted: false`; a
//!   rejected summary push leaves the peer's view stale until this
//!   daemon's next push, a `SummaryDelta` whose base digest the stale
//!   view does not match, makes the peer pull, and the pull's answer
//!   replaces the view; or until the link's next `Hello`/`HelloAck`
//!   digest exchange pulls it — `subsumd` advertises a digest only in
//!   that handshake and runs no periodic round; the paper's
//!   Algorithm 2 rounds are not run over sockets yet).
//!
//! Either way the `net.mailbox_full` counter records each full-queue
//! encounter, so saturation is visible in telemetry before it becomes
//! an outage.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use subsum_telemetry::{names, Count, Counter};

static CNT_FRAMES_TX: Count = Count::new(names::TRANSPORT_FRAMES_TX);
static CNT_BYTES_TX: Count = Count::new(names::TRANSPORT_BYTES_TX);
static CNT_MAILBOX_FULL: Count = Count::new(names::NET_MAILBOX_FULL);

/// How long one `write` on a daemon socket may wait for buffer space.
/// A reader that stops reading costs the event loop at most this much,
/// once: after that its frames go to the writer thread.
const SEND_TIMEOUT: Duration = Duration::from_millis(1);

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

/// A bounded queue of encoded frames drained by one writer thread. A
/// daemon connection hands its writer the backlog through one.
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

impl TxStats {
    fn record(&self, frames: u64, bytes: u64) {
        CNT_FRAMES_TX.add(frames);
        CNT_BYTES_TX.add(bytes);
        self.frames_tx.add(frames);
        self.bytes_tx.add(bytes);
    }
}

/// The outbound side of one connection, owned by the event loop; see
/// the [module docs](self).
pub(crate) struct Outbox {
    /// The event loop's handle on the socket. The writer holds a clone;
    /// the send timeout belongs to the socket, so it bounds both.
    stream: TcpStream,
    mailbox: Mailbox,
    /// Bound on pending plus backlogged frames.
    capacity: usize,
    /// Frames handed to the writer and not yet written. The event loop
    /// is the only producer, so at 0 the mailbox is empty and the writer
    /// parked: a direct write overtakes nothing. A `Mutex`, not an
    /// atomic, so that the writer's last write is ordered before the
    /// loop's next one.
    backlog: Arc<Mutex<usize>>,
    /// The frames posted since the last flush, back to back, and where
    /// each one ends.
    pending: Vec<u8>,
    ends: Vec<usize>,
    stats: Arc<TxStats>,
    /// The socket failed or the writer is gone: nothing more is sent.
    dead: bool,
}

impl Outbox {
    /// Arms `stream`'s send timeout and starts its writer thread.
    pub(crate) fn open(
        stream: TcpStream,
        capacity: usize,
        policy: BackpressurePolicy,
        stats: Arc<TxStats>,
    ) -> std::io::Result<Outbox> {
        stream.set_write_timeout(Some(SEND_TIMEOUT))?;
        let (mailbox, rx) = Mailbox::new(capacity, policy);
        let backlog = Arc::new(Mutex::new(0));
        spawn_writer(
            stream.try_clone()?,
            rx,
            Arc::clone(&stats),
            Arc::clone(&backlog),
        );
        Ok(Outbox {
            stream,
            mailbox,
            capacity,
            backlog,
            pending: Vec::new(),
            ends: Vec::new(),
            stats,
            dead: false,
        })
    }

    fn backlog(&self) -> usize {
        // Every update is one whole `+= 1`/`-= 1`: a poisoned count is valid.
        *self.backlog.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether frames wait for the next [`flush`](Outbox::flush).
    pub(crate) fn has_pending(&self) -> bool {
        !self.ends.is_empty()
    }

    /// Queues one encoded frame for the next flush; `false` if it was
    /// dropped. Pending frames count against the capacity like
    /// backlogged ones: at the bound, `Reject` drops the frame and
    /// `Block` flushes, then waits for the writer if the backlog alone
    /// still fills it.
    pub(crate) fn post(&mut self, frame: Vec<u8>) -> bool {
        if self.dead {
            return false;
        }
        if self.ends.len() + self.backlog() >= self.capacity {
            CNT_MAILBOX_FULL.inc();
            if self.mailbox.policy == BackpressurePolicy::Reject {
                return false;
            }
            self.flush();
            if self.dead {
                return false;
            }
            if self.backlog() >= self.capacity {
                return self.hand_over(frame);
            }
        }
        self.pending.extend_from_slice(&frame);
        self.ends.push(self.pending.len());
        true
    }

    /// Writes the pending frames in one `write` if the writer is idle;
    /// what that leaves — a frame's tail, the frames after it — goes to
    /// the writer, one frame per mailbox slot. Each frame and byte is
    /// counted once, by whichever thread finishes it.
    pub(crate) fn flush(&mut self) {
        if self.ends.is_empty() {
            return;
        }
        let mut written = 0;
        if !self.dead && self.backlog() == 0 {
            match (&self.stream).write(&self.pending) {
                Ok(n) => written = n,
                Err(e) if cut_short(&e) => {}
                Err(_) => self.dead = true,
            }
        }
        let ends = std::mem::take(&mut self.ends);
        let done = ends.partition_point(|&end| end <= written);
        self.stats.record(done as u64, written as u64);
        let mut start = written;
        // BOUND: `written <= pending.len()`, and `ends` ascend to it.
        for &end in &ends[done..] {
            if !self.dead {
                let tail = self.pending[start..end].to_vec();
                self.hand_over(tail);
            }
            start = end;
        }
        self.pending.clear();
        self.ends = ends;
        self.ends.clear();
    }

    /// Gives one frame (or its unwritten tail) to the writer, waiting
    /// for a mailbox slot only when the backlog fills it (`Block`).
    fn hand_over(&mut self, frame: Vec<u8>) -> bool {
        *self.backlog.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        if self.mailbox.tx.send(frame).is_err() {
            self.dead = true;
        }
        !self.dead
    }

    /// Closes the socket both ways: the far end sees EOF, and a writer
    /// retrying a stalled write fails and exits.
    pub(crate) fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A write the send timeout (or a signal) cut short: the socket had no
/// room yet, nothing failed.
fn cut_short(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Spawns the writer thread for one socket: writes each backlog frame
/// whole, retrying every write the send timeout cuts short, until the
/// mailbox closes or the socket fails.
fn spawn_writer(
    mut stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    stats: Arc<TxStats>,
    backlog: Arc<Mutex<usize>>,
) {
    std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            let mut rest = &frame[..];
            while !rest.is_empty() {
                match stream.write(rest) {
                    // BOUND: `write` returns at most `rest.len()`.
                    Ok(n) if n > 0 => rest = &rest[n..],
                    Err(e) if cut_short(&e) => {}
                    // The reader notices the broken socket and tears
                    // the session down; the writer just stops draining.
                    _ => return,
                }
            }
            stats.record(1, frame.len() as u64);
            *backlog.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        }
    });
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
