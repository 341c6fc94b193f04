//! Per-connection session plumbing: what a daemon does with the frames
//! it sends — written by the event loop itself while the socket keeps
//! up, handed to a writer thread when it does not — and the bound on
//! how many may wait.
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
//! it stops only when the socket fails or the connection is closed.
//!
//! Pending and backlogged frames together are bounded by the mailbox
//! capacity. At the bound `Outbox::post` refuses the frame at once and
//! counts `net.mailbox_full`: nothing waits for a slow reader, so one
//! connection never stalls the event loop. What a refusal means is
//! decided per frame by `DaemonCore` (`Sink::send`), not set here: a
//! client that cannot keep up is evicted and learns it by EOF after the
//! frames already written; a peer link repairs (a refused forward acks
//! `accepted: false`, a refused summary push leaves a stale view that
//! the next delta's base digest, or the link's next handshake, pulls).
//! What leaves counts in the daemon's own `DaemonCounters::tx`, shared
//! by its outboxes and writers; `net.mailbox_full` is process-global.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use subsum_broker::DaemonCounters;
use subsum_telemetry::{names, Count};

static CNT_MAILBOX_FULL: Count = Count::new(names::NET_MAILBOX_FULL);

/// How long one `write` on a daemon socket may wait for buffer space.
/// A reader that stops reading costs the event loop at most this much,
/// once: after that its frames go to the writer thread.
const SEND_TIMEOUT: Duration = Duration::from_millis(1);

/// What a [`Mailbox`] does when it is full: it refuses the frame. The
/// one variant is the constructor argument `subsum-ledger` measures
/// `transport.mailbox_send_ns` with; a daemon's overflow rule is not a
/// setting (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Drop the frame and report [`SendOutcome::Rejected`].
    #[default]
    Reject,
}

/// Result of posting a frame to a [`Mailbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame was queued for the writer.
    Sent,
    /// The mailbox was full; the frame was dropped.
    Rejected,
    /// The writer is gone (socket closed or writer thread exited).
    Disconnected,
}

/// A bounded queue of encoded frames drained by one writer thread. A
/// daemon connection hands its writer the backlog through one.
#[derive(Debug, Clone)]
pub struct Mailbox {
    tx: SyncSender<Vec<u8>>,
}

impl Mailbox {
    /// Creates a mailbox bounded at `capacity` frames, returning the
    /// receiving end for a writer thread.
    pub fn new(capacity: usize, _policy: BackpressurePolicy) -> (Mailbox, Receiver<Vec<u8>>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        (Mailbox { tx }, rx)
    }

    /// Posts one encoded frame without waiting: a full mailbox drops it
    /// and records `net.mailbox_full`.
    pub fn send(&self, frame_bytes: Vec<u8>) -> SendOutcome {
        match self.tx.try_send(frame_bytes) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Disconnected(_)) => SendOutcome::Disconnected,
            Err(TrySendError::Full(_)) => {
                CNT_MAILBOX_FULL.inc();
                SendOutcome::Rejected
            }
        }
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
    /// The daemon's counters, shared with the writer: `tx` counts here.
    counters: Arc<DaemonCounters>,
    /// The socket failed or the writer is gone: nothing more is sent.
    dead: bool,
}

impl Outbox {
    /// Arms `stream`'s send timeout and starts its writer thread.
    pub(crate) fn open(
        stream: TcpStream,
        capacity: usize,
        counters: Arc<DaemonCounters>,
    ) -> std::io::Result<Outbox> {
        stream.set_write_timeout(Some(SEND_TIMEOUT))?;
        let (mailbox, rx) = Mailbox::new(capacity, BackpressurePolicy::Reject);
        let backlog = Arc::new(Mutex::new(0));
        spawn_writer(
            stream.try_clone()?,
            rx,
            Arc::clone(&counters),
            Arc::clone(&backlog),
        );
        Ok(Outbox {
            stream,
            mailbox,
            capacity,
            backlog,
            pending: Vec::new(),
            ends: Vec::new(),
            counters,
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
    /// backlogged ones, so at the bound the frame is dropped (and
    /// `net.mailbox_full` counted) without waiting for the writer.
    pub(crate) fn post(&mut self, frame: Vec<u8>) -> bool {
        if self.dead {
            return false;
        }
        if self.ends.len() + self.backlog() >= self.capacity {
            CNT_MAILBOX_FULL.inc();
            return false;
        }
        self.pending.extend_from_slice(&frame);
        self.ends.push(self.pending.len());
        true
    }

    /// Writes the pending frames in one `write` if the writer is idle;
    /// what that leaves — a frame's tail, the frames after it — goes to
    /// the writer, one frame per mailbox slot. Each byte is counted once,
    /// by the thread that writes it, and each frame by the thread that
    /// writes its last byte.
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
        self.counters.tx.frames_tx.add(done as u64);
        self.counters.tx.bytes_tx.add(written as u64);
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

    /// Gives one frame (or its unwritten tail) to the writer. It never
    /// waits: `post` keeps pending plus backlog within the mailbox's
    /// capacity, so the mailbox always has a slot.
    fn hand_over(&mut self, frame: Vec<u8>) {
        *self.backlog.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        if self.mailbox.send(frame) != SendOutcome::Sent {
            self.dead = true;
        }
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
/// mailbox closes or the socket fails. Bytes count as they leave, so a
/// frame cut off by a closed socket counts the part the far end got.
fn spawn_writer(
    mut stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    counters: Arc<DaemonCounters>,
    backlog: Arc<Mutex<usize>>,
) {
    std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            let mut rest = &frame[..];
            while !rest.is_empty() {
                match stream.write(rest) {
                    // BOUND: `write` returns at most `rest.len()`.
                    Ok(n) if n > 0 => {
                        counters.tx.bytes_tx.add(n as u64);
                        rest = &rest[n..];
                    }
                    Err(e) if cut_short(&e) => {}
                    // The reader notices the broken socket and tears
                    // the session down; the writer just stops draining.
                    _ => return,
                }
            }
            counters.tx.frames_tx.inc();
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
}
