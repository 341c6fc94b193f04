//! A small blocking client for a [`Subsumd`](crate::daemon::Subsumd)
//! daemon.
//!
//! One [`Client`] is one TCP connection speaking the client half of the
//! [`Msg`] protocol: subscribe (acked with the assigned id), publish
//! (acked with accept/reject and the local match count), and receive
//! deliveries. Deliveries arrive asynchronously — any `Deliver` frames
//! read while waiting for an ack are queued and surfaced later by
//! [`Client::next_delivery`]/[`Client::poll_delivery`], so an ack wait
//! never loses an event.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use subsum_types::{Event, Subscription, SubscriptionId};

use crate::frame::{FrameDecoder, FrameError};
use crate::msg::{Msg, MsgError};

/// Errors from client calls.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// The daemon's byte stream failed framing.
    Frame(FrameError),
    /// A frame held an unparseable message.
    Msg(MsgError),
    /// The daemon answered out of protocol (e.g. a publish ack with the
    /// wrong sequence number).
    Protocol(&'static str),
    /// The daemon closed the connection.
    Disconnected,
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}
impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}
impl From<MsgError> for ClientError {
    fn from(e: MsgError) -> Self {
        ClientError::Msg(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Msg(e) => write!(f, "protocol message: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Disconnected => write!(f, "daemon closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Outcome of one publish, from the daemon's `PublishAck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishResult {
    /// `false` when a required peer forward was rejected by
    /// backpressure — the event may not reach remote subscribers.
    pub accepted: bool,
    /// Subscriptions matched at the daemon the client is connected to.
    pub matched: u32,
}

/// A blocking connection to one daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Deliveries read while waiting for an ack.
    pending: VecDeque<(SubscriptionId, Event)>,
    seq: u32,
    /// The read timeout armed on `stream`, so that a call that keeps it
    /// makes no `setsockopt`.
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the socket error if the daemon is unreachable.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            seq: 0,
            read_timeout: None,
        })
    }

    fn arm_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    fn send(&mut self, msg: &Msg) -> Result<(), ClientError> {
        let bytes = msg.to_frame_bytes()?;
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Reads the next message, honoring the stream's read timeout.
    /// `Ok(None)` only when a timeout is armed and expires.
    fn read_msg(&mut self) -> Result<Option<Msg>, ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(Some(Msg::decode_frame(&frame)?));
            }
            let n = match self.stream.read(&mut buf) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            };
            // BOUND: `read` returns at most `buf.len()`.
            self.decoder.feed(&buf[..n]);
        }
    }

    /// Reads until `want` yields, queueing deliveries seen on the way.
    fn wait_for<T>(&mut self, want: impl Fn(&Msg) -> Option<T>) -> Result<T, ClientError> {
        self.arm_read_timeout(None)?;
        loop {
            let msg = self.read_msg()?.ok_or(ClientError::Disconnected)?;
            if let Some(out) = want(&msg) {
                return Ok(out);
            }
            if let Msg::Deliver { id, event } = msg {
                self.pending.push_back((id, event));
            }
        }
    }

    /// Registers a subscription; blocks for the daemon's ack.
    ///
    /// # Errors
    ///
    /// Fails on socket or protocol errors.
    pub fn subscribe(&mut self, sub: &Subscription) -> Result<SubscriptionId, ClientError> {
        self.send(&Msg::Subscribe { sub: sub.clone() })?;
        self.wait_for(|msg| match msg {
            Msg::SubscribeAck { id } => Some(*id),
            _ => None,
        })
    }

    /// Publishes an event; blocks for the daemon's ack.
    ///
    /// # Errors
    ///
    /// Fails on socket or protocol errors, including an ack carrying a
    /// foreign sequence number.
    pub fn publish(&mut self, event: &Event) -> Result<PublishResult, ClientError> {
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        self.send(&Msg::Publish {
            seq,
            event: event.clone(),
        })?;
        let (ack_seq, result) = self.wait_for(|msg| match msg {
            Msg::PublishAck {
                seq,
                accepted,
                matched,
            } => Some((
                *seq,
                PublishResult {
                    accepted: *accepted,
                    matched: *matched,
                },
            )),
            _ => None,
        })?;
        if ack_seq != seq {
            return Err(ClientError::Protocol("publish ack sequence mismatch"));
        }
        Ok(result)
    }

    /// Blocks until an event is delivered to one of this client's
    /// subscriptions.
    ///
    /// # Errors
    ///
    /// Fails on socket or protocol errors.
    pub fn next_delivery(&mut self) -> Result<(SubscriptionId, Event), ClientError> {
        if let Some(d) = self.pending.pop_front() {
            return Ok(d);
        }
        self.wait_for(|msg| match msg {
            Msg::Deliver { id, event } => Some((*id, event.clone())),
            _ => None,
        })
    }

    /// Waits up to `timeout` for a delivery; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Fails on socket or protocol errors.
    pub fn poll_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(SubscriptionId, Event)>, ClientError> {
        if let Some(d) = self.pending.pop_front() {
            return Ok(Some(d));
        }
        self.arm_read_timeout(Some(timeout))?;
        loop {
            match self.read_msg()? {
                Some(Msg::Deliver { id, event }) => return Ok(Some((id, event))),
                Some(_) => continue, // unrelated traffic; keep waiting
                None => return Ok(None),
            }
        }
    }

    /// Asks the daemon to shut down cleanly and closes the connection.
    ///
    /// # Errors
    ///
    /// Fails if the shutdown message cannot be written.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send(&Msg::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp};

    /// A poll that timed out leaves its timeout armed; the ack wait
    /// after it must disarm it, or a slow ack reads as a hang-up.
    #[test]
    fn an_ack_wait_outlasts_an_expired_poll() {
        let sub = Subscription::builder(&stock_schema())
            .num("price", NumOp::Lt, 10.0)
            .unwrap()
            .build()
            .unwrap();
        let id = SubscriptionId::new(BrokerId(0), LocalSubId(7), sub.attr_mask());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 1024];
            let frame = loop {
                if let Some(frame) = decoder.next_frame().unwrap() {
                    break frame;
                }
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up before subscribing");
                decoder.feed(&buf[..n]);
            };
            assert!(matches!(
                Msg::decode_frame(&frame).unwrap(),
                Msg::Subscribe { .. }
            ));
            std::thread::sleep(Duration::from_millis(50));
            let ack = Msg::SubscribeAck { id }.to_frame_bytes().unwrap();
            stream.write_all(&ack).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        let polled = client.poll_delivery(Duration::from_millis(10)).unwrap();
        assert!(polled.is_none());
        assert_eq!(client.subscribe(&sub).unwrap(), id);
        daemon.join().unwrap();
    }
}
