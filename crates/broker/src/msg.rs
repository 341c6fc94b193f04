//! Messages carried in [`crate::frame`] frames.
//!
//! The tag space splits in two: kinds `1..=7` are the **peer protocol**
//! (daemon ↔ daemon — handshake, summary propagation, anti-entropy,
//! event routing) and kinds `16..=21` are the **client protocol**
//! (client ↔ daemon — subscribe, publish, deliver). Summary payloads
//! are the `subsum-core::wire` codec bytes *unchanged*, so a summary's
//! digest is identical whether it crossed a socket or the simulator.
//!
//! Every kind constant is written by exactly one encoder arm and
//! matched by name in [`Msg::decode`]; the `cargo xtask check` wire-tag
//! lint rejects a constant missing from either side.

use subsum_core::SummaryDigest;
use subsum_types::{
    BrokerId, ByteReader, ByteWriter, DecodeError, Event, Subscription, SubscriptionId,
};

use crate::frame::{encode_frame, Frame, FrameError};

/// Peer protocol: connection handshake (carried on every fresh dial,
/// including reconnects).
pub const KIND_HELLO: u8 = 1;
/// Peer protocol: handshake reply.
pub const KIND_HELLO_ACK: u8 = 2;
/// Peer protocol: full summary push (wire-codec bytes).
pub const KIND_SUMMARY: u8 = 3;
/// Peer protocol: anti-entropy digest advertisement.
pub const KIND_DIGEST: u8 = 4;
/// Peer protocol: request a full summary after a digest mismatch.
pub const KIND_PULL: u8 = 5;
/// Peer protocol: an event routed toward a broker whose summary matched.
pub const KIND_ROUTE: u8 = 6;
/// Peer protocol: the rows one subscribe added to the sender's summary,
/// between its digests before and after.
pub const KIND_SUMMARY_DELTA: u8 = 7;

/// Client protocol: register a subscription.
pub const KIND_SUBSCRIBE: u8 = 16;
/// Client protocol: subscription accepted, id assigned.
pub const KIND_SUBSCRIBE_ACK: u8 = 17;
/// Client protocol: publish an event.
pub const KIND_PUBLISH: u8 = 18;
/// Client protocol: publish outcome (accept/reject + local match count).
pub const KIND_PUBLISH_ACK: u8 = 19;
/// Client protocol: an event delivered to a matching subscription.
pub const KIND_DELIVER: u8 = 20;
/// Client protocol: ask the daemon to shut down cleanly.
pub const KIND_SHUTDOWN: u8 = 21;

/// Why a frame payload failed to parse as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MsgError {
    /// The frame kind tag is not in the protocol.
    UnknownKind(u8),
    /// The payload bytes are truncated or malformed.
    Decode(DecodeError),
    /// A field held an out-of-protocol value.
    Malformed(&'static str),
}

impl From<DecodeError> for MsgError {
    fn from(e: DecodeError) -> Self {
        MsgError::Decode(e)
    }
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            MsgError::Decode(e) => write!(f, "message payload: {e}"),
            MsgError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for MsgError {}

/// A decoded transport message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Handshake: the dialer announces itself and its current summary
    /// digest. `epoch` increments on every (re)connect of the dialer,
    /// letting the acceptor tell a reconnect from a duplicate dial.
    Hello {
        /// The dialing broker.
        broker: BrokerId,
        /// Dialer's connection epoch.
        epoch: u64,
        /// Digest of the dialer's own summary.
        digest: SummaryDigest,
    },
    /// Handshake reply with the acceptor's identity and digest.
    HelloAck {
        /// The accepting broker.
        broker: BrokerId,
        /// Acceptor's view of its own connection epoch with this peer.
        epoch: u64,
        /// Digest of the acceptor's own summary.
        digest: SummaryDigest,
    },
    /// Full summary push: the sender's own summary as wire-codec bytes.
    Summary {
        /// The broker whose summary this is.
        from: BrokerId,
        /// `subsum-core::wire` codec bytes, unmodified.
        bytes: Vec<u8>,
    },
    /// Digest advertisement for anti-entropy comparison.
    Digest {
        /// The broker whose summary is digested.
        from: BrokerId,
        /// Digest of that broker's own summary.
        digest: SummaryDigest,
    },
    /// Request the peer's full summary (sent after a digest mismatch).
    Pull {
        /// The requesting broker.
        from: BrokerId,
    },
    /// Incremental summary push: what one subscribe added to the
    /// sender's own summary. A receiver whose view of the sender is at
    /// `base` merges `bytes` into it and expects to arrive at `digest`.
    SummaryDelta {
        /// The broker whose summary grew.
        from: BrokerId,
        /// Digest of that summary before the subscribe.
        base: SummaryDigest,
        /// Digest of that summary after it.
        digest: SummaryDigest,
        /// `subsum-core::wire` codec bytes of a summary holding only the
        /// added rows (none when the summary did not change).
        bytes: Vec<u8>,
    },
    /// An event forwarded to a broker whose summary matched it.
    Route {
        /// The broker the event was published at.
        origin: BrokerId,
        /// The event itself.
        event: Event,
    },
    /// Client: register a subscription at the connected daemon.
    Subscribe {
        /// The subscription to register.
        sub: Subscription,
    },
    /// Client: subscription registered under `id`.
    SubscribeAck {
        /// The id assigned by the daemon.
        id: SubscriptionId,
    },
    /// Client: publish an event; `seq` correlates the ack.
    Publish {
        /// Client-chosen sequence number, echoed in the ack.
        seq: u32,
        /// The event to publish.
        event: Event,
    },
    /// Client: outcome of a publish.
    PublishAck {
        /// Echo of the publish sequence number.
        seq: u32,
        /// `false` when a required peer forward was rejected by
        /// backpressure — the publish did not fully take effect.
        accepted: bool,
        /// Subscriptions matched at the receiving daemon.
        matched: u32,
    },
    /// Client: an event matched one of this client's subscriptions.
    Deliver {
        /// The matched subscription.
        id: SubscriptionId,
        /// The matching event.
        event: Event,
    },
    /// Client: shut the daemon down cleanly (telemetry dump, checkpoint).
    Shutdown,
}

fn write_digest(w: &mut ByteWriter, d: &SummaryDigest) {
    w.bytes(&d.to_bytes());
}

fn read_digest(r: &mut ByteReader<'_>) -> Result<SummaryDigest, MsgError> {
    let bytes = r.bytes(SummaryDigest::WIRE_BYTES)?;
    SummaryDigest::from_bytes(bytes).ok_or(MsgError::Malformed("summary digest"))
}

impl Msg {
    /// The frame kind tag this message is carried under.
    pub fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => KIND_HELLO,
            Msg::HelloAck { .. } => KIND_HELLO_ACK,
            Msg::Summary { .. } => KIND_SUMMARY,
            Msg::Digest { .. } => KIND_DIGEST,
            Msg::Pull { .. } => KIND_PULL,
            Msg::Route { .. } => KIND_ROUTE,
            Msg::SummaryDelta { .. } => KIND_SUMMARY_DELTA,
            Msg::Subscribe { .. } => KIND_SUBSCRIBE,
            Msg::SubscribeAck { .. } => KIND_SUBSCRIBE_ACK,
            Msg::Publish { .. } => KIND_PUBLISH,
            Msg::PublishAck { .. } => KIND_PUBLISH_ACK,
            Msg::Deliver { .. } => KIND_DELIVER,
            Msg::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Serializes the payload (without the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Msg::Hello {
                broker,
                epoch,
                digest,
            }
            | Msg::HelloAck {
                broker,
                epoch,
                digest,
            } => {
                w.u16(broker.0);
                w.u64(*epoch);
                write_digest(&mut w, digest);
            }
            Msg::Summary { from, bytes } => {
                w.u16(from.0);
                w.bytes(bytes);
            }
            Msg::Digest { from, digest } => {
                w.u16(from.0);
                write_digest(&mut w, digest);
            }
            Msg::Pull { from } => {
                w.u16(from.0);
            }
            Msg::Route { origin, event } => {
                w.u16(origin.0);
                event.encode(&mut w);
            }
            Msg::SummaryDelta {
                from,
                base,
                digest,
                bytes,
            } => {
                w.u16(from.0);
                write_digest(&mut w, base);
                write_digest(&mut w, digest);
                // Length-prefixed, so a truncated frame cannot pass for
                // a shorter delta.
                w.u32(bytes.len() as u32);
                w.bytes(bytes);
            }
            Msg::Subscribe { sub } => {
                sub.encode(&mut w);
            }
            Msg::SubscribeAck { id } => {
                id.encode(&mut w);
            }
            Msg::Publish { seq, event } => {
                w.u32(*seq);
                event.encode(&mut w);
            }
            Msg::PublishAck {
                seq,
                accepted,
                matched,
            } => {
                w.u32(*seq);
                w.u8(u8::from(*accepted));
                w.u32(*matched);
            }
            Msg::Deliver { id, event } => {
                id.encode(&mut w);
                event.encode(&mut w);
            }
            Msg::Shutdown => {}
        }
        w.into_bytes()
    }

    /// Serializes the message as one complete frame, ready for a socket.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Oversized`] if the payload exceeds the
    /// frame layer's limit.
    pub fn to_frame_bytes(&self) -> Result<Vec<u8>, FrameError> {
        encode_frame(self.kind(), &self.encode_payload())
    }

    /// Parses a message from a frame kind tag and payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError`] on an unknown kind, truncation, or a field
    /// holding an out-of-protocol value.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Msg, MsgError> {
        let mut r = ByteReader::new(payload);
        let msg = match kind {
            KIND_HELLO => Msg::Hello {
                broker: BrokerId(r.u16()?),
                epoch: r.u64()?,
                digest: read_digest(&mut r)?,
            },
            KIND_HELLO_ACK => Msg::HelloAck {
                broker: BrokerId(r.u16()?),
                epoch: r.u64()?,
                digest: read_digest(&mut r)?,
            },
            KIND_SUMMARY => {
                let from = BrokerId(r.u16()?);
                let bytes = r.bytes(r.remaining())?.to_vec();
                Msg::Summary { from, bytes }
            }
            KIND_DIGEST => Msg::Digest {
                from: BrokerId(r.u16()?),
                digest: read_digest(&mut r)?,
            },
            KIND_PULL => Msg::Pull {
                from: BrokerId(r.u16()?),
            },
            KIND_ROUTE => Msg::Route {
                origin: BrokerId(r.u16()?),
                event: Event::decode(&mut r)?,
            },
            KIND_SUMMARY_DELTA => {
                let from = BrokerId(r.u16()?);
                let base = read_digest(&mut r)?;
                let digest = read_digest(&mut r)?;
                let len = r.u32()? as usize;
                Msg::SummaryDelta {
                    from,
                    base,
                    digest,
                    bytes: r.bytes(len)?.to_vec(),
                }
            }
            KIND_SUBSCRIBE => Msg::Subscribe {
                sub: Subscription::decode(&mut r)?,
            },
            KIND_SUBSCRIBE_ACK => Msg::SubscribeAck {
                id: SubscriptionId::decode(&mut r)?,
            },
            KIND_PUBLISH => Msg::Publish {
                seq: r.u32()?,
                event: Event::decode(&mut r)?,
            },
            KIND_PUBLISH_ACK => {
                let seq = r.u32()?;
                let accepted = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(MsgError::Malformed("publish-ack accepted flag")),
                };
                Msg::PublishAck {
                    seq,
                    accepted,
                    matched: r.u32()?,
                }
            }
            KIND_DELIVER => Msg::Deliver {
                id: SubscriptionId::decode(&mut r)?,
                event: Event::decode(&mut r)?,
            },
            KIND_SHUTDOWN => Msg::Shutdown,
            other => return Err(MsgError::UnknownKind(other)),
        };
        if !r.is_exhausted() {
            return Err(MsgError::Malformed("trailing bytes after message"));
        }
        Ok(msg)
    }

    /// Parses a message from a decoded [`Frame`].
    ///
    /// # Errors
    ///
    /// Same as [`Msg::decode`].
    pub fn decode_frame(frame: &Frame) -> Result<Msg, MsgError> {
        Msg::decode(frame.kind, &frame.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, AttrMask, LocalSubId, NumOp};

    fn sample_digest(seed: u64) -> SummaryDigest {
        SummaryDigest {
            count: seed,
            id_hash: seed.wrapping_mul(31),
            structure: !seed,
        }
    }

    fn sample_delta(bytes: Vec<u8>) -> Msg {
        Msg::SummaryDelta {
            from: BrokerId(4),
            base: sample_digest(1),
            digest: sample_digest(2),
            bytes,
        }
    }

    fn sample_id() -> SubscriptionId {
        SubscriptionId::new(BrokerId(3), LocalSubId(41), AttrMask(0b1010))
    }

    fn sample_event() -> Event {
        let schema = stock_schema();
        Event::builder(&schema)
            .num("price", 12.5)
            .unwrap()
            .str("symbol", "NYSE")
            .unwrap()
            .build()
    }

    fn sample_sub() -> Subscription {
        let schema = stock_schema();
        Subscription::builder(&schema)
            .num("price", NumOp::Lt, 20.0)
            .unwrap()
            .str_pattern("symbol", "NY*")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn every_variant_roundtrips_through_frames() {
        let msgs = vec![
            Msg::Hello {
                broker: BrokerId(1),
                epoch: 7,
                digest: sample_digest(5),
            },
            Msg::HelloAck {
                broker: BrokerId(2),
                epoch: 9,
                digest: sample_digest(6),
            },
            Msg::Summary {
                from: BrokerId(4),
                bytes: vec![1, 2, 3, 250],
            },
            Msg::Summary {
                from: BrokerId(4),
                bytes: Vec::new(),
            },
            Msg::Digest {
                from: BrokerId(0),
                digest: sample_digest(99),
            },
            Msg::Pull { from: BrokerId(12) },
            Msg::Route {
                origin: BrokerId(2),
                event: sample_event(),
            },
            sample_delta(vec![9, 8, 7]),
            sample_delta(Vec::new()),
            Msg::Subscribe { sub: sample_sub() },
            Msg::SubscribeAck { id: sample_id() },
            Msg::Publish {
                seq: 77,
                event: sample_event(),
            },
            Msg::PublishAck {
                seq: 77,
                accepted: true,
                matched: 3,
            },
            Msg::PublishAck {
                seq: 78,
                accepted: false,
                matched: 0,
            },
            Msg::Deliver {
                id: sample_id(),
                event: sample_event(),
            },
            Msg::Shutdown,
        ];
        for msg in msgs {
            let bytes = msg.to_frame_bytes().unwrap();
            let (frames, rest) = crate::frame::decode_all(&bytes).unwrap();
            assert_eq!(rest, 0);
            assert_eq!(frames.len(), 1);
            assert_eq!(
                Msg::decode_frame(&frames[0]).unwrap(),
                msg,
                "kind {}",
                msg.kind()
            );
        }
        // Two literal frames: header "SF", version 1, kind, u32 length,
        // then the big-endian payload (the second is the 14-byte id).
        assert_eq!(
            Msg::Pull { from: BrokerId(12) }.to_frame_bytes().unwrap(),
            [0x53, 0x46, 1, 5, 0, 0, 0, 2, 0, 12]
        );
        let ack = Msg::SubscribeAck { id: sample_id() };
        assert_eq!(
            ack.to_frame_bytes().unwrap(),
            [0x53, 0x46, 1, 17, 0, 0, 0, 14, 0, 3, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0, 0b1010]
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Msg::decode(200, &[]), Err(MsgError::UnknownKind(200)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Msg::Pull { from: BrokerId(1) }.encode_payload();
        payload.push(0);
        assert_eq!(
            Msg::decode(KIND_PULL, &payload),
            Err(MsgError::Malformed("trailing bytes after message"))
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        for msg in [
            Msg::Hello {
                broker: BrokerId(1),
                epoch: 7,
                digest: sample_digest(5),
            },
            Msg::Route {
                origin: BrokerId(2),
                event: sample_event(),
            },
            sample_delta(vec![9, 8, 7]),
            sample_delta(Vec::new()),
            Msg::Subscribe { sub: sample_sub() },
            Msg::Deliver {
                id: sample_id(),
                event: sample_event(),
            },
        ] {
            let payload = msg.encode_payload();
            for cut in 0..payload.len() {
                assert!(
                    Msg::decode(msg.kind(), &payload[..cut]).is_err(),
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_accepted_flag_rejected() {
        let mut payload = Msg::PublishAck {
            seq: 1,
            accepted: true,
            matched: 0,
        }
        .encode_payload();
        payload[4] = 2;
        assert!(matches!(
            Msg::decode(KIND_PUBLISH_ACK, &payload),
            Err(MsgError::Malformed(_))
        ));
    }
}
