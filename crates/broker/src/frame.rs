//! The length-prefixed frame layer under every subsum TCP connection.
//!
//! A frame is the unit a socket carries; its payload is an opaque byte
//! string supplied by the message codec ([`crate::msg`]) — summary
//! payloads in particular are the unmodified `subsum-core::wire` bytes,
//! so digests and checkpoints stay byte-identical between the simulator
//! and the socket deployment. On the wire a frame is
//!
//! ```text
//! +--------+---------+------+-----------+----------------+
//! | magic  | version | kind | length    | payload        |
//! | u16 BE | u8      | u8   | u32 BE    | `length` bytes |
//! +--------+---------+------+-----------+----------------+
//! ```
//!
//! [`FrameDecoder`] is *incremental*: TCP delivers arbitrary chunks, so
//! the decoder accumulates partial reads and yields a frame exactly
//! when its bytes are complete. Decoding is panic-free against every
//! input — corrupt magic, an unknown version, or an oversized length
//! poison the decoder (a byte stream is unrecoverable once framing is
//! lost; the session must drop the connection), while a short buffer is
//! simply "not yet" ([`Ok(None)`](FrameDecoder::next_frame)). The
//! robustness property tests feed arbitrary streams split at every boundary
//! and require byte-for-byte agreement with one-shot decoding.

use std::fmt;

/// Frame preamble: `"SF"`, subsum frame.
pub const MAGIC: u16 = 0x5346;

/// Frame layer version.
pub const FRAME_VERSION: u8 = 1;

/// Bytes before the payload: magic + version + kind + length.
pub const HEADER_LEN: usize = 8;

/// Maximum payload size accepted (16 MiB). A length field beyond this
/// is treated as corruption, bounding decoder memory against hostile
/// or garbled length prefixes.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// One decoded frame: a kind tag and its payload bytes.
///
/// The frame layer does not interpret `kind`; the message codec
/// ([`crate::msg`]) owns the tag space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind tag (see `crate::msg::KIND_*`).
    pub kind: u8,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte stream failed framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream does not start with [`MAGIC`] — not a subsum peer, or
    /// framing was lost.
    BadMagic(u16),
    /// The version byte is unknown.
    UnsupportedVersion(u8),
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized(n) => {
                write!(f, "frame payload length {n} exceeds {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] if the payload exceeds
/// [`MAX_PAYLOAD`].
pub fn encode_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized(payload.len() as u32));
    }
    // BOUND: payload.len() <= MAX_PAYLOAD (1 << 24), checked above.
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// An incremental frame decoder over a TCP byte stream.
///
/// Feed chunks as the socket produces them; pop complete frames with
/// [`FrameDecoder::next_frame`]. Any framing error is sticky: once the
/// stream is corrupt every subsequent call reports the same error, and
/// the session is expected to drop the connection.
///
/// # Example
///
/// ```
/// use subsum_broker::frame::{encode_frame, FrameDecoder};
///
/// let bytes = encode_frame(7, b"hello").unwrap();
/// let mut dec = FrameDecoder::new();
/// dec.feed(&bytes[..3]); // partial read
/// assert_eq!(dec.next_frame().unwrap(), None);
/// dec.feed(&bytes[3..]);
/// let frame = dec.next_frame().unwrap().unwrap();
/// assert_eq!((frame.kind, frame.payload.as_slice()), (7, &b"hello"[..]));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor; `pos <= buf.len()` always. The consumed prefix is
    /// compacted in `feed`, so memory stays bounded by one max frame
    /// plus one socket read.
    pos: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        // BOUND: pos <= buf.len() is a struct invariant (pos only
        // advances past bytes already in buf).
        self.buf.len() - self.pos
    }

    /// Appends one chunk of the byte stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame.
    ///
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] once the stream is corrupt; the error
    /// is sticky and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        // BOUND: `pos <= buf.len()` is a struct invariant (pos only
        // advances past bytes verified present below).
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        // BOUND: the 8-byte header was length-checked just above.
        let magic = u16::from_be_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(self.poison(FrameError::BadMagic(magic)));
        }
        // BOUND: within the length-checked 8-byte header.
        let version = avail[2];
        if version != FRAME_VERSION {
            return Err(self.poison(FrameError::UnsupportedVersion(version)));
        }
        // BOUND: within the length-checked 8-byte header.
        let kind = avail[3];
        // BOUND: within the length-checked 8-byte header.
        let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let len_usize = len as usize;
        if len_usize > MAX_PAYLOAD {
            return Err(self.poison(FrameError::Oversized(len)));
        }
        // BOUND: `len <= MAX_PAYLOAD << usize::MAX`, so the sum cannot
        // overflow; a short buffer returns `None` rather than slicing.
        if avail.len() < HEADER_LEN + len_usize {
            return Ok(None);
        }
        // BOUND: `HEADER_LEN + len` bytes were verified present above.
        let payload = avail[HEADER_LEN..HEADER_LEN + len_usize].to_vec();
        self.pos += HEADER_LEN + len_usize;
        Ok(Some(Frame { kind, payload }))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e);
        e
    }
}

/// One-shot decoding of a complete byte stream into frames; trailing
/// partial bytes are reported as the number of unconsumed bytes.
///
/// The incremental-equivalence property tests compare every chunked feeding
/// of a stream against this function.
///
/// # Errors
///
/// Returns the first [`FrameError`] in the stream.
pub fn decode_all(bytes: &[u8]) -> Result<(Vec<Frame>, usize), FrameError> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = dec.next_frame()? {
        frames.push(frame);
    }
    Ok((frames, dec.buffered()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let bytes = encode_frame(3, b"payload").unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 7);
        let (frames, rest) = decode_all(&bytes).unwrap();
        assert_eq!(rest, 0);
        assert_eq!(
            frames,
            vec![Frame {
                kind: 3,
                payload: b"payload".to_vec()
            }]
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bytes = encode_frame(0, b"").unwrap();
        let (frames, rest) = decode_all(&bytes).unwrap();
        assert_eq!(rest, 0);
        assert_eq!(
            frames,
            vec![Frame {
                kind: 0,
                payload: Vec::new()
            }]
        );
    }

    #[test]
    fn byte_at_a_time_feeding_matches_one_shot() {
        let mut stream = Vec::new();
        for k in 0..4u8 {
            stream.extend_from_slice(&encode_frame(k, &vec![k; k as usize * 7]).unwrap());
        }
        let (expect, _) = decode_all(&stream).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, expect);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_is_sticky() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xFF; 16]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err, FrameError::BadMagic(0xFFFF));
        // Still poisoned, even after more (valid-looking) bytes.
        dec.feed(&encode_frame(1, b"x").unwrap());
        assert_eq!(dec.next_frame().unwrap_err(), err);
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = encode_frame(1, b"x").unwrap();
        bytes[2] = 9;
        assert_eq!(
            decode_all(&bytes).unwrap_err(),
            FrameError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut bytes = encode_frame(1, b"x").unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_all(&bytes).unwrap_err(),
            FrameError::Oversized(u32::MAX)
        );
        assert!(encode_frame(1, &vec![0; MAX_PAYLOAD + 1]).is_err());
    }

    #[test]
    fn truncated_stream_is_incomplete_not_an_error() {
        let bytes = encode_frame(5, b"abcdef").unwrap();
        for cut in 0..bytes.len() {
            let (frames, rest) = decode_all(&bytes[..cut]).unwrap();
            assert!(frames.is_empty(), "cut {cut} produced a frame");
            assert_eq!(rest, cut);
        }
    }
}
