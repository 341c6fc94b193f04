//! Minimal byte-level codec used by the summary wire format.
//!
//! The paper's bandwidth analysis (§5.1) counts exact byte sizes for the
//! summary structures. [`ByteWriter`] and [`ByteReader`] provide a small,
//! deterministic, length-accountable encoding layer over a plain
//! `Vec<u8>`; the summary codec in `subsum-core` builds on it.

use std::fmt;

/// Errors from [`ByteReader`] when the input is truncated or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before a value could be read.
    UnexpectedEnd,
    /// A length prefix or enum tag had an invalid value.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte sink with exact size accounting.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u16`-length-prefixed string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds 65535 bytes; summary string values are
    /// attribute names and pattern texts, far below the limit.
    pub fn str16(&mut self, v: &str) {
        assert!(v.len() <= u16::MAX as usize, "string too long for str16");
        self.u16(v.len() as u16);
        self.bytes(v.as_bytes());
    }
}

/// A cursor over encoded bytes; the mirror of [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let head = self.take(N)?;
        head.try_into().map_err(|_| DecodeError::UnexpectedEnd)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_be_bytes(self.array()?))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u16()? as usize;
        let raw = self.take(n)?;
        std::str::from_utf8(raw).map_err(|_| DecodeError::Malformed("utf-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(8.40);
        w.str16("NYSE");
        let bytes = w.into_bytes();
        let want: [&[u8]; 6] = [
            &[7],
            &[0x01, 0x2C],
            &[0x00, 0x01, 0x11, 0x70],
            &[0, 0, 0x01, 0, 0, 0, 0, 0],
            &[0x40, 0x20, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCD],
            b"\x00\x04NYSE",
        ];
        assert_eq!(bytes[..], want.concat());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), 8.40);
        assert_eq!(r.str16().unwrap(), "NYSE");
        assert!(r.is_exhausted());
    }

    #[test]
    fn length_accounting_is_exact() {
        let mut w = ByteWriter::new();
        w.u8(1);
        assert_eq!(w.len(), 1);
        w.u32(1);
        assert_eq!(w.len(), 5);
        w.str16("abc");
        assert_eq!(w.len(), 5 + 2 + 3);
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32().unwrap_err(), DecodeError::UnexpectedEnd);
        // Reader is unchanged after a failed read of this kind.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.u16().unwrap(), 0x0102);
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = ByteWriter::new();
        w.u16(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str16(), Err(DecodeError::Malformed(_))));
    }
}
