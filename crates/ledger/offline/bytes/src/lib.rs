//! Offline shim of the `bytes` 1.x API surface used by the subsum
//! workspace: [`BytesMut`] as a growable big-endian sink ([`BufMut`]),
//! [`Bytes`] as an immutable cheaply clonable buffer, and [`Buf`] over
//! `&[u8]` cursors. Integers are big-endian exactly as in `bytes`, so
//! every wire format is byte-identical to a registry build.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// The empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(Arc::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(Arc::from(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.0.to_vec()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == **other
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Reserves room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&Bytes::copy_from_slice(&self.0), f)
    }
}

macro_rules! put_be {
    ($($name:ident: $t:ty),*) => {$(
        /// Appends the value big-endian.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// A sink of bytes; integers are written big-endian.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    put_be!(
        put_u16: u16, put_u32: u32, put_u64: u64, put_u128: u128,
        put_i16: i16, put_i32: i32, put_i64: i64,
        put_f32: f32, put_f64: f64
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

macro_rules! get_be {
    ($($name:ident: $t:ty),*) => {$(
        /// Reads the value big-endian, advancing the cursor.
        ///
        /// # Panics
        ///
        /// Panics if fewer bytes remain than the value needs.
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
    )*};
}

/// A cursor over bytes; integers are read big-endian.
pub trait Buf {
    /// Bytes left.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    /// Reads one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    get_be!(
        get_u16: u16, get_u32: u32, get_u64: u64, get_u128: u128,
        get_i16: i16, get_i32: i32, get_i64: i64,
        get_f32: f32, get_f64: f64
    );
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance past the end");
        *self = &self[cnt..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_round_trip() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        w.put_u64(1 << 40);
        w.put_f64(8.4);
        w.put_slice(b"xy");
        let frozen = w.freeze();
        assert_eq!(&frozen[..3], &[7, 1, 2]);
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0x0304_0506);
        assert_eq!(r.get_u64(), 1 << 40);
        assert_eq!(r.get_f64(), 8.4);
        assert_eq!(r.remaining(), 2);
        assert_eq!(frozen.to_vec().len(), frozen.len());
    }
}
