//! In-tree minimal byte buffers: the subset of the `bytes` crate API that
//! EnviroTrack's wire codec and payloads use, reimplemented over `std` so
//! the workspace builds hermetically with no crates.io access.
//!
//! The lib target is named `bytes` so `use bytes::{Buf, BufMut, Bytes,
//! BytesMut}` keeps working unchanged across the workspace. Semantics match
//! the upstream crate for the covered surface:
//!
//! * [`Bytes`] — a cheaply cloneable immutable byte buffer (static slice or
//!   reference-counted heap allocation).
//! * [`BytesMut`] — a growable write buffer, frozen into a [`Bytes`].
//! * [`Buf`] — big-endian cursor reads over `&[u8]`, advancing the slice.
//! * [`BufMut`] — big-endian appends onto a [`BytesMut`] or a `Vec<u8>`.
//!
//! ```
//! use bytes::{Buf, BufMut, Bytes, BytesMut};
//!
//! let mut w = BytesMut::with_capacity(16);
//! w.put_u8(7);
//! w.put_u32(0xDEAD_BEEF);
//! let frozen: Bytes = w.freeze();
//!
//! let mut r: &[u8] = &frozen;
//! assert_eq!(r.get_u8(), 7);
//! assert_eq!(r.get_u32(), 0xDEAD_BEEF);
//! assert_eq!(r.remaining(), 0);
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone)]
pub enum Bytes {
    /// Borrowed from a `'static` slice — no allocation, free to clone.
    Static(&'static [u8]),
    /// Shared ownership of a heap allocation.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub const fn new() -> Self {
        Bytes::Static(&[])
    }

    /// Wraps a `'static` slice without copying.
    #[must_use]
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes::Static(data)
    }

    /// Copies a slice into a new shared buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::Shared(Arc::from(data))
    }

    /// The buffer contents.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(s) => s,
            Bytes::Shared(a) => a,
        }
    }

    /// Number of bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copies the contents into a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The heap bytes the buffer's allocation takes, shared by every clone:
    /// the `Arc`'s two counts and the bytes; nothing for a static slice.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            Bytes::Shared(data) => (2 * size_of::<usize>() + data.len()).next_multiple_of(8),
            Bytes::Static(_) => 0,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::Shared(Arc::from(v.into_boxed_slice()))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::Static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::Static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer for building wire messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Big-endian cursor reads. Implemented for `&[u8]`: each read consumes the
/// front of the slice, so a `&mut &[u8]` walks a message in place.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads and consumes one byte.
    ///
    /// # Panics
    ///
    /// All `get_*` methods panic when fewer than the required bytes remain;
    /// callers bound-check with [`Buf::remaining`] first.
    fn get_u8(&mut self) -> u8;
    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16;
    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64;
    /// Reads a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64;
}

macro_rules! get_impl {
    ($self:ident, $ty:ty, $n:expr) => {{
        let mut raw = [0u8; $n];
        raw.copy_from_slice(&$self[..$n]);
        *$self = &$self[$n..];
        <$ty>::from_be_bytes(raw)
    }};
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }
    fn get_u16(&mut self) -> u16 {
        get_impl!(self, u16, 2)
    }
    fn get_u32(&mut self) -> u32 {
        get_impl!(self, u32, 4)
    }
    fn get_u64(&mut self) -> u64 {
        get_impl!(self, u64, 8)
    }
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(get_impl!(self, u64, 8))
    }
}

/// Big-endian appends onto a write buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64);
    /// Appends a raw slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1.5);
        w.put_slice(b"tail");
        let b = w.freeze();
        let mut r: &[u8] = &b;
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 8 + 4);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64(), -1.5);
        assert_eq!(r, b"tail".as_slice());
    }

    #[test]
    fn encoding_is_big_endian() {
        let mut w = BytesMut::new();
        w.put_u16(0x0102);
        assert_eq!(&*w, &[1, 2]);
    }

    #[test]
    fn bytes_constructors_agree() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abc");
        let c = Bytes::from(vec![b'a', b'b', b'c']);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from("abc").to_vec(), b"abc");
        assert_eq!(Bytes::from(String::from("abc")), a);
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::copy_from_slice(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn hash_matches_slice_semantics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Bytes::from_static(b"k"));
        assert!(set.contains(&Bytes::copy_from_slice(b"k")));
    }
}
