//! Variable-length integer primitives for the binary wire codec.
//!
//! Unsigned integers use LEB128: seven value bits per byte, least
//! significant group first, high bit set on every byte except the last.
//! Small values — node ids, sequence numbers, hop counts — cost one byte
//! instead of the four a fixed-width field would, which is where most of
//! the frame shrinkage over the old fixed-width codec comes from.
//!
//! Decoding is *canonical*: every value has exactly one accepted encoding.
//! A final byte of zero after a continuation ([`0x81, 0x00`] for `1`) is
//! rejected as [`DecodeError::NonCanonicalVarint`], and encodings longer
//! than ten bytes — or whose tenth byte carries more than u64's last bit —
//! are [`DecodeError::VarintOverflow`]. Canonical decoding gives the codec
//! its strongest pinning property: `decode(b) == Ok(m)` implies
//! `encode(m) == b`, so the adversarial corpus can assert re-encoding
//! reproduces any accepted input byte-for-byte.
//!
//! Signed integers map through zigzag (`0, -1, 1, -2, …` → `0, 1, 2, 3,
//! …`) so small magnitudes of either sign stay short. Floats encode their
//! IEEE-754 bits byte-swapped: round coordinates like `2.0` have all their
//! payload in the *high* bits, and the swap moves it low where LEB128
//! drops the leading zeros (`2.0` costs one byte instead of nine).

use bytes::BufMut;

use super::DecodeError;

/// Longest legal uvarint: ten bytes carry 70 bits, enough for any `u64`.
pub(crate) const MAX_UVARINT_BYTES: usize = 10;

/// Appends `v` as a minimal-length LEB128 varint.
pub fn put_uvarint<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// The encoded length of `v` in bytes (1..=10).
#[must_use]
pub fn uvarint_len(v: u64) -> usize {
    // 0 still takes one byte; otherwise ceil(bits / 7).
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Reads a canonical LEB128 varint, advancing `buf` past it.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer ends mid-varint,
/// [`DecodeError::VarintOverflow`] when the encoding exceeds `u64`, and
/// [`DecodeError::NonCanonicalVarint`] when a shorter encoding of the same
/// value exists.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut value: u64 = 0;
    for i in 0..MAX_UVARINT_BYTES {
        let Some(&byte) = buf.get(i) else {
            return Err(DecodeError::Truncated);
        };
        let group = u64::from(byte & 0x7f);
        // The tenth byte holds bits 63..=69; anything past bit 63 overflows.
        if i == MAX_UVARINT_BYTES - 1 && byte > 0x01 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= group << (7 * i);
        if byte & 0x80 == 0 {
            // A terminating zero group after a continuation means a shorter
            // encoding existed; reject it to keep decoding canonical.
            if byte == 0 && i > 0 {
                return Err(DecodeError::NonCanonicalVarint);
            }
            *buf = &buf[i + 1..];
            return Ok(value);
        }
    }
    Err(DecodeError::VarintOverflow)
}

/// Reads a varint into a `u8` field.
///
/// # Errors
///
/// The [`get_uvarint`] errors, and [`DecodeError::Malformed`] when the
/// value does not fit.
#[inline]
pub(crate) fn get_u8v(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    u8::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u8 field",
    })
}

/// Reads a varint into a `u16` field; errors as [`get_u8v`].
#[inline]
pub(crate) fn get_u16v(buf: &mut &[u8]) -> Result<u16, DecodeError> {
    u16::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u16 field",
    })
}

/// Reads a varint into a `u32` field; errors as [`get_u8v`].
#[inline]
pub(crate) fn get_u32v(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    u32::try_from(get_uvarint(buf)?).map_err(|_| DecodeError::Malformed {
        what: "varint exceeds u32 field",
    })
}

/// Zigzag-maps a signed integer to an unsigned one, interleaving signs so
/// small magnitudes encode short: `0, -1, 1, -2, …` → `0, 1, 2, 3, …`.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends an `f64` as the varint of its byte-swapped IEEE-754 bits —
/// lossless for every bit pattern (infinities, NaN payloads, `-0.0`).
pub(crate) fn put_f64<B: BufMut>(buf: &mut B, v: f64) {
    put_uvarint(buf, v.to_bits().swap_bytes());
}

/// Reads an `f64` written by [`put_f64`].
///
/// # Errors
///
/// Propagates the [`get_uvarint`] errors.
pub(crate) fn get_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    Ok(f64::from_bits(get_uvarint(buf)?.swap_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn enc(v: u64) -> Vec<u8> {
        let mut b = BytesMut::new();
        put_uvarint(&mut b, v);
        b.to_vec()
    }

    #[test]
    fn small_values_are_single_bytes() {
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(1), [0x01]);
        assert_eq!(enc(127), [0x7f]);
        assert_eq!(enc(128), [0x80, 0x01]);
    }

    #[test]
    fn extremes_round_trip() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let bytes = enc(v);
            assert_eq!(bytes.len(), uvarint_len(v));
            let mut buf = bytes.as_slice();
            assert_eq!(get_uvarint(&mut buf), Ok(v));
            assert!(buf.is_empty());
        }
        assert_eq!(enc(u64::MAX).len(), MAX_UVARINT_BYTES);
    }

    #[test]
    fn non_canonical_and_overlong_encodings_are_rejected() {
        // [0x81, 0x00] decodes to 1 under plain LEB128 — canonical is [0x01].
        let mut buf: &[u8] = &[0x81, 0x00];
        assert_eq!(get_uvarint(&mut buf), Err(DecodeError::NonCanonicalVarint));
        // Eleven continuation bytes can never terminate within the limit.
        let overlong = [0x80u8; 11];
        let mut buf: &[u8] = &overlong;
        assert_eq!(get_uvarint(&mut buf), Err(DecodeError::VarintOverflow));
        // A tenth byte above 0x01 overflows u64 even if it terminates.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        let mut buf: &[u8] = &too_big;
        assert_eq!(get_uvarint(&mut buf), Err(DecodeError::VarintOverflow));
        // u64::MAX itself is fine: tenth byte 0x01.
        let max = enc(u64::MAX);
        assert_eq!(max[9], 0x01);
    }

    #[test]
    fn truncation_mid_varint_is_truncated() {
        let bytes = enc(u64::MAX);
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            assert_eq!(get_uvarint(&mut buf), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn zigzag_interleaves_signs() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes of either sign stay short on the wire.
        assert!(uvarint_len(zigzag(-3)) == 1);
        assert!(uvarint_len(zigzag(i64::MIN)) == MAX_UVARINT_BYTES);
    }

    #[test]
    fn floats_are_bit_exact_and_round_values_are_short() {
        for v in [
            0.0,
            -0.0,
            1.0,
            2.0,
            -1.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let mut b = BytesMut::new();
            put_f64(&mut b, v);
            let mut buf = &b[..];
            let back = get_f64(&mut buf).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
            assert!(buf.is_empty());
        }
        // The byte swap puts a round coordinate's payload in the low bits.
        let mut b = BytesMut::new();
        put_f64(&mut b, 2.0);
        assert_eq!(b.len(), 1);
        let mut b = BytesMut::new();
        put_f64(&mut b, 0.0);
        assert_eq!(b.len(), 1);
    }
}
