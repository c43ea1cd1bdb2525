//! CRC-32 integrity trailer for wire frames.
//!
//! Every encoded [`super::Message`] — on the air or in the JSON reference
//! rendering — ends in a checksum of everything before it, so a receiver
//! can reject frames the channel garbled *before* the structural decoder
//! ever runs. This is the
//! reflected IEEE 802.3 polynomial (`0xEDB88320`), table-driven with a
//! compile-time table: it detects **every** single-bit error and every
//! burst shorter than 33 bits, which is exactly the fault class the chaos
//! medium's bit-flip/truncate injectors produce.
//!
//! Trailer forms (the codec chooses, so both stay self-describing):
//!
//! - binary: 4 raw little-endian bytes appended after the frame;
//! - JSON reference: `#` + 8 lowercase hex digits, keeping the encoding a
//!   single printable UTF-8 line.
//!
//! The trailer is part of the canonical encoding — goldens pin it, and the
//! canonicality property (accepted bytes re-encode to themselves) still
//! holds because the checksum is a pure function of the body.

use super::DecodeError;

/// Bytes the binary trailer adds to every frame.
pub const TRAILER_BYTES: usize = 4;

/// Builds the 256-entry lookup table for the reflected polynomial at
/// compile time.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = build_table();

/// Computes the CRC-32 (IEEE, reflected) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Splits a binary frame into its body, verifying the 4-byte trailer.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if the buffer cannot even hold a trailer;
/// [`DecodeError::CrcMismatch`] if the stored checksum disagrees with the
/// body's.
pub(crate) fn split_verified(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    if bytes.len() < TRAILER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(DecodeError::CrcMismatch { stored, computed });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The universal CRC-32 known-answer: crc32("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let data = b"envirotrack frame body";
        let base = crc32(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn split_rejects_a_flipped_trailer_and_a_flipped_body() {
        let body = b"payload";
        let mut framed = body.to_vec();
        framed.extend_from_slice(&crc32(body).to_le_bytes());
        assert_eq!(split_verified(&framed).unwrap(), body);
        let mut bad_body = framed.clone();
        bad_body[0] ^= 0x40;
        assert!(matches!(
            split_verified(&bad_body),
            Err(DecodeError::CrcMismatch { .. })
        ));
        let mut bad_trailer = framed;
        *bad_trailer.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            split_verified(&bad_trailer),
            Err(DecodeError::CrcMismatch { .. })
        ));
        assert_eq!(split_verified(&[1, 2, 3]), Err(DecodeError::Truncated));
    }
}
