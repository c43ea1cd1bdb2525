//! Incremental session-frame extraction from a TCP byte stream.
//!
//! TCP delivers bytes, not frames: a read may hold half a frame, three
//! frames, or one byte of a length prefix (the slow-loris case). The
//! [`FrameReader`] buffers whatever arrives and yields complete
//! [`SessionMsg`]s as soon as their last byte lands, distinguishing
//! *"need more bytes"* (keep the connection) from *fatal* framing errors
//! (corrupt varint, oversized declaration, bad CRC — the stream can never
//! resynchronise, so the session must die).

use envirotrack_core::wire::session::SessionMsg;
use envirotrack_core::wire::varint::{get_uvarint, uvarint_len};
use envirotrack_core::wire::{crc, DecodeError};

/// Upper bound on a declared frame body. The largest legitimate session
/// message is a few dozen bytes; anything claiming more is an attack or a
/// desynchronised stream, and buffering it would let one client pin 2^64
/// bytes of memory with a 10-byte prefix.
pub(crate) const MAX_FRAME_BYTES: u64 = 64 * 1024;

/// Why a stream is beyond recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame was malformed: bad varint prefix, CRC mismatch, unknown
    /// tag, non-canonical field — anything [`SessionMsg::decode`] rejects.
    Codec(DecodeError),
    /// The length prefix declared a body larger than `MAX_FRAME_BYTES`.
    Oversized {
        /// The declared body length.
        declared: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Codec(e) => write!(f, "codec error: {e}"),
            FrameError::Oversized { declared } => {
                write!(f, "oversized frame: declared {declared} bytes")
            }
        }
    }
}

/// Buffers stream bytes and carves them into verified session frames.
///
/// Carving a frame advances a cursor; the consumed prefix is dropped once,
/// by the next [`FrameReader::extend`], so a burst of `n` buffered frames
/// costs `n` decodes and one move of what is left, not `n` moves.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already carved into frames.
    consumed: usize,
}

impl FrameReader {
    /// A fresh, empty reader.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if one has fully arrived.
    ///
    /// * `Ok(Some(msg))` — a frame was verified and consumed.
    /// * `Ok(None)` — the buffer holds only a partial frame; read more.
    /// * `Err(_)` — the stream is corrupt; close the session. The reader
    ///   is left as-is (no resynchronisation is attempted — a CRC'd,
    ///   length-prefixed stream has no safe resync point).
    pub fn next_frame(&mut self) -> Result<Option<SessionMsg>, FrameError> {
        let pending = &self.buf[self.consumed..];
        let mut cursor = pending;
        let body_len = match get_uvarint(&mut cursor) {
            Ok(n) => n,
            // Mid-varint end of buffer: wait for more bytes.
            Err(DecodeError::Truncated) => return Ok(None),
            Err(e) => return Err(FrameError::Codec(e)),
        };
        if body_len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized { declared: body_len });
        }
        // body_len <= 64 KiB, so every cast below is lossless.
        #[allow(clippy::cast_possible_truncation)]
        let total = uvarint_len(body_len) + body_len as usize + crc::TRAILER_BYTES;
        if pending.len() < total {
            return Ok(None);
        }
        let msg = SessionMsg::decode(&pending[..total]).map_err(FrameError::Codec)?;
        self.consumed += total;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_core::wire::session::{Close, CloseReason};

    fn ping(nonce: u64) -> SessionMsg {
        SessionMsg::Ping { nonce }
    }

    #[test]
    fn reassembles_frames_from_arbitrary_chunking() {
        let msgs = vec![
            ping(1),
            ping(u64::MAX),
            SessionMsg::Close(Close {
                reason: CloseReason::Normal,
            }),
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        // Feed the byte stream one byte at a time (worst-case slow loris).
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        for b in &stream {
            r.extend(std::slice::from_ref(b));
            while let Some(m) = r.next_frame().expect("valid stream") {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(r.buf.len() - r.consumed, 0);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = ping(7).encode();
        let mut r = FrameReader::new();
        for cut in 0..bytes.len() {
            r.extend(&bytes[cut..=cut]);
            if cut + 1 < bytes.len() {
                assert_eq!(r.next_frame(), Ok(None), "cut {cut}");
            }
        }
        assert_eq!(r.next_frame(), Ok(Some(ping(7))));
    }

    #[test]
    fn oversized_declaration_is_fatal_before_buffering() {
        let mut r = FrameReader::new();
        // uvarint(2^20) followed by nothing: rejected on the prefix alone,
        // without waiting for a megabyte that will never arrive.
        let mut buf = bytes::BytesMut::new();
        envirotrack_core::wire::varint::put_uvarint(&mut buf, 1 << 20);
        r.extend(&buf.freeze());
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Oversized { declared: 1 << 20 })
        );
    }

    #[test]
    fn corrupt_bytes_are_fatal() {
        let mut bytes = ping(7).encode().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // break the CRC trailer
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::Codec(DecodeError::CrcMismatch { .. }))
        ));
        // A corrupt varint prefix is also fatal, not "wait for more".
        let mut r = FrameReader::new();
        r.extend(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f]);
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::Codec(DecodeError::VarintOverflow))
        ));
    }

    /// A burst of `bytes` bytes of 8-byte PING frames, and the fastest of
    /// three timings of carving it after one `extend`.
    fn carve_burst(bytes: usize) -> std::time::Duration {
        let mut burst = Vec::with_capacity(bytes + 8);
        for nonce in (128..16_384).cycle() {
            if burst.len() >= bytes {
                break;
            }
            ping(nonce).encode_into(&mut burst);
        }
        (0..3)
            .map(|_| {
                let mut r = FrameReader::new();
                let started = std::time::Instant::now();
                r.extend(&burst);
                let mut frames = 0;
                while r.next_frame().expect("valid stream").is_some() {
                    frames += 1;
                }
                let took = started.elapsed();
                assert_eq!(frames, burst.len() / 8);
                assert_eq!(r.buf.len() - r.consumed, 0);
                took
            })
            .min()
            .expect("three timings")
    }

    #[test]
    fn a_buffered_burst_carves_in_time_linear_in_its_size() {
        // Dropping each carved frame from the front of the buffer made
        // this quadratic: in a release build 1 MiB took 1.7 s — 25 times
        // what 256 KiB took — and 4 MiB would take half a minute, with
        // the worker's other sessions waiting.
        let quarter = carve_burst(1024 * 1024);
        let whole = carve_burst(4 * 1024 * 1024);
        assert!(
            whole < quarter * 6,
            "4x the bytes took {whole:?} against {quarter:?}"
        );
        assert!(
            whole < std::time::Duration::from_secs(2),
            "4 MiB of PINGs took {whole:?}"
        );
    }
}
