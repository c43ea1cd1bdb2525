//! Adversarial decoder suite: hostile bytes must produce `Err`, never a
//! panic, an abort, or an unbounded allocation.
//!
//! The radio delivers whatever the channel did to a frame, so the decoder
//! is the trust boundary of the whole middleware. This module attacks it
//! four ways: systematic truncation at *every* byte offset, forged and
//! out-of-range type tags, overlong/non-canonical varints, and lying
//! length prefixes — plus a 256-case seed-deterministic corruption corpus
//! (flip/insert/delete/truncate mutations from a pinned [`SimRng`]) run
//! against both codecs. Accepted binary inputs must additionally satisfy
//! the canonicality property: re-encoding reproduces the input bytes.

#[path = "support/json.rs"]
mod json;

use bytes::Bytes;
use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::Port;
use envirotrack_core::wire::{
    crc, BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward,
    Heartbeat, Message, MtpAck, MtpSegment, Relinquish, Report,
};
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

fn label(t: u16, c: u32, s: u32) -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(c),
        seq: s,
    }
}

/// Appends a *valid* CRC-32 trailer to hand-crafted frame bytes, so tests
/// probing structural errors get past the integrity check that now guards
/// every decode.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&crc::crc32(body).to_le_bytes());
    out
}

/// Strips a (valid) trailer from an encoded frame, for tests that tamper
/// with the structure and then re-[`seal`].
fn unsealed(msg: &Message) -> Vec<u8> {
    let bytes = msg.encode();
    bytes[..bytes.len() - crc::TRAILER_BYTES].to_vec()
}

/// A corpus covering all eleven variants, options in both states, nested
/// geo-forwarding, and payloads worth corrupting.
fn corpus() -> Vec<Message> {
    vec![
        Message::Heartbeat(Heartbeat {
            label: label(1, 7, 300),
            leader: NodeId(7),
            leader_pos: Point::new(2.5, 10.0),
            weight: 4_000,
            hb_seq: 129,
            ttl: 1,
            state: Some(Bytes::from_static(b"state")),
        }),
        Message::Relinquish(Relinquish {
            label: label(1, 7, 300),
            from: NodeId(7),
            weight: 4_000,
            successor: None,
            state: Some(Bytes::from_static(&[0, 0xff, 0x80])),
        }),
        Message::Report(Report {
            label: label(2, 15, 6),
            member: NodeId(15),
            taken_at: Timestamp::from_millis(1_500),
            values: vec![
                (0, ReadingValue::Scalar(0.75)),
                (1, ReadingValue::Position(Point::new(-4.0, 3.0))),
            ],
        }),
        Message::DirRegister(DirRegister {
            label: label(3, 200, 1),
            location: Point::new(12.0, 0.5),
        }),
        Message::DirQuery(DirQuery {
            type_id: ContextTypeId(3),
            reply_to: NodeId(42),
            reply_pos: Point::new(0.0, -6.25),
            query_id: 77_000,
        }),
        Message::DirResponse(DirResponse {
            query_id: 77_000,
            entries: vec![(label(3, 200, 1), Point::new(12.0, 0.5))],
        }),
        Message::Mtp(MtpSegment {
            src_label: label(4, 9, 2),
            src_port: Port(300),
            dst_label: label(5, 77, 1),
            dst_port: Port(2),
            src_leader: NodeId(9),
            src_leader_pos: Point::new(5.0, 5.0),
            chain_hops: 2,
            seq: 1_000,
            payload: Bytes::from_static(b"segment"),
        }),
        Message::Base(BaseReport {
            label: label(2, 15, 6),
            generated_at: Timestamp::from_secs(9),
            payload: Bytes::from_static(&[0xca, 0xfe]),
        }),
        Message::Geo(GeoForward {
            dest: Point::new(100.0, 200.0),
            deliver_to: Some(NodeId(512)),
            inner: Box::new(Message::MtpAckMsg(MtpAck {
                dst_label: label(5, 77, 1),
                src_node: NodeId(9),
                seq: 1_000,
                acker: NodeId(77),
                acker_pos: Point::new(6.0, 6.0),
            })),
        }),
        Message::MtpAckMsg(MtpAck {
            dst_label: label(5, 77, 1),
            src_node: NodeId(9),
            seq: 1_000,
            acker: NodeId(77),
            acker_pos: Point::new(6.0, 6.0),
        }),
        Message::DirSyncMsg(DirSync {
            type_id: ContextTypeId(3),
            from: NodeId(6),
            reply: true,
            entries: vec![(
                label(3, 200, 1),
                Point::new(12.0, 0.5),
                Timestamp::from_millis(64_000),
            )],
        }),
    ]
}

#[test]
fn truncation_at_every_offset_errors_cleanly() {
    for msg in corpus() {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            // A cut too short to hold the CRC trailer is `Truncated`; any
            // longer cut turns the last four surviving bytes into a bogus
            // trailer, so the integrity check fires before structure.
            let err = Message::decode(&bytes[..cut]).unwrap_err();
            if cut < crc::TRAILER_BYTES {
                assert_eq!(err, DecodeError::Truncated, "binary cut {cut}: {err:?}");
            } else {
                assert!(
                    matches!(err, DecodeError::CrcMismatch { .. }),
                    "binary cut {cut}: {err:?}"
                );
            }
        }
        let text = json::encode(&msg);
        for cut in 0..text.len() {
            // JSON truncation can surface as several error shapes; all
            // that matters is Err, not which.
            assert!(
                json::decode(&text[..cut]).is_err(),
                "json cut {cut} of {}",
                String::from_utf8_lossy(&text)
            );
        }
    }
}

#[test]
fn every_unused_tag_byte_is_rejected() {
    // A sealed frame whose body is exactly one small varint tag: tags
    // 1..=11 then fail later (truncated fields); everything else must be
    // UnknownTag.
    for tag in 12u8..=127 {
        let frame = seal(&[0x01, tag]);
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            DecodeError::UnknownTag { tag: u64::from(tag) },
            "tag {tag}"
        );
    }
    // Known tags with an empty remainder are truncated, not accepted.
    for tag in 1u8..=11 {
        let frame = seal(&[0x01, tag]);
        assert_eq!(Message::decode(&frame).unwrap_err(), DecodeError::Truncated);
    }
    // A huge multi-byte varint tag is still just an unknown tag.
    let frame = seal(&[0x05, 0xff, 0xff, 0xff, 0xff, 0x0f]); // tag = u32::MAX
    assert_eq!(
        Message::decode(&frame).unwrap_err(),
        DecodeError::UnknownTag {
            tag: u64::from(u32::MAX)
        }
    );
    // And an *unsealed* unknown tag never reaches the tag check at all.
    assert!(matches!(
        Message::decode(&[0x01, 99]).unwrap_err(),
        DecodeError::Truncated
    ));
}

#[test]
fn overlong_varints_are_rejected_everywhere() {
    // As the frame-length prefix.
    let mut frame = vec![0x80u8; 11];
    frame.push(0x00);
    assert_eq!(
        Message::decode(&seal(&frame)).unwrap_err(),
        DecodeError::VarintOverflow
    );
    // Ten continuation bytes whose tenth exceeds u64's top bit.
    let mut frame = vec![0x80u8; 9];
    frame.push(0x02);
    assert_eq!(
        Message::decode(&seal(&frame)).unwrap_err(),
        DecodeError::VarintOverflow
    );
    // Non-canonical (padded) encodings are rejected, as the length prefix…
    assert_eq!(
        Message::decode(&seal(&[0x81, 0x00])).unwrap_err(),
        DecodeError::NonCanonicalVarint
    );
    // …and inside a field: heartbeat with its `leader` varint padded from
    // [0x07] to [0x87, 0x00] (declared length grown to match). Tampering
    // and re-sealing isolates the structural check from the CRC.
    let hb = Message::Heartbeat(Heartbeat {
        label: label(1, 7, 300),
        leader: NodeId(7),
        leader_pos: Point::new(2.5, 10.0),
        weight: 4_000,
        hb_seq: 129,
        ttl: 1,
        state: None,
    });
    let bytes = unsealed(&hb);
    // Layout: [len, tag=1, type=01, creator=07, seq=ac 02, leader=07, …]
    assert_eq!(&bytes[1..7], &[0x01, 0x01, 0x07, 0xac, 0x02, 0x07]);
    let mut padded = bytes.clone();
    padded[0] += 1;
    padded.splice(6..7, [0x87, 0x00]);
    assert_eq!(
        Message::decode(&seal(&padded)).unwrap_err(),
        DecodeError::NonCanonicalVarint
    );
}

#[test]
fn length_prefix_lies_are_rejected() {
    for msg in corpus() {
        let bytes = unsealed(&msg);
        // Frames in the corpus are < 128 bytes, so the prefix is 1 byte.
        assert!(bytes[0] < 0x80 && bytes.len() - 1 == usize::from(bytes[0]));
        // Claim one byte fewer: the body decoder runs out mid-field or the
        // frame has a trailing byte — an error either way.
        let mut short = bytes.clone();
        short[0] -= 1;
        assert!(
            Message::decode(&seal(&short)).is_err(),
            "short prefix accepted"
        );
        // Claim one byte more than the buffer holds: truncated.
        let mut long = bytes.clone();
        long[0] += 1;
        assert_eq!(
            Message::decode(&seal(&long)).unwrap_err(),
            DecodeError::Truncated
        );
        // Claim one more with a pad byte to back it: length mismatch.
        let mut padded = long;
        padded.push(0x00);
        assert!(
            matches!(
                Message::decode(&seal(&padded)).unwrap_err(),
                DecodeError::LengthMismatch { .. } | DecodeError::Malformed { .. }
                    | DecodeError::NonCanonicalVarint
            ),
            "padded prefix accepted"
        );
    }
}

#[test]
fn deep_geo_nesting_is_bounded_not_a_stack_overflow() {
    let mut msg = Message::DirQuery(DirQuery {
        type_id: ContextTypeId(0),
        reply_to: NodeId(0),
        reply_pos: Point::ORIGIN,
        query_id: 0,
    });
    for _ in 0..64 {
        msg = Message::Geo(GeoForward {
            dest: Point::ORIGIN,
            deliver_to: None,
            inner: Box::new(msg),
        });
    }
    let bytes = msg.encode();
    assert_eq!(
        Message::decode(&bytes).unwrap_err(),
        DecodeError::Malformed {
            what: "geo-forward nesting too deep"
        }
    );
}

/// 256 seed-deterministic corruption cases per codec: mutate a valid
/// encoding with a pinned RNG and require a clean `Ok`/`Err` — and, for
/// binary `Ok`s, the canonical re-encode property.
#[test]
fn corruption_corpus_256_never_panics() {
    type Encode = fn(&Message) -> Bytes;
    type Decode = fn(&[u8]) -> Result<Message, DecodeError>;
    // (re-encodes canonically, encode, decode): the wire format, then the
    // JSON reference.
    let codecs: [(bool, Encode, Decode); 2] = [
        (true, Message::encode, Message::decode),
        (false, json::encode, json::decode),
    ];
    let corpus = corpus();
    let rng = SimRng::seed_from(0x77_13_E0);
    for case in 0..256u64 {
        let mut rng = rng.fork_indexed("corruption", case);
        let msg = &corpus[(case % corpus.len() as u64) as usize];
        for (canonical, encode, decode) in codecs {
            let mut bytes = encode(msg).to_vec();
            // 1–4 mutations: flip a byte, insert junk, delete, or truncate.
            for _ in 0..=rng.below(3) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.below(bytes.len() as u64) as usize;
                match rng.below(4) {
                    0 => bytes[at] ^= (rng.below(255) + 1) as u8,
                    1 => bytes.insert(at, rng.below(256) as u8),
                    2 => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            // Corruption may cancel out or hit don't-care bytes; an
            // accepted *binary* input must re-encode to itself. Clean
            // rejection is the expected outcome otherwise.
            if let Ok(m) = decode(&bytes) {
                if canonical {
                    assert_eq!(
                        m.encode().as_slice(),
                        bytes.as_slice(),
                        "case {case}: accepted non-canonical bytes"
                    );
                }
            }
        }
    }
}
