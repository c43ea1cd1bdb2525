//! Wire-format golden fixtures: one representative frame per [`Message`]
//! variant, checked in as hex (binary codec) and text (JSON reference codec).
//!
//! These pin the *byte layout* of the wire format, not just its
//! round-trip behaviour: a varint rule change, a reordered field, or a
//! renumbered tag decodes fine against its own encoder but would silently
//! break compatibility with recorded traces and the DESIGN.md tag table.
//! Any drift fails here byte-for-byte. When a format change is
//! intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p envirotrack-core --test wire_goldens
//! ```
//!
//! and review the fixture diff like any other code change.

#[path = "support/json.rs"]
mod json;

use std::fmt::Write as _;
use std::path::PathBuf;

use bytes::Bytes;
use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::Port;
use envirotrack_core::wire::{
    crc, BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward,
    Heartbeat, Message, MtpAck, MtpSegment, Relinquish, Report,
};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

fn check(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); generate with UPDATE_GOLDENS=1"));
    assert_eq!(
        expected, actual,
        "golden {name} drifted — the wire format changed; if intentional, \
         regenerate with UPDATE_GOLDENS=1 and review the diff"
    );
}

fn label(t: u16, c: u32, s: u32) -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(c),
        seq: s,
    }
}

/// One representative message per variant, with fixed field values chosen
/// to exercise multi-byte varints, options in both states, and payloads.
fn representatives() -> Vec<(&'static str, Message)> {
    vec![
        (
            "heartbeat",
            Message::Heartbeat(Heartbeat {
                label: label(1, 7, 300),
                leader: NodeId(7),
                leader_pos: Point::new(2.5, 10.0),
                weight: 4_000,
                hb_seq: 129,
                ttl: 1,
                state: Some(Bytes::from_static(b"st")),
            }),
        ),
        (
            "relinquish",
            Message::Relinquish(Relinquish {
                label: label(1, 7, 300),
                from: NodeId(7),
                weight: 4_000,
                successor: Some(NodeId(130)),
                state: None,
            }),
        ),
        (
            "report",
            Message::Report(Report {
                label: label(2, 15, 6),
                member: NodeId(15),
                taken_at: Timestamp::from_millis(1_500),
                values: vec![
                    (0, ReadingValue::Scalar(0.75)),
                    (1, ReadingValue::Position(Point::new(-4.0, 3.0))),
                ],
            }),
        ),
        (
            "dir_register",
            Message::DirRegister(DirRegister {
                label: label(3, 200, 1),
                location: Point::new(12.0, 0.5),
            }),
        ),
        (
            "dir_query",
            Message::DirQuery(DirQuery {
                type_id: ContextTypeId(3),
                reply_to: NodeId(42),
                reply_pos: Point::new(0.0, -6.25),
                query_id: 77_000,
            }),
        ),
        (
            "dir_response",
            Message::DirResponse(DirResponse {
                query_id: 77_000,
                entries: vec![
                    (label(3, 200, 1), Point::new(12.0, 0.5)),
                    (label(3, 201, 2), Point::new(-1.0, 64.0)),
                ],
            }),
        ),
        (
            "mtp",
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
        ),
        (
            "base",
            Message::Base(BaseReport {
                label: label(2, 15, 6),
                generated_at: Timestamp::from_secs(9),
                payload: Bytes::from_static(&[0xca, 0xfe]),
            }),
        ),
        (
            "geo",
            Message::Geo(GeoForward {
                dest: Point::new(100.0, 200.0),
                deliver_to: Some(NodeId(512)),
                inner: Box::new(Message::Base(BaseReport {
                    label: label(2, 15, 6),
                    generated_at: Timestamp::from_secs(9),
                    payload: Bytes::from_static(&[0xca, 0xfe]),
                })),
            }),
        ),
        (
            "mtp_ack",
            Message::MtpAckMsg(MtpAck {
                dst_label: label(5, 77, 1),
                src_node: NodeId(9),
                seq: 1_000,
                acker: NodeId(77),
                acker_pos: Point::new(6.0, 6.0),
            }),
        ),
        (
            "dir_sync",
            Message::DirSyncMsg(DirSync {
                type_id: ContextTypeId(3),
                from: NodeId(42),
                reply: true,
                entries: vec![
                    (label(3, 200, 1), Point::new(12.0, 0.5), Timestamp::from_secs(9)),
                    (
                        label(3, 201, 2),
                        Point::new(-1.0, 64.0),
                        Timestamp::from_millis(12_500),
                    ),
                ],
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn binary_frames_match_hex_fixtures() {
    let mut digest = String::new();
    for (name, msg) in representatives() {
        let bytes = msg.encode();
        let _ = writeln!(digest, "{name}={}", hex(&bytes));
        // The fixture must stay decodable and canonical, not just frozen.
        assert_eq!(Message::decode(&bytes).unwrap(), msg, "{name}");
    }
    check("wire_binary.hex", &digest);
}

#[test]
fn json_frames_match_text_fixtures() {
    let mut digest = String::new();
    for (name, msg) in representatives() {
        let text = json::encode(&msg);
        let text = std::str::from_utf8(&text).expect("json codec emits UTF-8");
        assert!(!text.contains('\n'), "{name}: json must be one line");
        let _ = writeln!(digest, "{name}={text}");
        assert_eq!(json::decode(text.as_bytes()).unwrap(), msg, "{name}");
    }
    check("wire_json.txt", &digest);
}

/// The integrity property behind the corruption-resilient link layer,
/// proven exhaustively over the golden corpus: *every* single-bit flip and
/// *every* 1–4 byte tail truncation of an encoded frame is rejected. (CRC-32
/// guarantees detection of all single-bit errors and all burst errors up to
/// 32 bits; this pins that the codecs actually deliver it end to end.)
#[test]
fn crc_detects_every_single_bit_flip_and_short_truncation() {
    type Encode = fn(&Message) -> Bytes;
    type Decode = fn(&[u8]) -> Result<Message, DecodeError>;
    let codecs: [(&str, Encode, Decode); 2] = [
        ("binary", Message::encode, Message::decode),
        ("json", json::encode, json::decode),
    ];
    for (name, msg) in representatives() {
        for (codec, encode, decode) in codecs {
            let binary = codec == "binary";
            let bytes = encode(&msg).to_vec();
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[byte] ^= 1 << bit;
                    assert!(
                        decode(&flipped).is_err(),
                        "{name} ({codec}): flip of byte {byte} bit {bit} accepted"
                    );
                }
            }
            for cut in 1..=4usize {
                let err = decode(&bytes[..bytes.len() - cut]).unwrap_err();
                // Binary: the surviving tail becomes a bogus trailer.
                // JSON: the '#' sentinel lands mid-trailer, so the cut
                // surfaces as a missing/odd trailer, never an accept.
                assert!(
                    matches!(err, DecodeError::CrcMismatch { .. })
                        || (!binary && matches!(err, DecodeError::Malformed { .. })),
                    "{name} ({codec}): cut {cut} gave {err:?}"
                );
            }
            // And the trailer really is a CRC-32 of everything before it
            // (JSON's is textual: "#xxxxxxxx").
            let trailer = if binary { crc::TRAILER_BYTES } else { 9 };
            let (body, trailer) = bytes.split_at(bytes.len() - trailer);
            let sum = crc::crc32(body);
            if binary {
                assert_eq!(trailer, sum.to_le_bytes());
            } else {
                assert_eq!(std::str::from_utf8(trailer).unwrap(), format!("#{sum:08x}"));
            }
        }
    }
}

#[test]
fn binary_fixture_beats_json_by_at_least_2x_overall() {
    // The acceptance bar for the codec swap, pinned at the fixture level:
    // across the representative corpus, JSON costs ≥ 2× the binary bytes.
    let (mut bin_total, mut json_total) = (0usize, 0usize);
    for (_, msg) in representatives() {
        bin_total += msg.encode().len();
        json_total += json::encode(&msg).len();
    }
    assert!(
        json_total >= bin_total * 2,
        "json {json_total} vs binary {bin_total}"
    );
    // And message by message for the one the radio carries most: a
    // stateless heartbeat is 18 bytes of varint frame plus the CRC trailer.
    let hb = Message::Heartbeat(Heartbeat {
        label: label(1, 2, 3),
        leader: NodeId(2),
        leader_pos: Point::new(1.0, 2.0),
        weight: 17,
        hb_seq: 42,
        ttl: 1,
        state: None,
    });
    let (binary, json) = (hb.encode().len(), json::encode(&hb).len());
    assert!(json >= binary * 2, "json {json} vs binary {binary}");
}
