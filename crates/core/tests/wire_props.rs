//! Differential wire-codec properties: every [`Message`] variant must
//! round-trip through *both* codecs — the binary wire format and the JSON
//! reference implementation — and decode to the same value from
//! either, including the wrap-around extremes (`u32::MAX` sequence
//! numbers, ports, and weights) that a long-lived node eventually
//! reaches, zero-length and unicode payloads, and float edge cases. The
//! telemetry trace events must also survive the JSON-lines encoder
//! byte-identically whatever strings they carry.

#[path = "support/json.rs"]
mod json;

use bytes::Bytes;
use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::transport::Port;
use envirotrack_core::wire::session::{
    Accept, Close, CloseReason, Hello, Reject, RejectReason, SessionMsg, SubAck, Subscribe,
    TrackEvent,
};
use envirotrack_core::wire::{
    varint, BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward,
    Heartbeat, Message, MtpAck, MtpSegment, Relinquish, Report,
};
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;
use testkit::prelude::*;

/// Identifiers biased toward the edges: zero, small, and the `u32::MAX`
/// neighbourhood where sequence arithmetic wraps.
fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        0u32..1000,
        Just(u32::MAX - 1),
        Just(u32::MAX),
    ]
}

fn arb_u16() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), 0u16..100, Just(u16::MAX)]
}

fn arb_label() -> impl Strategy<Value = ContextLabel> {
    (arb_u16(), arb_u32(), arb_u32()).prop_map(|(t, n, s)| ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(n),
        seq: s,
    })
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e9..1e9f64, -1e9..1e9f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Payload bytes biased toward the codec's edges: the empty payload, raw
/// binary junk, and UTF-8 text (multi-byte unicode included) that a
/// textual codec might be tempted to mangle.
fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    prop_oneof![
        Just(Bytes::new()),
        prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from),
        prop_oneof![
            Just("żółć"),
            Just("目标跟踪"),
            Just("🔥 fire"),
            Just("plain ascii"),
            Just("\"quoted\\escaped\""),
        ]
        .prop_map(|s| Bytes::copy_from_slice(s.as_bytes())),
    ]
}

/// One strategy per variant, so a single run exercises all ten tags.
fn arb_any_message() -> impl Strategy<Value = Message> {
    let heartbeat = (
        arb_label(),
        arb_u32(),
        arb_point(),
        arb_u32(),
        arb_u32(),
        any::<u8>(),
        prop::option::of(arb_bytes(40)),
    )
        .prop_map(|(label, leader, leader_pos, weight, hb_seq, ttl, state)| {
            Message::Heartbeat(Heartbeat {
                label,
                leader: NodeId(leader),
                leader_pos,
                weight,
                hb_seq,
                ttl,
                state,
            })
        });
    let relinquish = (
        arb_label(),
        arb_u32(),
        arb_u32(),
        prop::option::of(arb_u32()),
        prop::option::of(arb_bytes(40)),
    )
        .prop_map(|(label, from, weight, successor, state)| {
            Message::Relinquish(Relinquish {
                label,
                from: NodeId(from),
                weight,
                successor: successor.map(NodeId),
                state,
            })
        });
    let report = (
        arb_label(),
        arb_u32(),
        0u64..u64::MAX / 2,
        prop::collection::vec(
            (any::<u8>(), (-1e9..1e9f64).prop_map(ReadingValue::Scalar)),
            0..4,
        ),
    )
        .prop_map(|(label, member, us, values)| {
            Message::Report(Report {
                label,
                member: NodeId(member),
                taken_at: Timestamp::from_micros(us),
                values,
            })
        });
    let dir_register = (arb_label(), arb_point()).prop_map(|(label, location)| {
        Message::DirRegister(DirRegister { label, location })
    });
    let dir_query = (arb_u16(), arb_u32(), arb_point(), arb_u32()).prop_map(
        |(t, reply_to, reply_pos, query_id)| {
            Message::DirQuery(DirQuery {
                type_id: ContextTypeId(t),
                reply_to: NodeId(reply_to),
                reply_pos,
                query_id,
            })
        },
    );
    let dir_response = (
        arb_u32(),
        prop::collection::vec((arb_label(), arb_point()), 0..5),
    )
        .prop_map(|(query_id, entries)| Message::DirResponse(DirResponse { query_id, entries }));
    let mtp = (
        (arb_label(), arb_u16(), arb_label(), arb_u16()),
        (arb_u32(), arb_point(), any::<u8>(), arb_u32()),
        arb_bytes(60),
    )
        .prop_map(
            |((src_label, sp, dst_label, dp), (leader, pos, hops, seq), payload)| {
                Message::Mtp(MtpSegment {
                    src_label,
                    src_port: Port(sp),
                    dst_label,
                    dst_port: Port(dp),
                    src_leader: NodeId(leader),
                    src_leader_pos: pos,
                    chain_hops: hops,
                    seq,
                    payload,
                })
            },
        );
    let mtp_ack = (arb_label(), arb_u32(), arb_u32(), arb_u32(), arb_point()).prop_map(
        |(dst_label, src_node, seq, acker, acker_pos)| {
            Message::MtpAckMsg(MtpAck {
                dst_label,
                src_node: NodeId(src_node),
                seq,
                acker: NodeId(acker),
                acker_pos,
            })
        },
    );
    let base = (arb_label(), 0u64..u64::MAX / 2, arb_bytes(60)).prop_map(
        |(label, us, payload)| {
            Message::Base(BaseReport {
                label,
                generated_at: Timestamp::from_micros(us),
                payload,
            })
        },
    );
    let leaf = prop_oneof![
        heartbeat,
        relinquish,
        report,
        dir_register,
        dir_query,
        dir_response,
        mtp,
        mtp_ack,
        base,
    ];
    // Wrap some leaves in a geo-forward so the nested path is exercised too.
    (leaf, prop::option::of((arb_point(), prop::option::of(arb_u32())))).prop_map(
        |(inner, wrap)| match wrap {
            None => inner,
            Some((dest, deliver_to)) => Message::Geo(GeoForward {
                dest,
                deliver_to: deliver_to.map(NodeId),
                inner: Box::new(inner),
            }),
        },
    )
}

/// One strategy per session-protocol variant, so a single run exercises
/// all nine session tags at their value edges (`u64::MAX` seeds and
/// nonces, `u32::MAX` budgets and query ids, every reason code).
fn arb_session_msg() -> impl Strategy<Value = SessionMsg> {
    let arb_u64 = || prop_oneof![Just(0u64), any::<u64>(), Just(u64::MAX)];
    let hello = (arb_u16(), arb_u32(), arb_u32()).prop_map(|(version, caps, recv_budget)| {
        SessionMsg::Hello(Hello {
            version,
            caps,
            recv_budget,
        })
    });
    let accept = (arb_u64(), arb_u16(), arb_u32(), arb_u32()).prop_map(
        |(session, version, caps, send_budget)| {
            SessionMsg::Accept(Accept {
                session,
                version,
                caps,
                send_budget,
            })
        },
    );
    let reject = prop_oneof![
        Just(RejectReason::VersionUnsupported),
        Just(RejectReason::Overloaded),
        Just(RejectReason::BadHello),
    ]
    .prop_map(|reason| SessionMsg::Reject(Reject { reason }));
    let subscribe = (arb_u32(), any::<u8>(), arb_u64(), arb_u16()).prop_map(
        |(query_id, scenario, seed, t)| {
            SessionMsg::Subscribe(Subscribe {
                query_id,
                scenario,
                seed,
                type_id: ContextTypeId(t),
            })
        },
    );
    let sub_ack = (arb_u32(), any::<bool>())
        .prop_map(|(query_id, accepted)| SessionMsg::SubAck(SubAck { query_id, accepted }));
    let event = (
        (arb_u32(), arb_u64(), 0u64..u64::MAX / 2),
        arb_label(),
        arb_point(),
    )
        .prop_map(|((query_id, seq, at_us), label, pos)| {
            SessionMsg::Event(TrackEvent {
                query_id,
                seq,
                at: Timestamp::from_micros(at_us),
                label,
                pos,
            })
        });
    let ping = arb_u64().prop_map(|nonce| SessionMsg::Ping { nonce });
    let pong = arb_u64().prop_map(|nonce| SessionMsg::Pong { nonce });
    let close = prop_oneof![
        Just(CloseReason::Normal),
        Just(CloseReason::IdleTimeout),
        Just(CloseReason::SlowConsumer),
        Just(CloseReason::ProtocolError),
        Just(CloseReason::Shutdown),
    ]
    .prop_map(|reason| SessionMsg::Close(Close { reason }));
    prop_oneof![hello, accept, reject, subscribe, sub_ack, event, ping, pong, close]
}

prop_test! {
    /// Any message from any variant — wrap-edge identifiers included —
    /// survives encode → decode unchanged.
    #[test]
    fn every_variant_round_trips(msg in arb_any_message()) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&msg), "bytes: {:02x?}", &bytes[..]);
    }

    /// Differential battery: the same message round-trips through the
    /// JSON reference codec, both codecs decode to *equal* values, the binary
    /// form re-encodes canonically, and the binary frame never exceeds
    /// the JSON rendering.
    #[test]
    fn both_codecs_agree_on_every_variant(msg in arb_any_message()) {
        let binary = msg.encode();
        let json = json::encode(&msg);
        let from_binary = Message::decode(&binary);
        let from_json = json::decode(&json);
        prop_assert_eq!(from_binary.as_ref(), Ok(&msg));
        prop_assert_eq!(
            from_json.as_ref(), Ok(&msg),
            "json: {}", String::from_utf8_lossy(&json)
        );
        // Canonical binary: decoding then re-encoding reproduces the bytes.
        prop_assert_eq!(from_binary.unwrap().encode(), binary.clone());
        prop_assert!(
            binary.len() <= json.len(),
            "binary {} > json {}", binary.len(), json.len()
        );
    }

    /// The varint toolkit round-trips any `u64`/`i64` minimally: decoding
    /// what was encoded yields the value, the length matches the
    /// predictor, and zigzag is its own inverse at both `i64` extremes.
    #[test]
    fn varints_round_trip_minimally(v in prop_oneof![
        Just(0u64), any::<u64>(), Just(u64::from(u32::MAX)), Just(u64::MAX),
        (0u32..64).prop_map(|s| 1u64 << s),
    ]) {
        let mut buf = bytes::BytesMut::new();
        varint::put_uvarint(&mut buf, v);
        prop_assert_eq!(buf.len(), varint::uvarint_len(v));
        let mut rd = &buf[..];
        prop_assert_eq!(varint::get_uvarint(&mut rd), Ok(v));
        prop_assert!(rd.is_empty());
        let signed = v as i64;
        prop_assert_eq!(varint::unzigzag(varint::zigzag(signed)), signed);
    }

    /// Trace events with arbitrary (possibly hostile) strings export as
    /// one JSON object per line, byte-identically on re-export.
    #[test]
    fn trace_events_survive_the_telemetry_encoder(
        raw in prop::collection::vec(
            (0u64..u64::MAX / 2, arb_u32(), prop::collection::vec(any::<u8>(), 0..24)),
            1..8,
        )
    ) {
        let t = Telemetry::new();
        for (at_us, node, junk) in &raw {
            let s = String::from_utf8_lossy(junk).into_owned();
            t.trace_shared(*at_us, *node, &s.as_str().into(), "prop.kind", s.clone());
        }
        let out = telemetry_to_jsonl(&t);
        prop_assert_eq!(out.lines().count(), raw.len());
        for line in out.lines() {
            prop_assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
            prop_assert!(!line[1..line.len() - 1].contains('\n'));
        }
        prop_assert_eq!(out, telemetry_to_jsonl(&t));
    }

    /// Every session-protocol variant round-trips through the framed
    /// binary session codec at its value edges, re-encodes canonically,
    /// and is rejected at every truncation point.
    #[test]
    fn every_session_variant_round_trips(msg in arb_session_msg()) {
        let bytes = msg.encode();
        let back = SessionMsg::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&msg), "bytes: {:02x?}", &bytes[..]);
        prop_assert_eq!(back.unwrap().encode(), bytes.clone());
        for cut in 0..bytes.len() {
            prop_assert!(
                SessionMsg::decode(&bytes[..cut]).is_err(),
                "cut at {} accepted", cut
            );
        }
    }

    /// `encode_into` appends exactly the bytes `encode` returns, whatever
    /// the buffer already holds — so frames encoded back to back into one
    /// buffer are the concatenation of their `encode`s.
    #[test]
    fn encode_into_appends_exactly_what_encode_returns(
        first in arb_session_msg(),
        second in arb_session_msg(),
    ) {
        let mut buf = Vec::new();
        first.encode_into(&mut buf);
        prop_assert_eq!(&buf[..], &first.encode()[..]);
        second.encode_into(&mut buf);
        let expect = [first.encode().to_vec(), second.encode().to_vec()].concat();
        prop_assert_eq!(buf, expect);
    }
}

/// The hand-written messages of the pinned check below: each option in
/// both states, empty and populated lists, mixed reading values and nested
/// geo-forwards, one shape per line of the message grammar.
fn hand_written() -> Vec<Message> {
    let label = |t, n, s| ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(n),
        seq: s,
    };
    vec![
        Message::Heartbeat(Heartbeat {
            label: label(1, 2, 3),
            leader: NodeId(2),
            leader_pos: Point::new(-1.25, 7.5),
            weight: 99,
            hb_seq: 1000,
            ttl: 2,
            state: Some(Bytes::from_static(b"persist")),
        }),
        Message::Heartbeat(Heartbeat {
            label: label(0, 0, 0),
            leader: NodeId(0),
            leader_pos: Point::ORIGIN,
            weight: 0,
            hb_seq: 0,
            ttl: 0,
            state: None,
        }),
        Message::Relinquish(Relinquish {
            label: label(1, 5, 7),
            from: NodeId(5),
            weight: 31,
            successor: Some(NodeId(9)),
            state: None,
        }),
        Message::Relinquish(Relinquish {
            label: label(1, 5, 7),
            from: NodeId(5),
            weight: 31,
            successor: None,
            state: Some(Bytes::from_static(&[1, 2, 3])),
        }),
        Message::Report(Report {
            label: label(2, 8, 1),
            member: NodeId(8),
            taken_at: Timestamp::from_millis(123_456),
            values: vec![
                (0, ReadingValue::Position(Point::new(3.0, 0.5))),
                (1, ReadingValue::Scalar(42.5)),
            ],
        }),
        Message::DirRegister(DirRegister {
            label: label(0, 1, 1),
            location: Point::new(4.0, 4.0),
        }),
        Message::DirQuery(DirQuery {
            type_id: ContextTypeId(3),
            reply_to: NodeId(17),
            reply_pos: Point::new(0.0, 9.0),
            query_id: 555,
        }),
        Message::DirResponse(DirResponse {
            query_id: 555,
            entries: vec![
                (label(3, 4, 1), Point::new(1.0, 1.0)),
                (label(3, 9, 2), Point::new(5.0, 5.0)),
            ],
        }),
        Message::DirResponse(DirResponse {
            query_id: 1,
            entries: vec![],
        }),
        Message::DirSyncMsg(DirSync {
            type_id: ContextTypeId(3),
            from: NodeId(17),
            reply: true,
            entries: vec![
                (label(3, 4, 1), Point::new(1.0, 1.0), Timestamp::from_secs(9)),
                (
                    label(3, 9, 2),
                    Point::new(5.0, 5.0),
                    Timestamp::from_millis(12_500),
                ),
            ],
        }),
        Message::DirSyncMsg(DirSync {
            type_id: ContextTypeId(0),
            from: NodeId(0),
            reply: false,
            entries: vec![],
        }),
        Message::Mtp(MtpSegment {
            src_label: label(0, 1, 1),
            src_port: Port(7),
            dst_label: label(1, 2, 2),
            dst_port: Port(9),
            src_leader: NodeId(1),
            src_leader_pos: Point::new(2.0, 2.0),
            chain_hops: 3,
            seq: 77,
            payload: Bytes::from_static(b"hello object"),
        }),
        Message::MtpAckMsg(MtpAck {
            dst_label: label(1, 2, 2),
            src_node: NodeId(4),
            seq: 77,
            acker: NodeId(2),
            acker_pos: Point::new(7.0, 7.0),
        }),
        Message::Base(BaseReport {
            label: label(0, 1, 1),
            generated_at: Timestamp::from_secs(30),
            payload: Bytes::from_static(&[9, 9]),
        }),
        Message::Geo(GeoForward {
            dest: Point::new(6.5, 2.5),
            deliver_to: Some(NodeId(12)),
            inner: Box::new(Message::Base(BaseReport {
                label: label(0, 3, 4),
                generated_at: Timestamp::from_secs(1),
                payload: Bytes::from_static(b"pos"),
            })),
        }),
        // Nested geo-forward (rare but legal).
        Message::Geo(GeoForward {
            dest: Point::ORIGIN,
            deliver_to: None,
            inner: Box::new(Message::Geo(GeoForward {
                dest: Point::new(1.0, 1.0),
                deliver_to: None,
                inner: Box::new(Message::DirQuery(DirQuery {
                    type_id: ContextTypeId(0),
                    reply_to: NodeId(0),
                    reply_pos: Point::ORIGIN,
                    query_id: 0,
                })),
            })),
        }),
    ]
}

/// A pinned, non-random spot check of both codecs: every `u32` field at
/// exactly `u32::MAX` at once, in the deepest message shape (an MTP segment
/// with its ack, geo-wrapped), then the [`hand_written`] messages.
#[test]
fn u32_max_everywhere_round_trips() {
    let max_label = ContextLabel {
        type_id: ContextTypeId(u16::MAX),
        creator: NodeId(u32::MAX),
        seq: u32::MAX,
    };
    let seg = Message::Mtp(MtpSegment {
        src_label: max_label,
        src_port: Port(u16::MAX),
        dst_label: max_label,
        dst_port: Port(u16::MAX),
        src_leader: NodeId(u32::MAX),
        src_leader_pos: Point::new(f64::MAX, f64::MIN),
        chain_hops: u8::MAX,
        seq: u32::MAX,
        payload: Bytes::from_static(b"at the edge"),
    });
    let ack = Message::MtpAckMsg(MtpAck {
        dst_label: max_label,
        src_node: NodeId(u32::MAX),
        seq: u32::MAX,
        acker: NodeId(u32::MAX),
        acker_pos: Point::new(-0.0, f64::EPSILON),
    });
    let at_the_edge = [seg, ack].map(|inner| {
        Message::Geo(GeoForward {
            dest: Point::new(f64::MAX, f64::MAX),
            deliver_to: Some(NodeId(u32::MAX)),
            inner: Box::new(inner),
        })
    });
    for msg in at_the_edge.into_iter().chain(hand_written()) {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
        // The JSON cross-check agrees even at every edge simultaneously.
        let text = json::encode(&msg);
        assert_eq!(json::decode(&text).unwrap(), msg);
    }
}

/// Float edge cases survive both codecs bit-exactly: `-0.0`, infinities,
/// subnormals, and the classic shortest-round-trip stressors. (`NaN` is
/// checked at the primitive layer — message equality can't see it.)
#[test]
fn float_specials_are_bit_exact_in_both_codecs() {
    type Encode = fn(&Message) -> Bytes;
    type Decode = fn(&[u8]) -> Result<Message, DecodeError>;
    let codecs: [(&str, Encode, Decode); 2] = [
        ("binary", Message::encode, Message::decode),
        ("json", json::encode, json::decode),
    ];
    let specials = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        0.1 + 0.2,
        1.0 / 3.0,
        f64::MAX,
        f64::MIN,
    ];
    for (i, &x) in specials.iter().enumerate() {
        for (j, &y) in specials.iter().enumerate() {
            let msg = Message::DirRegister(DirRegister {
                label: ContextLabel {
                    type_id: ContextTypeId(0),
                    creator: NodeId(i as u32),
                    seq: j as u32,
                },
                location: Point::new(x, y),
            });
            for (codec, encode, decode) in codecs {
                let back = decode(&encode(&msg)).unwrap();
                let Message::DirRegister(d) = back else {
                    panic!("wrong variant back")
                };
                assert_eq!(d.location.x.to_bits(), x.to_bits(), "{codec} x={x:?}");
                assert_eq!(d.location.y.to_bits(), y.to_bits(), "{codec} y={y:?}");
            }
        }
    }
}
