//! Property-based tests for the middleware's data structures and codec.

use bytes::Bytes;
use envirotrack_core::aggregate::{AggregateFn, AggregateReadError, ReadingValue, ReadingWindow};
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::{LeaderLoc, MtpState, Port, TABLE_CAPACITY};
use envirotrack_core::wire::{
    BaseReport, DirQuery, DirRegister, DirResponse, GeoForward, Heartbeat, Message, MtpSegment,
    Relinquish, Report,
};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;
use testkit::prelude::*;

fn arb_label() -> impl Strategy<Value = ContextLabel> {
    (0u16..8, 0u32..1000, 0u32..100).prop_map(|(t, n, s)| ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(n),
        seq: s,
    })
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e6..1e6f64, -1e6..1e6f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_reading() -> impl Strategy<Value = ReadingValue> {
    prop_oneof![
        (-1e6..1e6f64).prop_map(ReadingValue::Scalar),
        arb_point().prop_map(ReadingValue::Position),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let heartbeat = (
        arb_label(),
        0u32..10_000,
        arb_point(),
        0u32..u32::MAX,
        0u32..u32::MAX,
        0u8..4,
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
        0u32..10_000,
        0u32..u32::MAX,
        prop::option::of(0u32..10_000),
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
        0u32..10_000,
        0u64..u64::MAX / 2,
        prop::collection::vec((0u8..8, arb_reading()), 0..6),
    )
        .prop_map(|(label, member, at, values)| {
            Message::Report(Report {
                label,
                member: NodeId(member),
                taken_at: Timestamp::from_micros(at),
                values,
            })
        });
    let dir_register = (arb_label(), arb_point())
        .prop_map(|(label, location)| Message::DirRegister(DirRegister { label, location }));
    let dir_query = (0u16..8, 0u32..10_000, arb_point(), any::<u32>()).prop_map(
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
        any::<u32>(),
        prop::collection::vec((arb_label(), arb_point()), 0..8),
    )
        .prop_map(|(query_id, entries)| Message::DirResponse(DirResponse { query_id, entries }));
    let mtp = (
        arb_label(),
        any::<u16>(),
        arb_label(),
        any::<u16>(),
        0u32..10_000,
        arb_point(),
        (0u8..16, any::<u32>()),
        arb_bytes(60),
    )
        .prop_map(
            |(src_label, sp, dst_label, dp, leader, pos, (hops, seq), payload)| {
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
    let base = (arb_label(), 0u64..u64::MAX / 2, arb_bytes(60)).prop_map(|(label, at, payload)| {
        Message::Base(BaseReport {
            label,
            generated_at: Timestamp::from_micros(at),
            payload,
        })
    });
    let leaf = prop_oneof![
        heartbeat,
        relinquish,
        report,
        dir_register,
        dir_query,
        dir_response,
        mtp,
        base
    ];
    // One level of geo-wrapping over any leaf (deeper nesting is legal but
    // the recursion is exercised by a single level).
    leaf.prop_recursive(2, 4, 1, |inner| {
        (arb_point(), prop::option::of(0u32..10_000), inner).prop_map(
            |(dest, deliver_to, inner)| {
                Message::Geo(GeoForward {
                    dest,
                    deliver_to: deliver_to.map(NodeId),
                    inner: Box::new(inner),
                })
            },
        )
    })
}

prop_test! {
    /// Every message round-trips through the wire codec bit-exactly.
    #[test]
    fn wire_codec_round_trips(msg in arb_message()) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("decode its own encoding");
        prop_assert_eq!(back, msg);
    }

    /// The decoder never panics on arbitrary bytes — it errors.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&bytes);
    }

    /// Truncating a valid encoding always yields an error, never a
    /// different valid message.
    #[test]
    fn truncation_never_yields_a_message(msg in arb_message(), cut_fraction in 0.0..1.0f64) {
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
    }

    /// The last-known-leader table's LRU invariants: it never holds more
    /// than `TABLE_CAPACITY` labels; the most recently learned one is always
    /// present; and the `TABLE_CAPACITY` most recently used labels (learned
    /// or looked up) are exactly the live set.
    #[test]
    fn lru_invariants(ops in prop::collection::vec((0u32..16, any::<bool>()), 1..100)) {
        let mut mtp = MtpState::default();
        let mut used_order: Vec<u32> = Vec::new();
        let label = |n: u32| ContextLabel { type_id: ContextTypeId(0), creator: NodeId(n), seq: 0 };
        let loc = |n: u32| LeaderLoc { node: NodeId(n), pos: Point::ORIGIN };
        for &(k, learn) in &ops {
            if learn {
                mtp.learn(label(k), loc(k));
            } else if mtp.lookup(label(k)).is_none() {
                continue;
            }
            used_order.retain(|x| *x != k);
            used_order.push(k);
            prop_assert!(mtp.table_len() <= TABLE_CAPACITY);
            let recent: Vec<u32> = used_order.iter().rev().take(TABLE_CAPACITY).copied().collect();
            prop_assert_eq!(mtp.table_len(), recent.len());
            // Looking the live set up in recency order leaves it in that order.
            for &key in recent.iter().rev() {
                prop_assert_eq!(mtp.lookup(label(key)), Some(loc(key)), "recent key {} evicted too early", key);
            }
        }
    }

    /// Aggregate window invariants: a successful read means at least
    /// `critical_mass` distinct fresh members contributed, and the result
    /// of Average is within [min, max] of the fresh scalars.
    #[test]
    fn window_respects_freshness_and_critical_mass(
        readings in prop::collection::vec((0u32..12, 0u64..20, -100.0..100.0f64), 1..40),
        now in 20u64..40,
        freshness in 1u64..20,
        critical_mass in 1u32..6,
    ) {
        let mut w = ReadingWindow::new();
        for &(node, at, v) in &readings {
            w.insert(NodeId(node), Timestamp::from_secs(at), ReadingValue::Scalar(v));
        }
        let now_ts = Timestamp::from_secs(now);
        let fr = SimDuration::from_secs(freshness);
        let fresh = w.fresh(now_ts, fr);
        // Fresh contributions are distinct by member and actually fresh.
        let mut seen = std::collections::BTreeSet::new();
        for c in &fresh {
            prop_assert!(seen.insert(c.member), "duplicate member in fresh set");
            prop_assert!(now_ts.saturating_since(c.taken_at) <= fr);
        }
        match w.evaluate(&AggregateFn::Average, now_ts, fr, critical_mass) {
            Ok(value) => {
                prop_assert!(fresh.len() as u32 >= critical_mass);
                let scalars: Vec<f64> =
                    fresh.iter().filter_map(|c| c.value.as_scalar()).collect();
                let min = scalars.iter().copied().fold(f64::INFINITY, f64::min);
                let max = scalars.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let avg = value.as_scalar().expect("average is scalar");
                prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
            }
            Err(AggregateReadError { have, need }) => {
                prop_assert_eq!(have as usize, fresh.len());
                prop_assert_eq!(need, critical_mass.max(1));
                prop_assert!(have < need);
            }
        }
    }

    /// Learning leaders never grows the MTP table beyond its capacity and
    /// the most recently learned label is always resolvable.
    #[test]
    fn mtp_learn_lookup(labels in prop::collection::vec((arb_label(), 0u32..100), 1..50)) {
        let mut mtp = MtpState::default();
        for (label, node) in labels {
            let loc = LeaderLoc { node: NodeId(node), pos: Point::ORIGIN };
            mtp.learn(label, loc);
            prop_assert!(mtp.table_len() <= TABLE_CAPACITY);
            prop_assert_eq!(mtp.lookup(label).map(|l| l.node), Some(NodeId(node)));
        }
    }
}
