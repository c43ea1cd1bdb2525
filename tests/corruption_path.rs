//! The corruption corpus, end to end: garbled frames must cross the
//! *whole* receive path — airtime accounting, CPU admission, CRC
//! verification, per-kind drop counters — without panicking, without
//! touching protocol state, and with every drop accounted for exactly.
//!
//! The codec-level battery (`crates/core/tests/wire_adversarial.rs`)
//! proves `Message::decode` rejects these bytes; this test proves the
//! *network* survives receiving them.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use envirotrack::core::aggregate::ReadingValue;
use envirotrack::core::context::{ContextLabel, ContextTypeId, SensePredicate};
use envirotrack::core::network::{NetworkConfig, SensorNetwork};
use envirotrack::core::prelude::*;
use envirotrack::core::transport::Port;
use envirotrack::core::wire::{
    BaseReport, DirQuery, DirRegister, DirResponse, DirSync, GeoForward, Heartbeat, Message,
    MtpAck, MtpSegment, Relinquish, Report,
};
use envirotrack::net::packet::Frame;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::sim::rng::SimRng;
use envirotrack::world::field::{Deployment, NodeId};
use envirotrack::world::geometry::Point;
use envirotrack::world::sensing::Environment;
use envirotrack::world::target::Channel;

fn label(t: u16, c: u32, s: u32) -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(c),
        seq: s,
    }
}

/// One representative per message variant — the same corpus shape the
/// codec-level adversarial battery uses.
fn corpus() -> Vec<Message> {
    vec![
        Message::Heartbeat(Heartbeat {
            label: label(1, 7, 300),
            leader: NodeId(7),
            leader_pos: Point::new(2.5, 10.0),
            weight: 4_000,
            hb_seq: 129,
            ttl: 1,
            state: Some(Bytes::from_static(b"st")),
        }),
        Message::Relinquish(Relinquish {
            label: label(1, 7, 300),
            from: NodeId(7),
            weight: 4_000,
            successor: Some(NodeId(130)),
            state: None,
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
            inner: Box::new(Message::Base(BaseReport {
                label: label(2, 15, 6),
                generated_at: Timestamp::from_secs(9),
                payload: Bytes::from_static(&[0xca, 0xfe]),
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
            from: NodeId(42),
            reply: true,
            entries: vec![(label(3, 200, 1), Point::new(12.0, 0.5), Timestamp::from_secs(9))],
        }),
    ]
}

/// The adversarial battery's mutation scheme: 1–4 random flip / insert /
/// delete / truncate edits, seeded per case.
fn corrupt(bytes: &mut Vec<u8>, case: u64) {
    let mut rng = SimRng::seed_from(0x77_13_E0).fork_indexed("corruption", case);
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
}

/// Everything the protocol could observably change, per node.
fn snapshot(w: &SensorNetwork) -> (Vec<(usize, usize, usize)>, usize) {
    let per_node = w
        .deployment()
        .ids()
        .map(|n| {
            (
                w.directory_entries_at(n),
                w.mtp_table_len_at(n),
                w.mtp_outstanding_at(n),
            )
        })
        .collect();
    (per_node, w.app_log().len())
}

#[test]
fn corruption_corpus_crosses_the_delivery_path_without_damage() {
    // A quiet field: one context type whose threshold nothing reaches, no
    // targets, so every observable change must come from the injections.
    let program = Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
            })
            .build()
            .unwrap(),
    );
    let mut engine = SensorNetwork::build_engine(
        program,
        Deployment::grid(3, 1, 1.0),
        Environment::new(),
        NetworkConfig::default(),
        7,
    );
    engine.run_until(Timestamp::from_secs(1));
    let before = snapshot(engine.world());

    // Schedule the 256 corrupted injections, 50 ms apart (so CPU receive
    // admission never overflows and every frame reaches the CRC check),
    // predicting the per-kind counter outcome for each.
    let corpus = corpus();
    let target = NodeId(2);
    let mut expected_drops: BTreeMap<u8, u64> = BTreeMap::new();
    let mut expected_accepts = 0u64;
    for case in 0..256u64 {
        let msg = &corpus[(case % corpus.len() as u64) as usize];
        let pristine = msg.encode();
        let mut bytes = pristine.to_vec();
        corrupt(&mut bytes, case);
        let kind = msg.kind();
        match Message::decode(&bytes) {
            Err(_) => *expected_drops.entry(kind.0).or_default() += 1,
            Ok(_) => expected_accepts += 1,
        }
        let mut frame = Frame::broadcast(NodeId(1), kind, pristine);
        frame.payload = Bytes::from(bytes); // garbled in flight: shadow stays pristine
        let at = Timestamp::from_secs(2) + SimDuration::from_millis(50 * case);
        engine
            .kernel_mut()
            .schedule_at(at, move |w: &mut SensorNetwork, k| {
                w.inject_frame(k, target, frame.clone());
            });
    }
    // The corpus must be genuinely hostile: with CRC-32 on every frame, a
    // random 1–4-edit mutation surviving decode would be a ~2⁻³² fluke.
    assert_eq!(expected_accepts, 0, "mutation scheme produced decodable bytes");
    assert!(expected_drops.values().sum::<u64>() == 256);

    engine.run_until(Timestamp::from_secs(2) + SimDuration::from_millis(50 * 256 + 500));

    // No panic (we got here), no protocol state change, and every drop
    // accounted to its exact frame kind.
    assert_eq!(snapshot(engine.world()), before, "corrupt frames mutated state");
    let telemetry = engine.world().telemetry();
    for kind in 1..=11u8 {
        assert_eq!(
            telemetry.counter(&format!("net.k{kind}.corrupt")),
            expected_drops.get(&kind).copied().unwrap_or(0),
            "corrupt-drop counter for kind {kind}"
        );
    }
    assert_eq!(
        telemetry.counter("net.corrupt_accepted"),
        0,
        "a garbled frame was accepted past CRC"
    );
}
