//! Determinism pin for the observably-equivalent codec pair: a fixed-seed
//! 2k-node tracking run must be *byte-identical* — telemetry JSONL and the
//! run record — whether frames carry the binary or the JSON wire codec.
//! The codec feeds every downstream stream (delivery order, RNG draws,
//! timers), so any ordering difference would show up here long before it
//! corrupted a golden digest.
//!
//! The grid-vs-brute-force run pin that used to live here went with the
//! `RadioConfig.topology` knob: the medium always builds its table with
//! the spatial grid, and what that pin checked (identical tables ⇒
//! identical runs) rests on the list-equality property suites in
//! `world/tests/prop.rs` (`grid_neighbor_tables_equal_brute_force*`),
//! which compare the two constructions directly.

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::wire::WireCodec;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::ScaleScenario;

/// Bounded horizon: the pin runs in the debug profile under
/// `cargo test`, so keep the event count modest while still crossing
/// group formation, heartbeats and member reports.
const HORIZON: SimDuration = SimDuration::from_secs(3);
const SEED: u64 = 7;

fn run_with_codec(codec: WireCodec) -> (String, String) {
    let scenario = ScaleScenario {
        nodes: 2_000,
        targets: 2,
        speed_hops_per_s: 1.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build();
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);
    net_cfg.radio.codec = codec;
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        SEED,
    );
    engine.run_until(Timestamp::ZERO + HORIZON);
    let world = engine.world();
    (
        telemetry_to_jsonl(world.telemetry()),
        world.run_record(SEED, HORIZON, 0).to_json(),
    )
}

/// The CRC trailer rides inside the canonical binary frame, so it is part
/// of the charged airtime — and the JSON debug codec, which overrides
/// [`Frame::wire_len`] with the canonical binary length, charges the
/// identical (trailer-inclusive) size. If either side dropped the 4
/// trailer bytes from its stamping, frame timing would shift and the
/// codec byte-identity pins below would cascade.
///
/// [`Frame::wire_len`]: envirotrack_net::packet::Frame::wire_len
#[test]
fn airtime_charges_include_the_crc_trailer_under_either_codec() {
    use envirotrack_core::context::{ContextLabel, ContextTypeId};
    use envirotrack_core::wire::{crc, Heartbeat, Message};
    use envirotrack_net::packet::Frame;
    use envirotrack_world::field::NodeId;
    use envirotrack_world::geometry::Point;

    let msg = Message::Heartbeat(Heartbeat {
        label: ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(3),
            seq: 1,
        },
        leader: NodeId(3),
        leader_pos: Point::new(1.0, 2.0),
        weight: 900,
        hb_seq: 5,
        ttl: 1,
        state: None,
    });
    let bin = msg.encode();
    let (body, trailer) = bin.split_at(bin.len() - crc::TRAILER_BYTES);
    assert_eq!(trailer, crc::crc32(body).to_le_bytes());

    // The frames the network builds: binary carries its own bytes; JSON
    // carries textual bytes but stamps the canonical binary length.
    let f_bin = Frame::broadcast(NodeId(3), msg.kind(), bin.clone());
    let f_json = Frame::broadcast(NodeId(3), msg.kind(), msg.encode_with(WireCodec::Json))
        .with_wire_len(bin.len() as u16);
    assert_eq!(usize::from(f_bin.wire_len), bin.len(), "trailer missing from airtime");
    assert_eq!(f_bin.size_bytes(), f_json.size_bytes());
    assert_eq!(f_bin.on_air_bits(), f_json.on_air_bits());
}

#[test]
fn fixed_seed_2k_node_run_is_byte_identical_under_binary_and_json_codecs() {
    let (bin_telemetry, bin_record) = run_with_codec(WireCodec::Binary);
    let (json_telemetry, json_record) = run_with_codec(WireCodec::Json);
    assert!(
        bin_telemetry.contains("group.hb"),
        "the pin must cover live protocol traffic, not an idle field"
    );
    // Airtime is always charged from the canonical binary frame length, so
    // swapping the payload encoding must not move a single event.
    assert_eq!(
        bin_telemetry, json_telemetry,
        "telemetry JSONL diverged between binary and JSON wire codecs"
    );
    assert_eq!(
        bin_record, json_record,
        "run record diverged between binary and JSON wire codecs"
    );
}
