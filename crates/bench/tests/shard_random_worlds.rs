//! Shard-count determinism on random worlds: the fixed 2k-node field of
//! `shard_determinism.rs` pins routing; these draw their worlds from the
//! shared generator (`world/tests/support/random_world.rs`) — small
//! fields with targets that enter, leave and appear only later, noise on
//! and off, and crashes, reboots and clock skew handed to `run_sharded` as
//! its fault list — and hold 2, 4 and 8 shards to the full replay of one
//! shard, byte for byte. A field of 4 096 nodes or more parks its quiet
//! sensing loops; a shard parks and settles only its own nodes, and pauses
//! at every epoch barrier, so every barrier is a point at which its settled
//! counts must already be right. The second property draws such fields,
//! with one more target that crosses the whole field during the run: every
//! replica then wakes cells of a stripe it does not drive while its own
//! nodes are parked, and touches nodes there that it holds but never ranks.
//! A target parked on the middle stripe boundary makes frames cross
//! stripes, which the property checks (`routed > resolved`).

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::network::{FaultEvent, NetworkConfig};
use envirotrack_core::shard::{run_sharded, MediumMode};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::geometry::Point;
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
use testkit::prelude::*;

#[path = "../../world/tests/support/random_world.rs"]
mod random_world;
use random_world::{arb_world, Fault, When, WorldDraw};

/// The run's merged telemetry and run record at `shards` shards, and its
/// routed and resolved transmissions. A target that appears mid-run is
/// present from the start with its late appearance: a sharded run takes no
/// closures. Where `cross`, one more target runs along the middle row from
/// the field's left edge to its right edge over the horizon, through every
/// stripe, and another sits at the middle of that row, on the boundary
/// between the middle stripes at 2, 4 and 8 shards: the crossing one is too
/// fast for a group to form behind it, so the frames that cross a stripe
/// are the parked one's group's.
fn sharded(draw: &WorldDraw, shards: usize, cross: bool) -> ((String, String), (u64, u64)) {
    let mut world = draw.build();
    if let Some((_, target)) = world.late.take() {
        world.environment.add_target(target);
    }
    if cross {
        let b = world.deployment.bounds();
        let y = (b.min.y + b.max.y) / 2.0;
        let speed = b.width().max(1.0) / world.horizon.as_secs_f64().max(0.1);
        let path = Trajectory::line(Point::new(b.min.x, y), Point::new(b.max.x, y), speed);
        let falloff = Falloff::Disk { radius: 1.5 };
        let emission = Emission { channel: Channel::Magnetic, strength: 1.0, falloff };
        world.environment.add_target(Target::new(TargetId(9), path, vec![emission]));
        let still = Trajectory::stationary(Point::new((b.min.x + b.max.x) / 2.0, y));
        world.environment.add_target(Target::new(TargetId(10), still, vec![emission]));
    }
    let faults: Vec<(Timestamp, FaultEvent)> = world
        .faults
        .iter()
        .map(|&(when, fault)| {
            let at = match when {
                When::Ms(ms) => Timestamp::from_millis(ms),
                When::OnTick { tick, .. } => Timestamp::from_millis(tick * 200),
            };
            let fault = match fault {
                Fault::Crash(node) => FaultEvent::Crash(node),
                Fault::Reboot(node) => FaultEvent::Reboot(node),
                Fault::Rate(node, rate) => FaultEvent::ClockRate { node, rate },
            };
            (at, fault)
        })
        .collect();
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(world.radius);
    let run = run_sharded(
        &tracker_program(),
        &world.deployment,
        &world.environment,
        &config,
        draw.seed,
        shards,
        world.horizon,
        &faults,
        MediumMode::Partitioned,
    );
    let routing = (run.intents.routed, run.intents.resolved);
    ((run.telemetry_jsonl, run.record.to_json()), routing)
}

/// 2, 4 and 8 shards against one on `draw` (with a crossing target where
/// `cross`): the first differing line, if any. Where `cross`, traffic must
/// have crossed a stripe at every count above one: some transmission was
/// routed to more than one shard.
fn shard_counts_agree(draw: &WorldDraw, cross: bool) -> Result<(), String> {
    let (one, _) = sharded(draw, 1, cross);
    for shards in [2, 4, 8] {
        let (many, (routed, resolved)) = sharded(draw, shards, cross);
        if cross && routed <= resolved {
            let crossed = format!("{routed} routed for {resolved} resolved");
            return Err(format!("{shards} shards on {draw:?}: {crossed}"));
        }
        if many != one {
            let (a, b) = (one.0.lines(), many.0.lines());
            let first = a.zip(b).find(|(l, r)| l != r);
            return Err(format!("{shards} shards on {draw:?}: first difference {first:?}"));
        }
    }
    Ok(())
}

prop_test! {
    #![config(Config::with_cases(24))]

    /// 2, 4 and 8 shards against one, on a random world with its faults.
    #[test]
    fn a_random_world_is_byte_identical_at_1_2_4_and_8_shards(draw in arb_world()) {
        let agree = shard_counts_agree(&draw, false);
        prop_assert!(agree.is_ok(), "{}", agree.unwrap_err());
    }
}

prop_test! {
    #![config(Config::with_cases(4))]

    /// The same on a field large enough to park, over a shorter horizon,
    /// with a target that crosses every stripe.
    #[test]
    fn a_parked_random_world_is_byte_identical_at_1_2_4_and_8_shards(draw in arb_world()) {
        let draw = WorldDraw {
            nodes: 4_096 + draw.nodes,
            horizon_ms: draw.horizon_ms.min(1_500),
            ..draw
        };
        let agree = shard_counts_agree(&draw, true);
        prop_assert!(agree.is_ok(), "{}", agree.unwrap_err());
    }
}
