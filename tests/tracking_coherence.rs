//! End-to-end integration tests: context-label coherence during tracking.
//!
//! These exercise the full stack — environment → sensing → group
//! management → aggregation → object code → routing → base station — on
//! the paper's tank scenario (§6.1).

use std::sync::Arc;

use envirotrack::core::aggregate::{AggValue, AggregateFn, AggregateInput};
use envirotrack::core::context::ContextTypeId;
use envirotrack::core::events::SystemEvent;
use envirotrack::core::prelude::*;
use envirotrack::core::report::telemetry_to_jsonl;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::world::scenario::{MultiTargetScenario, TankScenario};
use envirotrack::world::sensing::NoiseModel;
use envirotrack::world::target::Channel;

/// The paper's Figure-2 tracker program.
fn tracker_program() -> Arc<Program> {
    Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                    .aggregate(
                        "location",
                        AggregateFn::CenterOfGravity,
                        AggregateInput::Position,
                        SimDuration::from_secs(1),
                        2,
                    )
                    .object("reporter", |o| {
                        o.on_timer("report", SimDuration::from_secs(5), |ctx| {
                            if let Ok(AggValue::Point(p)) = ctx.read("location") {
                                ctx.send_to_base(payload::position(p));
                            }
                        })
                    })
            })
            .build()
            .expect("valid program"),
    )
}

const TRACKER: ContextTypeId = ContextTypeId(0);

#[test]
fn single_tank_keeps_a_single_coherent_label() {
    let scenario = TankScenario::default().with_speed_hops_per_s(0.1).build();
    let crossing_secs = 140; // 13 hops at 0.1 hops/s, with margin
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        1,
    );
    engine.run_until(Timestamp::from_secs(crossing_secs));
    let world = engine.world();

    let created = world.events().labels_created(TRACKER);
    let suppressed = world.events().suppressed(TRACKER);
    assert!(
        !created.is_empty(),
        "a label must be created when the tank enters"
    );
    // Coherence: every extra label must have been suppressed as spurious.
    assert!(
        created.len() - suppressed.len() <= 1,
        "more than one surviving label: created {created:?}, suppressed {suppressed:?}"
    );
    // Leadership moved along the path at least once.
    let handovers = world
        .events()
        .count(|e| matches!(e, SystemEvent::LeaderHandover { .. }));
    assert!(
        handovers >= 1,
        "the label never handed over while the tank crossed"
    );
}

#[test]
fn reported_track_follows_the_tank() {
    let cfg = TankScenario::default().with_speed_hops_per_s(0.1);
    let scenario = cfg.build();
    let tank = scenario
        .environment
        .target(scenario.primary_target)
        .unwrap()
        .clone();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        2,
    );
    engine.run_until(Timestamp::from_secs(140));
    let world = engine.world();

    let mut points = 0;
    let mut total_err = 0.0;
    for (label, track) in world.base_log().tracks_of_type(TRACKER) {
        let _ = label;
        for (t, reported) in track {
            let truth = tank.position_at(t);
            total_err += reported.distance_to(truth);
            points += 1;
        }
    }
    assert!(points >= 5, "too few reports reached the pursuer: {points}");
    let mean_err = total_err / f64::from(points);
    // Sensors estimate position as the centroid of detecting nodes; with a
    // 1-grid sensing radius the error stays well under 2 grid units.
    assert!(
        mean_err < 1.5,
        "mean tracking error {mean_err} grids over {points} reports"
    );
}

#[test]
fn two_separate_tanks_get_distinct_labels() {
    let scenario = MultiTargetScenario::default().build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        3,
    );
    engine.run_until(Timestamp::from_secs(60));
    let world = engine.world();

    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(
        leaders.len(),
        2,
        "two physically separate tanks must have two live labels, got {leaders:?}"
    );
    assert_ne!(leaders[0].1, leaders[1].1, "labels must be distinct");
    // And the groups must be on different lanes (node rows).
    let positions: Vec<f64> = leaders
        .iter()
        .map(|(n, _)| world.deployment().position(*n).y)
        .collect();
    assert!(
        (positions[0] - positions[1]).abs() >= 2.0,
        "leaders are on the same lane: {positions:?}"
    );
}

#[test]
fn killing_the_leader_triggers_takeover_not_a_new_label() {
    let scenario = TankScenario::default().with_speed_hops_per_s(0.05).build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        4,
    );
    // Let the group form.
    engine.run_until(Timestamp::from_secs(40));
    let (leader, label) = {
        let leaders = engine.world().leaders_of_type(TRACKER);
        assert_eq!(leaders.len(), 1, "expected one leader, got {leaders:?}");
        leaders[0]
    };
    let members = engine.world().members_of_label(label);
    assert!(
        !members.is_empty(),
        "the group should have members besides the leader"
    );

    engine.world_mut().kill_node(leader);
    // Takeover happens within ~2.1 heartbeat periods (+jitter).
    engine.run_until(Timestamp::from_secs(48));
    let world = engine.world();
    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(
        leaders.len(),
        1,
        "exactly one leader after takeover, got {leaders:?}"
    );
    assert_ne!(leaders[0].0, leader, "the dead node cannot lead");
    assert_eq!(leaders[0].1, label, "the label must survive the takeover");
    let timeouts = world.events().count(|e| {
        matches!(
            e,
            SystemEvent::LeaderHandover {
                reason: envirotrack::core::events::HandoverReason::ReceiveTimeout,
                ..
            }
        )
    });
    assert!(timeouts >= 1, "takeover must be via receive timeout");
}

#[test]
fn same_seed_reproduces_the_event_history() {
    fn run(seed: u64) -> Vec<String> {
        let scenario = TankScenario::default().build();
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment,
            scenario.environment,
            NetworkConfig::default(),
            seed,
        );
        engine.run_until(Timestamp::from_secs(80));
        engine
            .world()
            .events()
            .entries()
            .iter()
            .map(|(t, e)| format!("{t} {e:?}"))
            .collect()
    }
    let a = run(11);
    let b = run(11);
    let c = run(12);
    assert_eq!(
        a, b,
        "identical seeds must give identical protocol histories"
    );
    assert!(!a.is_empty());
    assert_ne!(a, c, "different seeds should differ somewhere");
}

/// Sensor noise is drawn from the sampling node's own stream at the
/// moment a handler first reads its sample, so a noisy run is as
/// seed-stable as a clean one — and the noise does reach the protocol.
#[test]
fn noisy_sensors_keep_runs_seed_deterministic() {
    fn run(seed: u64, stddev: f64) -> (String, String) {
        let scenario = TankScenario::default().build();
        let noise = NoiseModel::none().with_channel(Channel::Magnetic, stddev);
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment,
            scenario.environment.with_noise(noise),
            NetworkConfig::default(),
            seed,
        );
        engine.run_until(Timestamp::from_secs(80));
        let world = engine.world();
        (
            world
                .run_record(seed, SimDuration::from_secs(80), 0)
                .to_json(),
            telemetry_to_jsonl(world.telemetry()),
        )
    }
    let noisy = run(11, 0.3);
    assert_eq!(noisy, run(11, 0.3), "same seed, same noise, same bytes");
    assert!(noisy.1.contains("group.form"), "the noisy run still tracks");
    assert_ne!(noisy, run(11, 0.0), "the noise must be observable");
}

#[test]
fn label_dissolves_after_the_tank_leaves() {
    let scenario = TankScenario::default()
        .with_grid(6, 2)
        .with_speed_hops_per_s(0.2)
        .build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        5,
    );
    // 8 grid units of path at 0.2 hops/s = 40 s; run well past it.
    engine.run_until(Timestamp::from_secs(120));
    let world = engine.world();
    assert!(
        world.leaders_of_type(TRACKER).is_empty(),
        "no group should survive once the tank has left the field"
    );
}
