//! End-to-end chaos runs: scripted storms and randomized fault plans must
//! leave every invariant intact, and identical inputs must replay
//! byte-identically.

use std::sync::Arc;

use envirotrack_chaos::harness;
use envirotrack_chaos::monitor::InvariantKind;
use envirotrack_chaos::plan::{FaultEvent, FaultPlan};
use envirotrack_core::prelude::*;
use envirotrack_core::report::{telemetry_summary, telemetry_to_jsonl};
use envirotrack_net::medium::GilbertElliott;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::scenario::TankScenario;
use envirotrack_world::sensing::Environment;
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
use testkit::prelude::*;

const TRACKER: ContextTypeId = ContextTypeId(0);

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
            .unwrap(),
    )
}

/// The flagship storm: crash the tracking leader mid-track, partition the
/// field for ten seconds, and run a Gilbert–Elliott burst throughout —
/// the run must finish with zero invariant violations and tracking
/// re-acquired by a live leader.
#[test]
fn chaos_storm_keeps_invariants_and_reacquires_tracking() {
    let seed = 42;
    let scenario = TankScenario::default()
        .with_grid(12, 3)
        .with_speed_hops_per_s(0.03)
        .build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        seed,
    );
    // Let the group form and tracking start.
    engine.run_until(Timestamp::from_secs(30));
    let leader = engine.world().leaders_of_type(TRACKER)[0].0;
    // Split off the right half of the field (the tank crawls on the left).
    let split: Vec<u8> = engine
        .world()
        .deployment()
        .iter()
        .map(|(_, p)| u8::from(p.x >= 6.0))
        .collect();
    let at = Timestamp::from_secs;
    let plan = FaultPlan::new()
        .at(at(31), FaultEvent::Crash(leader))
        .at(at(32), FaultEvent::BurstLossOn(GilbertElliott::default()))
        .at(at(35), FaultEvent::Partition(split))
        .at(
            at(38),
            FaultEvent::ClockRate {
                node: leader,
                rate: 1.05,
            },
        )
        .at(at(40), FaultEvent::Reboot(leader))
        .at(at(45), FaultEvent::Heal)
        .at(at(52), FaultEvent::BurstLossOff);
    let monitor = harness::install(&mut engine, plan, seed);
    engine.run_until(Timestamp::from_secs(90));

    let world = engine.world();
    let mon = monitor.borrow();
    assert!(
        mon.violations().is_empty(),
        "invariants broken: {:?}",
        mon.violations()
    );
    assert_eq!(mon.trace().len(), 7, "every fault applied: {:?}", mon.trace());
    let leaders = world.leaders_of_type(TRACKER);
    assert_eq!(leaders.len(), 1, "tracking must re-acquire, got {leaders:?}");
    assert!(world.is_alive(leaders[0].0));
    assert!(
        !world.base_log().is_empty(),
        "the pursuer must keep hearing about the tank"
    );
    // The burst and partition losses were counted as such, distinguishable
    // from plain fading.
    let record = harness::summarize(world, seed, Timestamp::from_secs(90), &mon);
    assert!(record.burst_faded > 0, "bursts must have bitten: {record:?}");
    assert!(record.violations == 0);
}

/// Identical seed + identical plan → byte-identical run record and base
/// log, even with every chaos feature exercised.
#[test]
fn identical_seed_and_plan_replay_byte_identically() {
    let transcript = |seed: u64| -> String {
        let scenario = TankScenario::default().with_grid(10, 3).build();
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment,
            scenario.environment,
            NetworkConfig::default(),
            seed,
        );
        let plan = FaultPlan::random(seed, engine.world().deployment().len(), SimDuration::from_secs(60));
        let monitor = harness::install(&mut engine, plan, seed);
        engine.run_until(Timestamp::from_secs(60));
        let world = engine.world();
        let record = harness::summarize(world, seed, Timestamp::from_secs(60), &monitor.borrow());
        format!("{}\n{}", record.to_json(), world.base_log().to_jsonl())
    };
    assert_eq!(transcript(7), transcript(7), "replay must be byte-identical");
    assert_eq!(transcript(1234), transcript(1234));
}

/// A total radio blackout makes members take over a group whose leader is
/// still alive and heartbeating into the void: the classic engineered
/// duplicate-leader condition. The monitor must flag it, and the violation
/// must carry enough label-scoped telemetry trace to reconstruct the
/// handoff storm.
#[test]
fn blackout_violation_carries_the_labels_trace_tail() {
    let seed = 11;
    let scenario = TankScenario::default()
        .with_grid(12, 3)
        .with_speed_hops_per_s(0.03)
        .build();
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        seed,
    );
    engine.run_until(Timestamp::from_secs(30));
    assert_eq!(engine.world().leaders_of_type(TRACKER).len(), 1);
    // Every frame lost, forever: not a partition, so the leader-uniqueness
    // check stays armed while receive timeouts promote the members.
    let blackout = GilbertElliott {
        p_good_to_bad: 1.0,
        p_bad_to_good: 0.0,
        loss_good: 1.0,
        loss_bad: 1.0,
    };
    let plan = FaultPlan::new().at(Timestamp::from_secs(31), FaultEvent::BurstLossOn(blackout));
    let monitor = harness::install(&mut engine, plan, seed);
    engine.run_until(Timestamp::from_secs(60));

    let mon = monitor.borrow();
    let dup = mon
        .violations()
        .iter()
        .find(|v| v.kind == InvariantKind::DuplicateLeaders)
        .expect("total blackout must produce a duplicate-leader violation");
    assert!(
        dup.label_trace.len() >= 16,
        "violation must carry the label's trace tail, got {} events: {:?}",
        dup.label_trace.len(),
        dup.label_trace
    );
    // The tail is protocol history for the violating label: heartbeats at
    // minimum, and the takeover that created the duplicate.
    assert!(
        dup.label_trace.iter().any(|l| l.contains("group.")),
        "trace tail should show group protocol events: {:?}",
        dup.label_trace
    );
    assert_eq!(dup.trace.len(), 1, "the fault plan rides along");
}

/// Same seed + same plan ⇒ byte-identical telemetry: every counter,
/// histogram bucket, and trace event line. This is the determinism
/// contract the telemetry layer promises.
#[test]
fn telemetry_replays_byte_identically() {
    let transcript = |seed: u64| -> String {
        let scenario = TankScenario::default().with_grid(10, 3).build();
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment,
            scenario.environment,
            NetworkConfig::default(),
            seed,
        );
        let plan = FaultPlan::random(seed, engine.world().deployment().len(), SimDuration::from_secs(50));
        let _monitor = harness::install(&mut engine, plan, seed);
        engine.run_until(Timestamp::from_secs(60));
        let t = engine.world().telemetry();
        format!("{}{}", telemetry_to_jsonl(t), telemetry_summary(t))
    };
    let a = transcript(9);
    assert!(a.contains("\"t\":\"trace\""), "trace must be non-empty");
    assert!(a.contains("== telemetry summary =="));
    assert_eq!(a, transcript(9), "telemetry replay must be byte-identical");
}

/// A small, cheap world for randomized plans: a 5×5 grid watching one
/// stationary target.
fn small_world() -> (Arc<Program>, Deployment, Environment) {
    let program = Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Light, 0.5))
            })
            .build()
            .unwrap(),
    );
    let deployment = Deployment::grid(5, 5, 1.0);
    let mut environment = Environment::new();
    environment.add_target(Target::new(
        TargetId(0),
        Trajectory::stationary(Point::new(2.0, 2.0)),
        vec![Emission {
            channel: Channel::Light,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));
    (program, deployment, environment)
}

prop_test! {
    /// Whatever fault plan a seed generates — crashes, reboots,
    /// partitions, bursts, skews, in any interleaving — no invariant ever
    /// breaks, and the run completes.
    #[test]
    fn random_fault_plans_never_break_invariants(seed: u64) {
        let (program, deployment, environment) = small_world();
        let node_count = deployment.len();
        let horizon = SimDuration::from_secs(40);
        let mut engine = SensorNetwork::build_engine(
            program,
            deployment,
            environment,
            NetworkConfig::default(),
            seed,
        );
        let plan = FaultPlan::random(seed, node_count, horizon);
        let monitor = harness::install(&mut engine, plan.clone(), seed);
        // Run past the horizon so post-heal settling is observed too.
        engine.run_until(Timestamp::from_secs(50));
        let mon = monitor.borrow();
        prop_assert!(
            mon.violations().is_empty(),
            "seed {} plan {:?} broke invariants: {:?}",
            seed,
            plan,
            mon.violations()
        );
    }
}

/// A battery budget kills its node for good: once the node's cumulative
/// protocol energy crosses the budget the monitor's tick takes it down, it
/// spends nothing more, and the group it sat in carries on without breaking
/// an invariant. The same seed without the budget keeps the node alive.
#[test]
fn battery_budget_kills_its_node_for_good() {
    let seed = 5;
    let horizon = Timestamp::from_secs(40);
    // The node right under the target: in the group from the first tick.
    let node = NodeId(12);
    let run = |plan: FaultPlan| {
        let (program, deployment, environment) = small_world();
        assert_eq!(deployment.position(node), Point::new(2.0, 2.0));
        let mut engine =
            SensorNetwork::build_engine(program, deployment, environment, NetworkConfig::default(), seed);
        let monitor = harness::install(&mut engine, plan, seed);
        engine.run_until(horizon);
        let spent = engine.world().energy_at(node).total_millijoules();
        (engine.world().is_alive(node), spent, monitor)
    };
    let (alive, unbudgeted, monitor) = run(FaultPlan::new());
    assert!(alive, "no budget, no death");
    assert!(monitor.borrow().trace().is_empty());

    // Half of what the node spends when nothing stops it.
    let budget = unbudgeted / 2.0;
    let (alive, spent, monitor) = run(FaultPlan::new().battery_budget(Timestamp::from_secs(1), node, budget));
    let mon = monitor.borrow();
    assert!(!alive, "the budget must have run out by {horizon}");
    assert!(spent > budget, "death follows the crossing: {spent} mJ of {budget}");
    assert!(
        spent < 0.75 * unbudgeted,
        "a dead node stops spending: {spent} mJ of an unbudgeted {unbudgeted}"
    );
    let notes = [format!("battery budget node {}", node.0), format!("battery died on node {}", node.0)];
    for note in &notes {
        let hits = mon.trace().iter().filter(|line| line.contains(note.as_str())).count();
        assert_eq!(hits, 1, "{note:?} once in {:?}", mon.trace());
    }
    assert!(mon.violations().is_empty(), "invariants broken: {:?}", mon.violations());
}

/// A node has one sensing loop for life. It idles through a crash and
/// resumes on reboot, so *k* crash/reboot cycles can only lose sense tasks
/// to downtime — a reboot that started a second loop would double the
/// node's sampling rate (and its CPU load) each time.
#[test]
fn reboots_never_add_a_sensing_loop() {
    fn admitted_after(reboots: u64) -> u64 {
        let (program, _, _) = small_world();
        let mut engine = SensorNetwork::build_engine(
            program,
            Deployment::grid(1, 1, 1.0),
            Environment::new(),
            NetworkConfig::default(),
            3,
        );
        let node = engine.world().deployment().ids().next().unwrap();
        let plan = (0..reboots).fold(FaultPlan::new(), |plan, i| {
            plan.at(Timestamp::from_secs(2 + 4 * i), FaultEvent::Crash(node))
                .at(Timestamp::from_secs(3 + 4 * i), FaultEvent::Reboot(node))
        });
        let _monitor = harness::install(&mut engine, plan, 3);
        engine.run_until(Timestamp::from_secs(20));
        engine.world().cpu_totals().0
    }
    let fault_free = admitted_after(0);
    assert!(fault_free > 0, "an idle node still runs its sense tasks");
    for reboots in [1, 3] {
        let admitted = admitted_after(reboots);
        assert!(
            admitted <= fault_free,
            "{reboots} reboots admitted {admitted} sense tasks, {fault_free} without faults"
        );
        // One second down per cycle: most of the loop's ticks remain.
        assert!(
            admitted >= fault_free * (20 - 2 * reboots) / 20,
            "{reboots} reboots left only {admitted} of {fault_free} sense tasks"
        );
    }
}

/// A chaos cell is a pure function of its spec: running the same cell
/// twice — as two sweep workers would — yields byte-identical records.
#[test]
fn chaos_cells_are_pure_functions_of_their_spec() {
    let run = |seed: u64| {
        let cell = envirotrack_chaos::cell::ChaosCell {
            cols: 6,
            rows: 2,
            horizon: SimDuration::from_secs(20),
            seed,
        };
        envirotrack_chaos::cell::run_cell(&cell, tracker_program()).to_json()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4), "different seeds must differ somewhere");
}
