//! Protocol-hardening tests: the features added for fault tolerance must
//! be *load-bearing* — the same scenario that succeeds with them enabled
//! must fail with them disabled — and reboots must behave like real mote
//! reboots (RAM is gone, the network does not get confused).

use std::sync::Arc;

use envirotrack::chaos::harness;
use envirotrack::chaos::plan::{FaultEvent, FaultPlan};
use envirotrack::core::context::ContextTypeId;
use envirotrack::core::events::SystemEvent;
use envirotrack::core::prelude::*;
use envirotrack::net::medium::GilbertElliott;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::world::field::Deployment;
use envirotrack::world::geometry::Point;
use envirotrack::world::scenario::TankScenario;
use envirotrack::world::sensing::Environment;
use envirotrack::world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};

const PING: Port = Port(10);
const PONG: Port = Port(11);
const BEACON: ContextTypeId = ContextTypeId(1);
const TRACKER: ContextTypeId = ContextTypeId(0);

/// The services-test world: a stationary watcher pings a stationary beacon
/// across the grid through the directory and MTP.
fn two_party_world() -> (Arc<Program>, Deployment, Environment, NetworkConfig) {
    let program = Arc::new(
        Program::builder()
            .context("watcher", |c| {
                c.activation(SensePredicate::threshold(Channel::Light, 0.5))
                    .subscribe("beacon")
                    .object("prober", |o| {
                        o.on_timer("probe", SimDuration::from_secs(6), |ctx| {
                            for (label, _) in ctx.labels_of_type(BEACON) {
                                ctx.send(label, PING, &b"ping"[..]);
                            }
                        })
                        .on_message("answer", PONG, |ctx| {
                            ctx.log("pong received".to_owned());
                        })
                    })
            })
            .context("beacon", |c| {
                c.activation(SensePredicate::threshold(Channel::Acoustic, 0.5))
                    .object("responder", |o| {
                        o.on_message("ping", PING, |ctx| {
                            let from = ctx.incoming().expect("message-triggered").src_label;
                            ctx.send(from, PONG, &b"pong"[..]);
                        })
                    })
            })
            .build()
            .expect("valid program"),
    );

    let deployment = Deployment::grid(9, 9, 1.0);
    let mut environment = Environment::new();
    environment.add_target(Target::new(
        TargetId(0),
        Trajectory::stationary(Point::new(1.0, 1.0)),
        vec![Emission {
            channel: Channel::Light,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));
    environment.add_target(Target::new(
        TargetId(1),
        Trajectory::stationary(Point::new(7.0, 7.0)),
        vec![Emission {
            channel: Channel::Acoustic,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));

    let mut config = NetworkConfig::default();
    config.middleware = config.middleware.with_directory(true);
    config.middleware.directory_update_period = SimDuration::from_secs(4);
    (program, deployment, environment, config)
}

fn pongs(world: &SensorNetwork) -> usize {
    world
        .app_log()
        .iter()
        .filter(|(_, _, l)| l.contains("pong received"))
        .count()
}

/// Under sustained burst loss, end-to-end retransmission is what keeps the
/// ping/pong service alive: the identical scenario with retransmission
/// disabled delivers strictly less, below the service threshold.
#[test]
fn mtp_retransmission_is_load_bearing_under_burst_loss() {
    let run = |retx: bool| {
        let (program, deployment, environment, mut config) = two_party_world();
        config.middleware = config.middleware.with_mtp_retx(retx);
        let mut engine =
            SensorNetwork::build_engine(program, deployment, environment, config, 99);
        // A harsh channel: long bursts, near-total loss inside a burst.
        let harsh = FaultEvent::BurstLossOn(GilbertElliott {
            p_good_to_bad: 0.15,
            p_bad_to_good: 0.10,
            loss_good: 0.0,
            loss_bad: 0.95,
        });
        engine.world_mut().apply_fault(Timestamp::ZERO, &harsh);
        engine.run_until(Timestamp::from_secs(120));
        pongs(engine.world())
    };

    let with_retx = run(true);
    let without_retx = run(false);
    assert!(
        with_retx >= 3,
        "retransmission must keep the service alive, got {with_retx} pongs"
    );
    assert!(
        with_retx > without_retx,
        "retransmission must be load-bearing: {with_retx} vs {without_retx}"
    );
}

/// With k=2 directory replicas, killing the primary home node before the
/// first lookup still lets the watcher resolve the beacon (query failover
/// to the second replica). With k=1, the same death is fatal to the
/// service.
#[test]
fn directory_replication_survives_primary_death() {
    let run = |replicas: usize| {
        let (program, deployment, environment, mut config) = two_party_world();
        config.middleware = config.middleware.with_directory_replicas(replicas);
        let mut engine =
            SensorNetwork::build_engine(program, deployment, environment, config, 99);
        // Kill the primary home before the watcher's first 6 s probe, so
        // nothing is cached and every lookup must go through the directory.
        engine.run_until(Timestamp::from_secs(3));
        let primary = engine.world().directory_replicas_of(BEACON)[0];
        engine.world_mut().kill_node(primary);
        engine.run_until(Timestamp::from_secs(120));
        (pongs(engine.world()), primary)
    };

    let (with_replica, p2) = run(2);
    let (without_replica, p1) = run(1);
    assert_eq!(p1, p2, "same seed must hash to the same primary");
    assert!(
        with_replica >= 2,
        "failover to the second replica must keep the service alive, got {with_replica}"
    );
    assert_eq!(
        without_replica, 0,
        "with a single replica the dead home must be fatal"
    );
}

/// A reboot is amnesia: directory entries, MTP sequence tables, and
/// outstanding retransmissions held in RAM are all gone afterwards.
#[test]
fn rebooted_mote_remembers_nothing() {
    let (program, deployment, environment, config) = two_party_world();
    let mut engine = SensorNetwork::build_engine(program, deployment, environment, config, 99);
    engine.run_until(Timestamp::from_secs(40));

    let home = engine.world().directory_replicas_of(BEACON)[0];
    assert!(
        engine.world().directory_entries_at(home) > 0,
        "the home node must hold directory state before the reboot"
    );
    let talker = engine
        .world()
        .deployment()
        .ids()
        .find(|&n| engine.world().mtp_table_len_at(n) > 0)
        .expect("someone has exchanged MTP traffic by 40 s");

    for node in [home, talker] {
        engine.world_mut().kill_node(node);
        engine.world_mut().revive_node(node);
        assert_eq!(engine.world().directory_entries_at(node), 0);
        assert_eq!(engine.world().mtp_table_len_at(node), 0);
        assert_eq!(engine.world().mtp_outstanding_at(node), 0);
        assert!(engine.world().is_alive(node));
    }
}

/// When an ex-leader reboots after its group has already elected a
/// replacement, it must join as a fresh mote — not resurrect its stale
/// heavy label and fight the new leader.
#[test]
fn revived_ex_leader_does_not_resurrect_stale_label() {
    let seed = 12;
    let scenario = TankScenario::default()
        .with_grid(12, 3)
        .with_speed_hops_per_s(0.03)
        .build();
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
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        seed,
    );
    engine.run_until(Timestamp::from_secs(30));
    let old = engine.world().leaders_of_type(TRACKER)[0];

    // Crash the leader, let the group take over, then revive it; the
    // invariant monitor watches for duplicate leaders the whole time.
    let plan = FaultPlan::new()
        .at(Timestamp::from_secs(31), FaultEvent::Crash(old.0))
        .at(Timestamp::from_secs(45), FaultEvent::Reboot(old.0));
    let monitor = harness::install(&mut engine, plan, seed);

    engine.run_until(Timestamp::from_secs(44));
    let successors = engine.world().leaders_of_type(TRACKER);
    assert_eq!(successors.len(), 1, "takeover must converge: {successors:?}");
    assert_ne!(successors[0].0, old.0, "the dead node cannot lead");

    engine.run_until(Timestamp::from_secs(70));
    let final_leaders = engine.world().leaders_of_type(TRACKER);
    assert_eq!(
        final_leaders.len(),
        1,
        "the revived mote must not bring its old label back: {final_leaders:?}"
    );
    assert!(
        monitor.borrow().violations().is_empty(),
        "no duplicate-leader episode may persist: {:?}",
        monitor.borrow().violations()
    );
}

/// Partition drops and burst-loss drops are tallied separately from plain
/// fading in the run statistics, and both survive into the JSON run
/// record.
#[test]
fn loss_causes_are_distinguished_in_run_records() {
    let seed = 5;
    let scenario = TankScenario::default().with_grid(10, 3).build();
    let mut engine = SensorNetwork::build_engine(
        Arc::new(
            Program::builder()
                .context("tracker", |c| {
                    c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                })
                .build()
                .unwrap(),
        ),
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        seed,
    );
    let node_count = engine.world().deployment().len();
    let split: Vec<u8> = (0..node_count).map(|i| u8::from(i % 2 == 0)).collect();
    let plan = FaultPlan::new()
        .at(Timestamp::from_secs(5), FaultEvent::BurstLossOn(GilbertElliott::default()))
        .at(Timestamp::from_secs(10), FaultEvent::Partition(split))
        .at(Timestamp::from_secs(20), FaultEvent::Heal)
        .at(Timestamp::from_secs(25), FaultEvent::BurstLossOff);
    let monitor = harness::install(&mut engine, plan, seed);
    engine.run_until(Timestamp::from_secs(40));

    let record = harness::summarize(
        engine.world(),
        seed,
        Timestamp::from_secs(40),
        &monitor.borrow(),
    );
    assert!(record.burst_faded > 0, "bursts must be counted: {record:?}");
    assert!(
        record.partition_dropped > 0,
        "partition drops must be counted: {record:?}"
    );
    let json = record.to_json();
    for key in ["\"burst_faded\":", "\"partition_dropped\":", "\"violations\":"] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    // And the checkerboard partition never leaked a frame.
    assert!(
        monitor
            .borrow()
            .violations()
            .iter()
            .all(|v| v.kind != envirotrack::chaos::monitor::InvariantKind::PartitionLeak),
        "no frame may cross the partition"
    );
    let _ = engine
        .world()
        .events()
        .count(|e| matches!(e, SystemEvent::MtpDropped { .. }));
}
