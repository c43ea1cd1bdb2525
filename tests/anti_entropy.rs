//! Anti-entropy integration tests: directory replicas that diverge — a
//! registration fan-out copy lost to a partition, a replica rebooted with
//! amnesia — must converge again through gossip, over the real medium.
//!
//! Divergence is staged with the corruption-path injection hook: a
//! `DirRegister` frame delivered to *one* replica models exactly the
//! fan-out copy the other replica never received. The registrant never
//! refreshes (its "primary died"), so the periodic re-registration path
//! can never repair the gap — only anti-entropy can, which is what makes
//! these tests load-bearing: the same scenario with gossip off must stay
//! divergent.

use std::sync::Arc;

use envirotrack::chaos::harness;
use envirotrack::chaos::plan::{FaultEvent, FaultPlan};
use envirotrack::core::context::{ContextLabel, ContextTypeId, SensePredicate};
use envirotrack::core::network::{NetworkConfig, SensorNetwork};
use envirotrack::core::prelude::*;
use envirotrack::core::wire::{DirRegister, Message};
use envirotrack::net::packet::Frame;
use envirotrack::sim::engine::Engine;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::world::field::{Deployment, NodeId};
use envirotrack::world::geometry::Point;
use envirotrack::world::sensing::Environment;
use envirotrack::world::target::Channel;

const TRACKER: ContextTypeId = ContextTypeId(0);

/// A quiet 5×5 field (nothing ever activates) with two directory
/// replicas, so the only directory traffic is what the test stages.
fn build(gossip: bool, seed: u64) -> Engine<SensorNetwork> {
    let program = Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
            })
            .build()
            .unwrap(),
    );
    let mut config = NetworkConfig::default();
    config.middleware = config
        .middleware
        .with_directory(true)
        .with_directory_replicas(2)
        .with_directory_gossip(gossip)
        .with_directory_gossip_period(SimDuration::from_secs(2));
    SensorNetwork::build_engine(
        program,
        Deployment::grid(5, 5, 1.0),
        Environment::new(),
        config,
        seed,
    )
}

/// Delivers a `DirRegister` for a fresh label to exactly one replica at
/// `at` — the fan-out copy its peer never saw.
fn inject_register(engine: &mut Engine<SensorNetwork>, replica: NodeId, at: Timestamp) {
    let msg = Message::DirRegister(DirRegister {
        label: ContextLabel {
            type_id: TRACKER,
            creator: NodeId(9),
            seq: 1,
        },
        location: Point::new(2.0, 2.0),
    });
    let frame = Frame::broadcast(NodeId(9), msg.kind(), msg.encode());
    engine
        .kernel_mut()
        .schedule_at(at, move |w: &mut SensorNetwork, k| {
            w.inject_frame(k, replica, frame.clone());
        });
}

#[test]
fn periodic_gossip_converges_divergent_replicas_within_two_rounds() {
    let mut engine = build(true, 21);
    let replicas = engine.world().directory_replicas_of(TRACKER);
    assert_eq!(replicas.len(), 2);
    inject_register(&mut engine, replicas[0], Timestamp::from_secs(1));

    // Right after the lone delivery the stores disagree.
    engine.run_until(Timestamp::from_millis(1_100));
    let now = Timestamp::from_millis(1_100);
    assert!(
        !engine.world().directory_replicas_agree(TRACKER, now),
        "injection must create divergence"
    );

    // One ring round (k−1 = 1 at two replicas) repairs it; allow two
    // periods plus frame flight time.
    let settle = Timestamp::from_secs(1) + SimDuration::from_secs(2 * 2 + 1);
    engine.run_until(settle);
    let world = engine.world();
    assert!(
        world.directory_replicas_agree(TRACKER, settle),
        "gossip did not converge the replicas within two rounds"
    );
    // With the registrant dead, *only* merge repairs can explain the copy
    // on the second replica — and byte-level digests must match too,
    // since last-writer-wins aligns refresh timestamps.
    assert!(world.telemetry().counter("dir.gossip.repair") >= 1);
    assert!(world.directory_replicas_converged(TRACKER));
    assert_eq!(world.directory_entries_at(replicas[1]), 1);
}

#[test]
fn divergence_persists_when_gossip_is_off() {
    // The fail-on-prefix control: identical staging, repair disabled. A
    // stale replica keeps answering from its gap for the whole window.
    let mut engine = build(false, 21);
    let replicas = engine.world().directory_replicas_of(TRACKER);
    inject_register(&mut engine, replicas[0], Timestamp::from_secs(1));
    for probe_s in [2u64, 10, 25] {
        let probe = Timestamp::from_secs(probe_s);
        engine.run_until(probe);
        assert!(
            !engine.world().directory_replicas_agree(TRACKER, probe),
            "replicas agreed at {probe_s}s with repair off — nothing else may repair"
        );
    }
    assert_eq!(engine.world().telemetry().counter("dir.gossip.repair"), 0);
}

#[test]
fn partition_heal_kicks_an_immediate_repair_round_without_periodic_gossip() {
    // Periodic gossip off: the only repair path is the harness's
    // heal-triggered kick. The partition stands in for the outage that
    // caused the divergence; the lone-replica injection is the
    // registration its cut-off peer missed.
    let mut engine = build(false, 33);
    let n = engine.world().deployment().len();
    let replicas = engine.world().directory_replicas_of(TRACKER);
    let groups: Vec<u8> = (0..n).map(|i| u8::from(i % 2 == 0)).collect();
    let plan = FaultPlan::new()
        .at(Timestamp::from_secs(2), FaultEvent::Partition(groups))
        .at(Timestamp::from_secs(10), FaultEvent::Heal);
    let monitor = harness::install(&mut engine, plan, 33);
    inject_register(&mut engine, replicas[0], Timestamp::from_secs(4));

    engine.run_until(Timestamp::from_secs(9));
    assert!(
        !engine
            .world()
            .directory_replicas_agree(TRACKER, Timestamp::from_secs(9)),
        "divergent during the partition"
    );

    // Heal at 10 s fires one push-pull exchange; DirSync frames need only
    // a short flight across the 5×5 grid.
    let settle = Timestamp::from_secs(12);
    engine.run_until(settle);
    assert!(
        engine.world().directory_replicas_agree(TRACKER, settle),
        "heal kick did not repair the divergence"
    );
    assert!(engine.world().telemetry().counter("dir.gossip.repair") >= 1);
    assert!(monitor.borrow().violations().is_empty());
}
