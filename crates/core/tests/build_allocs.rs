//! A world is built from a fixed number of allocations: `SensorNetwork::new`
//! and `Topology::new` allocate as often on a 4 000-node field as on a
//! 1 000-node one. Per-node state lives in a few flat arrays, and a node's
//! protocol layers, group machines and neighbour list are made when it first
//! uses them, so a built world holds under two hundred bytes a node, and
//! its bootstrap holds no more than sorting `(phase, id)` pairs did.
//!
//! This file is its own test binary so that the counting global allocator
//! it declares (`testkit::alloc::Counting`) sees nothing but these tests;
//! the count is per thread, so tests running side by side do not see each
//! other's allocations either.

use std::sync::Arc;

use envirotrack_core::aggregate::{AggregateFn, AggregateInput};
use envirotrack_core::api::Program;
use envirotrack_core::context::SensePredicate;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::grid::Topology;
use envirotrack_world::scenario::{ScaleScenario, Scenario};
use envirotrack_world::target::Channel;
use testkit::alloc::{heap, measure, peak, reset_peak, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The paper's Figure 2 tracker: an aggregate and a time-triggered method,
/// so every node's machine would have a timer table to copy.
fn figure_2() -> Arc<Program> {
    let program = Program::builder().context("tracker", |c| {
        c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
            .aggregate(
                "location",
                AggregateFn::CenterOfGravity,
                AggregateInput::Position,
                SimDuration::from_secs(1),
                2,
            )
            .object("reporter", |o| {
                o.on_timer("report", SimDuration::from_secs(5), |_| {})
            })
    });
    Arc::new(program.build().expect("a valid program"))
}

fn field(nodes: u32) -> Scenario {
    let scenario = ScaleScenario {
        nodes,
        ..ScaleScenario::default()
    };
    scenario.build()
}

fn config() -> NetworkConfig {
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(2.5);
    config
}

#[test]
fn a_world_takes_as_many_allocations_at_4000_nodes_as_at_1000() {
    let build = |nodes: u32| {
        let (program, scenario, config) = (figure_2(), field(nodes), config());
        let (deployment, environment) = (scenario.deployment, scenario.environment);
        let (world, allocations, _) =
            measure(|| SensorNetwork::new(program, deployment, environment, config, 1));
        assert_eq!(world.deployment().len(), nodes as usize);
        allocations
    };
    let (small, large) = (build(1_000), build(4_000));
    assert_eq!(
        small,
        large,
        "3 000 more nodes took {} more allocations",
        large.abs_diff(small)
    );
}

/// What a built world holds per node: its hot record and slot, its dense
/// cold state (main stream, energy meter, clock), an empty slot for the
/// record of protocol layers it does not have yet, and its share of the
/// grid and the medium. Not a node's protocol layers, group machines or
/// neighbour list, which a node only gets when it uses them.
#[test]
fn a_world_holds_at_most_200_bytes_a_node_at_4000_nodes() {
    let nodes = 4_000;
    let (program, scenario, config) = (figure_2(), field(nodes), config());
    let (deployment, environment) = (scenario.deployment, scenario.environment);
    let (world, _, bytes) =
        measure(|| SensorNetwork::new(program, deployment, environment, config, 1));
    let mut work = Work::default();
    world.work(&mut work);
    assert_eq!(
        work.get("cold_engaged"),
        0,
        "a built world has engaged nobody"
    );
    let per_node = bytes / i64::from(nodes);
    assert!(per_node <= 200, "{bytes} live bytes, {per_node} a node");
}

/// The bucketed ids and where each cell starts; the positions are the
/// deployment's own array, shared, and no neighbour is listed.
#[test]
fn a_topology_takes_two_allocations_whatever_its_size() {
    for nodes in [1, 1_000, 4_000] {
        let deployment = field(nodes).deployment;
        let (topology, allocations, _) = measure(|| Topology::new(&deployment, 2.5));
        assert_eq!(topology.positions().len(), nodes as usize);
        assert!(std::ptr::eq(topology.positions(), deployment.positions()));
        assert_eq!(allocations, 2, "{nodes} nodes");
    }
}

/// What the first run call — the bootstrap at time zero — held at its peak
/// beyond the built world on the field below when it sorted 16-byte
/// `(phase, id)` pairs in place, with the layout's permutation beside them
/// (20.99 B a node). A radix pass over those pairs would have needed a
/// second 16 B a node.
const PAIR_SORT_PEAK: i64 = 85_984;

/// What the bootstrap holds at its peak beyond what the built world held,
/// on a 4 096-node field whose every node parks from the start: the phases
/// by id (8 B a node), the driven nodes in firing order (4 B), and one more
/// `u32` a node at a time — the radix sort's second buffer, the layout's
/// permutation, then each node's parking cell, which parking keeps —
/// beside the parking tables. It is no more than sorting the pairs held.
#[test]
fn the_bootstrap_holds_no_more_than_sorting_pairs_did() {
    let nodes = 4_096;
    let (program, scenario, config) = (figure_2(), field(nodes), config());
    let (deployment, environment) = (scenario.deployment, scenario.environment);
    let mut engine = SensorNetwork::build_engine(program, deployment, environment, config, 1);
    let before = heap().1;
    reset_peak();
    engine.run_until(Timestamp::from_micros(1));
    let held = peak() - before;
    let mut work = Work::default();
    engine.world().work(&mut work);
    assert_eq!(
        work.get("sense_parked"),
        u64::from(nodes),
        "every node parks"
    );
    let per_node = held as f64 / f64::from(nodes);
    assert!(
        held <= PAIR_SORT_PEAK,
        "{held} B at the peak, {per_node:.2} a node"
    );
}
