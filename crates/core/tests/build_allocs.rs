//! A world is built from a fixed number of allocations: `SensorNetwork::new`
//! and `Topology::new` allocate as often on a 4 000-node field as on a
//! 1 000-node one. Per-node state lives in a few flat arrays, and a node's
//! protocol layers and group machines are created when it first uses them,
//! so a built world holds a few hundred bytes a node.
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
use envirotrack_sim::time::SimDuration;
use envirotrack_world::grid::Topology;
use envirotrack_world::scenario::{ScaleScenario, Scenario};
use envirotrack_world::target::Channel;
use testkit::alloc::{measure, Counting};

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
/// topology and the medium. Not a node's protocol layers or group machines,
/// which a node only gets when it uses them.
#[test]
fn a_world_holds_at_most_320_bytes_a_node_at_4000_nodes() {
    let nodes = 4_000;
    let (program, scenario, config) = (figure_2(), field(nodes), config());
    let (deployment, environment) = (scenario.deployment, scenario.environment);
    let (world, _, bytes) =
        measure(|| SensorNetwork::new(program, deployment, environment, config, 1));
    assert_eq!(world.cold_engaged(), 0, "a built world has engaged nobody");
    let per_node = bytes / i64::from(nodes);
    assert!(per_node <= 320, "{bytes} live bytes, {per_node} a node");
}

#[test]
fn a_topology_takes_five_allocations_whatever_its_size() {
    for nodes in [1, 1_000, 4_000] {
        let deployment = field(nodes).deployment;
        let (topology, allocations, _) = measure(|| Topology::new(&deployment, 2.5));
        assert_eq!(topology.positions().len(), nodes as usize);
        // A lone node has no neighbour, and an empty table no allocation.
        let expected = if nodes == 1 { 4 } else { 5 };
        assert_eq!(allocations, expected, "{nodes} nodes");
    }
}
