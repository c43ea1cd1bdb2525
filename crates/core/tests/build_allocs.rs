//! A world is built from a fixed number of allocations: `SensorNetwork::new`
//! and `Topology::new` allocate as often on a 4 000-node field as on a
//! 1 000-node one. Per-node state lives in a few flat arrays, and a node's
//! protocol layers and group machines are created when it first uses them,
//! so a built world holds a few hundred bytes a node.
//!
//! This file is its own test binary so that its counting global allocator
//! sees nothing but these tests; the count is per thread, so tests running
//! side by side do not see each other's allocations either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use envirotrack_core::aggregate::{AggregateFn, AggregateInput};
use envirotrack_core::api::Program;
use envirotrack_core::context::SensePredicate;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_sim::time::SimDuration;
use envirotrack_world::grid::Topology;
use envirotrack_world::scenario::{ScaleScenario, Scenario};
use envirotrack_world::target::Channel;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading them never
    // allocates, which an allocator must not do while allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Adds `bytes` (negative: freed) to the calling thread's live heap.
fn grow(bytes: isize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, unchanged; the count beside it touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: the caller guarantees `ptr`/`layout` match and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many allocations (reallocations included) the
/// calling thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What `f` returns, and how many more heap bytes the calling thread holds
/// after it than before.
fn heap_growth<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

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
        let (world, allocations) =
            allocations(|| SensorNetwork::new(program, deployment, environment, config, 1));
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
    let (world, bytes) =
        heap_growth(|| SensorNetwork::new(program, deployment, environment, config, 1));
    assert_eq!(world.cold_engaged(), 0, "a built world has engaged nobody");
    let per_node = bytes / i64::from(nodes);
    assert!(per_node <= 320, "{bytes} live bytes, {per_node} a node");
}

#[test]
fn a_topology_takes_five_allocations_whatever_its_size() {
    for nodes in [1, 1_000, 4_000] {
        let deployment = field(nodes).deployment;
        let (topology, allocations) = allocations(|| Topology::new(&deployment, 2.5));
        assert_eq!(topology.positions().len(), nodes as usize);
        // A lone node has no neighbour, and an empty table no allocation.
        let expected = if nodes == 1 { 4 } else { 5 };
        assert_eq!(allocations, expected, "{nodes} nodes");
    }
}
