//! Far nodes are inert: a world and its twin with a block of nodes added
//! where nothing reaches them tell the same story about the original nodes.
//!
//! EnviroTrack's group management, aggregation and sensing are local: a
//! mote that no target reaches and that hears no transmission cannot change
//! any label's history. This file is compiled without `cfg(test)` in the
//! library, so the size floor below which a world never parks its idle
//! sensing loops is live: the original world sits just under it and does
//! not park, its twin crosses it and does. Parking, the bucket grid and the
//! records made on first use are all exercised on the twin's side only, and
//! the comparison holds them to the plain tick-by-tick run.

use std::sync::Arc;

use envirotrack_core::aggregate::{AggregateFn, AggregateInput};
use envirotrack_core::api::Program;
use envirotrack_core::context::SensePredicate;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::Topology;
use envirotrack_world::sensing::Environment;
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};

/// The grid's columns and rows of original nodes, one unit apart, and the
/// corner anchor that fixes the field's far corner for both worlds.
const COLS: u32 = 62;
const ROWS: u32 = 64;
const ANCHOR: Point = Point { x: 100.0, y: 63.0 };

/// The inert block: `BLOCK.0 × BLOCK.1` nodes one unit apart from `AT`.
const BLOCK: (u32, u32) = (11, 12);
const AT: Point = Point { x: 80.0, y: 20.0 };

const COMM_RADIUS: f64 = 2.5;
const SENSING_RADIUS: f64 = 1.5;
const SPEED: f64 = 1.0;
const HORIZON_S: u64 = 20;

/// The paper's Figure 2 tracker: an aggregate and a time-triggered method.
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
                o.on_timer("report", SimDuration::from_secs(2), |_| {})
            })
    });
    Arc::new(program.build().expect("a valid program"))
}

/// Two tanks crossing the original grid, in lanes that keep well inside it.
fn environment() -> Environment {
    let mut environment = Environment::new();
    for (i, lane) in [15.0, 45.0].into_iter().enumerate() {
        environment.add_target(Target::new(
            TargetId(i as u32),
            Trajectory::line(Point::new(2.0, lane), Point::new(50.0, lane), SPEED),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk {
                    radius: SENSING_RADIUS,
                },
            }],
        ));
    }
    environment
}

/// The original world's nodes: the grid, then the anchor.
fn original() -> Vec<Point> {
    let mut positions: Vec<Point> = (0..ROWS)
        .flat_map(|y| (0..COLS).map(move |x| Point::new(f64::from(x), f64::from(y))))
        .collect();
    positions.push(ANCHOR);
    positions
}

/// The inert block, whose nodes take the ids after the original's.
fn block() -> Vec<Point> {
    (0..BLOCK.1)
        .flat_map(|y| {
            (0..BLOCK.0).map(move |x| Point::new(AT.x + f64::from(x), AT.y + f64::from(y)))
        })
        .collect()
}

fn config() -> NetworkConfig {
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(COMM_RADIUS);
    config.middleware.proximity_radius = 3.0;
    config
}

fn run(positions: Vec<Point>) -> Engine<SensorNetwork> {
    let deployment = Deployment::from_positions(positions);
    let mut engine =
        SensorNetwork::build_engine(figure_2(), deployment, environment(), config(), 7);
    engine.run_until(Timestamp::from_secs(HORIZON_S));
    engine
}

fn work_of(world: &SensorNetwork) -> Work {
    let mut work = Work::default();
    world.work(&mut work);
    work
}

/// The block is placed where nothing can reach it: past the comm radius of
/// every original node, past every target's reach over the horizon, and on
/// the same bounds and grid, so the directory homes and every original
/// node's grid cell are the same in both worlds.
#[test]
fn the_block_is_out_of_everyones_reach() {
    let (original, block) = (original(), block());
    for b in &block {
        for o in &original {
            assert!(o.distance_to(*b) > COMM_RADIUS, "{b} hears {o}");
        }
        for target in environment().targets() {
            // A lane runs from x = 2 to x = 50 at the target's start height.
            let lane = target.position_at(Timestamp::ZERO).y;
            let nearest = Point::new(b.x.clamp(2.0, 50.0), lane);
            assert!(
                nearest.distance_to(*b) > SENSING_RADIUS + 1.0,
                "{b} near a target"
            );
        }
    }
    let small = Deployment::from_positions(original.clone());
    let large = Deployment::from_positions([original.clone(), block].concat());
    assert_eq!(small.bounds(), large.bounds(), "the anchors fix the bounds");
    assert!(
        small.len() < 4_096 && large.len() > 4_096,
        "{} and {}",
        small.len(),
        large.len()
    );
    // The same cells, each holding the same original nodes: the grid's cell
    // side is the radius in both.
    let (a, b) = (
        Topology::new(&small, COMM_RADIUS),
        Topology::new(&large, COMM_RADIUS),
    );
    let mut cell = 0;
    while let Some(bucket) = a.bucket(cell) {
        let twin = b
            .bucket(cell)
            .expect("a cell of both grids")
            .iter()
            .copied();
        let twin: Vec<u32> = twin.filter(|&m| (m as usize) < original.len()).collect();
        assert_eq!(bucket, &twin[..], "cell {cell}");
        cell += 1;
    }
    assert!(b.bucket(cell).is_none(), "the twin's grid has more cells");
}

/// The original world does not park and its twin does; every original
/// node's story is the same in both, and the twin's extra work is exactly
/// its block's own sensing ticks.
#[test]
fn a_far_block_changes_no_original_node() {
    let n = original().len();
    let plain = run(original());
    let twin = run([original(), block()].concat());
    let (a, b) = (plain.world(), twin.world());

    assert_eq!(a.events().entries(), b.events().entries(), "event log");
    let horizon = SimDuration::from_secs(HORIZON_S);
    let (ra, rb) = (a.run_record(7, horizon, 0), b.run_record(7, horizon, 0));
    assert_eq!(ra, rb, "run record: labels, handovers, losses, MTP");
    assert!(
        ra.labels_created > 0 && ra.handovers > 0,
        "nothing tracked: {ra:?}"
    );
    for id in (0..n as u32).map(NodeId) {
        assert_eq!(
            a.energy_at(id).total_millijoules().to_bits(),
            b.energy_at(id).total_millijoules().to_bits(),
            "energy of {id}"
        );
    }

    let (wa, wb) = (work_of(a), work_of(b));
    assert_eq!(wa.get("sense_parked"), 0, "the original world parked");
    assert!(wb.get("sense_parked") > 0, "the twin parked nothing");
    // Every block tick is admitted by an idle CPU and does nothing else.
    let ticks = wb.get("sense_ticks") - wa.get("sense_ticks");
    let nodes = u64::from(BLOCK.0 * BLOCK.1);
    let periods = horizon.as_micros() / config().middleware.sense_period.as_micros();
    assert!(
        (nodes * periods..=nodes * (periods + 1)).contains(&ticks),
        "{ticks} block ticks"
    );
    let events = |w: &SensorNetwork| w.telemetry().counter("kernel.events");
    assert_eq!(events(b), events(a) + ticks, "kernel events");
    let ((admitted_a, dropped_a), (admitted_b, dropped_b)) = (a.cpu_totals(), b.cpu_totals());
    assert_eq!(
        (admitted_b, dropped_b),
        (admitted_a + ticks, dropped_a),
        "cpu totals"
    );
}
