//! Quickstart: track a vehicle crossing a sensor field.
//!
//! Declares the paper's Figure-2 tracking context with the Rust builder
//! API, drops it onto the MICA-mote testbed scenario (a 10×2 grid with a
//! tank crossing the `y = 0.5` lane), runs the simulation, and prints the
//! reported track next to the ground truth.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use envirotrack::core::aggregate::{AggValue, AggregateFn, AggregateInput};
use envirotrack::core::context::ContextTypeId;
use envirotrack::core::events::SystemEvent;
use envirotrack::core::prelude::*;
use envirotrack::sim::time::{SimDuration, Timestamp};
use envirotrack::world::scenario::TankScenario;
use envirotrack::world::target::Channel;

fn main() {
    // 1. Declare what a "tracker" context is: activation condition,
    //    aggregate state with QoS, and an attached reporting object.
    let program = Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                    .aggregate(
                        "location",
                        AggregateFn::CenterOfGravity,
                        AggregateInput::Position,
                        SimDuration::from_secs(1), // freshness Le = 1 s
                        2,                         // critical mass Ne = 2
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
            .expect("the tracker program is valid"),
    );

    // 2. Build the physical world: the paper's scaled tank scenario at the
    //    emulated 33 km/h (one grid hop every ~15 s).
    let scenario = TankScenario::default().with_speed_kmh(33.0);
    let world = scenario.build();
    println!("scenario: {}", world.description);
    let tank = world
        .environment
        .target(world.primary_target)
        .expect("tank exists")
        .clone();

    // 3. Assemble middleware + radio + motes and run.
    let mut engine = SensorNetwork::build_engine(
        program,
        world.deployment,
        world.environment,
        NetworkConfig::default(),
        0xE417,
    );
    let horizon = Timestamp::from_secs(220);
    engine.run_until(horizon);
    let net = engine.world();

    // 4. What did the pursuer see?
    println!(
        "\n{:>8}  {:>18}  {:>18}  {:>6}",
        "time", "reported", "actual", "error"
    );
    let tracks = net.base_log().tracks_of_type(ContextTypeId(0));
    for (label, track) in &tracks {
        println!("-- context label {label} --");
        for (t, reported) in track {
            let truth = tank.position_at(*t);
            println!(
                "{:>8}  {:>18}  {:>18}  {:>6.3}",
                t.to_string(),
                reported.to_string(),
                truth.to_string(),
                reported.distance_to(truth)
            );
        }
    }

    // 5. Protocol summary.
    let events = net.events();
    println!("\nprotocol summary:");
    println!(
        "  labels created:   {}",
        events.labels_created(ContextTypeId(0)).len()
    );
    println!(
        "  labels suppressed:{}",
        events.suppressed(ContextTypeId(0)).len()
    );
    println!(
        "  leader handovers: {}",
        events.count(|e| matches!(e, SystemEvent::LeaderHandover { .. }))
    );
    let stats = net.net_stats();
    println!(
        "  heartbeats sent {} / lost {:.1}%",
        stats.kind(envirotrack::core::wire::kinds::HEARTBEAT).tx,
        100.0
            * stats
                .kind(envirotrack::core::wire::kinds::HEARTBEAT)
                .tx_loss_ratio()
    );
    println!(
        "  link utilization: {:.2}%",
        100.0 * stats.link_utilization(horizon - Timestamp::ZERO)
    );
}
