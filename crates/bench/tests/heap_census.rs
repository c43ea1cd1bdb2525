//! The heap census closes on a dense radio: on `traffic_dense`'s shape,
//! shortened to 10 virtual seconds, the bytes every layer of the engine
//! and its world works out from its own state add up to what the counting
//! allocator says they hold, an engaged record holds only the tiers its
//! node uses, and only the nodes that transmitted have neighbour lists.
//!
//! This file is its own test binary so that the counting global allocator
//! it declares (`testkit::alloc::Counting`) sees nothing but this test; the
//! count is per thread as well.

use std::sync::Arc;

use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_lang::compile_source;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::Work;
use envirotrack_world::scenario::ScaleScenario;
use testkit::alloc::{heap, peak, reset_peak, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The paper's Figure 2, as the `traffic_dense` workload runs it.
const FIGURE_2: &str = r#"
    begin context tracker
      activation: magnetic_sensor_reading()
      location : avg(position) confidence=2, freshness=1s
      begin object reporter
        invocation: TIMER(5s)
        report_function() {
          MySend(pursuer, self:label, location);
        }
      end
    end context
"#;

/// The shape of a benchmark world: `field_sparse`'s 20 000 nodes and 4
/// narrow targets, or `traffic_dense`'s 2 500 nodes and 12 wide ones.
#[derive(Clone, Copy)]
enum Shape {
    Sparse,
    Dense,
}

/// What one of those worlds has stored after `secs` virtual seconds at
/// `seed`.
struct Census {
    /// The live bytes the allocator counted and the most it held at once.
    live: u64,
    peak: u64,
    /// The census by layer (`heap_<layer>`), and the rest of the world's
    /// work counts: `cold_engaged`, and `neighbor_lists`, the lists the
    /// medium made.
    work: Work,
}

impl Census {
    /// The census's layers, `heap_` taken off their names.
    fn layers(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let layers = self.work.iter();
        layers.filter_map(|(name, b)| Some((name.strip_prefix("heap_")?, b)))
    }

    /// All layers together.
    fn counted(&self) -> u64 {
        self.layers().map(|(_, b)| b).sum()
    }
}

fn census(shape: Shape, seed: u64, secs: u64) -> Census {
    let program = Arc::new(compile_source(FIGURE_2).expect("the Figure-2 source compiles"));
    reset_peak();
    let (_, start) = heap();
    let (nodes, targets, sensing_radius) = match shape {
        Shape::Sparse => (20_000, 4, 1.0),
        Shape::Dense => (2_500, 12, 3.0),
    };
    let scenario = ScaleScenario {
        nodes,
        targets,
        speed_hops_per_s: 1.0,
        sensing_radius,
        seed,
        ..ScaleScenario::default()
    }
    .build();
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(2.5);
    config.middleware.proximity_radius = 3.0;
    let (field, targets) = (scenario.deployment, scenario.environment);
    let mut engine = SensorNetwork::build_engine(program, field, targets, config, seed);
    engine.run_until(Timestamp::from_secs(secs));
    let live = u64::try_from(heap().1 - start).expect("the engine is live");
    let peak = u64::try_from(peak() - start).expect("at least what is live");
    let mut work = Work::default();
    engine.world().work(&mut work);
    engine.world().heap_bytes(engine.kernel(), &mut work);
    Census { live, peak, work }
}

#[test]
fn the_layers_account_for_the_heap_of_a_dense_run() {
    let c = census(Shape::Dense, 1, 10);
    let (live, peak, counted) = (c.live, c.peak, c.counted());
    assert!(
        counted.abs_diff(live) * 20 <= live && live <= peak,
        "{counted} bytes counted by layer, {live} live, {peak} at the peak: {:?}",
        c.layers().collect::<Vec<_>>()
    );
    let engaged = c.work.get("cold_engaged");
    // An engaged record keeps its MTP endpoint and directory state in boxes
    // made on first use, the run-wide MTP constants out of the record, a
    // leader's state out of every machine that does not lead, and its
    // routing-table entries flat: about 630 bytes a record here, where
    // holding all of it inline took about 900.
    assert!(engaged > 500, "{engaged} engaged records");
    let tiers = ["engaged", "mtp", "endpoints", "directory", "leaders"];
    let records: u64 = tiers.map(|t| c.work.get(&format!("heap_{t}"))).iter().sum();
    assert!(
        records <= 720 * engaged,
        "{records} bytes in {engaged} engaged records"
    );
    // Only a node that transmitted has its receivers listed.
    let lists = c.work.get("neighbor_lists");
    assert!(
        0 < lists && lists <= engaged,
        "{lists} lists, {engaged} engaged"
    );
}

/// The census of `field_sparse`'s world at its 10 s horizon and of
/// `traffic_dense`'s at its 60 s one, seeds 1 and 7, as tables
/// (EXPERIMENTS.md "Memory by layer", "Neighbour lists on demand"):
///
/// ```text
/// cargo test --release -p envirotrack-bench --test heap_census -- --ignored --nocapture
/// ```
#[test]
#[ignore = "a minute of virtual time on 2 500 nodes; prints tables"]
fn census_of_the_benchmark_shapes_at_their_horizons() {
    for (name, shape, secs) in [
        ("field_sparse", Shape::Sparse, 10),
        ("traffic_dense", Shape::Dense, 60),
    ] {
        for seed in [1, 7] {
            let c = census(shape, seed, secs);
            println!(
                "{name} seed {seed}: {} engaged records, {} neighbour lists, {} B live, {} B at the peak",
                c.work.get("cold_engaged"),
                c.work.get("neighbor_lists"),
                c.live,
                c.peak
            );
            for (layer, b) in c.layers() {
                println!("  {layer:<10} {b:>9} B  {:>6.3} MiB", b as f64 / 1048576.0);
            }
            let counted = c.counted();
            println!(
                "  {:<10} {counted:>9} B  {:>6.1} % of live",
                "total",
                100.0 * counted as f64 / c.live as f64
            );
        }
    }
}
