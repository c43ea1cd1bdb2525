//! The heap census closes on a dense radio: on `traffic_dense`'s shape,
//! shortened to 10 virtual seconds, the bytes every layer of the engine
//! and its world works out from its own state add up to what the counting
//! allocator says they hold, and an engaged record holds only the tiers
//! its node uses.
//!
//! This file is its own test binary so that the counting global allocator
//! it declares (`testkit::alloc::Counting`) sees nothing but this test; the
//! count is per thread as well.

use std::sync::Arc;

use envirotrack_core::network::{HeapBytes, NetworkConfig, SensorNetwork};
use envirotrack_lang::compile_source;
use envirotrack_sim::time::Timestamp;
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

/// What the engine and world of `traffic_dense`'s shape hold after `secs`
/// virtual seconds at `seed`: the live bytes the allocator counted, the
/// most it held at once, the census by layer, and the engaged records.
fn dense_run(seed: u64, secs: u64) -> (u64, u64, HeapBytes, u64) {
    let program = Arc::new(compile_source(FIGURE_2).expect("the Figure-2 source compiles"));
    reset_peak();
    let (_, start) = heap();
    let scenario = ScaleScenario {
        nodes: 2_500,
        targets: 12,
        speed_hops_per_s: 1.0,
        sensing_radius: 3.0,
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
    let bytes = engine.world().heap_bytes(engine.kernel());
    (live, peak, bytes, engine.world().cold_engaged() as u64)
}

#[test]
fn the_layers_account_for_the_heap_of_a_dense_run() {
    let (live, peak, bytes, engaged) = dense_run(1, 10);
    let counted = bytes.total();
    assert!(
        counted.abs_diff(live) * 20 <= live && live <= peak,
        "{counted} bytes counted by layer, {live} live, {peak} at the peak: {:?}",
        bytes.layers()
    );
    // An engaged record keeps its MTP endpoint and directory state in boxes
    // made on first use, the run-wide MTP constants out of the record, a
    // leader's state out of every machine that does not lead, and its
    // routing-table entries flat: about 630 bytes a record here, where
    // holding all of it inline took about 900.
    assert!(engaged > 500, "{engaged} engaged records");
    let records = bytes.engaged + bytes.mtp + bytes.endpoints + bytes.directory + bytes.leaders;
    assert!(
        records <= 720 * engaged,
        "{records} bytes in {engaged} engaged records"
    );
}

/// The census of `traffic_dense`'s world at its 60 s horizon, seeds 1 and
/// 7, as a table (EXPERIMENTS.md "Memory by layer"):
///
/// ```text
/// cargo test --release -p envirotrack-bench --test heap_census -- --ignored --nocapture
/// ```
#[test]
#[ignore = "a minute of virtual time on 2 500 nodes; prints a table"]
fn census_of_traffic_dense_at_its_horizon() {
    for seed in [1, 7] {
        let (live, peak, bytes, engaged) = dense_run(seed, 60);
        println!("seed {seed}: {engaged} engaged records, {live} B live, {peak} B at the peak");
        for (layer, b) in bytes.layers() {
            println!("  {layer:<10} {b:>9} B  {:>6.3} MiB", b as f64 / 1048576.0);
        }
        let counted = bytes.total();
        println!(
            "  {:<10} {counted:>9} B  {:>6.1} % of live",
            "total",
            100.0 * counted as f64 / live as f64
        );
    }
}
