//! A trace record is plain data and the export is sized once: appending to
//! a full trace ring allocates nothing, and `telemetry_to_jsonl` returns a
//! string whose capacity is its length.
//!
//! This file is its own test binary so that the counting global allocator
//! it declares (`testkit::alloc::Counting`) sees nothing but these tests;
//! the count is per thread, so tests running side by side do not see each
//! other's allocations either.

use std::sync::Arc;

use envirotrack_core::api::Program;
use envirotrack_core::context::SensePredicate;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::trace::SITES;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use envirotrack_world::scenario::TankScenario;
use envirotrack_world::target::Channel;
use testkit::alloc::{measure, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Once the ring holds its bound, an append — the label found by its key,
/// as the middleware finds a context label's, and the oldest record
/// dropped — allocates nothing, at every site.
#[test]
fn appending_to_a_full_ring_allocates_nothing() {
    let t = Telemetry::new();
    let label = t.intern_keyed(7, || "type0@n3#1".to_owned());
    for at in 0..DEFAULT_TRACE_CAPACITY as u64 {
        t.trace(at, 3, label, SITES[0], [0; 3]);
    }
    assert_eq!(t.trace_work().dropped, 0);
    let ((), appended, _) = measure(|| {
        for (at, site) in (0..4_096).zip(SITES.iter().cycle()) {
            let label = t.intern_keyed(7, || unreachable!("key 7 is interned"));
            t.trace(at, 3, label, site, [at as u32, u32::MAX, 1]);
        }
    });
    assert_eq!(appended, 0);
    assert_eq!(t.trace_len(), DEFAULT_TRACE_CAPACITY);
    assert_eq!(t.trace_work().dropped, 4_096);
}

/// The export is measured first and written into one allocation of its
/// final size: on a tracked tank's registry, whose counters, histograms
/// and records fill every section, and on records whose strings need
/// escaping.
#[test]
fn the_export_is_allocated_at_its_final_length() {
    let program = Program::builder().context("tracker", |c| {
        c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
    });
    let program = Arc::new(program.build().expect("a valid program"));
    let scenario = TankScenario::default().with_grid(12, 3).build();
    let (field, env, config) = (
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
    );
    let mut engine = SensorNetwork::build_engine(program, field, env, config, 42);
    engine.run_until(Timestamp::from_secs(30));
    let tracked = engine.world().telemetry();
    assert!(tracked.trace_len() > 20, "{} records", tracked.trace_len());

    let escaped = Telemetry::new();
    let (label, text) = (
        escaped.intern("type0@n3#1\"\n"),
        escaped.intern("v\\ar\u{1}→"),
    );
    escaped.set_gauge("nodes.alive", 24.5);
    for (at, site) in (0..64).zip(SITES) {
        escaped.trace(at, 3, label, site, [text, u32::MAX, 0]);
    }
    for t in [tracked, &escaped] {
        let out = telemetry_to_jsonl(t);
        assert!(out.contains(r#""t":"trace""#));
        assert_eq!(out.capacity(), out.len());
    }
}
