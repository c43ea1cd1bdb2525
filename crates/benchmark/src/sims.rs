//! The two simulation workloads, `field_sparse` and `traffic_dense`, and
//! the sharded kernel measured on `traffic_dense`'s field.
//!
//! Both run the Figure-2 tracker program on a `ScaleScenario` grid with
//! the same radio (comm radius 2.5, proximity radius 3.0) through the
//! monolithic engine; they differ in field size, target count and
//! footprint, and horizon. One operation is one virtual second; one
//! repetition is a fresh set-up plus a run to the horizon, checked against
//! the digest of rep 0.
//!
//! `core::shard::run_sharded` on the same field is *not* a workload of its
//! own: 10 000 cross-thread wake-ups per run make its wall time follow the
//! hypervisor's wake-up latency, and ten runs of it spread by 15–39 % on
//! the reference host — past the widest bound the contract allows. Its
//! numbers are per-layer metrics (`core.shard.*`) of `traffic_dense`'s
//! traced run instead, exact counts and digests included.

use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::api::Program;
use envirotrack_core::events::SystemEvent;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::shard::{run_sharded, MediumMode, ShardedRun};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::{ScaleScenario, Scenario};

use crate::heap::peak_heap_mb;
use crate::output::{Metrics, RunOutput};
use crate::probes;
use crate::spec::{self, Sizes};
use crate::stats::{digest, median, peak_rss_mb, sample_setups, thread_cpu_s};
use crate::trace::Tracer;

/// Shards of the sharded run: one per core of the reference host.
const SHARDS: usize = 2;

/// Set-up samples per run (at least, at most) and the time the extra ones
/// may take; the reported `setup_s` is the median of all of them.
const SETUP_SAMPLES: (usize, usize) = (9, 101);
const SETUP_BUDGET: Duration = Duration::from_millis(400);

/// Timed slices per virtual second of a run.
const SLICES_PER_SECOND: u64 = 10;

#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub name: &'static str,
    nodes: u32,
    targets: u32,
    sensing_radius: f64,
    horizon_s: u64,
    /// Whether the traced run also drives this field through `run_sharded`.
    sharded_layer: bool,
}

impl SimSpec {
    pub fn named(name: &str, sizes: &Sizes) -> Option<SimSpec> {
        match name {
            spec::FIELD_SPARSE => Some(SimSpec {
                name: spec::FIELD_SPARSE,
                nodes: sizes.field_nodes,
                targets: 4,
                sensing_radius: 1.0,
                horizon_s: sizes.field_horizon_s,
                sharded_layer: false,
            }),
            spec::TRAFFIC_DENSE => Some(SimSpec {
                name: spec::TRAFFIC_DENSE,
                nodes: sizes.dense_nodes,
                targets: 12,
                sensing_radius: 3.0,
                horizon_s: sizes.dense_horizon_s,
                sharded_layer: true,
            }),
            _ => None,
        }
    }
}

/// Everything a run needs, as set-up leaves it.
struct Inputs {
    scenario: Scenario,
    program: Arc<Program>,
    config: NetworkConfig,
}

/// Scenario build and program compile. Inputs come from `seed` alone.
fn build_inputs(spec: &SimSpec, seed: u64, tr: &mut Tracer) -> Inputs {
    let s = tr.open("world.scenario.build");
    let scenario = ScaleScenario {
        nodes: spec.nodes,
        targets: spec.targets,
        speed_hops_per_s: 1.0,
        sensing_radius: spec.sensing_radius,
        seed,
        ..ScaleScenario::default()
    }
    .build();
    tr.close(s);
    let s = tr.open("lang.compile");
    let program = probes::figure_2_program();
    tr.close(s);
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(2.5);
    config.middleware.proximity_radius = 3.0;
    Inputs {
        scenario,
        program,
        config,
    }
}

/// Scenario + compile + `build_engine`: what `setup_s` times.
fn build_engine(spec: &SimSpec, seed: u64, tr: &mut Tracer) -> Engine<SensorNetwork> {
    let setup = tr.open("workload.setup");
    let inputs = build_inputs(spec, seed, tr);
    let s = tr.open("core.network.build_engine");
    let engine = SensorNetwork::build_engine(
        inputs.program,
        inputs.scenario.deployment,
        inputs.scenario.environment,
        inputs.config,
        seed,
    );
    tr.close(s);
    tr.close(setup);
    engine
}

/// Wall and CPU seconds of one slice of a run.
#[derive(Debug, Clone, Copy)]
struct Slice {
    wall_s: f64,
    cpu_s: f64,
}

/// What one repetition measured and produced.
struct Rep {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    /// The run in [`SLICES_PER_SECOND`] pieces per virtual second; each
    /// piece repeats exactly from rep to rep.
    slices: Vec<Slice>,
    digest: u64,
    labels: u64,
    corrupt_accepted: u64,
    report_ms: f64,
    report_bytes: usize,
    /// The finished world (counts, probe inputs).
    engine: Engine<SensorNetwork>,
}

impl Rep {
    /// A rep fails when it mints no label, accepts a corrupt frame, or
    /// (checked by the caller) diverges from rep 0's digest.
    fn sound(&self) -> bool {
        self.labels > 0 && self.corrupt_accepted == 0
    }
}

fn rep(spec: &SimSpec, seed: u64, tr: &mut Tracer) -> Rep {
    let t_setup = Instant::now();
    let mut engine = build_engine(spec, seed, tr);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The run is driven in the same slices in both modes, so the traced
    // rep executes the same calls as the timed ones; spans are per
    // virtual second.
    let cpu0 = thread_cpu_s();
    let t_run = Instant::now();
    let run = tr.open("workload.run");
    let (mut events, mut tx) = (0u64, 0u64);
    let mut slices = Vec::with_capacity((spec.horizon_s * SLICES_PER_SECOND) as usize);
    for s in 1..=spec.horizon_s {
        let second = tr.open("sim.run_slice");
        for part in 1..=SLICES_PER_SECOND {
            let until = (s - 1) * 1_000_000 + part * 1_000_000 / SLICES_PER_SECOND;
            let (w0, c0) = (Instant::now(), thread_cpu_s());
            engine.run_until(Timestamp::from_micros(until));
            slices.push(Slice {
                wall_s: w0.elapsed().as_secs_f64(),
                cpu_s: thread_cpu_s() - c0,
            });
        }
        if tr.enabled() {
            let world = engine.world();
            let (e, t) = (
                world.telemetry().counter("kernel.events"),
                world.net_stats().total_tx,
            );
            tr.attr("events", (e - events) as f64);
            tr.attr("tx", (t - tx) as f64);
            (events, tx) = (e, t);
        }
        tr.close(second);
    }
    tr.close(run);
    let run_s = t_run.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;

    let t_report = Instant::now();
    let s = tr.open("core.report.jsonl");
    let world = engine.world();
    let record = world
        .run_record(seed, SimDuration::from_secs(spec.horizon_s), 0)
        .to_json();
    let telemetry = telemetry_to_jsonl(world.telemetry());
    tr.attr("bytes", (record.len() + telemetry.len()) as f64);
    tr.close(s);
    let report_ms = t_report.elapsed().as_secs_f64() * 1e3;

    Rep {
        setup_s,
        run_s,
        cpu_s,
        slices,
        digest: digest(&[record.as_bytes(), telemetry.as_bytes()]),
        labels: world
            .events()
            .count(|e| matches!(e, SystemEvent::LabelCreated { .. })) as u64,
        corrupt_accepted: world.telemetry().counter("net.corrupt_accepted"),
        report_ms,
        report_bytes: record.len() + telemetry.len(),
        engine,
    }
}

/// The quiet-host estimate of one run: every slice repeats exactly from
/// rep to rep, so its cheapest execution over the reps is what the code
/// costs when nothing else disturbs it. Interference on a shared host
/// only ever adds time, and it comes in bursts; the sum of the per-slice
/// minima needs just one undisturbed execution of each slice, not one
/// wholly undisturbed rep.
fn quiet_host_seconds(reps: &[Vec<Slice>], pick: impl Fn(&Slice) -> f64) -> f64 {
    (0..reps[0].len())
        .map(|i| {
            reps.iter()
                .map(|r| pick(&r[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The untraced run: one warm-up rep (rep 0, the digest reference), then
/// timed reps until `seconds` have passed.
pub fn run_end_to_end(spec: &SimSpec, seed: u64, seconds: u64) -> RunOutput {
    let mut tr = Tracer::new(false, spec.name, Instant::now(), 0);
    // Only rep 0's verdict and digest are kept: a second live world would
    // double the heap peak.
    let (reference_sound, reference_digest) = {
        let reference = rep(spec, seed, &mut tr);
        (reference.sound(), reference.digest)
    };
    let mut failed = u64::from(!reference_sound);
    let mut attempted = 1u64;

    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut reps, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    while reps.is_empty() || started.elapsed() < window {
        let r = rep(spec, seed, &mut tr);
        attempted += 1;
        failed += u64::from(!r.sound() || r.digest != reference_digest);
        rates.push(spec.horizon_s as f64 / r.run_s);
        setups.push(r.setup_s);
        reps.push(r.slices);
    }
    sample_setups(&mut setups, SETUP_SAMPLES, SETUP_BUDGET, || {
        let t0 = Instant::now();
        std::hint::black_box(build_engine(spec, seed, &mut tr));
        t0.elapsed().as_secs_f64()
    });

    let horizon = spec.horizon_s as f64;
    let mut metrics = Metrics::end_to_end();
    metrics.set(
        spec::OPS_PER_S,
        horizon / quiet_host_seconds(&reps, |s| s.wall_s),
    );
    metrics.set(spec::SETUP_S, median(&setups));
    metrics.set(spec::PEAK_HEAP_MB, peak_heap_mb());
    RunOutput {
        attempted,
        failed,
        invalid: None,
        metrics,
        notes: vec![
            format!(
                "{}: {} timed reps of {} virtual s in {} slices, {} set-up samples, digest {:016x}",
                spec.name,
                reps.len(),
                spec.horizon_s,
                reps[0].len(),
                setups.len(),
                reference_digest
            ),
            format!(
                "as observed, sim_rate_x (virtual s / wall s) per rep: median {:.3} of {rates:.3?}",
                median(&rates)
            ),
            format!(
                "quiet-host cpu_s_per_op {:.6} s",
                quiet_host_seconds(&reps, |s| s.cpu_s) / horizon
            ),
        ],
    }
}

// ------------------------------------------------------------- sharded

/// One `run_sharded` call on the workload's field, timed.
struct ShardedRep {
    run_s: f64,
    digest: u64,
    result: ShardedRun,
}

fn sharded_rep(spec: &SimSpec, seed: u64, shards: usize, tr: &mut Tracer) -> ShardedRep {
    let mut off = Tracer::new(false, spec.name, Instant::now(), 0);
    let inputs = build_inputs(spec, seed, &mut off);
    let s = tr.open("core.shard.run_sharded");
    let t0 = Instant::now();
    let result = run_sharded(
        &inputs.program,
        &inputs.scenario.deployment,
        &inputs.scenario.environment,
        &inputs.config,
        seed,
        shards,
        Timestamp::from_secs(spec.horizon_s),
        &[],
        MediumMode::Partitioned,
    );
    let run_s = t0.elapsed().as_secs_f64();
    tr.attr("shards", shards as f64);
    tr.attr("events", result.events_processed as f64);
    tr.attr("merged_intents", result.intents.merged as f64);
    tr.close(s);
    let record = result.record.to_json();
    ShardedRep {
        run_s,
        digest: digest(&[record.as_bytes(), result.telemetry_jsonl.as_bytes()]),
        result,
    }
}

/// Reads one counter back out of merged telemetry JSON lines.
fn jsonl_counter(jsonl: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\",\"value\":");
    jsonl
        .find(&needle)
        .map(|at| &jsonl[at + needle.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Drives the field through `run_sharded` at [`SHARDS`] shards and at 1,
/// and fills `core.shard.*`. Returns `(attempted, failed)`: the sharded
/// golden family holds when both shard counts produce one digest, at least
/// one label and no accepted corrupt frame.
fn sharded_layer(
    spec: &SimSpec,
    seed: u64,
    monolithic_run_s: f64,
    config: &NetworkConfig,
    tr: &mut Tracer,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let span = tr.open("core.shard");
    let many = sharded_rep(spec, seed, SHARDS, tr);
    let one = sharded_rep(spec, seed, 1, tr);
    tr.close(span);
    let sound = many.result.record.labels_created > 0
        && jsonl_counter(&many.result.telemetry_jsonl, "net.corrupt_accepted") == 0;
    let agree = one.digest == many.digest;
    notes.push(format!(
        "run_sharded: {SHARDS} shards {:.3} s (digest {:016x}), 1 shard {:.3} s, monolithic {:.3} s{}",
        many.run_s,
        many.digest,
        one.run_s,
        monolithic_run_s,
        if agree { "" } else { " -- 1-SHARD DIGEST DIFFERS" }
    ));

    let intents = &many.result.intents;
    // One barrier per epoch strictly inside the horizon, as `run_sharded`
    // steps them.
    let epoch_us = config.radio.epoch_latency().as_micros();
    let barriers = (spec.horizon_s * 1_000_000 - 1) / epoch_us;
    out.set("core.shard.barriers", barriers as f64);
    out.set("core.shard.merged_intents", intents.merged as f64);
    out.set("core.shard.resolved", intents.resolved as f64);
    out.set("core.shard.routed", intents.routed as f64);
    out.set(
        "core.shard.replay_fraction",
        intents.routed as f64 / (SHARDS as u64 * intents.resolved).max(1) as f64,
    );
    out.set("core.shard.batch_allocs", intents.batch_allocs as f64);
    out.set("core.shard.tail_dropped", intents.tail_dropped as f64);
    out.set("core.shard.events", many.result.events_processed as f64);
    out.set(
        "core.shard.labels_created",
        many.result.record.labels_created as f64,
    );
    out.set("core.shard.handovers", many.result.record.handovers as f64);
    out.set("core.shard.sim_rate_x", spec.horizon_s as f64 / many.run_s);
    out.set(
        "core.shard.us_per_barrier",
        many.run_s * 1e6 / barriers.max(1) as f64,
    );
    out.set("core.shard.overhead_x", many.run_s / monolithic_run_s);
    (2, u64::from(!sound) + u64::from(!agree))
}

// -------------------------------------------------------------- traced

/// The cost model: each share is a count times a probe's unit cost, over
/// the traced rep's wall time. What is left is protocol-handler work that
/// cannot be timed from outside.
fn attribute(spec: &SimSpec, config: &NetworkConfig, run_s: f64, rx_pairs: u64, out: &mut Metrics) {
    let wall_ns = run_s * 1e9;
    let events = out.get("sim.engine.events");
    let tx = out.get("net.medium.tx");
    let traces = out.get("telemetry.trace_len") + out.get("telemetry.trace_dropped");
    let sense_ticks = f64::from(spec.nodes) * spec.horizon_s as f64
        / config.middleware.sense_period.as_secs_f64();
    let sample_ns = if spec.targets <= 4 {
        out.get("world.sensing.sample_ns.t4")
    } else {
        out.get("world.sensing.sample_ns.t12")
    };
    let crc_ns_per_byte = 1e3 / out.get("core.wire.crc_mb_per_s");
    let sim = events * out.get("sim.engine.dispatch_ns");
    let world = sense_ticks * sample_ns;
    let net = tx * (out.get("net.medium.transmit_ns") + out.get("net.medium.deliveries_ns"));
    // One encode and one shared decode per transmission; the CRC is
    // verified once per receiver that hears the frame.
    let wire = tx * (out.get("core.wire.encode_ns") + out.get("core.wire.decode_ns"))
        + rx_pairs as f64 * out.get("core.wire.bytes_per_frame") * crc_ns_per_byte;
    let telemetry =
        events * out.get("telemetry.counter_incr_ns") + traces * out.get("telemetry.trace_ns");
    let shares = [
        ("attr.sim_share", sim),
        ("attr.world_share", world),
        ("attr.net_share", net),
        ("attr.wire_share", wire),
        ("attr.telemetry_share", telemetry),
    ];
    let mut rest = 1.0;
    for (name, ns) in shares {
        out.set(name, ns / wall_ns);
        rest -= ns / wall_ns;
    }
    out.set("attr.unattributed_share", rest);
}

/// The traced run: an untraced reference rep, one traced rep, the sharded
/// kernel on the same field (`traffic_dense`), the layer probes on the
/// workload's own inputs, and the cost model.
pub fn run_traced(
    spec: &SimSpec,
    seed: u64,
    sizes: &Sizes,
    tracers: &mut Vec<Tracer>,
) -> RunOutput {
    let origin = Instant::now();
    let mut off = Tracer::new(false, spec.name, origin, 0);
    let (reference_sound, reference_digest, reference_run_s) = {
        let reference = rep(spec, seed, &mut off);
        (reference.sound(), reference.digest, reference.run_s)
    };
    let mut tr = Tracer::new(true, spec.name, origin, 0);
    tr.set_rep(1);
    let traced = rep(spec, seed, &mut tr);
    let mut attempted = 2u64;
    let mut failed = u64::from(!reference_sound)
        + u64::from(!traced.sound() || traced.digest != reference_digest);
    let mut notes = vec![format!(
        "{}: untraced rep {reference_run_s:.3} s, traced rep {:.3} s, digest {reference_digest:016x}",
        spec.name, traced.run_s
    )];

    let mut out = Metrics::per_layer();
    out.set(
        "trace.overhead_pct",
        (traced.run_s / reference_run_s - 1.0) * 100.0,
    );
    out.set("core.report.jsonl_ms", traced.report_ms);
    out.set("core.report.jsonl_bytes", traced.report_bytes as f64);
    out.set("proc.cpu_share", traced.cpu_s / traced.run_s);
    out.set("proc.cpu_s_per_op", traced.cpu_s / spec.horizon_s as f64);
    out.set("proc.peak_rss_mb", peak_rss_mb());

    let world = traced.engine.world();
    probes::world_layers(
        world,
        traced.run_s,
        &probes::figure_2_program(),
        seed,
        sizes,
        &mut tr,
        &mut out,
    );
    if spec.sharded_layer {
        let (a, f) = sharded_layer(
            spec,
            seed,
            reference_run_s,
            world.config(),
            &mut tr,
            &mut out,
            &mut notes,
        );
        attempted += a;
        failed += f;
    }
    let rx_pairs = world.net_stats().sum(|k| k.rx);
    attribute(spec, world.config(), traced.run_s, rx_pairs, &mut out);
    out.set("trace.spans", tr.len() as f64);
    tracers.push(tr);

    RunOutput {
        attempted,
        failed,
        invalid: None,
        metrics: out,
        notes,
    }
}
