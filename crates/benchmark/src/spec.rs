//! The benchmark's fixed vocabulary: workload names and sizes, and every
//! metric with its unit, direction and (for end-to-end metrics) bound.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`benchmark --emit-json`) and a unit test holds the two together, so a
//! metric cannot be printed under a name the contract does not list.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// What one operation is, for `ops_per_s` and `cpu_s_per_op`.
    pub op: &'static str,
    pub why: &'static str,
}

pub const FIELD_SPARSE: &str = "field_sparse";
pub const TRAFFIC_DENSE: &str = "traffic_dense";
pub const PAPER_SWEEP: &str = "paper_sweep";
pub const SERVE_FANOUT: &str = "serve_fanout";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: FIELD_SPARSE,
        op: "virtual second",
        why: "20k-node field, 4 targets, idle radio: sim queue/dispatch, node CPU admission and world sensing over a large working set; a medium or codec change must show no change here",
    },
    Workload {
        name: TRAFFIC_DENSE,
        op: "virtual second",
        why: "2.5k nodes, 12 wide targets, hot radio: net medium transmit/deliveries, wire codec and CRC, group handlers and telemetry traces dominate; a queue change barely moves it; also prices run_sharded",
    },
    Workload {
        name: PAPER_SWEEP,
        op: "cell",
        why: "thousands of tiny section-6 tracking and chaos cells on 2 workers: dominated by set-up (lang compile, build_engine, grid), chaos monitors and report encoding, not steady-state kernel speed",
    },
    Workload {
        name: SERVE_FANOUT,
        op: "1000 delivered EVENT frames",
        why: "TCP session server fanning 4 worlds out to 2048 subscriptions on 2 loopback connections, open loop: hub tick, session encode, outbox, worker flush, socket and client frame parsing end to end",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const OPS_PER_S: &str = "ops_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_HEAP_MB: &str = "peak_heap_mb";

// Every bound is the contract's widest. On the reference host ten runs of
// one binary spread by 3-18 % on `ops_per_s` even as quiet-host estimates
// (one-to-two-minute slowdowns of the whole VM reach every piece of a
// run), and a bound inside the spread would reject innocent changes.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations per wall second on an undisturbed host; sim: virtual seconds (sim_rate_x) over the summed per-slice minima of the timed reps, sweep: cells (runs_per_s) over the summed per-cell minima, serve: median 1 s count of EVENT frames the client parsed, in thousands",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "workload start to first timed operation, median of many set-ups in one run; sim: scenario build + program compile + build_engine; sweep: compile + cell list + worker pool; serve: Server::start through the last SUBACK",
    },
    EndToEnd {
        name: PEAK_HEAP_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak live heap bytes of the benchmark process, which runs exactly one workload, from a counting global allocator (serve: the smallest per-second peak of the steady window); VmHWM is the per-layer proc.peak_rss_mb",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The benchmark drives the layer's public API in isolation, with
    /// inputs shaped by the workload (deployment, targets, frame mix).
    Probe,
    /// An exact, host-independent number read through public accessors.
    Count,
    /// Computed from counts, probes and the traced rep's wall time.
    Derived,
    /// Timed by the benchmark at the boundary of the running workload.
    Observed,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Probe => "probe",
            Kind::Count => "count",
            Kind::Derived => "derived",
            Kind::Observed => "observed",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The end-to-end metric and workload this number is predicted to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Derived, Observed, Probe};

const OPS_SPARSE: &str =
    "ops_per_s on field_sparse (most of the run), little on traffic_dense, nothing on serve_fanout";
const OPS_MONO: &str = "ops_per_s on field_sparse and traffic_dense";
const OPS_DENSE: &str = "ops_per_s on traffic_dense; predicted no change on field_sparse";
const OPS_DENSE_BOTH: &str = "ops_per_s on traffic_dense and core.shard.sim_rate_x";
const OPS_SHARDED: &str = "core.shard.sim_rate_x only; predicted no change on ops_per_s anywhere";
const SHARD_BOTH: &str = "core.shard.sim_rate_x (run_sharded on the traffic_dense field)";
const SETUP_SWEEP: &str = "setup_s on field_sparse; ops_per_s on paper_sweep";
const OPS_SWEEP: &str = "ops_per_s on paper_sweep";
const OPS_SERVE: &str = "ops_per_s on serve_fanout";
const RTT_SERVE: &str = "serve.ping.rtt_* on serve_fanout";
const CONTEXT: &str = "context: explains the workload's regime, moves nothing by itself";
const INVARIANT: &str = "invariant: must stay 0";
const VALIDITY: &str = "validity of the serve_fanout run, not a target";

pub const PER_LAYER: [Layer; 91] = [
    // sim
    layer("sim.queue.push_pop_ns.d20k", "ns", Lower, Probe, OPS_SPARSE),
    layer("sim.queue.push_pop_ns.d2k5", "ns", Lower, Probe, OPS_DENSE),
    layer("sim.queue.cancel_ns", "ns", Lower, Probe, OPS_MONO),
    layer("sim.engine.dispatch_ns", "ns", Lower, Probe, OPS_SPARSE),
    layer("sim.engine.events", "count", Lower, Count, OPS_MONO),
    layer(
        "sim.engine.events_per_s",
        "1/s",
        Higher,
        Derived,
        OPS_SPARSE,
    ),
    layer("sim.engine.ns_per_event", "ns", Lower, Derived, OPS_SPARSE),
    // world
    layer("world.grid.build_ms", "ms", Lower, Probe, SETUP_SWEEP),
    layer("world.sensing.sample_ns.t4", "ns", Lower, Probe, OPS_MONO),
    layer("world.sensing.sample_ns.t12", "ns", Lower, Probe, OPS_MONO),
    // node
    layer("node.cpu.tasks_admitted", "count", Lower, Count, CONTEXT),
    layer("node.cpu.tasks_dropped", "count", Lower, Count, CONTEXT),
    // net
    layer("net.medium.tx", "count", Lower, Count, CONTEXT),
    layer("net.medium.bytes_on_air", "B", Lower, Count, CONTEXT),
    layer("net.medium.pair_loss_ratio", "ratio", Lower, Count, CONTEXT),
    layer("net.medium.mac_dropped", "count", Lower, Count, CONTEXT),
    layer(
        "net.medium.outcome_buffer_allocs",
        "count",
        Lower,
        Count,
        OPS_DENSE,
    ),
    layer("net.medium.transmit_ns", "ns", Lower, Probe, OPS_DENSE),
    layer("net.medium.deliveries_ns", "ns", Lower, Probe, OPS_DENSE),
    layer(
        "net.medium.deliveries_ns_per_rx",
        "ns",
        Lower,
        Probe,
        OPS_DENSE,
    ),
    layer("net.medium.resolve_ns", "ns", Lower, Probe, OPS_SHARDED),
    layer(
        "net.medium.exec_deliveries_ns",
        "ns",
        Lower,
        Probe,
        OPS_SHARDED,
    ),
    layer("net.routing.next_hop_ns", "ns", Lower, Probe, OPS_DENSE),
    // core.wire
    layer("core.wire.encode_ns", "ns", Lower, Probe, OPS_DENSE_BOTH),
    layer("core.wire.decode_ns", "ns", Lower, Probe, OPS_DENSE_BOTH),
    layer(
        "core.wire.crc_mb_per_s",
        "MB/s",
        Higher,
        Probe,
        OPS_DENSE_BOTH,
    ),
    layer("core.wire.bytes_per_frame", "B", Lower, Derived, CONTEXT),
    layer(
        "core.wire.session.event_encode_ns",
        "ns",
        Lower,
        Probe,
        OPS_SERVE,
    ),
    layer(
        "core.wire.session.event_decode_ns",
        "ns",
        Lower,
        Probe,
        OPS_SERVE,
    ),
    // core.network / core.group
    layer(
        "core.network.build_ms",
        "ms",
        Lower,
        Probe,
        "setup_s on every sim workload; ops_per_s on paper_sweep",
    ),
    layer("core.network.rx_dispatch_ns", "ns", Lower, Probe, OPS_DENSE),
    layer("core.group.hb_tx", "count", Lower, Count, CONTEXT),
    layer("core.group.report_tx", "count", Lower, Count, CONTEXT),
    layer("core.group.labels_created", "count", Lower, Count, CONTEXT),
    layer("core.group.handovers", "count", Lower, Count, CONTEXT),
    // core.shard
    layer("core.shard.barriers", "count", Lower, Count, SHARD_BOTH),
    layer("core.shard.merged_intents", "count", Lower, Count, CONTEXT),
    layer("core.shard.resolved", "count", Lower, Count, CONTEXT),
    layer("core.shard.routed", "count", Lower, Count, SHARD_BOTH),
    layer(
        "core.shard.replay_fraction",
        "ratio",
        Lower,
        Derived,
        SHARD_BOTH,
    ),
    layer("core.shard.batch_allocs", "count", Lower, Count, SHARD_BOTH),
    layer("core.shard.tail_dropped", "count", Lower, Count, CONTEXT),
    layer("core.shard.events", "count", Lower, Count, CONTEXT),
    layer("core.shard.labels_created", "count", Lower, Count, CONTEXT),
    layer("core.shard.handovers", "count", Lower, Count, CONTEXT),
    layer(
        "core.shard.sim_rate_x",
        "1/s",
        Higher,
        Observed,
        "what a run_sharded user sees; too noisy on the reference host to carry a bound",
    ),
    layer(
        "core.shard.us_per_barrier",
        "us",
        Lower,
        Derived,
        SHARD_BOTH,
    ),
    layer("core.shard.overhead_x", "x", Lower, Derived, SHARD_BOTH),
    // core.report, telemetry, lang
    layer("core.report.jsonl_ms", "ms", Lower, Observed, OPS_SWEEP),
    layer("core.report.jsonl_bytes", "B", Lower, Count, OPS_SWEEP),
    layer("telemetry.counter_incr_ns", "ns", Lower, Probe, OPS_MONO),
    layer("telemetry.observe_ns", "ns", Lower, Probe, OPS_DENSE),
    layer("telemetry.trace_ns", "ns", Lower, Probe, OPS_DENSE),
    layer("telemetry.trace_len", "count", Lower, Count, CONTEXT),
    layer("telemetry.trace_dropped", "count", Lower, Count, CONTEXT),
    layer("lang.compile_us", "us", Lower, Probe, OPS_SWEEP),
    // chaos, sweep
    layer("chaos.cell_ms_p50", "ms", Lower, Observed, OPS_SWEEP),
    layer("chaos.fault_events", "count", Lower, Count, CONTEXT),
    layer("chaos.violations", "count", Lower, Count, INVARIANT),
    layer(
        "sweep.tracking_cell_ms_p50",
        "ms",
        Lower,
        Observed,
        OPS_SWEEP,
    ),
    layer("sweep.cell_ms_p95", "ms", Lower, Observed, OPS_SWEEP),
    layer(
        "sweep.worker_busy_share",
        "ratio",
        Higher,
        Observed,
        OPS_SWEEP,
    ),
    // serve
    layer("serve.frame.next_frame_ns", "ns", Lower, Probe, RTT_SERVE),
    layer("serve.outbox.push_pop_ns", "ns", Lower, Probe, OPS_SERVE),
    layer(
        "serve.hub.inproc_events_per_s",
        "1/s",
        Higher,
        Probe,
        OPS_SERVE,
    ),
    layer(
        "serve.hub.suback_burst_p50_us",
        "us",
        Lower,
        Observed,
        "setup_s on serve_fanout",
    ),
    layer(
        "serve.hub.suback_burst_p95_us",
        "us",
        Lower,
        Observed,
        "setup_s on serve_fanout",
    ),
    layer("serve.hub.pace_x", "x", Higher, Observed, OPS_SERVE),
    layer(
        "serve.server.batch_gap_p50_us",
        "us",
        Lower,
        Observed,
        RTT_SERVE,
    ),
    layer(
        "serve.server.batch_gap_p99_us",
        "us",
        Lower,
        Observed,
        RTT_SERVE,
    ),
    layer(
        "serve.server.bytes_per_event",
        "B",
        Lower,
        Observed,
        OPS_SERVE,
    ),
    layer("serve.server.events_sent", "count", Higher, Count, CONTEXT),
    layer(
        "serve.server.events_dropped",
        "count",
        Lower,
        Count,
        INVARIANT,
    ),
    layer(
        "serve.server.slow_consumer_sheds",
        "count",
        Lower,
        Count,
        INVARIANT,
    ),
    layer(
        "serve.server.protocol_errors",
        "count",
        Lower,
        Count,
        INVARIANT,
    ),
    layer("serve.server.panics", "count", Lower, Count, INVARIANT),
    layer(
        "serve.ping.rtt_p50_us",
        "us",
        Lower,
        Observed,
        "request latency a serve_fanout client sees under streaming load",
    ),
    layer(
        "serve.ping.rtt_p99_us",
        "us",
        Lower,
        Observed,
        "request latency a serve_fanout client sees under streaming load",
    ),
    // loadgen / proc
    layer("loadgen.busy_share", "ratio", Lower, Observed, VALIDITY),
    layer("loadgen.ping_late_p99_us", "us", Lower, Observed, VALIDITY),
    layer("proc.cpu_share", "ratio", Lower, Observed, CONTEXT),
    layer(
        "proc.cpu_s_per_op",
        "s",
        Lower,
        Observed,
        "CPU seconds per operation of the traced rep or window; follows ops_per_s on the sims and the sweep",
    ),
    layer(
        "proc.peak_rss_mb",
        "MiB",
        Lower,
        Observed,
        "peak_heap_mb on every workload, plus allocator and stack overhead",
    ),
    // attr: count x probe unit cost / traced-rep wall
    layer("attr.sim_share", "ratio", Lower, Derived, OPS_SPARSE),
    layer("attr.world_share", "ratio", Lower, Derived, OPS_MONO),
    layer("attr.net_share", "ratio", Lower, Derived, OPS_DENSE),
    layer("attr.wire_share", "ratio", Lower, Derived, OPS_DENSE_BOTH),
    layer("attr.telemetry_share", "ratio", Lower, Derived, OPS_DENSE),
    layer(
        "attr.unattributed_share",
        "ratio",
        Lower,
        Derived,
        "protocol handlers; not timeable from outside until ROADMAP item 4 opens the seams",
    ),
    // traced run
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        Observed,
        "cost of the benchmark's own spans against the untraced rep",
    ),
    layer("trace.spans", "count", Higher, Count, CONTEXT),
];

/// Wall seconds one run measures for, as `BENCHMARK.json` records it.
pub const RUN_SECONDS: u64 = 20;

/// Workload sizes: the reference sizing and the `--smoke` cut.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub field_nodes: u32,
    pub field_horizon_s: u64,
    pub dense_nodes: u32,
    pub dense_horizon_s: u64,
    pub sweep_cells: usize,
    pub serve_subs_per_conn: u32,
    /// Probe time budget per measured quantity, in milliseconds.
    pub probe_ms: u64,
}

pub const FULL: Sizes = Sizes {
    field_nodes: 20_000,
    field_horizon_s: 10,
    dense_nodes: 2_500,
    dense_horizon_s: 60,
    sweep_cells: 2_048,
    serve_subs_per_conn: 1_024,
    probe_ms: 60,
};

pub const SMOKE: Sizes = Sizes {
    field_nodes: 4_000,
    field_horizon_s: 5,
    dense_nodes: 500,
    dense_horizon_s: 20,
    sweep_cells: 64,
    serve_subs_per_conn: 64,
    probe_ms: 5,
};

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"-p\", \"envirotrack-benchmark\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders the workload and metric tables as Markdown (`--describe`).
pub fn describe() -> String {
    let mut s = String::from("| workload | one operation | why |\n|---|---|---|\n");
    for w in &WORKLOADS {
        s.push_str(&format!("| `{}` | {} | {} |\n", w.name, w.op, w.why));
    }
    s.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    s.push_str("\n| per-layer metric | unit | better | kind | predicted to move |\n|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.kind.as_str(),
            m.moves
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn contract_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(contract_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(contract_name(m.name) && contract_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(contract_name(m.name) && contract_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release -p envirotrack-benchmark -- --emit-json > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
