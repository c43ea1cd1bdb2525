//! `scale` — the 10k-node scaling trajectory (`BENCH_scale.json`).
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin scale
//! cargo run --release -p envirotrack-bench --bin scale -- --nodes 1000,2000 --out /tmp/s.json
//! cargo run --release -p envirotrack-bench --bin scale -- --smoke --out /tmp/smoke.json
//! ```
//!
//! Four sections land in the JSON:
//!
//! 1. `results` — the Figure-2 tracking program on 1k/2k/5k/10k/100k-node
//!    [`ScaleScenario`] fields for a fixed virtual horizon: wall time,
//!    kernel events, events per wall-second, bytes on air, the world
//!    build's allocations and the heap bytes it left live (counted by
//!    `testkit::alloc::Counting`, this binary's global allocator), the sensing driver's work counters
//!    (ticks fired and admitted, strides between hot records, idle samples
//!    the coverage answered or walked, coverage rebuilds, answered samples
//!    settled by the ambient verdict), the event list's (lane pops, heap
//!    pops, one-shot events scheduled inline and boxed), the group
//!    timers' (firings that were live, stale, or retried past a busy CPU),
//!    how many nodes hold protocol-layer state at the horizon
//!    (`cold_engaged`: the nodes that used a layer) and the trace ring's
//!    (records appended and dropped, and its slots' heap bytes).
//! 2. `sweep` — a homogeneous scale-cell set run at 1/2/4/8 workers with
//!    byte-identical-merge cross-checks, as in the `sweep` bin.
//! 3. `shards` — the smallest field advanced by the lock-step sharded
//!    kernel (`envirotrack_core::shard`) at each `--shards` count, with
//!    the merged output asserted byte-identical across counts.
//! 4. `medium` — the replicated-vs-partitioned medium A/B: each row runs
//!    one (nodes, shards) point under both routing modes, asserts the
//!    merged outputs byte-identical, and reports the replay work
//!    (`replayed_intents` vs `shards × merged_intents`) plus wall time.
//!    On a 1-CPU host the work reduction is the headline metric and the
//!    wall-clock deltas are advisory — the shards only pipeline, never
//!    truly overlap.
//!
//! `--smoke` shrinks everything (1k and 2k nodes, 2 s horizon, 2-cell
//! sweep, 1k-node medium A/B) for the CI stage in
//! `scripts/verify.sh`, which checks that both fields took the same number
//! of build allocations, and that each trace ring holds at most 48 bytes
//! a record.
//!
//! `--medium replicated|partitioned` selects the sharded routing mode for
//! the `shards` section and the sharded crosscheck dump, and
//! `--crosscheck PATH` switches to a single-run dump mode: one scale
//! point's telemetry JSONL + run record is written to PATH and nothing
//! else runs — the file to `cmp` between two commits when a change must
//! not move the monolithic run. With `--shards N`, the crosscheck dump
//! runs the sharded kernel at N shards instead — verify.sh diffs N=1
//! against N=4, and `--medium replicated` against `--medium partitioned`,
//! the same way (sharded frames carry the uniform epoch latency, so these
//! dumps are byte-compared across shard counts and medium modes only;
//! `tests/shard_determinism.rs` relates them to the monolithic dump).
//!
//! [`ScaleScenario`]: envirotrack_world::scenario::ScaleScenario

use std::path::PathBuf;
use std::process::ExitCode;

use envirotrack_bench::experiments::scale::{
    crosscheck_dump, print, run_scale, run_scale_sharded, ScaleRun,
};
use envirotrack_bench::sweep::cells::scale_cells;
use envirotrack_bench::sweep::run_sweep;
use envirotrack_core::report::json::JsonObject;
use envirotrack_core::shard::MediumMode;
use envirotrack_sim::time::SimDuration;
use testkit::alloc::{heap, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Args {
    nodes: Vec<u32>,
    horizon_ms: u64,
    sweep_cells: usize,
    sweep_nodes: u32,
    /// Shard counts for the `shards` section; set explicitly, it also
    /// switches `--crosscheck` to the sharded dump (first count).
    shards: Option<Vec<usize>>,
    /// Node counts for the `medium` A/B section.
    medium_nodes: Vec<u32>,
    /// Routing mode for the `shards` section and the sharded crosscheck.
    medium: MediumMode,
    seed: u64,
    crosscheck: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        nodes: vec![1_000, 2_000, 5_000, 10_000, 100_000],
        horizon_ms: 10_000,
        sweep_cells: 8,
        sweep_nodes: 2_000,
        shards: None,
        medium_nodes: vec![10_000, 100_000],
        medium: MediumMode::Partitioned,
        seed: 1,
        crosscheck: None,
        out: PathBuf::from("BENCH_scale.json"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let value = |i: usize| -> Result<&str, String> {
            raw.get(i + 1)
                .map(String::as_str)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{} requires a value", raw[i]))
        };
        match raw[i].as_str() {
            "--nodes" => {
                args.nodes = value(i)?
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("--nodes: {e}")))
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--horizon-ms" => {
                args.horizon_ms = value(i)?.parse().map_err(|e| format!("--horizon-ms: {e}"))?;
                i += 2;
            }
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = PathBuf::from(value(i)?);
                i += 2;
            }
            "--crosscheck" => {
                args.crosscheck = Some(PathBuf::from(value(i)?));
                i += 2;
            }
            "--shards" => {
                args.shards = Some(
                    value(i)?
                        .split(',')
                        .map(|v| v.parse().map_err(|e| format!("--shards: {e}")))
                        .collect::<Result<_, _>>()?,
                );
                i += 2;
            }
            "--medium" => {
                let v = value(i)?;
                args.medium = MediumMode::parse(v)
                    .ok_or_else(|| format!("--medium: unknown mode {v} (replicated|partitioned)"))?;
                i += 2;
            }
            "--smoke" => {
                args.nodes = vec![1_000, 2_000];
                args.horizon_ms = 2_000;
                args.sweep_cells = 2;
                args.sweep_nodes = 200;
                args.medium_nodes = vec![1_000];
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.nodes.is_empty() {
        return Err("--nodes needs at least one count".into());
    }
    if let Some(shards) = &args.shards {
        if shards.is_empty() || shards.contains(&0) {
            return Err("--shards needs at least one nonzero count".into());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scale: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Cross-check dump mode: one scale point's full observable output,
    // for a byte-for-byte diff across commits — or, with `--shards N`,
    // across shard counts of the lock-step sharded kernel.
    if let Some(path) = &args.crosscheck {
        let cfg = ScaleRun {
            nodes: args.nodes[0],
            horizon: SimDuration::from_millis(args.horizon_ms),
            seed: args.seed,
            ..ScaleRun::default()
        };
        let dump = if let Some(shards) = &args.shards {
            let p = run_scale_sharded(&cfg, shards[0], args.medium);
            eprintln!(
                "scale: sharded crosscheck dump ({} shards, {} medium, {} nodes, {} merged events) → {}",
                p.shards,
                p.medium,
                args.nodes[0],
                p.events,
                path.display()
            );
            p.dump
        } else {
            let (telemetry, record, bytes_on_air) = crosscheck_dump(&cfg);
            eprintln!(
                "scale: crosscheck dump ({} nodes, {bytes_on_air} bytes on air) → {}",
                args.nodes[0],
                path.display()
            );
            format!("{record}\n{telemetry}")
        };
        if let Err(e) = std::fs::write(path, dump) {
            eprintln!("scale: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Section 1: the node-count trajectory.
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &nodes in &args.nodes {
        let cfg = ScaleRun {
            nodes,
            horizon: SimDuration::from_millis(args.horizon_ms),
            seed: args.seed,
            ..ScaleRun::default()
        };
        let p = run_scale(&cfg, heap);
        eprintln!(
            "scale: {nodes} nodes → build {:.3}s ({} allocations), run {:.3}s, {} events ({:.0}/s), {} bytes on air",
            p.build_wall_s, p.build_allocs, p.run_wall_s, p.events, p.events_per_sec, p.bytes_on_air
        );
        let total = |counts: &[u64]| counts.iter().sum();
        rows.push(
            JsonObject::new()
                .field_u64("nodes", u64::from(p.nodes))
                .field_f64("build_wall_s", p.build_wall_s)
                .field_u64("build_allocs", p.build_allocs)
                .field_u64("build_heap_bytes", p.build_heap_bytes)
                .field_f64("run_wall_s", p.run_wall_s)
                .field_u64("events", p.events)
                .field_f64("events_per_sec", p.events_per_sec)
                .field_u64("labels_created", p.labels_created)
                .field_u64("handovers", p.handovers)
                .field_u64("bytes_on_air", p.bytes_on_air)
                .field_f64("sim_horizon_s", p.sim_horizon_s)
                .field_u64("sense_ticks", p.sensing.ticks)
                .field_u64("sense_ticks_admitted", p.sensing.admitted)
                .field_u64("sense_strides", p.sensing.strides)
                .field_u64("samples_covered", p.sensing.coverage.answered)
                .field_u64("samples_walked", p.sensing.coverage.walked)
                .field_u64("coverage_rebuilds", p.sensing.coverage.rebuilds)
                .field_u64("sense_verdicts", p.sensing.verdicts)
                .field_u64("lane_pops", p.event_list.lane_pops)
                .field_u64("heap_pops", p.event_list.heap_pops)
                .field_u64("inline_events", p.event_list.inline_scheduled)
                .field_u64("boxed_events", p.event_list.boxed_scheduled)
                .field_u64("timer_live", total(&p.timers.live))
                .field_u64("timer_stale", total(&p.timers.stale))
                .field_u64("timer_retries", total(&p.timers.retried))
                .field_u64("cold_engaged", p.cold_engaged as u64)
                .field_u64("trace_records", p.trace.records)
                .field_u64("trace_dropped", p.trace.dropped)
                .field_u64("trace_ring_bytes", p.trace.ring_bytes)
                .finish(),
        );
        points.push(p);
    }

    print(&points);

    // Section 2: worker scaling over a homogeneous scale-cell set, with
    // the sweep engine's byte-identical-merge guarantee cross-checked.
    let cells = scale_cells(args.sweep_cells, args.sweep_nodes, args.seed);
    let mut baseline: Option<String> = None;
    let mut baseline_rps = 0.0;
    let mut sweep_rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let report = run_sweep(&cells, workers);
        match &baseline {
            None => {
                baseline = Some(report.merged_jsonl.clone());
                baseline_rps = report.runs_per_sec();
            }
            Some(b) => assert_eq!(
                *b, report.merged_jsonl,
                "merged output changed with worker count — determinism bug"
            ),
        }
        let speedup = if baseline_rps > 0.0 {
            report.runs_per_sec() / baseline_rps
        } else {
            0.0
        };
        eprintln!(
            "scale sweep: {workers} workers → {:.2}s wall, {:.1} runs/s ({speedup:.2}x vs 1)",
            report.run_wall.as_secs_f64(),
            report.runs_per_sec(),
        );
        sweep_rows.push(
            JsonObject::new()
                .field_u64("workers", workers as u64)
                .field_f64("run_wall_s", report.run_wall.as_secs_f64())
                .field_f64("runs_per_sec", report.runs_per_sec())
                .field_f64("speedup_vs_1", speedup)
                .finish(),
        );
    }

    // Section 3: the lock-step sharded kernel on the smallest field, with
    // the merged output byte-compared across shard counts. On a 1-CPU host
    // the wall time stays flat (the shards only pipeline, never truly
    // overlap) — the determinism cross-check is the load-bearing part.
    let shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, 4]);
    let shard_cfg = ScaleRun {
        nodes: args.nodes.iter().copied().min().unwrap_or(1_000),
        horizon: SimDuration::from_millis(args.horizon_ms),
        seed: args.seed,
        ..ScaleRun::default()
    };
    let mut shard_baseline: Option<String> = None;
    let mut shard_base_wall = 0.0;
    let mut shard_rows = Vec::new();
    for &shards in &shard_counts {
        let p = run_scale_sharded(&shard_cfg, shards, args.medium);
        match &shard_baseline {
            None => {
                shard_baseline = Some(p.dump.clone());
                shard_base_wall = p.run_wall_s;
            }
            Some(b) => assert_eq!(
                *b, p.dump,
                "merged output changed with shard count — determinism bug"
            ),
        }
        let speedup = if p.run_wall_s > 0.0 {
            shard_base_wall / p.run_wall_s
        } else {
            0.0
        };
        eprintln!(
            "scale shards: {shards} shards × {} nodes → {:.2}s wall, {} events ({:.0}/s, {speedup:.2}x vs first)",
            p.nodes, p.run_wall_s, p.events, p.events_per_sec
        );
        shard_rows.push(
            JsonObject::new()
                .field_u64("shards", shards as u64)
                .field_u64("nodes", u64::from(p.nodes))
                .field_f64("run_wall_s", p.run_wall_s)
                .field_u64("events", p.events)
                .field_f64("events_per_sec", p.events_per_sec)
                .field_f64("speedup_vs_first", speedup)
                .field_u64("labels_created", p.labels_created)
                .field_u64("handovers", p.handovers)
                .field_bool("byte_identical", true)
                .finish(),
        );
    }

    // Section 4: the medium A/B — each (nodes, shards) point under both
    // routing modes, byte-identity asserted, replay work compared. The
    // shards-column speedup on a 1-CPU host is advisory; the load-bearing
    // number is replayed_intents versus the full N-fold replay.
    let mut medium_rows = Vec::new();
    for &nodes in &args.medium_nodes {
        let cfg = ScaleRun {
            nodes,
            horizon: SimDuration::from_millis(args.horizon_ms),
            seed: args.seed,
            ..ScaleRun::default()
        };
        let mut node_baseline: Option<String> = None;
        for shards in [1usize, 2, 4] {
            for mode in [MediumMode::Replicated, MediumMode::Partitioned] {
                let p = run_scale_sharded(&cfg, shards, mode);
                match &node_baseline {
                    None => node_baseline = Some(p.dump.clone()),
                    Some(b) => assert_eq!(
                        *b, p.dump,
                        "medium A/B diverged at {nodes} nodes, {shards} shards, {mode}"
                    ),
                }
                let full_replay = shards as u64 * p.merged_intents;
                eprintln!(
                    "scale medium: {nodes} nodes × {shards} shards, {mode} → {:.2}s wall, {} replayed of {} full-replay intents",
                    p.run_wall_s, p.replayed_intents, full_replay
                );
                medium_rows.push(
                    JsonObject::new()
                        .field_u64("nodes", u64::from(p.nodes))
                        .field_u64("shards", shards as u64)
                        .field_str("medium", mode.as_str())
                        .field_f64("run_wall_s", p.run_wall_s)
                        .field_u64("merged_intents", p.merged_intents)
                        .field_u64("replayed_intents", p.replayed_intents)
                        .field_u64("full_replay_intents", full_replay)
                        .field_f64(
                            "replay_fraction",
                            if full_replay > 0 {
                                p.replayed_intents as f64 / full_replay as f64
                            } else {
                                0.0
                            },
                        )
                        .field_bool("byte_identical", true)
                        .finish(),
                );
            }
        }
    }

    let head = JsonObject::new()
        .field_str("bench", "scale")
        .field_u64("host_cpus", host_cpus as u64)
        .field_u64("seed", args.seed)
        .field_f64("sim_horizon_s", args.horizon_ms as f64 / 1e3)
        .field_u64("sweep_cells", cells.len() as u64)
        .field_u64("sweep_cell_nodes", u64::from(args.sweep_nodes))
        .field_str("shard_medium", args.medium.as_str())
        .field_str(
            "medium_wall_clock_note",
            "replay-work reduction is the headline metric; wall-clock deltas depend on host_cpus and are advisory",
        )
        .field_bool("merged_outputs_identical", true)
        .finish();
    let json = format!(
        "{},\"results\":[{}],\"sweep\":[{}],\"shards\":[{}],\"medium\":[{}]}}\n",
        &head[..head.len() - 1],
        rows.join(","),
        sweep_rows.join(","),
        shard_rows.join(","),
        medium_rows.join(",")
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("scale: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("scale: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
