//! `scale` — the 10k-node scaling trajectory (`BENCH_scale.json`).
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin scale
//! cargo run --release -p envirotrack-bench --bin scale -- --nodes 1000,2000 --out /tmp/s.json
//! cargo run --release -p envirotrack-bench --bin scale -- --smoke --out /tmp/smoke.json
//! ```
//!
//! Three sections land in the JSON:
//!
//! 1. `results` — the Figure-2 tracking program on 1k/2k/5k/10k/100k-node
//!    [`ScaleScenario`] fields for a fixed virtual horizon: wall time,
//!    kernel events, events per wall-second, bytes on air, the world
//!    build's allocations and the heap bytes it left live, and the same for
//!    the scenario built before it (counted by `testkit::alloc::Counting`,
//!    this binary's global allocator), then
//!    every count of the run's work snapshot (`ScalePoint::work`) under
//!    its own name: the event list's (lane and heap pops, one-shot events
//!    scheduled inline and boxed), the sensing driver's (ticks fired and
//!    admitted, strides between hot records, idle samples answered
//!    "ambient" or walked, answered samples settled by the ambient verdict,
//!    parkings and settled ticks), the reach's (windows listed, target
//!    sweeps and cells listed), the group timers'
//!    (firings that were live, stale, or retried past a busy CPU, in sum
//!    and per timer key), how many nodes hold protocol-layer state at the
//!    horizon (`cold_engaged`) and had their neighbours listed
//!    (`neighbor_lists`), the trace ring's (records appended and dropped,
//!    its slots' heap bytes), the heap bytes live at the horizon
//!    (`heap_live`) and the same by layer (`heap_<layer>`).
//! 2. `sweep` — a homogeneous scale-cell set run at 1/2/4/8 workers with
//!    byte-identical-merge cross-checks, as in the `sweep` bin.
//! 3. `shards` — the smallest field, then the 10k- and 100k-node fields,
//!    advanced by the lock-step sharded kernel (`envirotrack_core::shard`)
//!    at each `--shards` count, with each field's merged output asserted
//!    byte-identical across counts. Each row reports wall time and the
//!    interest-routing work: `merged_intents` (the intents exchanged at
//!    the barriers) and `routed_intents` (the shard deliveries they made,
//!    equal to the resolved intents at 1 shard). On a 1-CPU host the
//!    wall-clock columns are advisory — the shards only pipeline, never
//!    truly overlap.
//!
//! `--smoke` shrinks everything (1k and 2k nodes, 2 s horizon, 2-cell
//! sweep, sharded rows on the 1k field only) for the CI stage in
//! `scripts/verify.sh`, which checks that both fields took the same number
//! of build allocations, that fewer than one node in twenty had its
//! neighbours listed, and that each trace ring holds at most 48 bytes a
//! record.
//!
//! `--crosscheck PATH` switches to a single-run dump mode: one scale
//! point's telemetry JSONL + run record is written to PATH and nothing
//! else runs — the file to `cmp` between two commits when a change must
//! not move the monolithic run. With `--shards N`, the crosscheck dump
//! runs the sharded kernel at N shards instead — verify.sh diffs N=1
//! against N=2 and N=4 the same way (sharded frames carry the uniform
//! epoch latency, so these dumps are byte-compared across shard counts
//! only; `tests/shard_determinism.rs` relates them to the monolithic dump).
//!
//! [`ScaleScenario`]: envirotrack_world::scenario::ScaleScenario

use std::num::ParseIntError;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use envirotrack_bench::experiments::scale::{
    crosscheck_dump, run_scale, run_scale_sharded, ScalePoint, ScaleRun,
};
use envirotrack_bench::sweep::{host_cpus, scale_cells, scale_workers};
use envirotrack_bench::Flags;
use envirotrack_core::report::json::JsonObject;
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
    /// Node counts the `shards` section runs after the smallest field.
    shard_nodes: Vec<u32>,
    seed: u64,
    crosscheck: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        nodes: vec![1_000, 2_000, 5_000, 10_000, 100_000],
        horizon_ms: 10_000,
        sweep_cells: 8,
        sweep_nodes: 2_000,
        shards: None,
        shard_nodes: vec![10_000, 100_000],
        seed: 1,
        crosscheck: None,
        out: PathBuf::from("BENCH_scale.json"),
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--nodes" => args.nodes = counts(flags, &flag)?,
            "--horizon-ms" => args.horizon_ms = flags.value(&flag)?,
            "--seed" => args.seed = flags.value(&flag)?,
            "--out" => args.out = flags.value(&flag)?,
            "--crosscheck" => args.crosscheck = Some(flags.value(&flag)?),
            "--shards" => args.shards = Some(counts(flags, &flag)?),
            "--smoke" => {
                args.nodes = vec![1_000, 2_000];
                args.horizon_ms = 2_000;
                args.sweep_cells = 2;
                args.sweep_nodes = 200;
                args.shard_nodes = Vec::new();
            }
            other => return Flags::unknown(other),
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

/// Prints the trajectory as an aligned table.
fn print(points: &[ScalePoint]) {
    println!(
        "BENCH scale — {} targets, {:.1} comm radius, grid medium",
        ScaleRun::default().targets,
        ScaleRun::default().comm_radius
    );
    println!(
        "  {:>7}  {:>9}  {:>9}  {:>10}  {:>12}  {:>6}  {:>9}  {:>12}",
        "nodes", "build s", "run s", "events", "events/s", "labels", "handovers", "bytes on air"
    );
    for p in points {
        println!(
            "  {:>7}  {:>9.3}  {:>9.3}  {:>10}  {:>12.0}  {:>6}  {:>9}  {:>12}",
            p.nodes,
            p.build_wall_s,
            p.run_wall_s,
            p.events,
            p.events_per_sec,
            p.labels_created,
            p.handovers,
            p.bytes_on_air
        );
    }
}

/// The comma-separated counts after `flag`.
fn counts<T: FromStr<Err = ParseIntError>>(
    flags: &mut Flags,
    flag: &str,
) -> Result<Vec<T>, String> {
    let list: String = flags.value(flag)?;
    let count = |v: &str| v.parse().map_err(|e| format!("{flag}: {e}"));
    list.split(',').map(count).collect()
}

fn main() -> ExitCode {
    let args = Flags::read("scale", parse_args);

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
            let p = run_scale_sharded(&cfg, shards[0]);
            eprintln!(
                "scale: sharded crosscheck dump ({} shards, {} nodes, {} merged events) → {}",
                p.shards,
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
            "scale: {nodes} nodes → build {:.3}s ({} allocations), bootstrap {:.4}s, run {:.3}s, {} events ({:.0}/s), {} bytes on air",
            p.build_wall_s, p.build_allocs, p.bootstrap_wall_s, p.run_wall_s,
            p.events, p.events_per_sec, p.bytes_on_air
        );
        let row = JsonObject::new()
            .field_u64("nodes", u64::from(p.nodes))
            .field_f64("build_wall_s", p.build_wall_s)
            .field_u64("build_allocs", p.build_allocs)
            .field_u64("build_heap_bytes", p.build_heap_bytes)
            .field_u64("scenario_allocs", p.scenario_allocs)
            .field_u64("scenario_heap_bytes", p.scenario_heap_bytes)
            .field_f64("bootstrap_wall_s", p.bootstrap_wall_s)
            .field_f64("run_wall_s", p.run_wall_s)
            .field_u64("events", p.events)
            .field_f64("events_per_sec", p.events_per_sec)
            .field_u64("labels_created", p.labels_created)
            .field_u64("handovers", p.handovers)
            .field_u64("bytes_on_air", p.bytes_on_air)
            .field_f64("sim_horizon_s", p.sim_horizon_s);
        let row = p
            .work
            .iter()
            .fold(row, |row, (name, count)| row.field_u64(name, count));
        rows.push(row.finish());
        points.push(p);
    }

    print(&points);

    // Section 2: worker scaling over a homogeneous scale-cell set, with
    // the sweep engine's byte-identical-merge guarantee cross-checked.
    let cells = scale_cells(args.sweep_cells, args.sweep_nodes, args.seed);
    let sweep_rows: Vec<String> = scale_workers(&cells, "scale sweep")
        .iter()
        .map(|(report, speedup)| {
            JsonObject::new()
                .field_u64("workers", report.workers as u64)
                .field_f64("run_wall_s", report.run_wall.as_secs_f64())
                .field_f64("runs_per_sec", report.runs_per_sec())
                .field_f64("speedup_vs_1", *speedup)
                .finish()
        })
        .collect();

    // Section 3: the lock-step sharded kernel on the smallest field and
    // the larger shard fields, with each field's merged output
    // byte-compared across shard counts. On a 1-CPU host the wall time
    // stays flat (the shards only pipeline, never truly overlap) — the
    // determinism cross-check and the routing work are the load-bearing
    // part.
    let shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, 4]);
    let smallest = args.nodes.iter().copied().min().unwrap_or(1_000);
    let mut shard_rows = Vec::new();
    for nodes in std::iter::once(smallest).chain(args.shard_nodes.iter().copied()) {
        let cfg = ScaleRun {
            nodes,
            horizon: SimDuration::from_millis(args.horizon_ms),
            seed: args.seed,
            ..ScaleRun::default()
        };
        let mut first = None;
        for &shards in &shard_counts {
            let p = run_scale_sharded(&cfg, shards);
            let first = first.get_or_insert_with(|| p.clone());
            assert_eq!(
                first.dump, p.dump,
                "merged output changed with shard count at {nodes} nodes — determinism bug"
            );
            let speedup = if p.run_wall_s > 0.0 {
                first.run_wall_s / p.run_wall_s
            } else {
                0.0
            };
            eprintln!(
                "scale shards: {shards} shards × {nodes} nodes → {:.2}s wall, {} events ({:.0}/s, {speedup:.2}x vs first), {} routed of {} merged intents",
                p.run_wall_s, p.events, p.events_per_sec, p.routed_intents, p.merged_intents
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
                    .field_u64("merged_intents", p.merged_intents)
                    .field_u64("routed_intents", p.routed_intents)
                    .field_bool("byte_identical", true)
                    .finish(),
            );
        }
    }

    let head = JsonObject::new()
        .field_str("bench", "scale")
        .field_u64("host_cpus", host_cpus() as u64)
        .field_u64("seed", args.seed)
        .field_f64("sim_horizon_s", args.horizon_ms as f64 / 1e3)
        .field_u64("sweep_cells", cells.len() as u64)
        .field_u64("sweep_cell_nodes", u64::from(args.sweep_nodes))
        .field_bool("merged_outputs_identical", true)
        .finish();
    let json = format!(
        "{},\"results\":[{}],\"sweep\":[{}],\"shards\":[{}]}}\n",
        &head[..head.len() - 1],
        rows.join(","),
        sweep_rows.join(","),
        shard_rows.join(",")
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("scale: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("scale: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
