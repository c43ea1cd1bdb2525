//! `sweep` — run a scenario sweep across worker threads.
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin sweep -- --workers 4 --cells 16
//! cargo run --release -p envirotrack-bench --bin sweep -- --cells 8 --out merged.jsonl
//! cargo run --release -p envirotrack-bench --bin sweep -- --bench --cells 16 --bench-out BENCH_sweep.json
//! ```
//!
//! Without `--bench`, runs the sweep once at `--workers` and writes the
//! merged JSON-lines (sorted by cell id; byte-identical at any worker
//! count) to stdout or `--out`. With `--bench`, runs the same cell set at
//! 1, 2, 4 and 8 workers, cross-checks that every merge is byte-identical,
//! and writes wall-clock / runs-per-second / per-stage numbers as
//! `BENCH_sweep.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use envirotrack_bench::sweep::{default_cells, host_cpus, run_sweep, scale_workers};
use envirotrack_bench::Flags;
use envirotrack_core::report::json::JsonObject;

struct Args {
    workers: usize,
    cells: usize,
    seed: u64,
    out: Option<PathBuf>,
    bench: bool,
    bench_out: PathBuf,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        workers: 1,
        cells: 8,
        seed: 1,
        out: None,
        bench: false,
        bench_out: PathBuf::from("BENCH_sweep.json"),
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--workers" => args.workers = flags.value(&flag)?,
            "--cells" => args.cells = flags.value(&flag)?,
            "--seed" => args.seed = flags.value(&flag)?,
            "--out" => args.out = Some(flags.value(&flag)?),
            "--bench-out" => args.bench_out = flags.value(&flag)?,
            "--bench" => args.bench = true,
            other => return Flags::unknown(other),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.cells == 0 {
        return Err("--cells must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = Flags::read("sweep", parse_args);
    if args.bench {
        return bench(&args);
    }
    let report = run_sweep(&default_cells(args.cells, args.seed), args.workers);
    eprintln!(
        "sweep: {} cells, {} workers, run {:.3}s ({:.1} runs/s), merge {:.6}s",
        report.cells_run,
        args.workers,
        report.run_wall.as_secs_f64(),
        report.runs_per_sec(),
        report.merge_wall.as_secs_f64(),
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report.merged_jsonl) {
                eprintln!("sweep: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{}", report.merged_jsonl),
    }
    ExitCode::SUCCESS
}

/// Runs the cell set at 1, 2, 4 and 8 workers, checks all four merges are
/// byte-identical, and writes the profile JSON.
fn bench(args: &Args) -> ExitCode {
    let scaling = scale_workers(&default_cells(args.cells, args.seed), "sweep bench");
    let rows: Vec<String> = scaling
        .iter()
        .map(|(report, speedup)| {
            JsonObject::new()
                .field_u64("workers", report.workers as u64)
                .field_f64("run_wall_s", report.run_wall.as_secs_f64())
                .field_f64("merge_wall_s", report.merge_wall.as_secs_f64())
                .field_f64("runs_per_sec", report.runs_per_sec())
                .field_f64("speedup_vs_1", *speedup)
                .finish()
        })
        .collect();
    let speedup_8v1 = scaling.last().map_or(0.0, |(_, speedup)| *speedup);
    let head = JsonObject::new()
        .field_str("bench", "sweep")
        .field_u64("host_cpus", host_cpus() as u64)
        .field_u64("cells", args.cells as u64)
        .field_u64("seed", args.seed)
        .field_bool("merged_outputs_identical", true)
        .field_f64("speedup_8_vs_1", speedup_8v1)
        .finish();
    let json = format!(
        "{},\"results\":[{}]}}\n",
        &head[..head.len() - 1],
        rows.join(",")
    );
    if let Err(e) = std::fs::write(&args.bench_out, json) {
        eprintln!("sweep: writing {}: {e}", args.bench_out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("sweep bench: wrote {}", args.bench_out.display());
    ExitCode::SUCCESS
}
