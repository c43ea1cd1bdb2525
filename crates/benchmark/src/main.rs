//! `benchmark`: the measuring instrument named by `BENCHMARK.json`.
//!
//! Two ways in:
//!
//! * **One workload, one run** — the driver's protocol:
//!   `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!   `--trace 0` measures the end-to-end metrics with tracing off;
//!   `--trace 1` does one traced repetition plus the layer probes and
//!   reports the per-layer metrics. The last line of standard output is
//!   the result object.
//! * **The whole set** — no `--workload`: every workload in a child
//!   process of this binary (so `peak_heap_mb` is per workload), untraced
//!   then traced, with `--repeat N` as the A/A harness. See `suite`.
//!
//! See `crates/benchmark/README.md` for the metric tables.

mod heap;
mod output;
mod probes;
mod serve_fanout;
mod sims;
mod spec;
mod stats;
mod suite;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use output::RunOutput;

#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;
use sims::SimSpec;
use trace::Tracer;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--repeat <n>]
       benchmark --describe | --emit-json
  with --workload: run that workload once and print its result object (last line)
  without:         run every workload in a child process, untraced then traced;
                   --repeat N runs the set N times and checks the run-to-run
                   spread of every end-to-end metric against its bound
  --smoke:         the same code paths on cut-down sizes (<= 15 s in all)";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--describe" => {
                print!("{}", spec::describe());
                return Ok(None);
            }
            "--emit-json" => {
                print!("{}", spec::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

/// Where traces go: `<target dir>/benchmark/`, found from this executable
/// (`<target dir>/<profile>/benchmark`), so it is inside the checkout
/// whatever `CARGO_TARGET_DIR` says.
pub fn artifact_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|p| p.parent())
                .map(|t| t.join("benchmark"))
        })
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

pub fn trace_path(workload: &str) -> PathBuf {
    artifact_dir().join(format!("trace.{workload}.jsonl"))
}

/// Runs one workload once in this process.
fn run_workload(name: &str, args: &Args) -> Result<RunOutput, String> {
    let sizes = if args.smoke { spec::SMOKE } else { spec::FULL };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1 } else { spec::RUN_SECONDS });
    let mut tracers: Vec<Tracer> = Vec::new();
    let output = if let Some(sim) = SimSpec::named(name, &sizes) {
        if args.trace {
            sims::run_traced(&sim, args.seed, &sizes, &mut tracers)
        } else {
            sims::run_end_to_end(&sim, args.seed, seconds)
        }
    } else if name == spec::PAPER_SWEEP {
        sweep::run(args.seed, seconds, args.trace, &sizes, &mut tracers)
    } else if name == spec::SERVE_FANOUT {
        serve_fanout::run(args.seed, seconds, args.trace, &sizes, &mut tracers)?
    } else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ));
    };
    if args.trace {
        let path = trace_path(name);
        let spans = trace::write_jsonl(&path, &tracers)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# {spans} spans written to {}", path.display());
    }
    Ok(output)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match run_workload(name, &args) {
            Ok(output) => {
                output.print(name);
                // A run whose outputs are wrong still reports (correct:
                // false); only a run that could not happen exits non-zero.
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        None => suite::run(&args),
    }
}
