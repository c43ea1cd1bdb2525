//! The whole set in one command, and the A/A harness.
//!
//! Every run of every workload happens in a child process of this same
//! binary (the driver's one-workload protocol), so `peak_heap_mb` is per
//! workload and a crash in one cannot take the others' numbers with it.
//! Within a set the workloads run round-robin — with `--repeat N` that is
//! N interleaved sets on the same code and seed, so host drift hits all
//! workloads alike. After the untraced sets, one traced run per workload
//! (per set) reports the per-layer metrics and writes the spans.
//!
//! `--repeat N` (N >= 2) then prints, for every end-to-end metric on every
//! workload, the run-to-run spread against the metric's bound, checks that
//! the exact-count layer metrics of the simulation workloads repeat
//! exactly, and exits non-zero if either fails.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{quartiles, relative_spread};
use crate::Args;

/// Layer counts that are pure functions of `(workload, seed)` on the two
/// simulation workloads; two sets must agree on them to the last digit.
const EXACT_COUNTS: [&str; 12] = [
    "sim.engine.events",
    "net.medium.tx",
    "net.medium.bytes_on_air",
    "core.shard.merged_intents",
    "core.shard.barriers",
    "core.shard.events",
    "core.shard.labels_created",
    "core.shard.handovers",
    "core.group.hb_tx",
    "core.group.report_tx",
    "core.group.labels_created",
    "core.group.handovers",
];

const SIM_WORKLOADS: [&str; 2] = [spec::FIELD_SPARSE, spec::TRAFFIC_DENSE];

/// What the parent reads back from one child.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    invalid: bool,
}

fn run_child(workload: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut run = ChildRun {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        invalid: false,
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", _, name, value, _unit] => {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("{workload} {name}: {e}"))?;
                run.metrics.insert((*name).to_owned(), v);
                println!("{line}");
            }
            ["#", _, "ops_attempted", a, "ops_failed", f] => {
                run.attempted = a
                    .parse()
                    .map_err(|e| format!("{workload} attempted: {e}"))?;
                run.failed = f.parse().map_err(|e| format!("{workload} failed: {e}"))?;
                println!("{line}");
            }
            ["#", "INVALID", ..] => {
                run.invalid = true;
                println!("{line}");
            }
            ["#", ..] => println!("{line}"),
            // The result object is for the driver; the parent has the
            // same numbers from the metric lines.
            _ => {}
        }
    }
    Ok(run)
}

/// Concatenates the per-workload span files into `trace.jsonl`.
fn merge_traces() -> std::io::Result<(std::path::PathBuf, usize)> {
    let merged = crate::artifact_dir().join("trace.jsonl");
    let mut text = String::new();
    for w in &WORKLOADS {
        text.push_str(&std::fs::read_to_string(crate::trace_path(w.name))?);
    }
    std::fs::write(&merged, &text)?;
    Ok((merged, text.lines().count()))
}

pub fn run(args: &Args) -> ExitCode {
    match run_sets(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_sets(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# envirotrack-benchmark: seed {}, {} set(s), nproc {nproc}{}",
        args.seed,
        args.repeat,
        if args.smoke { ", smoke sizes" } else { "" }
    );
    let mut ok = true;
    // values[workload][metric] = one value per set.
    let mut end_to_end: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut per_layer: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for traced in [false, true] {
        for set in 0..args.repeat {
            for w in &WORKLOADS {
                println!(
                    "# --- set {} {} {}",
                    set + 1,
                    if traced { "traced" } else { "untraced" },
                    w.name
                );
                let run = run_child(w.name, args, traced)?;
                ok &= run.failed == 0 && !run.invalid && run.attempted > 0;
                let table = if traced {
                    &mut per_layer
                } else {
                    &mut end_to_end
                };
                for (name, v) in run.metrics {
                    table
                        .entry(w.name)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    let (merged, spans) = merge_traces().map_err(|e| format!("merging traces: {e}"))?;
    println!(
        "# {spans} spans of all workloads merged into {}",
        merged.display()
    );

    println!("\n== end-to-end metrics: median [q1, q3] over n sets ==");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = end_to_end
                .get(w.name)
                .and_then(|t| t.get(m.name))
                .ok_or(format!("{} never reported {}", w.name, m.name))?;
            let (q1, med, q3) = quartiles(values);
            println!(
                "{:<22} {:<13} {:>14.6} {:<4} [{:.6}, {:.6}] n={} ({} better, bound {:.0} %)",
                w.name,
                m.name,
                med,
                m.unit,
                q1,
                q3,
                values.len(),
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    for w in &WORKLOADS {
        let table = per_layer
            .get(w.name)
            .ok_or(format!("{} has no traced run", w.name))?;
        for m in &PER_LAYER {
            if !table.contains_key(m.name) {
                return Err(format!("{} never reported {}", w.name, m.name));
            }
        }
    }

    if args.repeat >= 2 {
        println!("\n== A/A: run-to-run spread against each bound ((q3 - q1) / median; the full range below 4 sets) ==");
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let spread = relative_spread(&end_to_end[w.name][m.name]);
                // Set-up times are milliseconds of thread spawns and
                // connects; like the driver, the harness prints their
                // spread but holds only their medians to the bound.
                let enforced = m.name != spec::SETUP_S;
                let within = spread <= m.bound;
                ok &= within || !enforced;
                println!(
                    "{:<22} {:<13} spread {:>6.2} % bound {:>3.0} % {}",
                    w.name,
                    m.name,
                    spread * 100.0,
                    m.bound * 100.0,
                    match (within, enforced) {
                        (true, _) => "ok",
                        (false, true) => "EXCEEDS ITS BOUND",
                        (false, false) => "wide (not enforced)",
                    }
                );
            }
        }
        for w in SIM_WORKLOADS {
            for name in EXACT_COUNTS {
                let values = &per_layer[w][name];
                let exact = values.iter().all(|v| *v == values[0]);
                ok &= exact;
                if !exact {
                    println!("{w:<22} {name}: NOT EXACT across sets: {values:?}");
                }
            }
        }
        println!(
            "# exact counts compared: {} names on {} workloads",
            EXACT_COUNTS.len(),
            SIM_WORKLOADS.len()
        );
    }
    println!(
        "# total {:.1} s; {}",
        started.elapsed().as_secs_f64(),
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}
