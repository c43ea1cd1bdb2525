//! `soak` — the layered-fault chaos soak (`BENCH_soak.json`).
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin soak
//! cargo run --release -p envirotrack-bench --bin soak -- --smoke --out /tmp/soak.json
//! cargo run --release -p envirotrack-bench --bin soak -- --seed 7
//! ```
//!
//! Runs the flagship soak profile (10 minutes of compressed time under
//! per-byte corruption, burst loss, two partition/heal cycles, and three
//! crash/reboots — see [`SoakConfig::flagship`]), then replays the
//! identical config and asserts the reports are byte-identical. Exits
//! nonzero when any acceptance claim fails: an invariant violation, a
//! corrupted frame accepted past CRC, divergent directory replicas at the
//! end, or a replay mismatch.
//!
//! `--smoke` shrinks the run (60 s horizon, one partition cycle) for the
//! CI stage in `scripts/verify.sh`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use envirotrack_bench::soak::{run_soak, SoakConfig};
use envirotrack_bench::Flags;

struct Args {
    seed: u64,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        smoke: false,
        out: PathBuf::from("BENCH_soak.json"),
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--seed" => args.seed = flags.value(&flag)?,
            "--out" => args.out = flags.value(&flag)?,
            "--smoke" => args.smoke = true,
            other => return Flags::unknown(other),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = Flags::read("soak", parse_args);
    let cfg = if args.smoke {
        SoakConfig::smoke(args.seed)
    } else {
        SoakConfig::flagship(args.seed)
    };

    let started = Instant::now();
    let report = run_soak(&cfg);
    let first_wall = started.elapsed();
    eprintln!(
        "soak: seed {} · {:.0}s sim in {:.2}s wall · {} faults · {} corrupt dropped / {} accepted · {} gossip tx / {} repairs · {} pongs · {} violations",
        report.seed,
        report.horizon_s,
        first_wall.as_secs_f64(),
        report.fault_events,
        report.corrupt_dropped,
        report.corrupt_accepted,
        report.gossip_tx,
        report.gossip_repairs,
        report.pongs,
        report.violations,
    );

    let replay = run_soak(&cfg);
    if replay.to_json() != report.to_json() {
        eprintln!("soak: FAIL — replay of the identical config diverged");
        return ExitCode::FAILURE;
    }
    eprintln!("soak: replay byte-identical");

    let json = report.to_json();
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("soak: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("soak: wrote {}", args.out.display());

    if !report.passed() {
        eprintln!(
            "soak: FAIL — violations={} corrupt_accepted={} replicas_agree={}",
            report.violations, report.corrupt_accepted, report.replicas_agree
        );
        return ExitCode::FAILURE;
    }
    eprintln!("soak: PASS");
    ExitCode::SUCCESS
}
