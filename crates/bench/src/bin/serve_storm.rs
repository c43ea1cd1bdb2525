//! `serve_storm` — traffic storm against the session server (`BENCH_serve.json`).
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin serve_storm
//! cargo run --release -p envirotrack-bench --bin serve_storm -- --smoke --out /tmp/serve.json
//! cargo run --release -p envirotrack-bench --bin serve_storm -- --seed 7
//! ```
//!
//! Runs the flagship storm profile (see [`StormConfig::flagship`]): ramps
//! hundreds of concurrent sessions over TCP loopback, holds them streaming
//! through a steady window, then storms the server with an overload burst,
//! corrupt-frame senders, and stalled consumers. Exits nonzero when any
//! acceptance claim fails: the concurrency floor missed, a panic, a
//! corrupt frame accepted past CRC, an unfair steady stream, or (in the
//! storm phase) no observed overload REJECT or slow-consumer shed.
//!
//! `--smoke` shrinks the run to the ~5 s happy-path profile for the CI
//! stage in `scripts/verify.sh` — no storm phase, so every protocol-error
//! counter must stay zero.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use envirotrack_bench::storm::{run_storm, StormConfig};
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
        out: PathBuf::from("BENCH_serve.json"),
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
    let args = Flags::read("serve_storm", parse_args);
    let cfg = if args.smoke {
        StormConfig::smoke(args.seed)
    } else {
        StormConfig::flagship(args.seed)
    };

    let started = Instant::now();
    let report = run_storm(&cfg);
    let json = report.to_json();
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("serve_storm: writing {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "serve_storm: {} sessions peak ({} steady), {:.0} connects/s, \
         ack p50/p95/p99 = {}/{}/{} us, fairness {:.4}, {} rejects, \
         {} sheds, {} client errors in {:.1}s -> {}",
        report.sessions_peak,
        report.sessions_steady,
        report.connects_per_s,
        report.query_ack_p50_us,
        report.query_ack_p95_us,
        report.query_ack_p99_us,
        report.fairness_jain,
        report.client_rejects_observed,
        report.slow_consumer_sheds,
        report.client_errors,
        started.elapsed().as_secs_f64(),
        args.out.display()
    );
    if report.passed() {
        eprintln!("serve_storm: PASSED");
        ExitCode::SUCCESS
    } else {
        eprintln!("serve_storm: FAILED — {json}");
        ExitCode::FAILURE
    }
}
