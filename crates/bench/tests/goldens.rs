//! Paper-figure golden regression tests.
//!
//! Each test runs one experiment at a pinned seed in a small-N
//! configuration, formats the summary statistics into a full-precision
//! digest, and compares it byte-for-byte against the checked-in golden
//! under `tests/goldens/`. The point is to chain the figures to the
//! kernel: a hot-path refactor (event queue, radio medium, telemetry)
//! that silently changes event ordering or RNG consumption shifts these
//! digests and fails here instead of quietly bending the paper's curves.
//! One more test pins the sharded kernel's merged run record and telemetry
//! the same way.
//!
//! When a shift is *intentional* (a protocol change with an understood
//! effect), regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p envirotrack-bench --test goldens
//! ```
//!
//! and review the golden diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use envirotrack_bench::experiments::scale::{run_scale_sharded, ScaleRun};
use envirotrack_bench::experiments::{fig3, fig4, fig5, fig6, table1};
use envirotrack_bench::sweep::max_trackable_speed;
use envirotrack_bench::harness::TrackingRun;
use envirotrack_core::shard::MediumMode;
use envirotrack_sim::time::SimDuration;

fn check(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); generate with UPDATE_GOLDENS=1")
    });
    assert_eq!(
        expected, actual,
        "golden {name} drifted; if the change is intentional, regenerate \
         with UPDATE_GOLDENS=1 and review the diff"
    );
}

#[test]
fn fig3_trajectory_matches_golden() {
    let fig = fig3::run(3);
    let mut d = String::new();
    let _ = writeln!(d, "lane_y={:.6}", fig.true_lane_y);
    let _ = writeln!(d, "mean_error={:.9}", fig.mean_error);
    let _ = writeln!(d, "max_error={:.9}", fig.max_error);
    let _ = writeln!(d, "labels_seen={}", fig.labels_seen);
    for (t, rep, act) in &fig.points {
        let _ = writeln!(
            d,
            "t_us={} rep=({:.9},{:.9}) act=({:.9},{:.9})",
            t.as_micros(),
            rep.x,
            rep.y,
            act.x,
            act.y
        );
    }
    check("fig3.txt", &d);
}

#[test]
fn fig4_handover_bars_match_golden() {
    let fig = fig4::run(1);
    let mut d = String::new();
    for b in &fig.bars {
        let _ = writeln!(
            d,
            "kmh={:.1} ttl={} success_pct={:.9} handovers={} failures={}",
            b.speed_kmh, b.heartbeat_ttl, b.success_pct, b.handovers, b.failures
        );
    }
    check("fig4.txt", &d);
}

#[test]
fn table1_comm_performance_matches_golden() {
    let table = table1::run(1);
    let mut d = String::new();
    for r in &table.rows {
        let _ = writeln!(
            d,
            "kmh={:.1} hb_loss_pct={:.9} msg_loss_pct={:.9} link_util_pct={:.9} coherent={}",
            r.speed_kmh, r.hb_loss_pct, r.msg_loss_pct, r.link_util_pct, r.all_coherent
        );
    }
    check("table1.txt", &d);
}

#[test]
fn fig5_takeover_speed_point_matches_golden() {
    // One production point of the figure: takeover mode, 0.5 s heartbeats,
    // sensing radius 1 (the full sweep is minutes of wall-clock; one point
    // pins the same code path).
    let template = fig5::takeover_template(SimDuration::from_millis(500), 1.0, 42);
    let takeover = max_trackable_speed(&template, 1, 0.5);
    let relinquish = max_trackable_speed(
        &TrackingRun {
            relinquish: true,
            ..template
        },
        1,
        0.5,
    );
    let d = format!("takeover_speed={takeover:.9}\nrelinquish_speed={relinquish:.9}\n");
    check("fig5.txt", &d);
}

#[test]
fn fig6_crsr_speed_point_matches_golden() {
    // One production point: sensing radius 1 at CR:SR = 2.
    let template = fig6::template(1.0, 2.0, 23);
    let speed = max_trackable_speed(&template, 1, 0.5);
    let d = format!("speed_at_ratio2={speed:.9}\n");
    check("fig6.txt", &d);
}

#[test]
fn sharded_scale_dump_matches_golden() {
    // The sharded family's own pin: every other sharded test compares one
    // shard count or medium mode with another, so a change that moved every
    // count alike would pass them all. The horizon is long enough for a
    // histogram line as well as frame counters.
    let cfg = ScaleRun {
        nodes: 400,
        speed_hops_per_s: 0.25,
        horizon: SimDuration::from_secs(20),
        ..ScaleRun::default()
    };
    let dump = run_scale_sharded(&cfg, 2, MediumMode::Partitioned).dump;
    assert!(dump.contains(r#""t":"hist""#), "no histogram in {dump}");
    assert!(dump.contains("net.k1.tx"), "no frame counter in {dump}");
    check("scale_sharded.jsonl", &dump);
}
