//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p envirotrack-bench --bin repro -- all
//! cargo run --release -p envirotrack-bench --bin repro -- fig3 fig4 table1
//! cargo run --release -p envirotrack-bench --bin repro -- fig5 --quick
//! cargo run --release -p envirotrack-bench --bin repro -- all --out results/
//! ```
//!
//! `--quick` shrinks the seeds/votes so a full pass finishes in a couple of
//! minutes; without it the sweeps use the publication settings. `--out DIR`
//! additionally writes each result as CSV, and each figure as SVG, into
//! `DIR`.

use std::path::{Path, PathBuf};

use envirotrack_bench::experiments::{ablations, energy, fig3, fig4, fig5, fig6, table1};
use envirotrack_bench::plot::{write_csv, Series, SvgPlot};
use envirotrack_bench::Flags;

struct Args {
    quick: bool,
    out_dir: Option<PathBuf>,
    wanted: Vec<String>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out_dir: None,
        wanted: Vec::new(),
    };
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out_dir = Some(flags.value(&arg)?),
            flag if flag.starts_with("--") => return Flags::unknown(flag),
            _ => args.wanted.push(arg),
        }
    }
    Ok(args)
}

fn main() {
    let Args {
        quick,
        out_dir,
        wanted,
    } = Flags::read("repro", parse_args);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut wanted: Vec<&str> = wanted.iter().map(String::as_str).collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "fig3",
            "fig4",
            "table1",
            "fig5",
            "fig6",
            "ablations",
            "energy",
        ];
    }
    let (seeds, votes, resolution) = if quick { (2, 1, 0.25) } else { (5, 3, 0.1) };

    for what in wanted {
        match what {
            "fig3" => {
                let fig = fig3::run(3);
                fig3::print(&fig);
                if let Some(dir) = &out_dir {
                    export_fig3(&fig, dir);
                }
            }
            "fig4" => {
                let fig = fig4::run(seeds);
                fig4::print(&fig);
                if let Some(dir) = &out_dir {
                    export_fig4(&fig, dir);
                }
            }
            "table1" => {
                let t = table1::run(seeds.max(3));
                table1::print(&t);
                if let Some(dir) = &out_dir {
                    export_table1(&t, dir);
                }
            }
            "fig5" => {
                let fig = fig5::run(votes, resolution);
                fig5::print(&fig);
                if let Some(dir) = &out_dir {
                    export_fig5(&fig, dir);
                }
            }
            "fig6" => {
                let fig = fig6::run(votes, resolution);
                fig6::print(&fig);
                if let Some(dir) = &out_dir {
                    export_fig6(&fig, dir);
                }
            }
            "ablations" => {
                let a = ablations::run(seeds);
                ablations::print(&a);
                if let Some(dir) = &out_dir {
                    export_ablations(&a, dir);
                }
            }
            "energy" => {
                let e = energy::run();
                energy::print(&e);
                if let Some(dir) = &out_dir {
                    export_energy(&e, dir);
                }
            }
            other => {
                eprintln!(
                    "unknown experiment {other:?} (try: fig3 fig4 table1 fig5 fig6 ablations energy all)"
                );
                std::process::exit(2);
            }
        }
        println!();
    }
}

fn export_fig3(fig: &fig3::Fig3, dir: &Path) {
    write_csv(
        &dir.join("fig3.csv"),
        &[
            "time_s",
            "reported_x",
            "reported_y",
            "actual_x",
            "actual_y",
            "error",
        ],
        fig.points.iter().map(|(t, r, a)| {
            vec![
                format!("{:.2}", t.as_secs_f64()),
                format!("{:.4}", r.x),
                format!("{:.4}", r.y),
                format!("{:.4}", a.x),
                format!("{:.4}", a.y),
                format!("{:.4}", r.distance_to(*a)),
            ]
        }),
    )
    .expect("write fig3.csv");
    SvgPlot::new("Fig. 3 — tracked tank trajectory", "x (grids)", "y (grids)")
        .series(Series::new(
            "reported",
            fig.points.iter().map(|(_, r, _)| (r.x, r.y)).collect(),
        ))
        .series(Series::new(
            "actual",
            fig.points.iter().map(|(_, _, a)| (a.x, a.y)).collect(),
        ))
        .write(&dir.join("fig3.svg"))
        .expect("write fig3.svg");
}

fn export_fig4(fig: &fig4::Fig4, dir: &Path) {
    write_csv(
        &dir.join("fig4.csv"),
        &[
            "speed_kmh",
            "heartbeat_ttl",
            "success_pct",
            "handovers",
            "failures",
        ],
        fig.bars.iter().map(|b| {
            vec![
                format!("{}", b.speed_kmh),
                format!("{}", b.heartbeat_ttl),
                format!("{:.2}", b.success_pct),
                format!("{}", b.handovers),
                format!("{}", b.failures),
            ]
        }),
    )
    .expect("write fig4.csv");
}

fn export_table1(t: &table1::Table1, dir: &Path) {
    write_csv(
        &dir.join("table1.csv"),
        &[
            "speed_kmh",
            "hb_loss_pct",
            "msg_loss_pct",
            "link_util_pct",
            "coherent",
        ],
        t.rows.iter().map(|r| {
            vec![
                format!("{}", r.speed_kmh),
                format!("{:.2}", r.hb_loss_pct),
                format!("{:.2}", r.msg_loss_pct),
                format!("{:.2}", r.link_util_pct),
                format!("{}", r.all_coherent),
            ]
        }),
    )
    .expect("write table1.csv");
}

fn export_fig5(fig: &fig5::Fig5, dir: &Path) {
    write_csv(
        &dir.join("fig5.csv"),
        &["heartbeat_s", "sensing_radius", "max_speed_hops_per_s"],
        fig.points.iter().map(|p| {
            vec![
                format!("{}", p.heartbeat_secs),
                format!("{}", p.sensing_radius),
                format!("{:.2}", p.takeover_speed),
            ]
        }),
    )
    .expect("write fig5.csv");
    let mut plot = SvgPlot::new(
        "Fig. 5 — max trackable speed vs heartbeat period",
        "heartbeat period (s, log)",
        "max speed (hops/s)",
    )
    .log_x();
    for radius in [1.0, 2.0] {
        let mut pts: Vec<(f64, f64)> = fig
            .points
            .iter()
            .filter(|p| p.sensing_radius == radius)
            .map(|p| (p.heartbeat_secs, p.takeover_speed))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        plot = plot.series(Series::new(format!("takeover, radius {radius}"), pts));
    }
    for (radius, speed) in &fig.relinquish_reference {
        let xs: Vec<f64> = fig.points.iter().map(|p| p.heartbeat_secs).collect();
        let (lo, hi) = (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        plot = plot.series(Series::new(
            format!("relinquish, radius {radius}"),
            vec![(lo, *speed), (hi, *speed)],
        ));
    }
    plot.write(&dir.join("fig5.svg")).expect("write fig5.svg");
}

fn export_fig6(fig: &fig6::Fig6, dir: &Path) {
    write_csv(
        &dir.join("fig6.csv"),
        &["cr_sr_ratio", "sensing_radius", "max_speed_hops_per_s"],
        fig.points.iter().map(|p| {
            vec![
                format!("{}", p.cr_sr_ratio),
                format!("{}", p.sensing_radius),
                format!("{:.2}", p.speed),
            ]
        }),
    )
    .expect("write fig6.csv");
    let mut plot = SvgPlot::new(
        "Fig. 6 — max trackable speed vs CR:SR ratio",
        "communication radius / sensing radius",
        "max speed (hops/s)",
    );
    for radius in [1.0, 2.0] {
        let mut pts: Vec<(f64, f64)> = fig
            .points
            .iter()
            .filter(|p| p.sensing_radius == radius)
            .map(|p| (p.cr_sr_ratio, p.speed))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        plot = plot.series(Series::new(format!("radius {radius}"), pts));
    }
    plot.write(&dir.join("fig6.svg")).expect("write fig6.svg");
}

fn export_ablations(a: &ablations::Ablations, dir: &Path) {
    write_csv(
        &dir.join("ablations.csv"),
        &[
            "variant",
            "handovers",
            "spurious",
            "reports",
            "coherent_fraction",
        ],
        a.rows.iter().map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.handovers),
                format!("{:.2}", r.spurious),
                format!("{:.2}", r.reports),
                format!("{:.2}", r.coherent_fraction),
            ]
        }),
    )
    .expect("write ablations.csv");
}

fn export_energy(e: &energy::EnergySweep, dir: &Path) {
    write_csv(
        &dir.join("energy.csv"),
        &[
            "heartbeat_s",
            "total_mj",
            "radio_mj",
            "cpu_mj",
            "max_node_mj",
        ],
        e.rows.iter().map(|r| {
            vec![
                format!("{}", r.heartbeat_secs),
                format!("{:.1}", r.total_mj),
                format!("{:.1}", r.radio_mj),
                format!("{:.1}", r.cpu_mj),
                format!("{:.1}", r.max_node_mj),
            ]
        }),
    )
    .expect("write energy.csv");
    SvgPlot::new(
        "Energy vs heartbeat period",
        "heartbeat period (s, log)",
        "fleet energy (mJ)",
    )
    .log_x()
    .series(Series::new(
        "total",
        e.rows
            .iter()
            .map(|r| (r.heartbeat_secs, r.total_mj))
            .collect(),
    ))
    .series(Series::new(
        "radio",
        e.rows
            .iter()
            .map(|r| (r.heartbeat_secs, r.radio_mj))
            .collect(),
    ))
    .series(Series::new(
        "CPU",
        e.rows
            .iter()
            .map(|r| (r.heartbeat_secs, r.cpu_mj))
            .collect(),
    ))
    .write(&dir.join("energy.svg"))
    .expect("write energy.svg");
}
