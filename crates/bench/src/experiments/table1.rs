//! Table 1 — *Communication Performance Data*.
//!
//! For the correct (h = 1) setting at the two emulated tank speeds, the
//! paper reports, averaged over three independent runs:
//!
//! | Speed | % HB loss | % Msg loss | % Link util |
//! |---|---|---|---|
//! | 33 km/h | 7.08 | 3.05 | 2.54 |
//! | 50 km/h | 22.69 | 17.05 | 2.88 |
//!
//! The four take-aways to reproduce: (1) the system operates correctly in
//! the presence of loss; (2) loss comes from the unreliable medium, not
//! bandwidth exhaustion; (3) utilisation is a tiny fraction of capacity;
//! (4) utilisation grows only slightly with speed.

use crate::harness::{run_tracking, TrackingRun};
use crate::sweep::{host_cpus, parallel_map};
use envirotrack_world::scenario::kmh_to_hops_per_s;

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Speed label in km/h.
    pub speed_kmh: f64,
    /// Mean heartbeat loss percentage.
    pub hb_loss_pct: f64,
    /// Mean member-report ("Msg") loss percentage.
    pub msg_loss_pct: f64,
    /// Mean worst-case link utilisation percentage.
    pub link_util_pct: f64,
    /// Whether tracking stayed coherent in every averaged run.
    pub all_coherent: bool,
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows for 33 and 50 km/h.
    pub rows: Vec<Table1Row>,
}

/// Runs the experiment, averaging over `seeds` runs per row (paper: 3).
#[must_use]
pub fn run(seeds: u64) -> Table1 {
    let rows = parallel_map(&[33.0, 50.0], host_cpus(), |&kmh| {
        let mut hb = 0.0;
        let mut msg = 0.0;
        let mut util = 0.0;
        let mut all_coherent = true;
        for seed in 0..seeds {
            let cfg = TrackingRun {
                cols: 14,
                rows: 3,
                lane_y: 1.0,
                // The emulated testbed speeds: 15 s/hop and 10 s/hop.
                speed_hops_per_s: kmh_to_hops_per_s(kmh),
                comm_radius: 1.6,
                base_loss: 0.15,
                heartbeat_ttl: 1,
                seed: 101 + seed,
                ..TrackingRun::default()
            };
            let out = run_tracking(&cfg);
            hb += 100.0 * out.hb_loss;
            msg += 100.0 * out.report_loss;
            util += 100.0 * out.link_utilization;
            all_coherent &= out.coherent();
        }
        let n = seeds as f64;
        Table1Row {
            speed_kmh: kmh,
            hb_loss_pct: hb / n,
            msg_loss_pct: msg / n,
            link_util_pct: util / n,
            all_coherent,
        }
    });
    Table1 { rows }
}

/// Prints the table next to the paper's numbers.
pub fn print(table: &Table1) {
    println!("Table 1 — communication performance (paper values in parentheses)");
    println!(
        "{:>10} {:>18} {:>18} {:>18} {:>10}",
        "speed", "% HB loss", "% Msg loss", "% Link util", "coherent"
    );
    let paper = [(33.0, 7.08, 3.05, 2.54), (50.0, 22.69, 17.05, 2.88)];
    for row in &table.rows {
        let p = paper.iter().find(|(k, ..)| *k == row.speed_kmh);
        let fmt = |v: f64, pv: Option<f64>| match pv {
            Some(pv) => format!("{v:>7.2} ({pv:>5.2})"),
            None => format!("{v:>7.2}"),
        };
        println!(
            "{:>6} km/h {:>18} {:>18} {:>18} {:>10}",
            row.speed_kmh,
            fmt(row.hb_loss_pct, p.map(|x| x.1)),
            fmt(row.msg_loss_pct, p.map(|x| x.2)),
            fmt(row.link_util_pct, p.map(|x| x.3)),
            row.all_coherent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_matches_the_paper() {
        let t = run(3);
        let row33 = t.rows.iter().find(|r| r.speed_kmh == 33.0).unwrap();
        let row50 = t.rows.iter().find(|r| r.speed_kmh == 50.0).unwrap();
        // (1) The system operates correctly in the presence of loss.
        assert!(
            row33.all_coherent,
            "33 km/h must track despite loss: {row33:?}"
        );
        assert!(
            row33.hb_loss_pct > 0.0 || row33.msg_loss_pct > 0.0,
            "there must be loss"
        );
        // (3) Utilisation is a tiny fraction of capacity (paper: ~2.5-3%).
        assert!(
            row33.link_util_pct < 15.0,
            "util {}% too high",
            row33.link_util_pct
        );
        assert!(row50.link_util_pct < 15.0);
        // (4) Utilisation grows only slightly with speed.
        assert!(
            (row50.link_util_pct - row33.link_util_pct).abs() < 0.5 * row33.link_util_pct + 1.0,
            "util jump too large: {} vs {}",
            row33.link_util_pct,
            row50.link_util_pct
        );
        // Loss does not shrink at speed (the paper saw it grow).
        assert!(
            row50.hb_loss_pct + row50.msg_loss_pct
                >= 0.8 * (row33.hb_loss_pct + row33.msg_loss_pct),
            "loss should not collapse at speed"
        );
    }
}
