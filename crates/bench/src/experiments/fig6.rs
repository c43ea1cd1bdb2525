//! Figure 6 — *Effect of Sensory Radius on Maximum Trackable Speed*.
//!
//! With the relinquish optimisation on, sweep the ratio between the
//! communication radius (CR) and the sensing radius (SR). Expected shape:
//!
//! * for a given CR:SR ratio, larger events are trackable at faster
//!   speeds (fewer leadership handovers per distance travelled);
//! * the architecture **breaks down when CR:SR < 1** — nodes outside the
//!   leader's radio range also sense the event and concurrently form
//!   spurious groups, violating context-label coherence.

use envirotrack_sim::time::SimDuration;

use crate::harness::TrackingRun;
use crate::sweep::{host_cpus, max_trackable_speed, parallel_map};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Communication radius ÷ sensing radius.
    pub cr_sr_ratio: f64,
    /// Sensing radius in grids.
    pub sensing_radius: f64,
    /// Max trackable speed in hops/s (relinquish mode).
    pub speed: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All swept points.
    pub points: Vec<Fig6Point>,
}

/// The relinquish-mode run template behind each swept point; public so the
/// golden regression tests can pin single points without the full sweep.
#[must_use]
pub fn template(sr: f64, cr: f64, seed: u64) -> TrackingRun {
    TrackingRun {
        cols: 24,
        rows: 7,
        lane_y: 3.0,
        sensing_radius: sr,
        comm_radius: cr,
        heartbeat_period: SimDuration::from_millis(500),
        heartbeat_ttl: 1,
        relinquish: true,
        seed,
        ..TrackingRun::default()
    }
}

/// Runs the sweep over CR:SR ratios for two event sizes.
#[must_use]
pub fn run(votes: u32, resolution: f64) -> Fig6 {
    let ratios = [0.75, 1.0, 1.5, 2.0, 3.0, 4.0];
    let radii = [1.0, 2.0];
    let mut combos = Vec::new();
    for &sr in &radii {
        for &ratio in &ratios {
            combos.push((sr, ratio));
        }
    }
    let points = parallel_map(&combos, host_cpus(), |&(sr, ratio)| {
        let cr = sr * ratio;
        Fig6Point {
            cr_sr_ratio: ratio,
            sensing_radius: sr,
            speed: max_trackable_speed(&template(sr, cr, 23), votes, resolution),
        }
    });
    Fig6 { points }
}

/// Prints the figure as one row per ratio.
pub fn print(fig: &Fig6) {
    println!("Figure 6 — max trackable speed (hops/s) vs CR:SR ratio, relinquish mode");
    println!("{:>10} {:>16} {:>16}", "CR:SR", "radius 1", "radius 2");
    let mut ratios: Vec<f64> = fig.points.iter().map(|p| p.cr_sr_ratio).collect();
    ratios.sort_by(f64::total_cmp);
    ratios.dedup();
    for ratio in ratios {
        let get = |sr: f64| {
            fig.points
                .iter()
                .find(|p| p.cr_sr_ratio == ratio && p.sensing_radius == sr)
                .map_or(f64::NAN, |p| p.speed)
        };
        println!("{:>10} {:>16.2} {:>16.2}", ratio, get(1.0), get(2.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_tracking;

    #[test]
    fn sub_unit_ratio_breaks_coherence_even_for_slow_targets() {
        // CR:SR = 0.6: sensing nodes outside the leader's radio range form
        // concurrent spurious groups.
        let cfg = TrackingRun {
            speed_hops_per_s: 0.2,
            ..template(2.0, 1.2, 5)
        };
        let out = run_tracking(&cfg);
        assert!(
            !out.coherent(),
            "CR:SR < 1 must violate label coherence: {out:?}"
        );
    }

    #[test]
    fn comfortable_ratio_tracks_fine() {
        let cfg = TrackingRun {
            speed_hops_per_s: 0.2,
            ..template(1.0, 3.0, 5)
        };
        let out = run_tracking(&cfg);
        assert!(
            out.coherent(),
            "CR:SR = 3 at 0.2 hops/s must be coherent: {out:?}"
        );
    }
}
