//! Figure 4 — *Successful handovers*.
//!
//! Two tank speeds (the emulated 33 and 50 km/h) × two group-management
//! settings: heartbeats heard only within radio range of the leader
//! (`h = 0`) versus flooded one hop past the perimeter (`h = 1`). The
//! paper finds all handovers succeed with propagation; without it, "a
//! fraction of handovers will fail … unless target speed is slow".
//!
//! The failure mechanism needs the radio range to be comparable to the
//! sensing range (as on the indoor testbed): nodes ahead of the tank that
//! have never heard the leader mint spurious labels. We therefore run this
//! experiment at a testbed-like communication radius of 1.6 grids.

use crate::harness::{run_tracking, TrackingRun};
use crate::sweep::{host_cpus, parallel_map};
use envirotrack_world::scenario::kmh_to_hops_per_s;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Fig4Bar {
    /// Tank speed label in km/h.
    pub speed_kmh: f64,
    /// Heartbeat flood TTL `h`.
    pub heartbeat_ttl: u8,
    /// Mean successful-handover percentage over the seeds.
    pub success_pct: f64,
    /// Total successful handovers across runs.
    pub handovers: usize,
    /// Total failed handovers (spurious labels) across runs.
    pub failures: usize,
}

/// The regenerated figure: four bars.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Bars in (speed, setting) order: 33/h1, 50/h1, 33/h0, 50/h0.
    pub bars: Vec<Fig4Bar>,
}

/// Runs the experiment over `seeds` independent runs per bar.
#[must_use]
pub fn run(seeds: u64) -> Fig4 {
    let combos: Vec<(f64, u8)> = vec![(33.0, 1), (50.0, 1), (33.0, 0), (50.0, 0)];
    let bars = parallel_map(&combos, host_cpus(), |&(kmh, ttl)| {
        let mut handovers = 0usize;
        let mut failures = 0usize;
        let mut pct_sum = 0.0;
        for seed in 0..seeds {
            let cfg = TrackingRun {
                cols: 14,
                rows: 3,
                lane_y: 1.0,
                // The emulated testbed speeds: 15 s/hop and 10 s/hop.
                speed_hops_per_s: kmh_to_hops_per_s(kmh),
                sensing_radius: 1.0,
                comm_radius: 1.6,
                // Indoor testbed radios are far lossier than the default.
                base_loss: 0.15,
                heartbeat_ttl: ttl,
                seed: seed * 7 + 1,
                ..TrackingRun::default()
            };
            let out = run_tracking(&cfg);
            handovers += out.handovers;
            failures += out.failed_handovers();
            pct_sum += 100.0 * out.handover_success_ratio();
        }
        Fig4Bar {
            speed_kmh: kmh,
            heartbeat_ttl: ttl,
            success_pct: pct_sum / seeds as f64,
            handovers,
            failures,
        }
    });
    Fig4 { bars }
}

/// Prints the figure as a table.
pub fn print(fig: &Fig4) {
    println!("Figure 4 — % successful context-label handovers");
    println!(
        "{:>12} {:>28} {:>12} {:>10} {:>9}",
        "tank speed", "setting", "success %", "handovers", "failures"
    );
    for bar in &fig.bars {
        let setting = if bar.heartbeat_ttl > 0 {
            "propagate past sensing radius"
        } else {
            "heartbeats only within radius"
        };
        println!(
            "{:>9} km/h {:>28} {:>11.1}% {:>10} {:>9}",
            bar.speed_kmh, setting, bar.success_pct, bar.handovers, bar.failures
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_beats_no_propagation_and_slow_beats_fast() {
        // Five seeds: the h=0 success gap between speeds is a few points
        // wide, so three-seed averages sit inside run-to-run noise.
        let fig = run(5);
        let get = |kmh: f64, ttl: u8| {
            fig.bars
                .iter()
                .find(|b| b.speed_kmh == kmh && b.heartbeat_ttl == ttl)
                .expect("bar exists")
                .success_pct
        };
        // With propagation, handovers essentially always succeed.
        assert!(get(33.0, 1) >= 95.0, "33 km/h with h=1: {}", get(33.0, 1));
        assert!(get(50.0, 1) >= 95.0, "50 km/h with h=1: {}", get(50.0, 1));
        // Without propagation, the faster tank fails more.
        assert!(
            get(50.0, 0) <= get(33.0, 0) + 5.0,
            "h=0: faster should not beat slower ({} vs {})",
            get(50.0, 0),
            get(33.0, 0)
        );
        // And the propagation setting must dominate at speed.
        assert!(
            get(50.0, 1) > get(50.0, 0),
            "h=1 must beat h=0 at 50 km/h ({} vs {})",
            get(50.0, 1),
            get(50.0, 0)
        );
    }
}
