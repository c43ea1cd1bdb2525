//! Figure 5 — *Effect of Timers on Maximum Trackable Speed*.
//!
//! The paper's stress test: with the communication radius fixed at 6 grids
//! and the sensing radius at 1 or 2 grids, sweep the leader heartbeat
//! period (receive/wait timers held at 2.1× / 4.2×) and measure the
//! maximum trackable speed in the **worst case** — leadership moves only
//! by takeover after leader failure (no relinquish). Expected shape:
//!
//! * trackable speed *rises* as heartbeats get faster (more responsive
//!   takeover) …
//! * … until a breakdown point (paper: ≈ 0.25–0.5 s periods) where CPU
//!   overload throttles the handoff machinery and speed *falls* again;
//! * larger sensory signatures track faster at every period;
//! * the **relinquish** optimisation is insensitive to the heartbeat
//!   period (flat reference line).

use envirotrack_sim::time::SimDuration;

use crate::harness::TrackingRun;
use crate::sweep::{host_cpus, max_trackable_speed, parallel_map};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Heartbeat period in seconds.
    pub heartbeat_secs: f64,
    /// Sensing radius in grids.
    pub sensing_radius: f64,
    /// Maximum trackable speed in hops/s (takeover mode).
    pub takeover_speed: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The swept points, one per (period, radius).
    pub points: Vec<Fig5Point>,
    /// The relinquish-mode reference speeds per sensing radius
    /// `(radius, speed)` — expected flat across periods.
    pub relinquish_reference: Vec<(f64, f64)>,
}

/// The takeover-mode run template behind each swept point; public so the
/// golden regression tests can pin single points without the full sweep.
#[must_use]
pub fn takeover_template(heartbeat: SimDuration, sensing_radius: f64, seed: u64) -> TrackingRun {
    TrackingRun {
        cols: 24,
        rows: 5,
        lane_y: 2.0,
        sensing_radius,
        comm_radius: 6.0,
        heartbeat_period: heartbeat,
        heartbeat_ttl: 1,
        relinquish: false, // worst case: all handoffs via receive timeout
        // The paper's outer loop drives the whole stack at the heartbeat
        // rate (floored at 100 ms: ADC sampling cannot go faster) — this is
        // what turns small heartbeat periods into CPU load.
        sense_period: Some(heartbeat.max(SimDuration::from_millis(100))),
        seed,
        ..TrackingRun::default()
    }
}

/// Runs the sweep. `votes` = runs per probed speed (majority decides),
/// `resolution` = bisection resolution in hops/s.
#[must_use]
pub fn run(votes: u32, resolution: f64) -> Fig5 {
    let periods = [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0];
    let radii = [1.0, 2.0];
    let mut combos = Vec::new();
    for &r in &radii {
        for &p in &periods {
            combos.push((p, r));
        }
    }
    let points = parallel_map(&combos, host_cpus(), |&(p, r)| {
        let template = takeover_template(SimDuration::from_secs_f64(p), r, 42);
        Fig5Point {
            heartbeat_secs: p,
            sensing_radius: r,
            takeover_speed: max_trackable_speed(&template, votes, resolution),
        }
    });
    let relinquish_reference = parallel_map(&radii, host_cpus(), |&r| {
        let template = TrackingRun {
            relinquish: true,
            ..takeover_template(SimDuration::from_millis(500), r, 42)
        };
        (r, max_trackable_speed(&template, votes, resolution))
    });
    Fig5 {
        points,
        relinquish_reference,
    }
}

/// Prints the figure as one row per heartbeat period.
pub fn print(fig: &Fig5) {
    println!("Figure 5 — max trackable speed (hops/s) vs heartbeat period, takeover mode");
    println!(
        "{:>14} {:>16} {:>16}",
        "HB period (s)", "radius 1", "radius 2"
    );
    let mut periods: Vec<f64> = fig.points.iter().map(|p| p.heartbeat_secs).collect();
    periods.sort_by(f64::total_cmp);
    periods.dedup();
    for p in periods {
        let get = |r: f64| {
            fig.points
                .iter()
                .find(|pt| pt.heartbeat_secs == p && pt.sensing_radius == r)
                .map_or(f64::NAN, |pt| pt.takeover_speed)
        };
        println!("{:>14} {:>16.2} {:>16.2}", p, get(1.0), get(2.0));
    }
    for (r, v) in &fig.relinquish_reference {
        println!("relinquish reference (radius {r}): {v:.2} hops/s (period-independent)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::max_trackable_speed;

    /// A cheap two-point sanity check instead of the full sweep: the
    /// responsive heartbeat must track substantially faster than the
    /// sluggish one in takeover mode.
    #[test]
    fn faster_heartbeats_track_faster_targets() {
        let slow = max_trackable_speed(
            &takeover_template(SimDuration::from_secs(2), 1.0, 9),
            1,
            0.25,
        );
        let fast = max_trackable_speed(
            &takeover_template(SimDuration::from_millis(250), 1.0, 9),
            1,
            0.25,
        );
        assert!(
            fast > slow,
            "250 ms heartbeats ({fast} hops/s) must beat 2 s heartbeats ({slow} hops/s)"
        );
    }

    #[test]
    fn overload_breakdown_at_tiny_periods() {
        // Below the breakdown point, even slow targets cannot be tracked:
        // the CPU-saturated handoff machinery spawns disconnected groups.
        let v = max_trackable_speed(
            &takeover_template(SimDuration::from_micros(31_250), 1.0, 13),
            1,
            0.25,
        );
        let healthy = max_trackable_speed(
            &takeover_template(SimDuration::from_micros(62_500), 1.0, 13),
            1,
            0.25,
        );
        assert!(
            v < healthy,
            "31 ms heartbeats ({v} hops/s) must underperform 62.5 ms ({healthy} hops/s): the CPU breakdown"
        );
    }

    // Three votes per probed speed, as the figure itself uses: a
    // single-vote bisection collapses to the floor when one low-speed run
    // fails, and since the channel merge that happens at radius 2 for this
    // seed (EXPERIMENTS.md, "One channel pipeline").
    #[test]
    fn larger_signatures_track_faster() {
        let small = max_trackable_speed(
            &takeover_template(SimDuration::from_millis(500), 1.0, 11),
            3,
            0.25,
        );
        let large = max_trackable_speed(
            &takeover_template(SimDuration::from_millis(500), 2.0, 11),
            3,
            0.25,
        );
        assert!(
            large >= small,
            "radius 2 ({large} hops/s) must track at least as fast as radius 1 ({small})"
        );
    }
}
