//! Sweep cells: one `(scenario, seed)` point each, pure functions of
//! their spec.
//!
//! A cell carries everything its run needs, so any worker can execute it
//! and produce the identical JSON line. Determinism rests on per-cell RNG
//! isolation — every random stream in a run (radio fading, backoff, burst
//! chains, fault plans) forks from the cell's own seed, never from shared
//! or thread-local state — which is what lets the engine hand cells to
//! whichever worker is free without affecting the merged output.

use envirotrack_chaos::cell::{run_cell as run_chaos, ChaosCell};
use envirotrack_core::report::json::JsonObject;
use envirotrack_sim::time::SimDuration;

use crate::experiments::scale::{run_scale, ScaleRun};
use crate::harness::{run_tracking, tracker_program, TrackingRun};

/// What one sweep cell runs.
#[derive(Debug, Clone)]
pub enum CellSpec {
    /// The Figure-2 tracking application: a tank crossing a `cols`×`rows`
    /// grid at `speed_hops_per_s`, all other knobs at the paper defaults.
    Tracking {
        /// Grid columns.
        cols: u32,
        /// Grid rows.
        rows: u32,
        /// Tank speed in grid hops per second.
        speed_hops_per_s: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A chaos storm: the tracking app under a seed-random fault plan.
    Chaos(ChaosCell),
    /// A bounded scale run: `nodes` on a
    /// [`ScaleScenario`](envirotrack_world::scenario::ScaleScenario) square field,
    /// driven for `horizon_ms` of virtual time. The JSON line carries only
    /// virtual-time audits (never wall-clock), so merges stay
    /// byte-identical at any worker count.
    Scale {
        /// Field size in nodes.
        nodes: u32,
        /// Concurrent targets.
        targets: u32,
        /// Virtual horizon in milliseconds.
        horizon_ms: u64,
        /// RNG seed.
        seed: u64,
    },
}

/// One schedulable sweep point: a unique key plus its spec. Cells are
/// merged in ascending `id` order, so ids must be unique within a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Sort/merge key, unique within the sweep (e.g. `track-c10-s0007`).
    pub id: String,
    /// The run this cell performs.
    pub spec: CellSpec,
}

impl SweepCell {
    /// Executes the cell and encodes its outcome as one JSON line
    /// (no trailing newline). Pure: same spec ⇒ same bytes.
    #[must_use]
    pub(crate) fn run(&self) -> String {
        match &self.spec {
            CellSpec::Tracking {
                cols,
                rows,
                speed_hops_per_s,
                seed,
            } => {
                let cfg = TrackingRun {
                    cols: *cols,
                    rows: *rows,
                    speed_hops_per_s: *speed_hops_per_s,
                    seed: *seed,
                    ..TrackingRun::default()
                };
                let out = run_tracking(&cfg);
                JsonObject::new()
                    .field_str("cell", &self.id)
                    .field_str("kind", "tracking")
                    .field_u64("seed", *seed)
                    .field_u64("labels_created", out.labels_created as u64)
                    .field_u64("labels_suppressed", out.labels_suppressed as u64)
                    .field_u64("handovers", out.handovers as u64)
                    .field_f64("tracked_fraction", out.tracked_fraction)
                    .field_f64("mean_error", out.mean_error)
                    .field_u64("hb_tx", out.hb_tx)
                    .field_f64("hb_loss", out.hb_loss)
                    .field_f64("link_utilization", out.link_utilization)
                    .field_u64("elapsed_us", out.elapsed.as_micros())
                    .finish()
            }
            CellSpec::Scale {
                nodes,
                targets,
                horizon_ms,
                seed,
            } => {
                let cfg = ScaleRun {
                    nodes: *nodes,
                    targets: *targets,
                    horizon: SimDuration::from_millis(*horizon_ms),
                    seed: *seed,
                    ..ScaleRun::default()
                };
                let out = run_scale(&cfg, || (0, 0));
                JsonObject::new()
                    .field_str("cell", &self.id)
                    .field_str("kind", "scale")
                    .field_u64("seed", *seed)
                    .field_u64("nodes", u64::from(*nodes))
                    .field_u64("events", out.events)
                    .field_u64("labels_created", out.labels_created)
                    .field_u64("handovers", out.handovers)
                    .field_u64("horizon_ms", *horizon_ms)
                    .finish()
            }
            CellSpec::Chaos(cell) => {
                let record = run_chaos(cell, tracker_program());
                // Splice the cell header onto the flat record object.
                let body = record.to_json();
                let tagged = JsonObject::new()
                    .field_str("cell", &self.id)
                    .field_str("kind", "chaos")
                    .finish();
                format!(
                    "{},{}",
                    &tagged[..tagged.len() - 1],
                    &body[1..]
                )
            }
        }
    }
}

/// The default smoke sweep: `n` cells alternating small tracking runs and
/// small chaos storms, seeded from `base_seed`. Ids encode kind and seed,
/// so they sort deterministically.
#[must_use]
pub fn default_cells(n: usize, base_seed: u64) -> Vec<SweepCell> {
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            if i % 2 == 0 {
                SweepCell {
                    id: format!("track-s{seed:06}"),
                    spec: CellSpec::Tracking {
                        cols: 10,
                        rows: 2,
                        speed_hops_per_s: 0.2,
                        seed,
                    },
                }
            } else {
                SweepCell {
                    id: format!("chaos-s{seed:06}"),
                    spec: CellSpec::Chaos(ChaosCell {
                        cols: 6,
                        rows: 2,
                        horizon: SimDuration::from_secs(20),
                        seed,
                    }),
                }
            }
        })
        .collect()
}

/// A homogeneous scale sweep: `n` cells of `nodes` nodes each, seeded from
/// `base_seed`, with a short bounded horizon. Used by the `scale` bin's
/// worker-scaling section.
#[must_use]
pub fn scale_cells(n: usize, nodes: u32, base_seed: u64) -> Vec<SweepCell> {
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            SweepCell {
                id: format!("scale-n{nodes:06}-s{seed:06}"),
                spec: CellSpec::Scale {
                    nodes,
                    targets: 2,
                    horizon_ms: 2_000,
                    seed,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_pure_functions_of_their_spec() {
        for cell in default_cells(2, 9) {
            assert_eq!(cell.run(), cell.run(), "cell {} not pure", cell.id);
        }
    }

    #[test]
    fn chaos_lines_are_single_flat_json_objects() {
        let cell = &default_cells(2, 9)[1];
        let line = cell.run();
        assert!(line.starts_with("{\"cell\":\"chaos-s"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"violations\":"));
    }

    #[test]
    fn scale_cells_are_pure_and_wall_clock_free() {
        for cell in scale_cells(2, 120, 5) {
            let line = cell.run();
            assert_eq!(line, cell.run(), "cell {} not pure", cell.id);
            assert!(line.contains("\"kind\":\"scale\""));
            assert!(line.contains("\"events\":"));
            assert!(!line.contains("wall"), "scale lines must stay wall-clock free");
        }
    }

    #[test]
    fn default_cell_ids_are_unique_and_sorted_stable() {
        let cells = default_cells(8, 100);
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }
}
