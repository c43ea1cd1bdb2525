//! The sweep engine: cells run on the order-keeping executor and merged in
//! cell-id order.
//!
//! [`run_sweep`] hands its cells to [`parallel_map`], whose workers take
//! the next cell off a shared cursor. The merge then orders the lines by
//! *cell id* — never by the caller's list order or by when a cell finished
//! — which together with per-cell RNG isolation (see [`super::cells`])
//! makes the merged output byte-identical at any worker count.
//! [`scale_workers`] runs one cell set at 1, 2, 4 and 8 workers and checks
//! exactly that.

use std::time::{Duration, Instant};

use super::cells::SweepCell;
use super::parallel_map;

/// The merged result of one sweep plus its execution profile.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All cell lines, sorted by cell id, one per line, trailing newline.
    pub merged_jsonl: String,
    /// Cells executed.
    pub cells_run: usize,
    /// Worker threads the sweep was given.
    pub workers: usize,
    /// Wall-clock spent running cells (the parallel phase).
    pub run_wall: Duration,
    /// Wall-clock spent ordering and joining the lines (the merge).
    pub merge_wall: Duration,
}

impl SweepReport {
    /// Completed runs per wall-clock second over the parallel phase.
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        let s = self.run_wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.cells_run as f64 / s
        }
    }
}

/// Runs every cell across `workers` threads and merges their lines.
///
/// # Panics
///
/// Panics when `workers == 0` or when two cells share an id (the merge
/// key must identify a cell uniquely).
#[must_use]
pub fn run_sweep(cells: &[SweepCell], workers: usize) -> SweepReport {
    {
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "cell ids must be unique"
        );
    }

    let run_start = Instant::now();
    let lines = parallel_map(cells, workers, SweepCell::run);
    let run_wall = run_start.elapsed();

    let merge_start = Instant::now();
    let mut lines: Vec<(&str, String)> = cells.iter().map(|c| c.id.as_str()).zip(lines).collect();
    // Reduce in cell-id order so the merged bytes depend on the cell set
    // alone.
    lines.sort_unstable_by_key(|&(id, _)| id);
    let mut merged_jsonl = String::new();
    for (_, line) in &lines {
        merged_jsonl.push_str(line);
        merged_jsonl.push('\n');
    }
    let merge_wall = merge_start.elapsed();

    SweepReport {
        merged_jsonl,
        cells_run: lines.len(),
        workers,
        run_wall,
        merge_wall,
    }
}

/// Runs `cells` at 1, 2, 4 and 8 workers and returns each run's report
/// with its runs per second against the 1-worker run's, printing one line
/// a run to stderr after `label`.
///
/// # Panics
///
/// Panics when a merge differs from the 1-worker merge: the worker count
/// reached the output.
#[must_use]
pub fn scale_workers(cells: &[SweepCell], label: &str) -> Vec<(SweepReport, f64)> {
    let reports: Vec<SweepReport> = [1, 2, 4, 8].map(|w| run_sweep(cells, w)).into();
    let one = reports[0].clone();
    reports
        .into_iter()
        .map(|report| {
            assert_eq!(
                one.merged_jsonl, report.merged_jsonl,
                "merged output changed with worker count — determinism bug"
            );
            let speedup = if one.runs_per_sec() > 0.0 {
                report.runs_per_sec() / one.runs_per_sec()
            } else {
                0.0
            };
            eprintln!(
                "{label}: {} workers → {:.2}s wall, {:.1} runs/s ({speedup:.2}x vs 1)",
                report.workers,
                report.run_wall.as_secs_f64(),
                report.runs_per_sec(),
            );
            (report, speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::cells::default_cells;
    use super::*;

    #[test]
    fn every_cell_runs_exactly_once_at_any_worker_count() {
        let cells = default_cells(6, 40);
        for workers in [1, 3, 8] {
            let report = run_sweep(&cells, workers);
            assert_eq!(report.cells_run, cells.len());
            assert_eq!(report.merged_jsonl.lines().count(), cells.len());
        }
    }

    #[test]
    fn merged_output_is_sorted_by_cell_id() {
        let cells = default_cells(6, 40);
        let report = run_sweep(&cells, 4);
        let keys: Vec<&str> = report
            .merged_jsonl
            .lines()
            .map(|l| l.split('"').nth(3).expect("cell id field"))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    #[should_panic(expected = "cell ids must be unique")]
    fn duplicate_cell_ids_are_rejected() {
        let mut cells = default_cells(2, 40);
        cells[1].id = cells[0].id.clone();
        let _ = run_sweep(&cells, 2);
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let cells = default_cells(2, 77);
        let report = run_sweep(&cells, 8);
        assert_eq!(report.cells_run, 2);
    }

    #[test]
    fn every_worker_count_merges_the_same_bytes() {
        let cells = default_cells(4, 3);
        let rows = scale_workers(&cells, "test");
        let workers: Vec<usize> = rows.iter().map(|(r, _)| r.workers).collect();
        assert_eq!(workers, [1, 2, 4, 8]);
        assert_eq!(rows[0].1, 1.0, "one worker against itself");
    }
}
