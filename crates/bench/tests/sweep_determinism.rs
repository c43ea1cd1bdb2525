//! Cross-worker determinism: the sweep engine's merged output is a pure
//! function of the cell set — worker count, scheduling and the order the
//! cells are listed in must never show through. This extends the
//! byte-identical-replay contract from `crates/chaos/tests` to the
//! parallel engine.

use envirotrack_bench::sweep::{default_cells, run_sweep};

#[test]
fn one_and_eight_workers_merge_byte_identically() {
    let cells = default_cells(8, 21);
    let one = run_sweep(&cells, 1);
    let eight = run_sweep(&cells, 8);
    assert_eq!(
        one.merged_jsonl, eight.merged_jsonl,
        "worker count leaked into the merged output"
    );
    assert_eq!(one.cells_run, 8);
    assert_eq!(eight.cells_run, 8);
    // And an in-between count with a ragged cell/worker ratio.
    let three = run_sweep(&cells, 3);
    assert_eq!(one.merged_jsonl, three.merged_jsonl);
}

#[test]
fn repeated_parallel_sweeps_are_byte_identical() {
    // Same worker count, two executions: the workers may take the cells
    // in another order, the bytes must not move.
    let cells = default_cells(6, 77);
    let a = run_sweep(&cells, 4);
    let b = run_sweep(&cells, 4);
    assert_eq!(a.merged_jsonl, b.merged_jsonl);
}

/// Cells listed out of id order merge in id order, and into the bytes the
/// same cells listed another way merge into, at every worker count: the
/// merge never follows the list or the order the cells finish in.
#[test]
fn the_merge_is_in_cell_id_order_whatever_the_list_order() {
    let cells = default_cells(8, 5);
    let mut listed = cells.clone();
    listed.reverse();
    let listed_ids: Vec<String> = listed.iter().map(|c| c.id.clone()).collect();
    let mut sorted = listed_ids.clone();
    sorted.sort_unstable();
    assert_ne!(
        listed_ids, sorted,
        "the cells must be listed out of id order"
    );
    let ids = |jsonl: &str| -> Vec<String> {
        let id = |line: &str| line.split('"').nth(3).expect("cell id field").to_string();
        jsonl.lines().map(id).collect()
    };
    let reference = run_sweep(&cells, 1).merged_jsonl;
    for workers in [1, 2, 3, 8] {
        let merged = run_sweep(&listed, workers).merged_jsonl;
        assert_eq!(ids(&merged), sorted, "{workers} workers");
        assert_eq!(merged, reference, "{workers} workers");
    }
}
