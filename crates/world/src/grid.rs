//! A uniform spatial grid: who is within radio range of whom.
//!
//! The unit-disk radio model needs, for a node, the nodes within `radius`.
//! The naive answer compares all pairs — O(n²) distance checks — which
//! caps simulated fields at a few thousand nodes. [`Topology`] buckets
//! nodes into square cells of side `>= radius`; any node within `radius`
//! of a point then lies in the point's own cell or one of its 8 neighbors
//! (the *9-cell stencil*), because crossing out of the stencil requires
//! moving more than one cell side (`>= radius`) along some axis. Finding
//! one node's neighbours scans its stencil, O(deg) for fields of bounded
//! density, and a world scans only the nodes something asks about.
//!
//! The buckets are *compressed sparse rows*: one flat array of ids plus
//! the offset where each bucket starts, so a topology of any size is built
//! from two allocations. A scan finds a node's neighbours in bucket order;
//! sorted ascending by [`NodeId`] they are exactly the list the
//! brute-force scan produces, which keeps every downstream consumer
//! (radio medium, geographic router, delivery walks) byte-identical
//! whoever made the list and when. The brute-force path stays available
//! via [`NeighborStrategy::BruteForce`] as a test oracle and determinism
//! cross-check.

use std::sync::Arc;

use crate::field::{Deployment, NodeId};
use crate::geometry::Point;

/// How to list every node's neighbours in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborStrategy {
    /// Bucket nodes into a uniform grid and scan each node's 9-cell
    /// stencil: O(n · deg). The default.
    #[default]
    Grid,
    /// Compare all pairs: O(n²). Kept as the oracle for property tests and
    /// the determinism pin; produces bit-identical lists to `Grid`.
    BruteForce,
}

/// The cells of a uniform grid over a deployment, side `>= radius`: where
/// each cell is, not what is in it.
///
/// The cell side is normally exactly `radius`, but is grown when the field
/// is so much larger than the radius that a radius-sized grid would
/// allocate far more cells than nodes (a sparse field with a tiny radio
/// range); a larger cell never misses a neighbor, it only adds candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cells {
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
}

impl Cells {
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    fn new(deployment: &Deployment, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "grid radius must be finite and positive, got {radius}"
        );
        let bounds = deployment.bounds();
        let origin = bounds.min;
        let span_x = (bounds.max.x - origin.x).max(0.0);
        let span_y = (bounds.max.y - origin.y).max(0.0);
        // Cap the cell count near the node count: at most ~sqrt(n)+1 cells
        // per axis. Correctness only needs `cell >= radius`.
        let n = deployment.len();
        let max_axis = (n as f64).sqrt().ceil().max(1.0);
        let cell = radius.max(span_x / max_axis).max(span_y / max_axis);
        Cells {
            origin,
            cell,
            cols: Self::axis_cells(span_x, cell),
            rows: Self::axis_cells(span_y, cell),
        }
    }

    fn axis_cells(span: f64, cell: f64) -> usize {
        // floor(span / cell) + 1 cells cover [0, span]; the +1 also keeps
        // a degenerate zero-span axis at one cell.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = (span / cell).floor() as usize + 1;
        c
    }

    fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// The (clamped) cell coordinates of a position.
    fn cell_of(&self, pos: Point) -> (usize, usize) {
        // Non-finite coordinates would silently clamp into cell (0, 0)
        // below; `Deployment` rejects them at construction, so reaching
        // here with NaN/∞ is a caller bug.
        debug_assert!(
            pos.x.is_finite() && pos.y.is_finite(),
            "cell_of requires finite coordinates, got {pos}"
        );
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let clamp = |v: f64, cells: usize| -> usize {
            // Positions sit inside the bounds by construction; the clamp
            // only absorbs float round-off at the far edge. The cast
            // truncates toward zero and saturates, so it is the floor
            // clamped at zero — anything below one, and NaN, goes to zero —
            // without a call to `floor`.
            ((v / self.cell) as usize).min(cells - 1)
        };
        (
            clamp(pos.x - self.origin.x, self.cols),
            clamp(pos.y - self.origin.y, self.rows),
        )
    }

    /// The row-major index of the cell holding `pos`.
    fn index_of(&self, pos: Point) -> usize {
        let (cx, cy) = self.cell_of(pos);
        cy * self.cols + cx
    }
}

/// Counts one more entry for `bucket`: the first of the three steps that
/// build a compressed-sparse-row table in `offsets` (`len + 1` slots, all
/// zero to begin with). A bucket's size goes into `offsets[bucket + 2]`;
/// the last bucket's size is not needed.
#[inline]
fn count(offsets: &mut [u32], bucket: usize) {
    if let Some(size) = offsets.get_mut(bucket + 2) {
        *size += 1;
    }
}

/// Turns the counted sizes into offsets in place (see [`count`]).
/// Afterwards `offsets[k + 1]` is where bucket `k` starts: it serves as the
/// bucket's write cursor while [`push`] fills the buckets, and filling
/// leaves it at the bucket's end — where bucket `k + 1` starts, which is
/// the finished table.
fn prefix_sum(offsets: &mut [u32]) {
    for k in 1..offsets.len() {
        offsets[k] += offsets[k - 1];
    }
}

/// Writes `value` at `offsets[bucket + 1]`, the bucket's cursor, and
/// moves the cursor on (see [`prefix_sum`]).
#[inline]
fn push<T>(flat: &mut [T], offsets: &mut [u32], bucket: usize, value: T) {
    let cursor = &mut offsets[bucket + 1];
    flat[*cursor as usize] = value;
    *cursor += 1;
}

/// The shard owning grid column `col` of a `cols`-column grid striped over
/// `shards` shards. Monotone non-decreasing in `col`, which is what makes
/// footprint interest sets contiguous shard ranges.
#[must_use]
fn shard_of_column(col: usize, cols: usize, shards: usize) -> usize {
    (col * shards / cols).min(shards - 1)
}

/// Assigns every node of `deployment` to one of `shards` shards by striping
/// the spatial grid's cell columns via `shard_of_column`. The sharded
/// kernel is shard-count-invariant for *any* node partition; striping along
/// the grid keeps each shard's nodes spatially contiguous, so almost all
/// radio traffic a shard dispatches is to its own nodes.
///
/// # Panics
///
/// Panics if `shards` is zero or `radius` is not finite and positive.
#[must_use]
pub fn shard_assignment(deployment: &Deployment, radius: f64, shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "at least one shard is required");
    let cells = Cells::new(deployment, radius);
    let positions = deployment.positions().iter();
    positions
        .map(|&p| shard_of_column(cells.cell_of(p).0, cells.cols, shards))
        .collect()
}

/// Per-node shard *interest ranges* for partitioned-medium intent routing:
/// `ranges[i] = (lo, hi)` means a transmission by node `i` can only be
/// heard by nodes owned by shards `lo..=hi` (under the same `radius` and
/// the [`shard_assignment`] striping).
///
/// Soundness is the 9-cell-stencil argument restricted to columns: the
/// grid's cell side is `>= radius`, so any receiver within `radius` of a
/// node in column `cx` lies in column `cx - 1`, `cx`, or `cx + 1`; shards
/// stripe whole columns monotonically (`shard_of_column`), so the owning
/// shards of those three columns form the contiguous range
/// `shard_of_column(cx-1) ..= shard_of_column(cx+1)`. The sender's own
/// owner is `shard_of_column(cx)`, inside the range by monotonicity — the
/// range always covers self-accounting (transmit energy, half-duplex).
///
/// # Panics
///
/// Panics if `shards` is zero or `radius` is not finite and positive.
#[must_use]
pub fn shard_interest_ranges(
    deployment: &Deployment,
    radius: f64,
    shards: usize,
) -> Vec<(usize, usize)> {
    assert!(shards >= 1, "at least one shard is required");
    let cells = Cells::new(deployment, radius);
    let cols = cells.cols;
    deployment
        .positions()
        .iter()
        .map(|&p| {
            let cx = cells.cell_of(p).0;
            let lo = shard_of_column(cx.saturating_sub(1), cols, shards);
            let hi = shard_of_column((cx + 1).min(cols - 1), cols, shards);
            (lo, hi)
        })
        .collect()
}

/// Builds per-node neighbor lists with an explicit strategy. Both
/// strategies produce identical output: for every node, the ids of all
/// *other* nodes at distance `<= radius`, ascending by [`NodeId`]. `Grid`
/// sorts [`Topology::for_each_neighbor`] of every node in turn.
#[must_use]
pub fn neighbor_lists_with(
    deployment: &Deployment,
    radius: f64,
    strategy: NeighborStrategy,
) -> Vec<Vec<NodeId>> {
    match strategy {
        NeighborStrategy::Grid => {
            let topology = Topology::new(deployment, radius);
            let mut list = Vec::new();
            let lists = deployment.ids().map(|id| {
                list.clear();
                topology.for_each_neighbor(id, |b| list.push(b));
                list.sort_unstable();
                list.clone()
            });
            lists.collect()
        }
        NeighborStrategy::BruteForce => {
            let r2 = radius * radius;
            let mut neighbors = vec![Vec::new(); deployment.len()];
            for (a, pa) in deployment.iter() {
                for (b, pb) in deployment.iter() {
                    if a != b && pa.distance_sq_to(pb) <= r2 {
                        neighbors[a.index()].push(b);
                    }
                }
            }
            neighbors
        }
    }
}

/// A deployment's radio topology under one communication radius: where
/// every node is, and a bucket grid of cell side `>= radius` to find whom
/// it can reach. Built once per world and shared, immutable, by everything
/// that asks who hears whom (the radio medium) or who is next towards a
/// point (the router).
///
/// It holds no neighbour table. A node's neighbours are found when asked,
/// by scanning the 9-cell stencil around it ([`Topology::for_each_neighbor`]);
/// a holder that walks the same node's neighbours again sorts them once and
/// keeps the list (the medium does, for the nodes that transmit or route).
/// [`Topology::in_range`] answers one pair by the comparison the scan
/// filters with: the same squared distance against the same
/// `radius * radius`. Use the scan to enumerate, the test to answer one pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// The deployment's own array, shared rather than copied.
    positions: Arc<[Point]>,
    cells: Cells,
    /// Every node's index, bucketed by cell: cell `c` holds
    /// `ids[starts[c]..starts[c + 1]]`, cells row-major, ascending inside
    /// a cell (the counting sort places the nodes in id order).
    ids: Vec<u32>,
    starts: Vec<u32>,
    radius: f64,
    r2: f64,
}

impl Topology {
    /// The heap bytes of its bucket arrays. The positions are the
    /// deployment's, and counted there ([`Deployment::heap_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (self.ids.capacity() + self.starts.capacity()) * size_of::<u32>()
    }

    /// Buckets every node of `deployment` into cells of side `>= radius`,
    /// from two allocations whatever the node count: the bucketed ids and
    /// where each cell starts.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    #[must_use]
    pub fn new(deployment: &Deployment, radius: f64) -> Self {
        let cells = Cells::new(deployment, radius);
        let positions = deployment.shared_positions();
        let mut starts = vec![0u32; cells.len() + 1];
        for &pos in positions.iter() {
            count(&mut starts, cells.index_of(pos));
        }
        prefix_sum(&mut starts);
        let mut ids = vec![0u32; positions.len()];
        for (id, &pos) in (0u32..).zip(positions.iter()) {
            push(&mut ids, &mut starts, cells.index_of(pos), id);
        }
        Topology {
            positions,
            cells,
            ids,
            starts,
            radius,
            r2: radius * radius,
        }
    }

    /// The radius the topology was built under.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Every node's position, indexed by id.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// How many grid cells there are.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every node of grid cell `cell` in id order, `None` past the last
    /// cell; cells are numbered row-major from zero. A world groups its
    /// nodes by these cells where it needs blocks of neighbours; walking
    /// the cells from zero meets every node once, and tells each its cell
    /// with no arithmetic on its position.
    #[must_use]
    pub fn bucket(&self, cell: usize) -> Option<&[u32]> {
        let to = *self.starts.get(cell + 1)?;
        Some(&self.ids[self.starts[cell] as usize..to as usize])
    }

    /// The grid cell `node` is in: the bucket that lists it.
    #[must_use]
    #[inline]
    pub fn cell_of(&self, node: NodeId) -> usize {
        self.cells.index_of(self.positions[node.index()])
    }

    /// Per grid cell, the smallest box that holds its nodes' positions, as
    /// `[lo.x, lo.y, hi.x, hi.y]` with each side rounded outward to `f32`,
    /// so that it holds them still; a cell with no node gets a box that
    /// holds no point. A node never moves, so a holder works them out once.
    #[must_use]
    pub(crate) fn member_boxes(&self) -> Vec<[f32; 4]> {
        // The nearest `f32` at or below `v`, and at or above it.
        let down = |v: f64| {
            let f = v as f32;
            if f64::from(f) > v {
                f.next_down()
            } else {
                f
            }
        };
        let up = |v: f64| {
            let f = v as f32;
            if f64::from(f) < v {
                f.next_up()
            } else {
                f
            }
        };
        (0..self.cells())
            .map(|cell| {
                let members = self.bucket(cell).expect("a cell of the grid");
                let empty = (
                    Point::new(f64::INFINITY, f64::INFINITY),
                    Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
                );
                let (lo, hi) = members.iter().fold(empty, |(lo, hi), &m| {
                    let p = self.positions[m as usize];
                    (
                        Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                        Point::new(hi.x.max(p.x), hi.y.max(p.y)),
                    )
                });
                [down(lo.x), down(lo.y), up(hi.x), up(hi.y)]
            })
            .collect()
    }

    /// Every grid cell that can hold a node inside the box `[lo, hi]`, row by
    /// row: the cells from `lo`'s to `hi`'s along each axis. A cell is found
    /// by the function that buckets the nodes, which never decreases along
    /// either axis, so a node inside the box lands in one of them whatever
    /// the rounding. The corners must be finite.
    pub(crate) fn cells_within(&self, lo: Point, hi: Point) -> impl Iterator<Item = usize> + '_ {
        let ((x0, y0), (x1, y1)) = (self.cells.cell_of(lo), self.cells.cell_of(hi));
        let cols = self.cells.cols;
        (y0..=y1).flat_map(move |y| y * cols + x0..=y * cols + x1)
    }

    /// Calls `f` with every node within the radius of `node`, itself
    /// excluded: the candidates of the 9-cell stencil around it that pass
    /// the distance test, row by row. A row's three cells are adjacent in
    /// the bucket array, so each row is one slice; ids ascend within a
    /// cell, not across the row, so a caller that needs the list in id
    /// order sorts what it was given. Every caller that enumerates a
    /// node's neighbours goes through this scan.
    #[inline]
    pub fn for_each_neighbor(&self, node: NodeId, mut f: impl FnMut(NodeId)) {
        let Cells { cols, rows, .. } = self.cells;
        let here = self.positions[node.index()];
        let (cx, cy) = self.cells.cell_of(here);
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(cols - 1));
        for y in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
            let row = y * cols;
            let (from, to) = (self.starts[row + x0], self.starts[row + x1 + 1]);
            for &b in &self.ids[from as usize..to as usize] {
                if b != node.0 && here.distance_sq_to(self.positions[b as usize]) <= self.r2 {
                    f(NodeId(b));
                }
            }
        }
    }

    /// Whether `b` is within the radius of `a` — whether the scan of `a`
    /// finds `b`, answered by the comparison the scan filters with rather
    /// than by a scan. Symmetric; a node is not in
    /// range of itself.
    #[inline]
    #[must_use]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        let near = a != b
            && self.positions[a.index()].distance_sq_to(self.positions[b.index()]) <= self.r2;
        debug_assert_eq!(
            near,
            {
                let mut listed = false;
                self.for_each_neighbor(a, |n| listed |= n == b);
                listed
            },
            "distance test and stencil scan disagree on {a} -> {b}"
        );
        near
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_lists(d: &Deployment, radius: f64) -> Vec<Vec<NodeId>> {
        neighbor_lists_with(d, radius, NeighborStrategy::Grid)
    }

    #[test]
    fn grid_matches_brute_force_on_the_testbed_grid() {
        let d = Deployment::grid(10, 2, 1.0);
        assert_eq!(
            grid_lists(&d, 6.0),
            neighbor_lists_with(&d, 6.0, NeighborStrategy::BruteForce),
        );
    }

    #[test]
    fn lists_are_ascending_and_symmetric() {
        let d = Deployment::grid(7, 7, 1.0);
        let lists = grid_lists(&d, 2.5);
        for (a, list) in lists.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "node {a} not sorted");
            for b in list {
                assert!(
                    lists[b.index()].binary_search(&NodeId(a as u32)).is_ok(),
                    "asymmetric edge {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        // Two nodes exactly `radius` apart are neighbors, even across a
        // cell boundary.
        let d = Deployment::from_positions(vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)]);
        let lists = grid_lists(&d, 3.0);
        assert_eq!(lists[0], vec![NodeId(1)]);
        assert_eq!(lists[1], vec![NodeId(0)]);
    }

    #[test]
    fn the_range_test_is_membership_in_the_list() {
        let d = Deployment::grid(7, 5, 1.0);
        for radius in [1.0, 1.5, 2.0, 2.5, 5.0] {
            let t = Topology::new(&d, radius);
            assert_eq!(t.radius(), radius);
            // Against the all-pairs scan: `in_range` checks itself against
            // the stencil scan in debug builds already.
            let scanned = neighbor_lists_with(&d, radius, NeighborStrategy::BruteForce);
            assert_eq!(grid_lists(&d, radius), scanned);
            for a in d.ids() {
                for b in d.ids() {
                    let listed = scanned[a.index()].contains(&b);
                    assert_eq!(t.in_range(a, b), listed, "{a} -> {b} at {radius}");
                }
            }
        }
    }

    #[test]
    fn single_node_field_has_no_neighbors() {
        let d = Deployment::from_positions(vec![Point::new(4.0, -2.0)]);
        assert!(grid_lists(&d, 10.0)[0].is_empty());
    }

    /// The counting sort keeps every node exactly once, in its own cell,
    /// ascending inside each.
    #[test]
    fn buckets_hold_every_node_once_in_id_order() {
        let d = Deployment::grid(13, 7, 0.7);
        let grid = Topology::new(&d, 1.1);
        assert_eq!(grid.starts.len(), grid.cells.len() + 1);
        assert_eq!(grid.starts[grid.cells.len()] as usize, d.len());
        for c in 0..grid.cells.len() {
            let bucket = &grid.ids[grid.starts[c] as usize..grid.starts[c + 1] as usize];
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "cell {c}");
            for &id in bucket {
                assert_eq!(grid.cells.index_of(d.position(NodeId(id))), c);
            }
        }
    }

    #[test]
    fn sparse_field_with_tiny_radius_caps_cell_count() {
        // 16 nodes spread over a 1000-unit span with radius 0.5 must not
        // allocate a 2000x2000 cell grid.
        let positions = (0..16)
            .map(|i| Point::new(f64::from(i) * 66.0, f64::from(i % 4) * 250.0))
            .collect();
        let d = Deployment::from_positions(positions);
        let cells = Cells::new(&d, 0.5).len();
        assert!(cells <= 64, "cells = {cells}");
        assert_eq!(
            grid_lists(&d, 0.5),
            neighbor_lists_with(&d, 0.5, NeighborStrategy::BruteForce),
        );
    }

    #[test]
    fn max_edge_nodes_land_in_the_last_cell() {
        // Nodes sitting exactly on the field's max edge must bucket into
        // the last cell, not wrap or clamp to cell 0.
        let d = Deployment::from_positions(vec![
            Point::new(0.0, 0.0),
            Point::new(12.0, 0.0),
            Point::new(0.0, 12.0),
            Point::new(12.0, 12.0),
        ]);
        let cells = Cells::new(&d, 3.0);
        let last = (cells.cols - 1, cells.rows - 1);
        assert_eq!(cells.cell_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(cells.cell_of(Point::new(12.0, 12.0)), last);
        assert_eq!(cells.cell_of(Point::new(12.0, 0.0)), (last.0, 0));
        assert_eq!(cells.cell_of(Point::new(0.0, 12.0)), (0, last.1));
        // Property over many spans: the max corner always maps to the
        // last cell, for spans that do and do not divide the cell side.
        for n in 1..40u32 {
            let span = f64::from(n) * 0.7;
            let d = Deployment::from_positions(vec![Point::new(0.0, 0.0), Point::new(span, span)]);
            let cells = Cells::new(&d, 1.3);
            assert_eq!(
                cells.cell_of(Point::new(span, span)),
                (cells.cols - 1, cells.rows - 1),
                "span {span}"
            );
        }
    }

    #[test]
    fn shard_assignment_stripes_columns_and_covers_every_shard() {
        let d = Deployment::grid(20, 20, 1.0);
        for shards in [1usize, 2, 4, 7] {
            let owners = shard_assignment(&d, 2.5, shards);
            assert_eq!(owners.len(), d.len());
            assert!(owners.iter().all(|&s| s < shards));
            let mut seen = vec![false; shards];
            for &s in &owners {
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{shards} shards not all used");
            // Striping is monotone in x: a node never owns a lower shard
            // than a node strictly to its left in the same row.
            for (id, p) in d.iter() {
                for (id2, p2) in d.iter() {
                    if p.y == p2.y && p.x < p2.x {
                        assert!(owners[id.index()] <= owners[id2.index()]);
                    }
                }
            }
        }
        assert!(shard_assignment(&d, 2.5, 1).iter().all(|&s| s == 0));
    }

    #[test]
    fn interest_ranges_cover_every_brute_force_receiver() {
        let d = Deployment::grid(20, 20, 1.0);
        let radius = 2.5;
        for shards in [1usize, 2, 4, 7] {
            let owners = shard_assignment(&d, radius, shards);
            let ranges = shard_interest_ranges(&d, radius, shards);
            let lists = neighbor_lists_with(&d, radius, NeighborStrategy::BruteForce);
            for (a, list) in lists.iter().enumerate() {
                let (lo, hi) = ranges[a];
                assert!(lo <= hi && hi < shards);
                assert!(
                    (lo..=hi).contains(&owners[a]),
                    "node {a} outside its own interest range"
                );
                for b in list {
                    assert!(
                        (lo..=hi).contains(&owners[b.index()]),
                        "receiver {b} of {a} outside interest range {lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn interest_ranges_are_proper_subsets_on_wide_fields() {
        // A field much wider than the radius must give interior nodes an
        // interest range narrower than the full shard set — otherwise
        // partitioned routing degenerates to broadcast.
        let d = Deployment::grid(40, 4, 1.0);
        let ranges = shard_interest_ranges(&d, 1.5, 8);
        assert!(
            ranges.iter().any(|&(lo, hi)| hi - lo + 1 < 8),
            "no node had a narrow interest range"
        );
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let d = Deployment::from_positions(vec![
            Point::new(-5.0, -5.0),
            Point::new(-4.5, -5.0),
            Point::new(5.0, 5.0),
        ]);
        let lists = grid_lists(&d, 1.0);
        assert_eq!(lists[0], vec![NodeId(1)]);
        assert_eq!(lists[1], vec![NodeId(0)]);
        assert!(lists[2].is_empty());
    }
}
