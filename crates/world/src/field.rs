//! Sensor deployments: where the motes sit in the field.
//!
//! The paper's testbed arranges motes on a rectangular grid with unit
//! spacing; ad hoc deployments drop nodes uniformly at random. Both are
//! provided here, plus a jittered grid in between.
//!
//! ```
//! use envirotrack_world::field::Deployment;
//!
//! let field = Deployment::grid(10, 2, 1.0);
//! assert_eq!(field.len(), 20);
//! let near_origin = field.nodes_within(envirotrack_world::geometry::Point::ORIGIN, 1.5);
//! assert_eq!(near_origin.len(), 4); // (0,0), (1,0), (0,1), (1,1)
//! ```

use std::sync::Arc;

use envirotrack_sim::rng::SimRng;

use crate::geometry::{Aabb, Point};

/// Identifies one sensor node for the lifetime of a simulation.
///
/// Ids are dense indices into the deployment, which lets per-node state live
/// in plain `Vec`s throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable placement of sensor nodes in the plane.
///
/// The positions are stored once and shared: a clone, and the
/// [`crate::grid::Topology`] built over the deployment, hold the same array.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    positions: Arc<[Point]>,
    bounds: Aabb,
}

impl Deployment {
    /// Builds a deployment from explicit positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty — a sensor network needs sensors —
    /// or if any coordinate is NaN or infinite. Every constructor funnels
    /// through here, so downstream spatial indexing (`grid::Topology`) can
    /// assume finite coordinates instead of silently clamping NaN to the
    /// first cell.
    #[must_use]
    pub fn from_positions(positions: Vec<Point>) -> Self {
        assert!(
            !positions.is_empty(),
            "a deployment needs at least one node"
        );
        for (i, p) in positions.iter().enumerate() {
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "node {i} has a non-finite position {p}: deployments require finite coordinates"
            );
        }
        let mut min = positions[0];
        let mut max = positions[0];
        for p in &positions {
            min = Point::new(min.x.min(p.x), min.y.min(p.y));
            max = Point::new(max.x.max(p.x), max.y.max(p.y));
        }
        Deployment {
            positions: positions.into(),
            bounds: Aabb::new(min, max),
        }
    }

    /// A `cols × rows` rectangular grid with the given spacing, nodes at
    /// integer multiples of `spacing` starting from the origin. This is the
    /// paper's testbed layout.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero, or `spacing` is not positive.
    #[must_use]
    pub fn grid(cols: u32, rows: u32, spacing: f64) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one node");
        assert!(spacing > 0.0, "grid spacing must be positive");
        let mut positions = Vec::with_capacity((cols * rows) as usize);
        for row in 0..rows {
            for col in 0..cols {
                positions.push(Point::new(
                    f64::from(col) * spacing,
                    f64::from(row) * spacing,
                ));
            }
        }
        Deployment::from_positions(positions)
    }

    /// `n` nodes dropped uniformly at random over `area`, modelling the
    /// paper's air-dropped ad hoc deployment.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn random_uniform(n: u32, area: Aabb, rng: &mut SimRng) -> Self {
        assert!(n > 0, "a deployment needs at least one node");
        let positions = (0..n)
            .map(|_| {
                Point::new(
                    rng.uniform_range(area.min.x, area.max.x.max(area.min.x + f64::MIN_POSITIVE)),
                    rng.uniform_range(area.min.y, area.max.y.max(area.min.y + f64::MIN_POSITIVE)),
                )
            })
            .collect();
        Deployment::from_positions(positions)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// The heap bytes of its positions: the shared array and its two
    /// reference counts, counted here and by no holder that shares them.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        2 * size_of::<usize>() + size_of_val(&*self.positions)
    }

    /// The position array itself, for a holder that shares it.
    pub(crate) fn shared_positions(&self) -> Arc<[Point]> {
        Arc::clone(&self.positions)
    }

    /// Whether the deployment is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this deployment.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    /// All node positions, indexable by [`NodeId::index`].
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Iterates `(NodeId, Point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Point)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId(i as u32), p))
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The bounding box of all node positions.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The node closest to `p` (ties broken by lowest id).
    #[must_use]
    pub fn nearest(&self, p: Point) -> NodeId {
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for (id, pos) in self.iter() {
            let d = pos.distance_sq_to(p);
            if d < best_d {
                best_d = d;
                best = id;
            }
        }
        best
    }

    /// Ids of all nodes within `radius` of `p` (inclusive), in id order.
    #[must_use]
    pub fn nodes_within(&self, p: Point, radius: f64) -> Vec<NodeId> {
        let r2 = radius * radius;
        self.iter()
            .filter(|(_, pos)| pos.distance_sq_to(p) <= r2)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_layout_matches_row_major_ids() {
        let d = Deployment::grid(3, 2, 2.0);
        assert_eq!(d.len(), 6);
        assert_eq!(d.position(NodeId(0)), Point::new(0.0, 0.0));
        assert_eq!(d.position(NodeId(2)), Point::new(4.0, 0.0));
        assert_eq!(d.position(NodeId(3)), Point::new(0.0, 2.0));
        assert_eq!(d.bounds(), Aabb::new(Point::ORIGIN, Point::new(4.0, 2.0)));
    }

    #[test]
    fn nearest_finds_closest_node() {
        let d = Deployment::grid(5, 5, 1.0);
        assert_eq!(d.nearest(Point::new(2.2, 3.4)), NodeId(2 + 3 * 5));
        assert_eq!(d.nearest(Point::new(-10.0, -10.0)), NodeId(0));
    }

    #[test]
    fn nodes_within_is_inclusive_and_ordered() {
        let d = Deployment::grid(3, 3, 1.0);
        let ids = d.nodes_within(Point::new(1.0, 1.0), 1.0);
        assert_eq!(
            ids,
            vec![NodeId(1), NodeId(3), NodeId(4), NodeId(5), NodeId(7)]
        );
    }

    #[test]
    fn random_uniform_stays_in_area_and_is_seeded() {
        let area = Aabb::new(Point::ORIGIN, Point::new(10.0, 5.0));
        let mut rng1 = SimRng::seed_from(1);
        let mut rng2 = SimRng::seed_from(1);
        let d1 = Deployment::random_uniform(100, area, &mut rng1);
        let d2 = Deployment::random_uniform(100, area, &mut rng2);
        assert_eq!(d1, d2);
        for (_, p) in d1.iter() {
            assert!(area.contains(p), "{p} outside {area:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_deployment_is_rejected() {
        let _ = Deployment::from_positions(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-finite position")]
    fn nan_coordinate_is_rejected() {
        let _ = Deployment::from_positions(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-finite position")]
    fn infinite_coordinate_is_rejected() {
        let _ = Deployment::from_positions(vec![Point::new(1.0, f64::INFINITY)]);
    }
}
