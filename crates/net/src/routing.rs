//! Greedy geographic forwarding.
//!
//! The paper assumes "network nodes and routing are location-aware" (§2) and
//! builds its directory and transport on location-addressed messages. This
//! module supplies that assumed substrate: a stateless greedy router that at
//! each hop forwards to the neighbour strictly closest to the destination
//! *coordinate*, terminating at the local minimum (the node closest to the
//! point in its own neighbourhood) — which is exactly the node set the
//! directory hashes types onto.
//!
//! Greedy forwarding can fail around voids; [`GeoRouter::route`] reports
//! that explicitly rather than looping. On the paper's grid deployments,
//! greedy always succeeds.
//!
//! ```
//! use envirotrack_net::routing::GeoRouter;
//! use envirotrack_world::field::{Deployment, NodeId};
//! use envirotrack_world::geometry::Point;
//!
//! let field = Deployment::grid(5, 5, 1.0);
//! let router = GeoRouter::new(&field, 1.5);
//! let path = router.route(NodeId(0), Point::new(4.0, 4.0)).unwrap();
//! assert_eq!(*path.last().unwrap(), NodeId(24));
//! ```

use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::Topology;

/// Error returned when greedy forwarding gets stuck in a void.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingVoidError {
    /// The node at which no neighbour was closer to the destination.
    pub stuck_at: NodeId,
    /// The destination coordinate being routed towards.
    pub dest: Point,
}

impl std::fmt::Display for RoutingVoidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "greedy routing stuck at {} short of {}",
            self.stuck_at, self.dest
        )
    }
}

impl std::error::Error for RoutingVoidError {}

/// A stateless greedy geographic router over a fixed deployment.
#[derive(Debug, Clone)]
pub struct GeoRouter {
    topology: Topology,
}

impl GeoRouter {
    /// Builds the topology of `deployment` under the given communication
    /// radius for the router to scan.
    #[must_use]
    pub fn new(deployment: &Deployment, comm_radius: f64) -> Self {
        assert!(comm_radius > 0.0, "communication radius must be positive");
        GeoRouter {
            topology: Topology::new(deployment, comm_radius),
        }
    }

    /// The position of `node`.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point {
        self.topology.positions()[node.index()]
    }

    /// The neighbour of `from` strictly closest to `dest` (and closer than
    /// `from` itself), the lowest id among equally close ones, or `None`
    /// when `from` is the local minimum. Found by one scan of `from`'s
    /// stencil, which visits the neighbours out of id order; no list is
    /// made or kept.
    #[must_use]
    pub fn next_hop(&self, from: NodeId, dest: Point) -> Option<NodeId> {
        let positions = self.topology.positions();
        let here = positions[from.index()].distance_sq_to(dest);
        let mut best: Option<(NodeId, f64)> = None;
        self.topology.for_each_neighbor(from, |n| {
            let d = positions[n.index()].distance_sq_to(dest);
            if d < here && best.is_none_or(|(b, bd)| d < bd || (d == bd && n < b)) {
                best = Some((n, d));
            }
        });
        best.map(|(n, _)| n)
    }

    /// Whether `node` is a *home node* for `dest`: no neighbour is closer to
    /// the coordinate. The directory service stores its entries on the home
    /// node of `hash(type_name)`.
    #[must_use]
    pub fn is_home(&self, node: NodeId, dest: Point) -> bool {
        self.next_hop(node, dest).is_none()
    }

    /// The full greedy path from `from` towards `dest`, ending at the home
    /// node (inclusive of both endpoints).
    ///
    /// # Errors
    ///
    /// Never fails on convex grid deployments; returns
    /// [`RoutingVoidError`] if a hop limit (network size) is exceeded,
    /// indicating a routing loop — which greedy distance-decreasing
    /// forwarding cannot produce, so this is a defensive bound.
    pub fn route(&self, from: NodeId, dest: Point) -> Result<Vec<NodeId>, RoutingVoidError> {
        let mut path = vec![from];
        let mut here = from;
        for _ in 0..self.topology.positions().len() {
            match self.next_hop(here, dest) {
                Some(n) => {
                    path.push(n);
                    here = n;
                }
                None => return Ok(path),
            }
        }
        Err(RoutingVoidError {
            stuck_at: here,
            dest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_reaches_the_corner_on_a_grid() {
        let d = Deployment::grid(6, 6, 1.0);
        let r = GeoRouter::new(&d, 1.5);
        let path = r.route(NodeId(0), Point::new(5.0, 5.0)).unwrap();
        assert_eq!(path.first(), Some(&NodeId(0)));
        assert_eq!(path.last(), Some(&NodeId(35)));
        // Each hop strictly decreases distance to the destination.
        let dest = Point::new(5.0, 5.0);
        for w in path.windows(2) {
            assert!(r.position(w[1]).distance_to(dest) < r.position(w[0]).distance_to(dest));
        }
    }

    #[test]
    fn home_node_is_the_local_minimum() {
        let d = Deployment::grid(4, 4, 1.0);
        let r = GeoRouter::new(&d, 1.5);
        let dest = Point::new(2.2, 1.1);
        let home = d.nearest(dest);
        assert!(r.is_home(home, dest));
        // Any other node routes to the home node.
        let path = r.route(NodeId(0), dest).unwrap();
        assert_eq!(*path.last().unwrap(), home);
    }

    #[test]
    fn routing_from_home_is_a_no_op() {
        let d = Deployment::grid(3, 3, 1.0);
        let r = GeoRouter::new(&d, 1.5);
        let dest = Point::new(1.0, 1.0);
        let path = r.route(NodeId(4), dest).unwrap();
        assert_eq!(path, vec![NodeId(4)]);
    }

    #[test]
    fn off_field_destinations_route_to_the_boundary() {
        let d = Deployment::grid(4, 1, 1.0);
        let r = GeoRouter::new(&d, 1.5);
        let path = r.route(NodeId(0), Point::new(100.0, 0.0)).unwrap();
        assert_eq!(*path.last().unwrap(), NodeId(3));
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn larger_radius_takes_longer_strides() {
        let d = Deployment::grid(10, 1, 1.0);
        let short = GeoRouter::new(&d, 1.5);
        let long = GeoRouter::new(&d, 3.5);
        let dest = Point::new(9.0, 0.0);
        let p_short = short.route(NodeId(0), dest).unwrap();
        let p_long = long.route(NodeId(0), dest).unwrap();
        assert!(p_long.len() < p_short.len());
        assert_eq!(p_short.len(), 10);
        assert_eq!(p_long.len(), 4);
    }
}
