//! Random worlds for property tests: the one generator that suites
//! comparing a fast path against its slow reference draw their worlds from.
//! It is not part of any library; a suite includes this file with
//! `#[path]` and sees the crates as any other user does.
//!
//! Today a world is a deployment and a radio range ([`arb_field`]). The
//! draw is a handful of numbers ([`FieldDraw`]), so a failing case prints
//! as one line and shrinks towards fewer nodes, the first shape and the
//! first range; [`FieldDraw::build`] makes the deployment from it.
//! [`asks`] draws the order a suite asks about the field's nodes in.

use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use testkit::prelude::*;

/// How the nodes are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Rows and columns a whole or half unit apart, so many pairs sit
    /// exactly one or more spacings apart and distances tie.
    Lattice,
    /// Uniform over a drawn rectangle from half a unit to 80 units a side.
    Uniform,
    /// One to four blobs two units wide, scattered over 80 × 80.
    Clustered,
    /// One node, whatever the drawn count.
    Single,
    /// Every node on the same spot.
    Coincident,
    /// One row, evenly spaced.
    Line,
}

/// How the radio range relates to the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Range {
    /// Drawn from 0.05 to 8 units.
    Drawn,
    /// Exactly the distance of some pair: a whole number of lattice
    /// spacings, or the distance from node 0 to the last node.
    AtAPair,
    /// Wider than the whole field: everyone hears everyone.
    WiderThanField,
    /// Narrower than the closest pair of distinct positions.
    NarrowerThanSpacing,
}

const SHAPES: [Shape; 6] = [
    Shape::Lattice,
    Shape::Uniform,
    Shape::Clustered,
    Shape::Single,
    Shape::Coincident,
    Shape::Line,
];
const RANGES: [Range; 4] = [
    Range::Drawn,
    Range::AtAPair,
    Range::WiderThanField,
    Range::NarrowerThanSpacing,
];

/// Where a field whose lists hold every node stops growing: a list per
/// node of every other node is quadratic in memory.
const DENSE_NODES: u32 = 300;

/// One drawn field.
#[derive(Debug, Clone, Copy)]
pub struct FieldDraw {
    pub shape: Shape,
    /// The drawn node count, 1 to ≈ 3 000 (one for [`Shape::Single`], at
    /// most [`DENSE_NODES`] where every node hears every other).
    pub nodes: u32,
    pub range: Range,
    /// Positions and sizes come from a generator seeded with this.
    pub seed: u64,
    /// The drawn radius or step, 0.05 to 8.
    pub drawn: f64,
}

/// Fields of 1 to ≈ 3 000 nodes of every [`Shape`] under every [`Range`].
/// Most are small; one in five has 400 nodes or more.
pub fn arb_field() -> impl Strategy<Value = FieldDraw> {
    let nodes = prop_oneof![1u32..40, 40u32..400, 1u32..40, 40u32..400, 400u32..3_000];
    (
        0usize..SHAPES.len(),
        nodes,
        0usize..RANGES.len(),
        any::<u64>(),
        0.05..8.0f64,
    )
        .prop_map(|(shape, nodes, range, seed, drawn)| FieldDraw {
            shape: SHAPES[shape],
            nodes,
            range: RANGES[range],
            seed,
            drawn,
        })
}

impl FieldDraw {
    /// The deployment and the radio range this draw stands for.
    pub fn build(&self) -> (Deployment, f64) {
        let mut rng = SimRng::seed_from(self.seed);
        let dense =
            matches!(self.shape, Shape::Coincident) || matches!(self.range, Range::WiderThanField);
        let n = if dense {
            self.nodes.min(DENSE_NODES)
        } else {
            self.nodes
        };
        let lattice_step = if self.seed.is_multiple_of(2) {
            1.0
        } else {
            0.5
        };
        let positions: Vec<Point> = match self.shape {
            Shape::Lattice => {
                // From a single column to twice as wide as tall.
                let cols = 1 + ((self.seed >> 8) as u32) % (2 * n.isqrt().max(1));
                (0..n)
                    .map(|i| {
                        let (x, y) = (i % cols, i / cols);
                        Point::new(f64::from(x) * lattice_step, f64::from(y) * lattice_step)
                    })
                    .collect()
            }
            Shape::Uniform => {
                let w = rng.uniform_range(0.5, 80.0);
                let h = rng.uniform_range(0.5, 80.0);
                (0..n)
                    .map(|_| Point::new(rng.uniform_range(0.0, w), rng.uniform_range(0.0, h)))
                    .collect()
            }
            Shape::Clustered => {
                let blobs = 1 + (self.seed >> 8) % 4;
                let centres: Vec<Point> = (0..blobs)
                    .map(|_| Point::new(rng.uniform_range(0.0, 80.0), rng.uniform_range(0.0, 80.0)))
                    .collect();
                (0..n as usize)
                    .map(|i| {
                        let c = centres[i % centres.len()];
                        let (dx, dy) = (rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0));
                        Point::new(c.x + dx, c.y + dy)
                    })
                    .collect()
            }
            Shape::Single => vec![Point::new(rng.uniform_range(-5.0, 5.0), 3.0)],
            Shape::Coincident => vec![Point::new(2.5, -1.0); n as usize],
            Shape::Line => {
                let step = 0.1 + self.drawn / 2.0;
                (0..n)
                    .map(|i| Point::new(f64::from(i) * step, 3.0))
                    .collect()
            }
        };
        let deployment = Deployment::from_positions(positions);
        let radius = self.radius(&deployment, lattice_step);
        (deployment, radius)
    }

    fn radius(&self, d: &Deployment, lattice_step: f64) -> f64 {
        let b = d.bounds();
        match self.range {
            Range::Drawn => self.drawn,
            Range::AtAPair if self.shape == Shape::Lattice => {
                // Whole spacings: axis pairs sit exactly on the edge, and at
                // five spacings so do the 3-4-5 diagonals.
                lattice_step * (1.0 + (self.drawn * 5.0 / 8.0).floor())
            }
            Range::AtAPair => {
                let far = d.position(NodeId(d.len() as u32 - 1));
                let r = d.position(NodeId(0)).distance_to(far);
                if r > 0.0 {
                    r
                } else {
                    self.drawn
                }
            }
            Range::WiderThanField => b.min.distance_to(b.max) * 1.5 + self.drawn,
            Range::NarrowerThanSpacing => {
                let positions = d.positions();
                let mut closest = f64::INFINITY;
                for (i, a) in positions.iter().enumerate() {
                    for b in &positions[i + 1..] {
                        let s = a.distance_to(*b);
                        if s > 0.0 && s < closest {
                            closest = s;
                        }
                    }
                }
                if closest.is_finite() {
                    closest * 0.5
                } else {
                    self.drawn
                }
            }
        }
    }
}

/// Every node of an `n`-node field once, in an order drawn from `seed`,
/// then a quarter of them again: the order a suite asks about the nodes
/// in, so an answer kept from an earlier ask is checked as well as every
/// fresh one.
pub fn asks(n: usize, seed: u64) -> Vec<NodeId> {
    let mut s = seed;
    let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix64(&mut s) % (i as u64 + 1)) as usize);
    }
    for _ in 0..n.div_ceil(4) {
        order.push(order[(splitmix64(&mut s) % n as u64) as usize]);
    }
    order
}
