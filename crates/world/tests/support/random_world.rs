//! Random worlds for property tests: the one generator that suites
//! comparing a fast path against its slow reference draw their worlds from.
//! It is not part of any library; a suite includes this file with
//! `#[path]` and sees the crates as any other user does.
//!
//! A field is a deployment and a radio range ([`arb_field`]). The draw is a
//! handful of numbers ([`FieldDraw`]), so a failing case prints as one line
//! and shrinks towards fewer nodes, the first shape and the first range;
//! [`FieldDraw::build`] makes the deployment from it. [`asks`] draws the
//! order a suite asks about the field's nodes in.
//!
//! A whole world ([`arb_world`], [`WorldDraw`]) adds what runs over the
//! field: zero to four targets — linear, looped, growing-disk or
//! inverse-law, some leaving the field, one perhaps added mid-run — noise
//! on or off, a schedule of crashes, reboots and clock-rate changes, and a
//! horizon. The schedule is plain data ([`Fault`], [`When`]): a suite that
//! knows its nodes' sensing phases turns [`When::OnTick`] into an instant
//! that ties with a tick, and every suite maps a [`Fault`] onto its own
//! fault type. A suite that uses only part of this file sees the rest as
//! dead code.
#![allow(dead_code)]

use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::{Aabb, Point};
use envirotrack_world::sensing::{Environment, NoiseModel};
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
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

// ------------------------------------------------------------------ worlds

/// How a drawn target moves and emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A disk on a straight line that may leave the field.
    Linear,
    /// A disk on a closed tour, lap after lap.
    Looped,
    /// A spreading disk, stationary, that appears after a delay.
    GrowingDisk,
    /// An inverse-square source on a line: it reaches the whole field.
    InverseLaw,
}

const KINDS: [Kind; 4] = [
    Kind::Linear,
    Kind::Looped,
    Kind::GrowingDisk,
    Kind::InverseLaw,
];

/// When a scheduled fault happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// At this many milliseconds.
    Ms(u64),
    /// At `node`'s `tick`-th sensing tick (0 is the first), to the
    /// microsecond: a tie with that tick, which the suite resolves from the
    /// node's phase.
    OnTick { node: NodeId, tick: u64 },
}

/// A node fault of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    Crash(NodeId),
    Reboot(NodeId),
    /// A clock rate in `[0.5, 2.0]`, 1.0 among them.
    Rate(NodeId, f64),
}

/// One drawn world: a small field, its targets, noise, fault schedule and
/// horizon, all made from these numbers by [`WorldDraw::build`].
#[derive(Debug, Clone, Copy)]
pub struct WorldDraw {
    /// Nodes, 4 to ≈ 150, on a lattice or spread uniformly.
    pub nodes: u32,
    /// Targets present from the start, 0 to 4.
    pub targets: u32,
    /// Whether one more target is added mid-run.
    pub late: bool,
    /// Whether the sensors are noisy.
    pub noisy: bool,
    /// Scheduled faults, 0 to 7.
    pub faults: u32,
    /// The horizon in milliseconds, 0.6 to 4 s.
    pub horizon_ms: u64,
    /// Every other choice comes from a generator seeded with this.
    pub seed: u64,
}

/// What a [`WorldDraw`] stands for.
pub struct World {
    pub deployment: Deployment,
    pub environment: Environment,
    /// The radio range.
    pub radius: f64,
    /// A target to add to the running world, and when.
    pub late: Option<(Timestamp, Target)>,
    /// The fault schedule, in no particular order.
    pub faults: Vec<(When, Fault)>,
    pub horizon: Timestamp,
}

/// Small worlds of every target kind, with and without noise, faults and a
/// target added mid-run. Most runs are short and small, so a debug-build
/// suite can afford a few dozen of them per mode.
pub fn arb_world() -> impl Strategy<Value = WorldDraw> {
    (
        prop_oneof![4u32..40, 40u32..150],
        0u32..5,
        any::<bool>(),
        any::<bool>(),
        0u32..8,
        600u64..4_000,
        any::<u64>(),
    )
        .prop_map(
            |(nodes, targets, late, noisy, faults, horizon_ms, seed)| WorldDraw {
                nodes,
                targets,
                late,
                noisy,
                faults,
                horizon_ms,
                seed,
            },
        )
}

impl WorldDraw {
    /// The world these numbers stand for.
    pub fn build(&self) -> World {
        let mut rng = SimRng::seed_from(self.seed);
        let n = self.nodes;
        let deployment = if rng.chance(0.5) {
            let cols = n.isqrt().max(1);
            let rows = n.div_ceil(cols);
            Deployment::grid(cols, rows, 1.0)
        } else {
            let side = f64::from(n).sqrt().max(1.0);
            let area = Aabb::new(Point::new(0.0, 0.0), Point::new(side, side * 0.8));
            Deployment::random_uniform(n, area, &mut rng)
        };
        let bounds = deployment.bounds();
        let mut environment = Environment::new();
        if self.noisy {
            environment =
                environment.with_noise(NoiseModel::none().with_channel(Channel::Magnetic, 0.2));
        }
        for id in 0..self.targets {
            environment.add_target(target(&mut rng, id, bounds, Timestamp::ZERO));
        }
        let horizon = Timestamp::from_millis(self.horizon_ms);
        let late = self.late.then(|| {
            let at = Timestamp::from_millis(rng.below(self.horizon_ms));
            (at, target(&mut rng, self.targets, bounds, at))
        });
        let faults = (0..self.faults)
            .map(|_| {
                let node = NodeId(rng.below(u64::from(deployment.len() as u32)) as u32);
                let when = if rng.chance(0.5) {
                    When::OnTick {
                        node,
                        tick: rng.below(self.horizon_ms / 200 + 1),
                    }
                } else {
                    When::Ms(rng.below(self.horizon_ms))
                };
                let fault = match rng.below(4) {
                    0 => Fault::Crash(node),
                    1 => Fault::Reboot(node),
                    2 => Fault::Rate(node, 1.0),
                    _ => Fault::Rate(node, rng.uniform_range(0.5, 2.0)),
                };
                (when, fault)
            })
            .collect();
        World {
            deployment,
            environment,
            radius: rng.uniform_range(1.1, 2.6),
            late,
            faults,
            horizon,
        }
    }
}

/// One magnetic target of a drawn kind over a field with `bounds`, present
/// from `from`: its path starts inside the field and may end outside it.
fn target(rng: &mut SimRng, id: u32, bounds: Aabb, from: Timestamp) -> Target {
    let mut inside = || {
        Point::new(
            rng.uniform_range(bounds.min.x, bounds.max.x.max(bounds.min.x + 1e-6)),
            rng.uniform_range(bounds.min.y, bounds.max.y.max(bounds.min.y + 1e-6)),
        )
    };
    let (a, b) = (inside(), inside());
    let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
    let speed = rng.uniform_range(0.5, 6.0);
    // Past the field's far corner: some paths leave it.
    let away = Point::new(b.x * 2.0 + 3.0, b.y + 1.0);
    let disk = |radius| Emission {
        channel: Channel::Magnetic,
        strength: 1.0,
        falloff: Falloff::Disk { radius },
    };
    let radius = rng.uniform_range(0.6, 2.5);
    let (trajectory, emission) = match kind {
        Kind::Linear => (Trajectory::line(a, away, speed), disk(radius)),
        Kind::Looped => (
            Trajectory::waypoints(vec![a, b, away], speed).looped(),
            disk(radius),
        ),
        Kind::GrowingDisk => {
            let falloff = Falloff::GrowingDisk {
                initial_radius: 0.2,
                growth_per_sec: rng.uniform_range(0.2, 2.0),
                max_radius: radius * 2.0,
            };
            let emission = Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff,
            };
            (Trajectory::stationary(a), emission)
        }
        Kind::InverseLaw => {
            let emission = Emission {
                channel: Channel::Magnetic,
                strength: 0.6,
                falloff: Falloff::InverseSquare { floor: 0.5 },
            };
            (Trajectory::line(a, b, speed), emission)
        }
    };
    let trajectory = trajectory.starting_at(from);
    let appears = from + SimDuration::from_millis(rng.below(800));
    Target::new(TargetId(id), trajectory, vec![emission]).active_between(appears, Timestamp::MAX)
}
