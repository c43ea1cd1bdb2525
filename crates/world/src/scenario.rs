//! Prebuilt physical scenarios matching the paper's evaluation.
//!
//! The paper's case study (§6.1) is a T-72 tank crossing a rectangular grid
//! of magnetometer-equipped motes: detection range ≈ 100 m, grid spacing
//! 140 m, so in normalised *grid units* the tank is a disk-sensed target
//! with sensing radius ≈ 0.7–2 grids moving along the lane `y = 0.5`.
//! [`TankScenario`] builds exactly that world; [`FireScenario`] and
//! [`MultiTargetScenario`] support the fire-tracking example and the
//! label-distinctness tests.
//!
//! ```
//! use envirotrack_world::scenario::TankScenario;
//!
//! let s = TankScenario::default().with_speed_hops_per_s(0.1).build();
//! assert_eq!(s.deployment.len(), 10 * 2);
//! assert_eq!(s.environment.targets().len(), 1);
//! ```

use envirotrack_sim::time::Timestamp;

use crate::field::Deployment;
use crate::geometry::Point;
use crate::sensing::Environment;
use crate::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};

/// Full-scale grid spacing in metres (paper §6.1: sensors 140 m apart).
pub(crate) const GRID_SPACING_M: f64 = 140.0;

/// Converts a road speed in km/h to grid hops per second under the paper's
/// 140 m spacing. The paper's 50 km/h tank is ≈ 0.1 hops/s.
///
/// ```
/// let hops = envirotrack_world::scenario::kmh_to_hops_per_s(50.0);
/// assert!((hops - 0.0992).abs() < 0.001);
/// ```
#[must_use]
pub fn kmh_to_hops_per_s(kmh: f64) -> f64 {
    kmh / 3.6 / GRID_SPACING_M
}

/// Converts grid hops per second back to km/h under the 140 m spacing.
#[must_use]
pub(crate) fn hops_per_s_to_kmh(hops: f64) -> f64 {
    hops * GRID_SPACING_M * 3.6
}

/// A ready-to-run physical world: node placement plus environment, with the
/// detection parameters the middleware scenario uses.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Where the sensor nodes are.
    pub deployment: Deployment,
    /// The ground-truth physical environment.
    pub environment: Environment,
    /// The channel the primary target is detected on.
    pub channel: Channel,
    /// The detection threshold applied by the sensing predicate.
    pub threshold: f64,
    /// The primary target's id (the one audited by the experiments).
    pub primary_target: TargetId,
    /// Human-readable description of the scenario.
    pub description: String,
}

impl Scenario {
    /// Ground-truth node indices that sense the primary target at `t`.
    #[must_use]
    pub fn ground_truth_sensors(&self, t: Timestamp) -> Vec<usize> {
        self.environment.sensing_set(
            self.primary_target,
            self.channel,
            self.threshold,
            self.deployment.positions(),
            t,
        )
    }
}

/// Builder for the paper's tank-tracking scenario (§6.1, Figs. 3–4, Table 1).
#[derive(Debug, Clone)]
pub struct TankScenario {
    /// Grid columns (field length in grid units + 1).
    pub cols: u32,
    /// Grid rows (field depth).
    pub rows: u32,
    /// Tank speed in grid hops per second.
    pub speed_hops_per_s: f64,
    /// Magnetic sensing radius in grid units.
    pub sensing_radius: f64,
    /// Vertical lane the tank drives along.
    pub lane_y: f64,
    /// Horizontal overshoot before/after the grid so the group forms before
    /// entering and dissolves after leaving.
    pub approach: f64,
}

impl Default for TankScenario {
    /// The testbed defaults: a 10 × 2 grid, lane `y = 0.5`, sensing radius
    /// 1 grid, the paper's emulated 33 km/h (15 s/hop) speed.
    fn default() -> Self {
        TankScenario {
            cols: 10,
            rows: 2,
            speed_hops_per_s: kmh_to_hops_per_s(33.0),
            sensing_radius: 1.0,
            lane_y: 0.5,
            approach: 1.5,
        }
    }
}

impl TankScenario {
    /// Sets the grid dimensions; chainable.
    #[must_use]
    pub fn with_grid(mut self, cols: u32, rows: u32) -> Self {
        self.cols = cols;
        self.rows = rows;
        self
    }

    /// Sets the tank speed in grid hops per second; chainable.
    #[must_use]
    pub fn with_speed_hops_per_s(mut self, speed: f64) -> Self {
        self.speed_hops_per_s = speed;
        self
    }

    /// Sets the tank speed in km/h (converted via the 140 m grid); chainable.
    #[must_use]
    pub fn with_speed_kmh(mut self, kmh: f64) -> Self {
        self.speed_hops_per_s = kmh_to_hops_per_s(kmh);
        self
    }

    /// Sets the magnetic sensing radius in grid units; chainable.
    #[must_use]
    pub fn with_sensing_radius(mut self, r: f64) -> Self {
        self.sensing_radius = r;
        self
    }

    /// Materialises the deployment, environment, and target.
    ///
    /// # Panics
    ///
    /// Panics if the speed or sensing radius is not positive.
    #[must_use]
    pub fn build(&self) -> Scenario {
        assert!(self.speed_hops_per_s > 0.0, "tank speed must be positive");
        assert!(self.sensing_radius > 0.0, "sensing radius must be positive");
        let deployment = Deployment::grid(self.cols, self.rows, 1.0);
        let from = Point::new(-self.approach, self.lane_y);
        let to = Point::new(f64::from(self.cols - 1) + self.approach, self.lane_y);
        let mut environment = Environment::new();
        let tank = Target::new(
            TargetId(0),
            Trajectory::line(from, to, self.speed_hops_per_s),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk {
                    radius: self.sensing_radius,
                },
            }],
        );
        environment.add_target(tank);
        Scenario {
            deployment,
            environment,
            channel: Channel::Magnetic,
            threshold: 0.5,
            primary_target: TargetId(0),
            description: format!(
                "tank crossing {}x{} grid at {:.3} hops/s ({:.0} km/h), sensing radius {}",
                self.cols,
                self.rows,
                self.speed_hops_per_s,
                hops_per_s_to_kmh(self.speed_hops_per_s),
                self.sensing_radius
            ),
        }
    }
}

/// Builder for a fire-tracking scenario: a stationary, spreading heat disk
/// over an ambient-temperature field (the paper's `sense_fire()` example:
/// `temperature > 180 and light`).
#[derive(Debug, Clone)]
pub struct FireScenario {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Ignition point.
    pub ignition: Point,
    /// Time of ignition.
    pub ignition_time: Timestamp,
    /// Initial burning radius in grid units.
    pub initial_radius: f64,
    /// Spread rate in grid units per second (0 = constant size).
    pub growth_per_sec: f64,
    /// Maximum burning radius.
    pub max_radius: f64,
}

impl Default for FireScenario {
    fn default() -> Self {
        FireScenario {
            cols: 8,
            rows: 8,
            ignition: Point::new(3.5, 3.5),
            ignition_time: Timestamp::from_secs(5),
            initial_radius: 1.0,
            growth_per_sec: 0.05,
            max_radius: 3.0,
        }
    }
}

impl FireScenario {
    /// Fire temperature above ambient at burning sensors.
    pub(crate) const FIRE_TEMPERATURE: f64 = 400.0;
    /// Ambient field temperature.
    pub(crate) const AMBIENT_TEMPERATURE: f64 = 20.0;
    /// The paper's detection threshold: `temperature > 180`.
    pub(crate) const DETECTION_THRESHOLD: f64 = 180.0;

    /// Materialises the deployment and environment.
    #[must_use]
    pub fn build(&self) -> Scenario {
        let deployment = Deployment::grid(self.cols, self.rows, 1.0);
        let mut environment =
            Environment::new().with_ambient(Channel::Temperature, Self::AMBIENT_TEMPERATURE);
        let fire = Target::new(
            TargetId(0),
            Trajectory::stationary(self.ignition),
            vec![
                Emission {
                    channel: Channel::Temperature,
                    strength: Self::FIRE_TEMPERATURE,
                    falloff: Falloff::GrowingDisk {
                        initial_radius: self.initial_radius,
                        growth_per_sec: self.growth_per_sec,
                        max_radius: self.max_radius,
                    },
                },
                Emission {
                    channel: Channel::Light,
                    strength: 1.0,
                    falloff: Falloff::GrowingDisk {
                        initial_radius: self.initial_radius,
                        growth_per_sec: self.growth_per_sec,
                        max_radius: self.max_radius,
                    },
                },
            ],
        )
        .active_between(self.ignition_time, Timestamp::MAX);
        environment.add_target(fire);
        Scenario {
            deployment,
            environment,
            channel: Channel::Temperature,
            threshold: Self::DETECTION_THRESHOLD,
            primary_target: TargetId(0),
            description: format!(
                "fire igniting at {} on a {}x{} grid, spreading {}/s up to radius {}",
                self.ignition, self.cols, self.rows, self.growth_per_sec, self.max_radius
            ),
        }
    }
}

/// Builder for multiple tanks on parallel lanes — used to verify that
/// physically separate entities of the same type get *distinct* context
/// labels (the paper's physical-continuity invariant).
#[derive(Debug, Clone)]
pub struct MultiTargetScenario {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// One lane-y per target.
    pub lanes: Vec<f64>,
    /// Common speed in hops/s.
    pub speed_hops_per_s: f64,
    /// Common sensing radius in grid units.
    pub sensing_radius: f64,
}

impl Default for MultiTargetScenario {
    fn default() -> Self {
        MultiTargetScenario {
            cols: 12,
            rows: 8,
            lanes: vec![1.5, 5.5],
            speed_hops_per_s: 0.1,
            sensing_radius: 1.0,
        }
    }
}

impl MultiTargetScenario {
    /// Materialises the deployment and all targets.
    ///
    /// # Panics
    ///
    /// Panics if no lanes were specified.
    #[must_use]
    pub fn build(&self) -> Scenario {
        assert!(!self.lanes.is_empty(), "need at least one lane");
        let deployment = Deployment::grid(self.cols, self.rows, 1.0);
        let mut environment = Environment::new();
        for (i, &lane) in self.lanes.iter().enumerate() {
            let from = Point::new(-1.5, lane);
            let to = Point::new(f64::from(self.cols - 1) + 1.5, lane);
            environment.add_target(Target::new(
                TargetId(i as u32),
                Trajectory::line(from, to, self.speed_hops_per_s),
                vec![Emission {
                    channel: Channel::Magnetic,
                    strength: 1.0,
                    falloff: Falloff::Disk {
                        radius: self.sensing_radius,
                    },
                }],
            ));
        }
        Scenario {
            deployment,
            environment,
            channel: Channel::Magnetic,
            threshold: 0.5,
            primary_target: TargetId(0),
            description: format!(
                "{} tanks on parallel lanes of a {}x{} grid",
                self.lanes.len(),
                self.cols,
                self.rows
            ),
        }
    }
}

/// How a [`ScaleScenario`] lays its nodes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleLayout {
    /// A near-square unit-spacing grid, truncated to the exact node count.
    /// The default: matches the paper's testbed geometry scaled up.
    #[default]
    Grid,
    /// Nodes dropped uniformly at random over the same near-square extent,
    /// seeded from the scenario seed (placement is deterministic).
    UniformRandom,
}

/// Builder for large fields — thousands of nodes, several concurrent
/// targets — used by the scale benchmarks and the spatial-grid tests.
///
/// The field is a near-square region with ~1 node per unit area (so radio
/// degree stays constant as `nodes` grows, like a real deployment that
/// scales by covering more ground, not by packing denser). Targets drive
/// horizontal lanes spread evenly over the field height, all emitting on
/// the magnetic channel with the same disk footprint.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    /// Exact number of nodes to deploy.
    pub nodes: u32,
    /// Node placement.
    pub layout: ScaleLayout,
    /// Number of concurrent targets (parallel lanes).
    pub targets: u32,
    /// Common target speed in hops/s.
    pub speed_hops_per_s: f64,
    /// Common sensing radius in grid units.
    pub sensing_radius: f64,
    /// Seed for random placement (unused by [`ScaleLayout::Grid`]).
    pub seed: u64,
}

impl Default for ScaleScenario {
    /// 1000 nodes on a grid, 4 targets at the paper's 33 km/h.
    fn default() -> Self {
        ScaleScenario {
            nodes: 1000,
            layout: ScaleLayout::Grid,
            targets: 4,
            speed_hops_per_s: kmh_to_hops_per_s(33.0),
            sensing_radius: 1.0,
            seed: 1,
        }
    }
}

impl ScaleScenario {
    /// Side length of the square field, in grid units.
    #[must_use]
    pub(crate) fn side(&self) -> u32 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let side = (f64::from(self.nodes).sqrt().ceil()) as u32;
        side.max(1)
    }

    /// Materialises the deployment and all targets.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `targets` is zero.
    #[must_use]
    pub fn build(&self) -> Scenario {
        assert!(self.nodes > 0, "need at least one node");
        assert!(self.targets > 0, "need at least one target");
        let side = self.side();
        let deployment = match self.layout {
            ScaleLayout::Grid => {
                // Full rows of `side`, truncated to the exact count.
                let rows = self.nodes.div_ceil(side);
                let mut positions = Vec::with_capacity(self.nodes as usize);
                'fill: for row in 0..rows {
                    for col in 0..side {
                        if positions.len() == self.nodes as usize {
                            break 'fill;
                        }
                        positions.push(Point::new(f64::from(col), f64::from(row)));
                    }
                }
                Deployment::from_positions(positions)
            }
            ScaleLayout::UniformRandom => {
                let extent = f64::from(side - 1).max(1.0);
                let area = crate::geometry::Aabb::new(
                    Point::ORIGIN,
                    Point::new(extent, extent),
                );
                let rng = envirotrack_sim::rng::SimRng::seed_from(self.seed);
                let mut placement = rng.fork("scale-placement");
                Deployment::random_uniform(self.nodes, area, &mut placement)
            }
        };
        let bounds = deployment.bounds();
        let mut environment = Environment::new();
        for i in 0..self.targets {
            // Lanes at (i + 1/2) / targets of the field height; each target
            // crosses the full width with overshoot on both sides.
            let lane = bounds.min.y
                + bounds.height() * (f64::from(i) + 0.5) / f64::from(self.targets);
            let from = Point::new(bounds.min.x - 1.5, lane);
            let to = Point::new(bounds.max.x + 1.5, lane);
            environment.add_target(Target::new(
                TargetId(i),
                Trajectory::line(from, to, self.speed_hops_per_s),
                vec![Emission {
                    channel: Channel::Magnetic,
                    strength: 1.0,
                    falloff: Falloff::Disk {
                        radius: self.sensing_radius,
                    },
                }],
            ));
        }
        Scenario {
            deployment,
            environment,
            channel: Channel::Magnetic,
            threshold: 0.5,
            primary_target: TargetId(0),
            description: format!(
                "{} nodes ({:?} layout), {} targets on parallel lanes",
                self.nodes, self.layout, self.targets
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenario_deploys_exact_node_counts() {
        for &n in &[1u32, 10, 100, 1000, 1234] {
            for layout in [ScaleLayout::Grid, ScaleLayout::UniformRandom] {
                let s = ScaleScenario {
                    nodes: n,
                    layout,
                    targets: 3,
                    ..ScaleScenario::default()
                }
                .build();
                assert_eq!(s.deployment.len(), n as usize, "{layout:?} n={n}");
                assert_eq!(s.environment.targets().len(), 3);
            }
        }
    }

    #[test]
    fn scale_scenario_is_seed_deterministic_and_targets_cross_the_field() {
        let spec = ScaleScenario {
            nodes: 500,
            layout: ScaleLayout::UniformRandom,
            targets: 4,
            seed: 7,
            ..ScaleScenario::default()
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.deployment, b.deployment);
        let bounds = a.deployment.bounds();
        for t in a.environment.targets() {
            let lane = t.trajectory().position_at(Timestamp::ZERO).y;
            assert!(lane >= bounds.min.y && lane <= bounds.max.y);
        }
    }

    #[test]
    fn speed_conversions_match_the_paper() {
        // 50 km/h over 140 m hops ≈ 10 s per hop (paper: "10 seconds/hop").
        let hops = kmh_to_hops_per_s(50.0);
        assert!((1.0 / hops - 10.08).abs() < 0.01, "s/hop = {}", 1.0 / hops);
        // 33 km/h ≈ 15 s per hop.
        let hops = kmh_to_hops_per_s(33.0);
        assert!((1.0 / hops - 15.27).abs() < 0.01);
        // Round trip.
        assert!((hops_per_s_to_kmh(kmh_to_hops_per_s(42.0)) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn tank_scenario_builds_the_testbed_world() {
        let s = TankScenario::default().build();
        assert_eq!(s.deployment.len(), 20);
        let tank = s.environment.target(s.primary_target).unwrap();
        let radius = tank.detection_radius(s.channel, s.threshold).unwrap();
        assert!((radius - 1.0).abs() < 1e-12);
        // At mid-crossing, some sensors detect the tank.
        let mid_t = Timestamp::from_secs_f64_helper(60.0);
        let pos = tank.position_at(mid_t);
        assert!((pos.y - 0.5).abs() < 1e-12);
        let sensed = s.ground_truth_sensors(mid_t);
        assert!(!sensed.is_empty(), "tank at {pos} sensed by nobody");
    }

    // Local helper so the test reads naturally.
    trait FromSecsF64 {
        fn from_secs_f64_helper(secs: f64) -> Timestamp;
    }
    impl FromSecsF64 for Timestamp {
        fn from_secs_f64_helper(secs: f64) -> Timestamp {
            Timestamp::from_micros((secs * 1e6) as u64)
        }
    }

    #[test]
    fn fire_scenario_spreads_over_time() {
        let cfg = FireScenario::default();
        let s = cfg.build();
        let before = s.ground_truth_sensors(Timestamp::from_secs(1));
        assert!(before.is_empty(), "fire sensed before ignition");
        let at_ignition = s.ground_truth_sensors(cfg.ignition_time);
        let later = s.ground_truth_sensors(
            cfg.ignition_time + envirotrack_sim::time::SimDuration::from_secs(30),
        );
        assert!(!at_ignition.is_empty());
        assert!(
            later.len() > at_ignition.len(),
            "fire did not spread: {} -> {}",
            at_ignition.len(),
            later.len()
        );
    }

    #[test]
    fn multi_target_lanes_are_disjoint() {
        let s = MultiTargetScenario::default().build();
        assert_eq!(s.environment.targets().len(), 2);
        let t = Timestamp::from_secs(40);
        let set0 = s.environment.sensing_set(
            TargetId(0),
            Channel::Magnetic,
            0.5,
            s.deployment.positions(),
            t,
        );
        let set1 = s.environment.sensing_set(
            TargetId(1),
            Channel::Magnetic,
            0.5,
            s.deployment.positions(),
            t,
        );
        assert!(!set0.is_empty() && !set1.is_empty());
        assert!(
            set0.iter().all(|i| !set1.contains(i)),
            "lanes overlap: {set0:?} vs {set1:?}"
        );
    }
}
