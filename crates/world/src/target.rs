//! Moving physical entities: the things EnviroTrack tracks.
//!
//! A [`Target`] couples a [`Trajectory`] (where it is at any virtual time)
//! with an emission profile (what the sensors perceive — see
//! [`crate::sensing`]). The paper's case study is a T-72 tank crossing a
//! grid field in a straight line at constant speed; richer trajectories
//! (waypoint tours, loops, pauses) are provided for the stress tests and
//! examples.
//!
//! ```
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::geometry::Point;
//! use envirotrack_world::target::Trajectory;
//!
//! // One grid hop every 10 seconds, the paper's emulated 33 km/h tank.
//! let t = Trajectory::line(Point::new(0.0, 0.5), Point::new(10.0, 0.5), 0.1);
//! assert_eq!(t.position_at(Timestamp::from_secs(50)), Point::new(5.0, 0.5));
//! ```

use envirotrack_sim::time::Timestamp;

use crate::geometry::Point;

/// The relative slack [`Target::sweep`] adds to whatever it bounds, to
/// stand in for every floating-point rounding between a trajectory and a
/// sensor's cull: 2⁻³², where one rounding is at most 2⁻⁵³.
const ROUNDING: f64 = 1.0 / (1u64 << 32) as f64;

/// Identifies one target within a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TargetId(pub u32);

impl std::fmt::Display for TargetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A piecewise-linear path through the field at constant speed per segment.
///
/// Waypoints are visited in order starting at `start_time`; the target halts
/// at the final waypoint (or loops, if [`Trajectory::looped`] was set).
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<Point>,
    /// Speed in grid units per second, applied to every segment.
    speed: f64,
    start_time: Timestamp,
    looped: bool,
    /// Length of every segment in visit order (the closing segment last,
    /// when looped), so `position_at` neither allocates nor takes a square
    /// root. Derived from `waypoints` and `looped`; see `rebuild_segments`.
    seg_lengths: Vec<f64>,
    /// `seg_lengths` summed left to right: one lap of the path.
    path_length: f64,
}

impl Trajectory {
    /// A stationary trajectory pinned at `p` (used for fires and other
    /// non-moving phenomena).
    #[must_use]
    pub fn stationary(p: Point) -> Self {
        Trajectory::build(vec![p], 0.0)
    }

    fn build(waypoints: Vec<Point>, speed: f64) -> Self {
        let mut t = Trajectory {
            waypoints,
            speed,
            start_time: Timestamp::ZERO,
            looped: false,
            seg_lengths: Vec::new(),
            path_length: 0.0,
        };
        t.rebuild_segments();
        t
    }

    /// Recomputes the segment table; called whenever `waypoints` or
    /// `looped` changes.
    fn rebuild_segments(&mut self) {
        let n = self.waypoints.len();
        self.seg_lengths = self
            .waypoints
            .windows(2)
            .map(|w| w[0].distance_to(w[1]))
            .collect();
        if self.looped && n > 1 {
            self.seg_lengths
                .push(self.waypoints[n - 1].distance_to(self.waypoints[0]));
        }
        self.path_length = self.seg_lengths.iter().sum();
    }

    /// A straight line from `from` to `to` at `speed` grid units/second,
    /// starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    #[must_use]
    pub fn line(from: Point, to: Point, speed: f64) -> Self {
        Trajectory::waypoints(vec![from, to], speed)
    }

    /// A waypoint tour at constant `speed` grid units/second.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, or `speed` is not positive while more
    /// than one waypoint is given.
    #[must_use]
    pub fn waypoints(points: Vec<Point>, speed: f64) -> Self {
        assert!(
            !points.is_empty(),
            "a trajectory needs at least one waypoint"
        );
        assert!(
            points.len() == 1 || speed > 0.0,
            "a moving trajectory needs a positive speed, got {speed}"
        );
        Trajectory::build(points, speed)
    }

    /// Delays departure until `at` (the target sits at the first waypoint
    /// before then). Returns `self` for chaining.
    #[must_use]
    pub fn starting_at(mut self, at: Timestamp) -> Self {
        self.start_time = at;
        self
    }

    /// Makes the tour cyclic: after the last waypoint the target heads back
    /// to the first and repeats. Returns `self` for chaining.
    #[must_use]
    pub fn looped(mut self) -> Self {
        self.looped = true;
        self.rebuild_segments();
        self
    }

    /// The speed in grid units per second (zero for stationary).
    #[must_use]
    pub(crate) fn speed(&self) -> f64 {
        self.speed
    }

    /// Total path length of one pass over the waypoints, in grid units.
    #[must_use]
    pub fn path_length(&self) -> f64 {
        self.path_length
    }

    /// Virtual time needed to traverse the path once (`None` for stationary
    /// or looped trajectories, which never finish).
    #[must_use]
    pub fn duration(&self) -> Option<envirotrack_sim::time::SimDuration> {
        if self.speed <= 0.0 || self.looped {
            return None;
        }
        Some(envirotrack_sim::time::SimDuration::from_secs_f64(
            self.path_length() / self.speed,
        ))
    }

    /// The target position at virtual time `t`.
    #[must_use]
    pub fn position_at(&self, t: Timestamp) -> Point {
        if self.waypoints.len() == 1 || self.speed <= 0.0 {
            return self.waypoints[0];
        }
        let elapsed = t.saturating_since(self.start_time).as_secs_f64();
        let mut remaining = elapsed * self.speed;
        if self.looped {
            remaining %= self.path_length;
        }
        let n = self.waypoints.len();
        // A sequential walk, not a search over prefix sums: `remaining`
        // must shed each length in turn to round the way it always has.
        for (i, &seg) in self.seg_lengths.iter().enumerate() {
            if remaining <= seg {
                let a = self.waypoints[i];
                if seg < 1e-12 {
                    return a;
                }
                // The closing segment of a loop heads back to the start.
                let b = self.waypoints[if i + 1 == n { 0 } else { i + 1 }];
                return a.lerp(b, remaining / seg);
            }
            remaining -= seg;
        }
        self.waypoints[n - 1]
    }

    /// Where the target is at `from`, and a distance from that point it
    /// stays within, along either axis, at every instant of `[from, last]`.
    ///
    /// `position_at` places the target at arc length `s(t) = elapsed(t) ·
    /// speed` along the path — taken modulo one lap when looped, pinned to
    /// the last waypoint past the end — and each of those maps moves a
    /// point no further than the arc length moves. `s` is computed here by
    /// the very operations `position_at` uses, each of them monotone in
    /// `t`, so `s(last) − s(from)` bounds the arc travelled however coarse
    /// the floats are that far from time zero. What is left is the
    /// rounding of the segment walk and of `lerp`: a few half-ulps per
    /// segment of a length or a coordinate, none larger than `scale`;
    /// [`ROUNDING`] per waypoint is some 2²⁰ times that. One more case: a
    /// hair before a lap ends, the walk's own rounding can shed every
    /// segment and answer the last waypoint — the far end of the closing
    /// segment — so an interval that reaches a lap's end covers that
    /// waypoint too. A waypoint or speed that is not an ordinary number
    /// makes the distance non-finite.
    pub(crate) fn sweep(&self, from: Timestamp, last: Timestamp) -> (Point, f64) {
        let at = self.position_at(from);
        let n = self.waypoints.len();
        if n == 1 || self.speed <= 0.0 {
            return (at, 0.0);
        }
        let arc = |t: Timestamp| t.saturating_since(self.start_time).as_secs_f64() * self.speed;
        let (lo, hi) = (arc(from), arc(last));
        let mut moved = hi - lo;
        if !moved.is_finite() {
            return (at, f64::INFINITY);
        }
        let per_waypoint = ROUNDING * n as f64;
        let lap = self.path_length;
        if self.looped
            && (moved >= lap || hi % lap < lo % lap || hi % lap > lap * (1.0 - per_waypoint))
        {
            let end = self.waypoints[n - 1] - at;
            moved = moved.max(end.x.abs()).max(end.y.abs());
        }
        let coords: f64 = self.waypoints.iter().map(|p| p.x.abs() + p.y.abs()).sum();
        (at, moved + moved * ROUNDING + (lap + coords) * per_waypoint)
    }
}

/// The physical channels a sensor can measure.
///
/// The paper lists "temperature, pressure, motion, acceleration, humidity,
/// light, smoke, sound and magnetic field"; we model the five used by its
/// scenarios and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Magnetometer output (the tank scenario).
    Magnetic,
    /// Ambient temperature (the fire scenario).
    Temperature,
    /// Light intensity (the paper's testbed stand-in for magnetics).
    Light,
    /// Acoustic pressure.
    Acoustic,
    /// Binary-ish motion energy.
    Motion,
}

impl Channel {
    /// All channels, for iteration.
    pub const ALL: [Channel; 5] = [
        Channel::Magnetic,
        Channel::Temperature,
        Channel::Light,
        Channel::Acoustic,
        Channel::Motion,
    ];

    /// Dense index for array-backed sample storage.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Channel::Magnetic => 0,
            Channel::Temperature => 1,
            Channel::Light => 2,
            Channel::Acoustic => 3,
            Channel::Motion => 4,
        }
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Channel::Magnetic => "magnetic",
            Channel::Temperature => "temperature",
            Channel::Light => "light",
            Channel::Acoustic => "acoustic",
            Channel::Motion => "motion",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Channel {
    type Err = ParseChannelError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "magnetic" => Ok(Channel::Magnetic),
            "temperature" => Ok(Channel::Temperature),
            "light" => Ok(Channel::Light),
            "acoustic" => Ok(Channel::Acoustic),
            "motion" => Ok(Channel::Motion),
            _ => Err(ParseChannelError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Error returned when parsing an unknown channel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseChannelError {
    input: String,
}

impl std::fmt::Display for ParseChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown sensor channel {:?}", self.input)
    }
}

impl std::error::Error for ParseChannelError {}

/// How a target's signal decays with distance `d` from the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Falloff {
    /// Constant `strength` inside `radius`, zero outside — a crisp sensing
    /// disk (the testbed's shadowed-light model).
    Disk {
        /// The cutoff radius in grid units.
        radius: f64,
    },
    /// `strength / max(d, floor)³` — magnetic dipole attenuation, the model
    /// the paper uses for the T-72's ferrous signature.
    InverseCube {
        /// Minimum effective distance, avoiding a singularity at `d = 0`.
        floor: f64,
    },
    /// `strength / max(d, floor)²` — acoustic/thermal radiation.
    InverseSquare {
        /// Minimum effective distance, avoiding a singularity at `d = 0`.
        floor: f64,
    },
    /// Linear ramp from `strength` at the centre to zero at `radius`.
    Linear {
        /// The radius at which the signal reaches zero.
        radius: f64,
    },
    /// A disk whose radius grows linearly while the target is active —
    /// a spreading fire front.
    GrowingDisk {
        /// Radius when the target first activates.
        initial_radius: f64,
        /// Radius growth in grid units per second of active time.
        growth_per_sec: f64,
        /// Cap on the radius (fuel runs out).
        max_radius: f64,
    },
}

impl Falloff {
    /// The received signal at distance `d` for a unit-strength source,
    /// at the instant the source activates (elapsed time zero).
    #[must_use]
    pub fn gain(&self, d: f64) -> f64 {
        self.gain_at(d, 0.0)
    }

    /// The received signal at distance `d` for a unit-strength source that
    /// has been active for `elapsed_secs`. Only [`Falloff::GrowingDisk`]
    /// is time-dependent.
    #[must_use]
    pub(crate) fn gain_at(&self, d: f64, elapsed_secs: f64) -> f64 {
        if let Falloff::GrowingDisk {
            initial_radius,
            growth_per_sec,
            max_radius,
        } = *self
        {
            let r = (initial_radius + growth_per_sec * elapsed_secs.max(0.0)).min(max_radius);
            return if d <= r { 1.0 } else { 0.0 };
        }
        self.gain_static(d)
    }

    fn gain_static(&self, d: f64) -> f64 {
        match *self {
            Falloff::Disk { radius } => {
                if d <= radius {
                    1.0
                } else {
                    0.0
                }
            }
            Falloff::InverseCube { floor } => {
                let d = d.max(floor.max(1e-6));
                1.0 / (d * d * d)
            }
            Falloff::InverseSquare { floor } => {
                let d = d.max(floor.max(1e-6));
                1.0 / (d * d)
            }
            Falloff::Linear { radius } => {
                if d >= radius || radius <= 0.0 {
                    0.0
                } else {
                    1.0 - d / radius
                }
            }
            Falloff::GrowingDisk { .. } => self.gain_at(d, 0.0),
        }
    }

    /// The distance at which a source of `strength` drops to `threshold` —
    /// i.e. the effective sensing radius. `None` when the signal never
    /// reaches the threshold (or always exceeds it, for `Disk`'s interior).
    #[must_use]
    pub fn detection_radius(&self, strength: f64, threshold: f64) -> Option<f64> {
        if threshold <= 0.0 {
            return None;
        }
        match *self {
            Falloff::Disk { radius } => (strength >= threshold).then_some(radius),
            Falloff::InverseCube { floor } => {
                let r = (strength / threshold).cbrt();
                (r >= floor).then_some(r).or(Some(floor))
            }
            Falloff::InverseSquare { floor } => {
                let r = (strength / threshold).sqrt();
                (r >= floor).then_some(r).or(Some(floor))
            }
            Falloff::Linear { radius } => {
                (strength >= threshold).then(|| radius * (1.0 - threshold / strength))
            }
            Falloff::GrowingDisk { initial_radius, .. } => {
                (strength >= threshold).then_some(initial_radius)
            }
        }
    }
}

/// One channel's emission from a target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emission {
    /// Which sensor channel this emission drives.
    pub channel: Channel,
    /// Source strength (units are per-channel conventions).
    pub strength: f64,
    /// How the signal decays with distance.
    pub falloff: Falloff,
}

impl Emission {
    /// The largest distance at which this emission can be non-zero, at any
    /// time: `+∞` for the inverse laws, and for any strength or radius that
    /// is not an ordinary number (`∞ · 0` and `1 − d / NaN` are not zero).
    fn reach(&self) -> f64 {
        let r = match self.falloff {
            Falloff::Disk { radius } | Falloff::Linear { radius } => radius,
            Falloff::GrowingDisk { max_radius, .. } => max_radius,
            Falloff::InverseCube { .. } | Falloff::InverseSquare { .. } => f64::INFINITY,
        };
        if self.strength.is_finite() && !r.is_nan() {
            r
        } else {
            f64::INFINITY
        }
    }
}

/// A physical entity moving through the field.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    id: TargetId,
    trajectory: Trajectory,
    emissions: Vec<Emission>,
    /// Time the target physically appears (before this it emits nothing).
    active_from: Timestamp,
    /// Time the target disappears (`Timestamp::MAX` = never).
    active_until: Timestamp,
    /// The largest per-axis offset at which any emission can be non-zero;
    /// see `Target::reach`.
    reach: f64,
    /// Bit `Channel::index()` is set when some emission drives that channel.
    channel_mask: u8,
}

impl Target {
    /// Creates a target with the given trajectory and emissions, active for
    /// the whole simulation.
    #[must_use]
    pub fn new(id: TargetId, trajectory: Trajectory, emissions: Vec<Emission>) -> Self {
        // Floored well above the square root of the smallest normal f64,
        // so an offset that exceeds the reach never underflows when squared.
        let reach = emissions.iter().map(Emission::reach).fold(1e-150, f64::max);
        let channel_mask = emissions.iter().fold(0, |m, e| m | 1 << e.channel.index());
        Target {
            id,
            trajectory,
            emissions,
            active_from: Timestamp::ZERO,
            active_until: Timestamp::MAX,
            reach,
            channel_mask,
        }
    }

    /// Restricts the interval during which the target exists.
    #[must_use]
    pub fn active_between(mut self, from: Timestamp, until: Timestamp) -> Self {
        self.active_from = from;
        self.active_until = until;
        self
    }

    /// The target's id.
    #[must_use]
    pub fn id(&self) -> TargetId {
        self.id
    }

    /// The target's trajectory.
    #[must_use]
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Whether the target physically exists at `t`.
    #[must_use]
    pub fn active_at(&self, t: Timestamp) -> bool {
        t >= self.active_from && t < self.active_until
    }

    /// Position at `t` (meaningful only while active).
    #[must_use]
    pub fn position_at(&self, t: Timestamp) -> Point {
        self.trajectory.position_at(t)
    }

    /// A sensor further than this from the target along either axis reads
    /// exactly zero from it on every channel, at any time. Because
    /// `sqrt(dx² + dy²) ≥ max(|dx|, |dy|)` holds in IEEE arithmetic (absent
    /// underflow, which the construction-time floor rules out), skipping
    /// the target on `|dx| > reach || |dy| > reach` changes no sample bit.
    pub(crate) fn reach(&self) -> f64 {
        self.reach
    }

    /// A box that holds every sensor the exact cull of
    /// [`Environment::sample`](crate::sensing::Environment::sample) can let
    /// through at any instant of `[from, last]`: its centre, and its half
    /// side along both axes. `None` when the target exists at no instant of
    /// the interval. The cull passes a sensor only if its rounded offset
    /// from the target is within `reach` on both axes, and the target is
    /// within [`Trajectory::sweep`]'s distance of the centre; the sum is
    /// widened by [`ROUNDING`] for the roundings of the offset and of the
    /// box's own corners, and by the 10⁻¹² a degenerate segment may jump.
    /// The half side is non-finite when the reach or the path is.
    pub(crate) fn sweep(&self, from: Timestamp, last: Timestamp) -> Option<(Point, f64)> {
        if self.active_from > last || self.active_until <= from {
            return None;
        }
        let (at, moved) = self.trajectory.sweep(from, last);
        Some((at, (self.reach + moved) * (1.0 + ROUNDING) + 1e-9))
    }

    /// Whether any emission drives `channel`.
    pub(crate) fn emits_on(&self, channel: Channel) -> bool {
        self.channel_mask & (1 << channel.index()) != 0
    }

    /// Seconds the target has existed at `t` (zero before it appears).
    pub(crate) fn active_secs(&self, t: Timestamp) -> f64 {
        t.saturating_since(self.active_from).as_secs_f64()
    }

    /// The contribution of this target to `channel` at a sensor located
    /// `distance` away, at time `t`. Zero while inactive.
    #[must_use]
    pub fn signal(&self, channel: Channel, distance: f64, t: Timestamp) -> f64 {
        if !self.active_at(t) {
            return 0.0;
        }
        self.signal_after(channel, distance, self.active_secs(t))
    }

    /// [`Target::signal`] for a target known to be active, `elapsed`
    /// seconds after it appeared: the channel's emissions summed in
    /// declaration order.
    pub(crate) fn signal_after(&self, channel: Channel, distance: f64, elapsed: f64) -> f64 {
        self.emissions
            .iter()
            .filter(|e| e.channel == channel)
            .map(|e| e.strength * e.falloff.gain_at(distance, elapsed))
            .sum()
    }

    /// The effective sensing radius on `channel` for a given detection
    /// threshold, if the target is detectable at all.
    #[must_use]
    pub fn detection_radius(&self, channel: Channel, threshold: f64) -> Option<f64> {
        self.emissions
            .iter()
            .filter(|e| e.channel == channel)
            .filter_map(|e| e.falloff.detection_radius(e.strength, threshold))
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_sim::time::SimDuration;

    #[test]
    fn line_trajectory_moves_at_constant_speed() {
        let t = Trajectory::line(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 2.0);
        assert_eq!(t.position_at(Timestamp::ZERO), Point::new(0.0, 0.0));
        assert_eq!(t.position_at(Timestamp::from_secs(1)), Point::new(2.0, 0.0));
        assert_eq!(
            t.position_at(Timestamp::from_secs(5)),
            Point::new(10.0, 0.0)
        );
        // Halts at the end.
        assert_eq!(
            t.position_at(Timestamp::from_secs(100)),
            Point::new(10.0, 0.0)
        );
        assert_eq!(t.duration(), Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn delayed_start_waits_at_first_waypoint() {
        let t = Trajectory::line(Point::ORIGIN, Point::new(4.0, 0.0), 1.0)
            .starting_at(Timestamp::from_secs(10));
        assert_eq!(t.position_at(Timestamp::from_secs(5)), Point::ORIGIN);
        assert_eq!(
            t.position_at(Timestamp::from_secs(12)),
            Point::new(2.0, 0.0)
        );
    }

    #[test]
    fn waypoint_tour_turns_corners() {
        let t = Trajectory::waypoints(
            vec![Point::ORIGIN, Point::new(3.0, 0.0), Point::new(3.0, 4.0)],
            1.0,
        );
        assert_eq!(t.path_length(), 7.0);
        assert_eq!(t.duration(), Some(SimDuration::from_secs(7)));
        assert_eq!(t.position_at(Timestamp::from_secs(3)), Point::new(3.0, 0.0));
        assert_eq!(t.position_at(Timestamp::from_secs(5)), Point::new(3.0, 2.0));
    }

    #[test]
    fn looped_tour_wraps_around() {
        let square = vec![
            Point::ORIGIN,
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let t = Trajectory::waypoints(square, 1.0).looped();
        assert_eq!(t.path_length(), 4.0);
        assert_eq!(t.duration(), None);
        let p = t.position_at(Timestamp::from_secs(5)); // one lap + 1s
        assert!((p.x - 1.0).abs() < 1e-9 && p.y.abs() < 1e-9, "{p}");
    }

    #[test]
    fn sweep_bounds_the_motion_and_covers_the_lap_end() {
        let us = Timestamp::from_micros;
        let parked = Trajectory::stationary(Point::new(2.0, 2.0));
        assert_eq!(
            parked.sweep(us(0), us(5_000_000)),
            (Point::new(2.0, 2.0), 0.0)
        );
        // A second of a line at speed 2: two units and a hair.
        let line = Trajectory::line(Point::ORIGIN, Point::new(10.0, 0.0), 2.0);
        let (at, moved) = line.sweep(us(1_000_000), us(2_000_000));
        assert_eq!(at, Point::new(2.0, 0.0));
        assert!((2.0..2.000_001).contains(&moved), "{moved}");
        // A lap of this loop is 12 s. Mid-lap the bound is the arc; a window
        // that reaches the lap's end also holds the last waypoint, where
        // `position_at` may land when its walk sheds every segment.
        let tour = vec![
            Point::ORIGIN,
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        let tour = Trajectory::waypoints(tour, 1.0).looped();
        let (_, moved) = tour.sweep(us(5_000_000), us(5_500_000));
        assert!((0.5..0.500_001).contains(&moved), "{moved}");
        let (at, moved) = tour.sweep(us(11_500_000), us(12_100_000));
        assert_eq!(at, Point::new(0.0, 0.5));
        assert!((1.5..1.500_001).contains(&moved), "{moved}");
        // No ordinary path, no bound.
        let broken = Trajectory::line(Point::ORIGIN, Point::new(f64::NAN, 0.0), 1.0);
        assert!(!broken.sweep(us(0), us(1)).1.is_finite());
        let instant = Trajectory::line(Point::ORIGIN, Point::new(1.0, 0.0), f64::INFINITY);
        assert!(!instant.sweep(us(0), us(1)).1.is_finite());
    }

    #[test]
    fn stationary_targets_never_move_or_finish() {
        let t = Trajectory::stationary(Point::new(2.0, 2.0));
        assert_eq!(
            t.position_at(Timestamp::from_secs(1_000_000)),
            Point::new(2.0, 2.0)
        );
        assert_eq!(t.duration(), None);
    }

    #[test]
    fn disk_falloff_is_a_crisp_disk() {
        let f = Falloff::Disk { radius: 2.0 };
        assert_eq!(f.gain(1.9), 1.0);
        assert_eq!(f.gain(2.0), 1.0);
        assert_eq!(f.gain(2.1), 0.0);
        assert_eq!(f.detection_radius(5.0, 1.0), Some(2.0));
        assert_eq!(f.detection_radius(0.5, 1.0), None);
    }

    #[test]
    fn inverse_cube_matches_the_papers_tank_math() {
        // The paper: a 30 m detection range for an average car scales by
        // 40^(1/3) for a tank with 40× the ferrous mass → ~100 m.
        let f = Falloff::InverseCube { floor: 0.1 };
        let car_strength = 30.0_f64.powi(3); // detectable at exactly 30 units
        let r_car = f.detection_radius(car_strength, 1.0).unwrap();
        assert!((r_car - 30.0).abs() < 1e-9);
        let r_tank = f.detection_radius(car_strength * 40.0, 1.0).unwrap();
        assert!((r_tank - 30.0 * 40.0_f64.cbrt()).abs() < 1e-9);
        assert!((r_tank - 102.6).abs() < 0.5, "tank radius {r_tank}");
    }

    #[test]
    fn target_signal_sums_emissions_and_respects_activity_window() {
        let tgt = Target::new(
            TargetId(0),
            Trajectory::stationary(Point::ORIGIN),
            vec![
                Emission {
                    channel: Channel::Magnetic,
                    strength: 8.0,
                    falloff: Falloff::Disk { radius: 1.0 },
                },
                Emission {
                    channel: Channel::Magnetic,
                    strength: 2.0,
                    falloff: Falloff::Disk { radius: 5.0 },
                },
                Emission {
                    channel: Channel::Acoustic,
                    strength: 1.0,
                    falloff: Falloff::Disk { radius: 9.0 },
                },
            ],
        )
        .active_between(Timestamp::from_secs(10), Timestamp::from_secs(20));

        let mid = Timestamp::from_secs(15);
        assert_eq!(tgt.signal(Channel::Magnetic, 0.5, mid), 10.0);
        assert_eq!(tgt.signal(Channel::Magnetic, 3.0, mid), 2.0);
        assert_eq!(tgt.signal(Channel::Acoustic, 3.0, mid), 1.0);
        assert_eq!(
            tgt.signal(Channel::Magnetic, 0.5, Timestamp::from_secs(5)),
            0.0
        );
        assert_eq!(
            tgt.signal(Channel::Magnetic, 0.5, Timestamp::from_secs(20)),
            0.0
        );
        assert_eq!(tgt.detection_radius(Channel::Magnetic, 1.0), Some(5.0));
        assert_eq!(tgt.detection_radius(Channel::Temperature, 1.0), None);
    }

    #[test]
    fn growing_disk_spreads_and_caps() {
        let fire = Target::new(
            TargetId(3),
            Trajectory::stationary(Point::ORIGIN),
            vec![Emission {
                channel: Channel::Temperature,
                strength: 200.0,
                falloff: Falloff::GrowingDisk {
                    initial_radius: 1.0,
                    growth_per_sec: 0.5,
                    max_radius: 3.0,
                },
            }],
        )
        .active_between(Timestamp::from_secs(10), Timestamp::MAX);

        // Before ignition: nothing.
        assert_eq!(fire.signal(Channel::Temperature, 0.5, Timestamp::ZERO), 0.0);
        // At ignition: 1-unit disk.
        assert_eq!(
            fire.signal(Channel::Temperature, 0.5, Timestamp::from_secs(10)),
            200.0
        );
        assert_eq!(
            fire.signal(Channel::Temperature, 1.5, Timestamp::from_secs(10)),
            0.0
        );
        // 2 s later: radius 2.
        assert_eq!(
            fire.signal(Channel::Temperature, 1.5, Timestamp::from_secs(12)),
            200.0
        );
        // Long after: capped at radius 3.
        assert_eq!(
            fire.signal(Channel::Temperature, 2.9, Timestamp::from_secs(100)),
            200.0
        );
        assert_eq!(
            fire.signal(Channel::Temperature, 3.1, Timestamp::from_secs(100)),
            0.0
        );
    }

    #[test]
    fn reach_is_the_widest_emission_or_unbounded() {
        let reach = |emissions: Vec<(f64, Falloff)>| {
            let emissions = emissions
                .into_iter()
                .map(|(strength, falloff)| Emission {
                    channel: Channel::Magnetic,
                    strength,
                    falloff,
                })
                .collect();
            Target::new(
                TargetId(0),
                Trajectory::stationary(Point::ORIGIN),
                emissions,
            )
            .reach()
        };
        let grow = Falloff::GrowingDisk {
            initial_radius: 1.0,
            growth_per_sec: 0.5,
            max_radius: 3.0,
        };
        assert_eq!(
            reach(vec![(1.0, Falloff::Disk { radius: 2.0 }), (1.0, grow)]),
            3.0
        );
        assert_eq!(reach(vec![(1.0, Falloff::Linear { radius: 4.0 })]), 4.0);
        // Nothing to hear: floored, not zero, so squared offsets stay normal.
        assert_eq!(reach(vec![]), 1e-150);
        assert_eq!(reach(vec![(1.0, Falloff::Disk { radius: -1.0 })]), 1e-150);
        // Anything that can be non-zero arbitrarily far away is unbounded.
        for (strength, falloff) in [
            (1.0, Falloff::InverseCube { floor: 0.1 }),
            (1.0, Falloff::InverseSquare { floor: 0.1 }),
            (f64::INFINITY, Falloff::Disk { radius: 2.0 }),
            (f64::NAN, Falloff::Disk { radius: 2.0 }),
            (1.0, Falloff::Linear { radius: f64::NAN }),
        ] {
            assert_eq!(
                reach(vec![(strength, falloff)]),
                f64::INFINITY,
                "{falloff:?}"
            );
        }
    }

    #[test]
    fn channel_names_round_trip() {
        for ch in Channel::ALL {
            let parsed: Channel = ch.to_string().parse().unwrap();
            assert_eq!(parsed, ch);
        }
        assert!("plutonium".parse::<Channel>().is_err());
    }
}
