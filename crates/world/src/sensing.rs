//! What the sensors perceive: samples, noise, and the environment model.
//!
//! The paper defines the set `Se(t)` of nodes whose boolean `sense_e()`
//! function holds at time `t`. Here, [`Environment::sample`] produces the raw
//! multi-channel [`SensorSample`] at any field position, and the middleware
//! layers its application-specific boolean predicates on top — exactly the
//! split the paper describes.
//!
//! ```
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::geometry::Point;
//! use envirotrack_world::sensing::Environment;
//! use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
//!
//! let mut env = Environment::new();
//! env.add_target(Target::new(
//!     TargetId(0),
//!     Trajectory::stationary(Point::new(5.0, 5.0)),
//!     vec![Emission { channel: Channel::Magnetic, strength: 1.0,
//!                     falloff: Falloff::Disk { radius: 2.0 } }],
//! ));
//! let near = env.sample(Point::new(5.5, 5.0), Timestamp::ZERO);
//! let far = env.sample(Point::new(9.0, 5.0), Timestamp::ZERO);
//! assert!(near.get(Channel::Magnetic) > 0.0);
//! assert_eq!(far.get(Channel::Magnetic), 0.0);
//! ```

use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;

use crate::geometry::{Aabb, Point};
use crate::grid::Topology;
use crate::target::{Channel, Target, TargetId};

/// One multi-channel sensor reading.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SensorSample {
    values: [f64; 5],
}

impl SensorSample {
    /// An all-zero sample.
    #[must_use]
    pub const fn zero() -> Self {
        SensorSample { values: [0.0; 5] }
    }

    /// The value on one channel.
    #[must_use]
    pub fn get(&self, channel: Channel) -> f64 {
        self.values[channel.index()]
    }

    /// Sets the value on one channel.
    pub fn set(&mut self, channel: Channel, value: f64) {
        self.values[channel.index()] = value;
    }

    /// Adds to the value on one channel.
    pub fn add(&mut self, channel: Channel, value: f64) {
        self.values[channel.index()] += value;
    }
}

/// Additive Gaussian noise applied per channel when sampling through a
/// [`NoiseModel`]-carrying environment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseModel {
    stddev: [f64; 5],
    /// Whether any channel's deviation is positive, i.e. whether
    /// [`NoiseModel::perturb`] draws at all.
    noisy: bool,
}

impl NoiseModel {
    /// No noise on any channel.
    #[must_use]
    pub const fn none() -> Self {
        NoiseModel {
            stddev: [0.0; 5],
            noisy: false,
        }
    }

    /// Sets the standard deviation on one channel; chainable.
    #[must_use]
    pub fn with_channel(mut self, channel: Channel, stddev: f64) -> Self {
        assert!(stddev >= 0.0, "noise stddev must be non-negative");
        self.stddev[channel.index()] = stddev;
        self.noisy = self.stddev.iter().any(|&s| s > 0.0);
        self
    }

    /// Applies noise to a clean sample using the supplied RNG.
    #[inline]
    #[must_use]
    pub(crate) fn perturb(&self, clean: SensorSample, rng: &mut SimRng) -> SensorSample {
        if !self.noisy {
            return clean;
        }
        let mut out = clean;
        for ch in Channel::ALL {
            let s = self.stddev[ch.index()];
            if s > 0.0 {
                out.add(ch, rng.gaussian() * s);
            }
        }
        out
    }
}

/// Windows last at most this many times their floor.
const WINDOW_CAP: u64 = 64;

/// Where the targets of one [`Environment`] can be sensed during one
/// window of virtual time: a bitmap over square cells of a field's bounds
/// in which a cell is set if some target that exists at an instant of the
/// window could, at that instant, pass the exact cull of
/// [`Environment::sample`] for a sensor in the cell (`Target::sweep`).
/// A sensor in a clear cell therefore reads the ambient levels throughout
/// the window. Positions and box corners go through one cell function that
/// never decreases along either axis, so a position inside a box always
/// lands in a cell the box set, whatever the rounding.
///
/// Nothing here is configured. A cell is about one node's share of the
/// field; a window is the time the fastest target needs to cross a cell, no
/// shorter than `floor` (the sensing period: a shorter window would be
/// rebuilt more often than a node samples) and no longer than
/// `WINDOW_CAP` floors. Windows start where they are first needed, so
/// under a clock that only moves forward each is built once.
#[derive(Debug, Clone)]
pub struct Coverage {
    bounds: Aabb,
    /// Cells per unit length; zero when one cell spans the field.
    per_unit: f64,
    cols: usize,
    rows: usize,
    bits: Vec<u64>,
    /// The window, both ends included; empty until the first rebuild.
    from: Timestamp,
    last: Timestamp,
    /// How many targets the environment had when the window was built:
    /// targets are only ever added, so the count tells a stale bitmap.
    targets: usize,
    floor: SimDuration,
    /// How it has answered so far ([`Coverage::work`]).
    answered: u64,
    walked: u64,
    rebuilds: u64,
}

impl Coverage {
    /// The cell of a position no cell speaks for: it is always walked.
    pub const OFF_FIELD: u32 = u32::MAX;

    /// An empty coverage for `nodes` sensors spread over `bounds`, whose
    /// windows last at least `floor`.
    #[must_use]
    pub fn new(bounds: Aabb, nodes: usize, floor: SimDuration) -> Self {
        let (w, h) = (bounds.width(), bounds.height());
        let n = nodes.max(1) as f64;
        // The side of one node's share of the area, or of the length when
        // the field is a line: at most `3 n + 1` cells either way. A field
        // that is a point, or too large to square, is one cell.
        let cell = (w * h / n).sqrt().max(w.max(h) / n);
        let per_unit = if cell > 0.0 && cell.is_finite() {
            1.0 / cell
        } else {
            0.0
        };
        let cols = (w * per_unit) as usize + 1;
        let rows = (h * per_unit) as usize + 1;
        Coverage {
            bounds,
            per_unit,
            cols,
            rows,
            bits: vec![0; (cols * rows).div_ceil(64)],
            from: Timestamp::MAX,
            last: Timestamp::ZERO,
            targets: 0,
            floor: floor.max(SimDuration::from_micros(1)),
            answered: 0,
            walked: 0,
            rebuilds: 0,
        }
    }

    /// Adds how the coverage has answered so far to `work`. It says how
    /// the sampling was done, not what was sampled:
    /// - `samples_covered`: samples answered "ambient" from a clear cell,
    ///   no target looked at;
    /// - `samples_walked`: samples that took the exact walk over every
    ///   target;
    /// - `coverage_rebuilds`: times the bitmap was rebuilt for a new window.
    pub fn work(&self, work: &mut Work) {
        work.add("samples_covered", self.answered);
        work.add("samples_walked", self.walked);
        work.add("coverage_rebuilds", self.rebuilds);
    }

    /// The window the bitmap was last built for, first and last instant;
    /// `None` before the first sample.
    #[must_use]
    pub fn window(&self) -> Option<(Timestamp, Timestamp)> {
        (self.from <= self.last).then_some((self.from, self.last))
    }

    /// Whether the bitmap speaks for instant `t` of an environment that
    /// has `targets` targets.
    #[inline]
    fn holds(&self, t: Timestamp, targets: usize) -> bool {
        self.from <= t && t <= self.last && self.targets == targets
    }

    /// The cell of `p` as `(column, row)`; a point off the field lands in
    /// the nearest edge cell.
    #[inline]
    fn cell_of(&self, p: Point) -> (usize, usize) {
        // A float-to-integer cast saturates, and sends NaN to zero.
        let col = ((p.x - self.bounds.min.x) * self.per_unit) as usize;
        let row = ((p.y - self.bounds.min.y) * self.per_unit) as usize;
        (col.min(self.cols - 1), row.min(self.rows - 1))
    }

    /// The cell a sensor at `pos` samples from, for
    /// [`Environment::sample_covered`]: which cell it is depends on the
    /// field alone, never on a window, so a sensor that does not move works
    /// it out once. A position off the field gets [`Coverage::OFF_FIELD`].
    #[must_use]
    pub fn cell_index(&self, pos: Point) -> u32 {
        if !self.bounds.contains(pos) {
            return Self::OFF_FIELD;
        }
        let (col, row) = self.cell_of(pos);
        // A grid too large to number in 32 bits is walked from every cell.
        u32::try_from(row * self.cols + col).unwrap_or(Self::OFF_FIELD)
    }

    /// Whether `cell` is on the field and no target reaches it.
    #[inline]
    fn is_clear(&self, cell: u32) -> bool {
        let bit = cell as usize;
        cell != Self::OFF_FIELD && self.bits[bit / 64] & (1 << (bit % 64)) == 0
    }

    /// Rebuilds the bitmap for the window that starts at `t`.
    fn rebuild(&mut self, targets: &[Target], t: Timestamp) {
        self.rebuilds += 1;
        let fastest = targets
            .iter()
            .map(|target| target.trajectory().speed())
            .fold(0.0, f64::max);
        let cap = self.floor.as_micros().saturating_mul(WINDOW_CAP);
        // Saturates at the cap for a field of stationary targets.
        let crossing = (1e6 / (self.per_unit * fastest)) as u64;
        let window = crossing.clamp(self.floor.as_micros(), cap);
        self.from = t;
        self.last = t.saturating_add(SimDuration::from_micros(window - 1));
        self.targets = targets.len();
        self.bits.fill(0);
        let Aabb { min, max } = self.bounds;
        for target in targets {
            let Some((at, half)) = target.sweep(self.from, self.last) else {
                continue;
            };
            if !(half.is_finite() && at.x.is_finite() && at.y.is_finite()) {
                // Unbounded reach, or a path through no ordinary point:
                // every sample takes the walk.
                self.bits.fill(!0);
                return;
            }
            let (lo, hi) = (
                Point::new(at.x - half, at.y - half),
                Point::new(at.x + half, at.y + half),
            );
            if hi.x < min.x || lo.x > max.x || hi.y < min.y || lo.y > max.y {
                continue;
            }
            let ((col0, row0), (col1, row1)) = (self.cell_of(lo), self.cell_of(hi));
            for row in row0..=row1 {
                for bit in row * self.cols + col0..=row * self.cols + col1 {
                    self.bits[bit / 64] |= 1 << (bit % 64);
                }
            }
        }
    }
}

/// The physical environment: ambient conditions plus a set of targets.
///
/// This is the ground truth of a simulation. The middleware never reads it
/// directly — simulated sensor nodes sample it at their own position, and
/// the experiment harness reads it to audit tracking accuracy.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    ambient: SensorSample,
    targets: Vec<Target>,
    noise: NoiseModel,
}

impl Environment {
    /// An empty environment (zero ambient levels, no targets, no noise).
    #[must_use]
    pub fn new() -> Self {
        Environment::default()
    }

    /// Sets the ambient (target-free) level of one channel, e.g. 20 °C
    /// baseline temperature; chainable.
    #[must_use]
    pub fn with_ambient(mut self, channel: Channel, level: f64) -> Self {
        self.ambient.set(channel, level);
        self
    }

    /// Installs a sensor noise model; chainable.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Adds a target.
    pub fn add_target(&mut self, target: Target) {
        self.targets.push(target);
    }

    /// The ambient levels: what a sensor no target reaches reads, noise
    /// aside.
    #[must_use]
    pub fn ambient(&self) -> SensorSample {
        self.ambient
    }

    /// Whether the sensors are noisy: a sample then draws, and no cell is
    /// ever quiet ([`Environment::reach_cells`]). Fixed when the
    /// environment is built.
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        self.noise.noisy
    }

    /// All targets.
    #[must_use]
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// Looks up a target by id.
    #[must_use]
    pub fn target(&self, id: TargetId) -> Option<&Target> {
        self.targets.iter().find(|t| t.id() == id)
    }

    /// The noiseless sample at `pos` and time `t`: ambient plus every active
    /// target's contribution.
    #[must_use]
    pub fn sample(&self, pos: Point, t: Timestamp) -> SensorSample {
        let mut out = self.ambient;
        for target in &self.targets {
            if !target.active_at(t) {
                continue;
            }
            // Exact cull (see `Target::reach`): most targets are nowhere
            // near most sensors, and cost nothing past this comparison.
            let offset = pos - target.position_at(t);
            let reach = target.reach();
            if offset.x.abs() > reach || offset.y.abs() > reach {
                continue;
            }
            let d = offset.length();
            let elapsed = target.active_secs(t);
            for ch in Channel::ALL {
                if !target.emits_on(ch) {
                    continue;
                }
                let sig = target.signal_after(ch, d, elapsed);
                if sig != 0.0 {
                    out.add(ch, sig);
                }
            }
        }
        out
    }

    /// Like [`Environment::sample`] but with the configured noise applied.
    #[must_use]
    pub fn sample_noisy(&self, pos: Point, t: Timestamp, rng: &mut SimRng) -> SensorSample {
        self.noise.perturb(self.sample(pos, t), rng)
    }

    /// [`Environment::sample_noisy`] at `pos`, bit for bit and draw for
    /// draw, for a caller that keeps a [`Coverage`] of this environment and
    /// knows `pos`'s cell in it ([`Coverage::cell_index`]): a sensor in a
    /// cell no target can reach during the coverage's window reads the
    /// ambient levels (plus noise) without a look at any trajectory;
    /// anything else takes the exact walk. The first sample outside the
    /// window rebuilds the coverage around its own instant.
    #[inline]
    #[must_use]
    pub fn sample_covered(
        &self,
        coverage: &mut Coverage,
        cell: u32,
        pos: Point,
        t: Timestamp,
        rng: &mut SimRng,
    ) -> SensorSample {
        debug_assert_eq!(
            cell,
            coverage.cell_index(pos),
            "{pos} is not in cell {cell}"
        );
        if self.clear_at(coverage, cell, t) {
            coverage.answered += 1;
            debug_assert_eq!(
                self.sample(pos, t).values.map(f64::to_bits),
                self.ambient.values.map(f64::to_bits),
                "coverage skipped a target at {pos}, {t:?}"
            );
            return self.noise.perturb(self.ambient, rng);
        }
        coverage.walked += 1;
        self.sample_noisy(pos, t, rng)
    }

    /// Whether [`Environment::sample_covered`] in `cell` at `t` would
    /// return [`Environment::ambient`] bit for bit and draw nothing: the
    /// environment is noiseless and no target reaches the cell during the
    /// coverage's window. Counted as an answered sample when it is, so a
    /// caller that takes `true` for that sample leaves the coverage's work
    /// where the sample would have; with noise on it is `false` without a
    /// look at the coverage.
    #[inline]
    #[must_use]
    pub fn reads_ambient(&self, coverage: &mut Coverage, cell: u32, t: Timestamp) -> bool {
        if self.noise.noisy || !self.clear_at(coverage, cell, t) {
            return false;
        }
        coverage.answered += 1;
        true
    }

    /// Calls `reached` with every cell of `topology` whose box in `boxes` —
    /// one a cell, holding the positions of its nodes
    /// ([`Topology::member_boxes`]) — a target
    /// can reach during `[from, last]`: where the target can pass the exact
    /// cull of [`Environment::sample`] for a position in the box
    /// (`Target::sweep`, the argument behind the [`Coverage`] windows, over
    /// the whole interval). Every other cell's sensors read exactly the
    /// ambient levels, with nothing drawn, throughout the interval. A cell
    /// two targets reach is named twice; with noise on, or a target whose
    /// reach or path is no ordinary number, every cell is. A target that is
    /// not present yet counts from the instant it appears; one added later
    /// is not seen. Returns how many target sweeps it worked out: one a
    /// target.
    pub fn reach_cells(
        &self,
        topology: &Topology,
        boxes: &[[f32; 4]],
        from: Timestamp,
        last: Timestamp,
        mut reached: impl FnMut(usize),
    ) -> u64 {
        let every = |reached: &mut dyn FnMut(usize)| (0..boxes.len()).for_each(reached);
        if self.noise.noisy {
            every(&mut reached);
            return 0;
        }
        for target in &self.targets {
            let Some((at, half)) = target.sweep(from, last) else {
                continue;
            };
            let (lo, hi) = (
                Point::new(at.x - half, at.y - half),
                Point::new(at.x + half, at.y + half),
            );
            if ![lo.x, lo.y, hi.x, hi.y].iter().all(|v| v.is_finite()) {
                every(&mut reached);
                continue;
            }
            for cell in topology.cells_within(lo, hi) {
                let [x0, y0, x1, y1] = boxes[cell].map(f64::from);
                if !(at.x + half < x0 || at.x - half > x1 || at.y + half < y0 || at.y - half > y1) {
                    reached(cell);
                }
            }
        }
        self.targets.len() as u64
    }

    /// Whether `cell` is clear in the window of `coverage` that holds `t`,
    /// rebuilt around `t` first if the one it has does not.
    #[inline]
    fn clear_at(&self, coverage: &mut Coverage, cell: u32, t: Timestamp) -> bool {
        if !coverage.holds(t, self.targets.len()) {
            coverage.rebuild(&self.targets, t);
        }
        coverage.is_clear(cell)
    }

    /// Ground truth `Se(t)`: the positions among `candidates` at which a
    /// specific target's signal on `channel` meets `threshold` at time `t`.
    /// Returns indices into `candidates`. Used by the experiment auditors.
    #[must_use]
    pub(crate) fn sensing_set(
        &self,
        target_id: TargetId,
        channel: Channel,
        threshold: f64,
        candidates: &[Point],
        t: Timestamp,
    ) -> Vec<usize> {
        let Some(target) = self.target(target_id) else {
            return Vec::new();
        };
        if !target.active_at(t) {
            return Vec::new();
        }
        let tp = target.position_at(t);
        candidates
            .iter()
            .enumerate()
            .filter(|(_, &p)| target.signal(channel, p.distance_to(tp), t) >= threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Emission, Falloff, Trajectory};

    fn work_of(coverage: &Coverage) -> Work {
        let mut work = Work::default();
        coverage.work(&mut work);
        work
    }

    fn disk_target(id: u32, at: Point, radius: f64) -> Target {
        Target::new(
            TargetId(id),
            Trajectory::stationary(at),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk { radius },
            }],
        )
    }

    #[test]
    fn ambient_levels_show_everywhere() {
        let env = Environment::new().with_ambient(Channel::Temperature, 20.0);
        let s = env.sample(Point::new(100.0, -3.0), Timestamp::ZERO);
        assert_eq!(s.get(Channel::Temperature), 20.0);
        assert_eq!(s.get(Channel::Magnetic), 0.0);
    }

    #[test]
    fn targets_superimpose_on_ambient() {
        let mut env = Environment::new().with_ambient(Channel::Magnetic, 0.5);
        env.add_target(disk_target(0, Point::ORIGIN, 2.0));
        env.add_target(disk_target(1, Point::new(1.0, 0.0), 2.0));
        let s = env.sample(Point::new(0.5, 0.0), Timestamp::ZERO);
        assert_eq!(s.get(Channel::Magnetic), 2.5); // ambient + two disks
    }

    #[test]
    fn moving_target_changes_the_sample_over_time() {
        let mut env = Environment::new();
        env.add_target(Target::new(
            TargetId(0),
            Trajectory::line(Point::ORIGIN, Point::new(10.0, 0.0), 1.0),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk { radius: 1.0 },
            }],
        ));
        let probe = Point::new(5.0, 0.0);
        assert_eq!(
            env.sample(probe, Timestamp::ZERO).get(Channel::Magnetic),
            0.0
        );
        assert_eq!(
            env.sample(probe, Timestamp::from_secs(5))
                .get(Channel::Magnetic),
            1.0
        );
        assert_eq!(
            env.sample(probe, Timestamp::from_secs(9))
                .get(Channel::Magnetic),
            0.0
        );
    }

    #[test]
    fn sensing_set_matches_geometry() {
        let mut env = Environment::new();
        env.add_target(disk_target(7, Point::new(1.0, 0.0), 1.0));
        let candidates = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let set = env.sensing_set(
            TargetId(7),
            Channel::Magnetic,
            0.5,
            &candidates,
            Timestamp::ZERO,
        );
        assert_eq!(set, vec![0, 1, 2]);
        // Unknown target → empty.
        assert!(env
            .sensing_set(
                TargetId(99),
                Channel::Magnetic,
                0.5,
                &candidates,
                Timestamp::ZERO
            )
            .is_empty());
    }

    #[test]
    fn noise_is_seeded_and_zero_mean_ish() {
        let env = Environment::new()
            .with_ambient(Channel::Temperature, 100.0)
            .with_noise(NoiseModel::none().with_channel(Channel::Temperature, 2.0));
        let mut rng1 = SimRng::seed_from(5);
        let mut rng2 = SimRng::seed_from(5);
        let p = Point::ORIGIN;
        let a = env.sample_noisy(p, Timestamp::ZERO, &mut rng1);
        let b = env.sample_noisy(p, Timestamp::ZERO, &mut rng2);
        assert_eq!(a, b, "noise must be reproducible under the same seed");

        let mut rng = SimRng::seed_from(6);
        let mean = (0..2000)
            .map(|_| {
                env.sample_noisy(p, Timestamp::ZERO, &mut rng)
                    .get(Channel::Temperature)
            })
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 100.0).abs() < 0.25, "noisy mean {mean}");
    }

    /// [`Environment::sample_covered`] at `pos`, its cell worked out here.
    fn covered(
        env: &Environment,
        coverage: &mut Coverage,
        pos: Point,
        t: Timestamp,
        rng: &mut SimRng,
    ) -> SensorSample {
        let cell = coverage.cell_index(pos);
        env.sample_covered(coverage, cell, pos, t, rng)
    }

    /// A tank-like disk target crossing a 40 × 40 unit grid of 1 600 nodes.
    fn crossing(speed: f64) -> (Environment, Coverage, Vec<Point>) {
        let mut env = Environment::new().with_ambient(Channel::Temperature, 20.0);
        env.add_target(Target::new(
            TargetId(0),
            Trajectory::line(Point::new(-1.5, 19.5), Point::new(40.5, 19.5), speed),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk { radius: 1.0 },
            }],
        ));
        let field = crate::field::Deployment::grid(40, 40, 1.0);
        let coverage = Coverage::new(field.bounds(), field.len(), SimDuration::from_millis(200));
        (env, coverage, field.positions().to_vec())
    }

    #[test]
    fn coverage_answers_the_idle_field_and_rebuilds_once_per_window() {
        let (env, mut coverage, nodes) = crossing(1.0);
        // 39 × 39 units among 1 600 nodes: cells 0.975 units a side.
        assert_eq!((coverage.cols, coverage.rows), (41, 41));
        let mut rng = SimRng::seed_from(1);
        // Five rounds of the whole field, 200 ms apart: one window, as the
        // target needs 0.975 s to cross a cell.
        for round in 0..5 {
            let t = Timestamp::from_millis(3_000 + 200 * round);
            for &pos in &nodes {
                let got = covered(&env, &mut coverage, pos, t, &mut rng);
                assert_eq!(got, env.sample(pos, t));
            }
        }
        let (from, last) = coverage.window().expect("built");
        assert_eq!(from, Timestamp::from_millis(3_000));
        assert!(
            (3_974_990..3_975_000).contains(&last.as_micros()),
            "{last:?}"
        );
        let work = work_of(&coverage);
        assert_eq!(work.get("coverage_rebuilds"), 1);
        let walked = work.get("samples_walked");
        assert_eq!(work.get("samples_covered") + walked, 5 * 1_600);
        // Reach 1 + one cell of travel either side: a handful of cells.
        assert!(walked <= 5 * 30, "{work:?}");
        // The next window is built by the first sample past this one, and a
        // step back in time builds one too.
        let _ = covered(
            &env,
            &mut coverage,
            nodes[0],
            Timestamp::from_secs(4),
            &mut rng,
        );
        assert_eq!(work_of(&coverage).get("coverage_rebuilds"), 2);
        let _ = covered(
            &env,
            &mut coverage,
            nodes[0],
            Timestamp::from_secs(1),
            &mut rng,
        );
        assert_eq!(work_of(&coverage).get("coverage_rebuilds"), 3);
    }

    #[test]
    fn coverage_windows_follow_the_fastest_target_between_floor_and_cap() {
        let length = |speed: f64| {
            let (env, mut coverage, nodes) = crossing(speed);
            let mut rng = SimRng::seed_from(1);
            let _ = covered(&env, &mut coverage, nodes[0], Timestamp::ZERO, &mut rng);
            coverage.window().expect("built").1.as_micros() + 1
        };
        assert!((1_949_990..=1_950_000).contains(&length(0.5)));
        assert_eq!(length(30.0), 200_000, "never shorter than the floor");
        assert_eq!(length(0.001), 64 * 200_000, "never longer than the cap");
        // Nothing moves: the cap.
        let env = Environment::new();
        let mut coverage = crossing(1.0).1;
        let _ = covered(
            &env,
            &mut coverage,
            Point::ORIGIN,
            Timestamp::ZERO,
            &mut SimRng::seed_from(1),
        );
        assert_eq!(
            coverage.window().expect("built").1.as_micros() + 1,
            64 * 200_000
        );
    }

    #[test]
    fn coverage_notices_a_target_added_mid_window() {
        let (mut env, mut coverage, _) = crossing(1.0);
        let (probe, t) = (Point::new(30.0, 5.0), Timestamp::from_secs(2));
        let mut rng = SimRng::seed_from(1);
        let before = covered(&env, &mut coverage, probe, t, &mut rng);
        assert_eq!(before.get(Channel::Magnetic), 0.0);
        env.add_target(disk_target(1, probe, 0.5));
        let after = covered(&env, &mut coverage, probe, t, &mut rng);
        assert_eq!(after.get(Channel::Magnetic), 1.0);
        assert_eq!(work_of(&coverage).get("coverage_rebuilds"), 2);
    }

    #[test]
    fn coverage_grids_degenerate_fields_without_dividing_by_zero() {
        let floor = SimDuration::from_millis(200);
        let at = Point::new(3.0, 3.0);
        // One node; many nodes on one spot; a line of nodes; an extent
        // whose area overflows.
        let point = Aabb::new(at, at);
        for nodes in [0, 1, 50] {
            let c = Coverage::new(point, nodes, floor);
            assert_eq!((c.cols, c.rows, c.bits.len()), (1, 1, 1));
        }
        let line = Coverage::new(Aabb::new(Point::ORIGIN, Point::new(99.0, 0.0)), 100, floor);
        assert_eq!((line.cols, line.rows), (101, 1));
        let huge = Aabb::new(Point::new(-1e200, -1e200), Point::new(1e200, 1e200));
        let c = Coverage::new(huge, 10, floor);
        assert_eq!((c.cols, c.rows), (1, 1));
        // A sensor on the lone node still reads a target that reaches it,
        // and ambient once the target has gone.
        let mut env = Environment::new();
        env.add_target(
            disk_target(0, Point::new(3.5, 3.0), 1.0)
                .active_between(Timestamp::ZERO, Timestamp::from_secs(1)),
        );
        let (mut c, mut rng) = (Coverage::new(point, 1, floor), SimRng::seed_from(1));
        let early = covered(&env, &mut c, at, Timestamp::ZERO, &mut rng);
        let late = covered(&env, &mut c, at, Timestamp::from_secs(30), &mut rng);
        assert_eq!(
            (early.get(Channel::Magnetic), late.get(Channel::Magnetic)),
            (1.0, 0.0)
        );
        let work = work_of(&c);
        assert_eq!(
            (work.get("samples_walked"), work.get("samples_covered")),
            (1, 1)
        );
    }
}
