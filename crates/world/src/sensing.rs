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

use std::sync::Arc;

use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;

use crate::geometry::Point;
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

/// How many window lengths a [`Reach`] lists: aligned runs of 2, 4, …, 64
/// sensing periods. A cell no target nears for 64 periods is proven quiet
/// to the end of its 64-period window.
const LEVELS: u32 = 6;

/// Which sensors the targets of an [`Environment`] can reach, window by
/// window: what the sensing verdict ([`Environment::sample_covered`],
/// [`Environment::reads_ambient`]) and the parking proofs
/// ([`Reach::quiet_until`]) both read.
///
/// A window of level `l < LEVELS` is an aligned run of `2^(l + 1)` sensing
/// periods: window `w` holds the instants `w · span` to `(w + 1) · span − 1`
/// µs. Each level keeps the window it was last asked about, keyed by the window
/// and the environment's target count (targets are only ever added, so the
/// count tells a stale list). For each target present in the window it
/// keeps the box the target can pass the exact cull of
/// [`Environment::sample`] in (`Target::sweep`), and it sets one bit per
/// cell of a [`Topology`] whose nodes' box (`Topology::member_boxes`) one
/// of those boxes meets. A node in an unlisted cell, or outside every box,
/// reads exactly the ambient levels throughout the window. A box that is no
/// ordinary numbers lists every cell and holds every position. Nothing is
/// built until the first question.
pub struct Reach {
    topology: Arc<Topology>,
    /// The sensing period in µs, at least one.
    period: u64,
    /// Per grid cell, the box of its nodes' positions.
    boxes: Vec<[f32; 4]>,
    levels: Vec<Level>,
    /// Windows listed, the target sweeps they took and the cells they
    /// listed; samples answered "ambient" and samples walked.
    windows: u64,
    sweeps: u64,
    listed: u64,
    covered: u64,
    walked: u64,
}

/// The window one level of a [`Reach`] was last asked about.
#[derive(Default)]
struct Level {
    /// The window's index plus one (zero: none yet) and the target count.
    key: (u64, usize),
    /// The window's first and last instant, in µs.
    from: u64,
    last: u64,
    cells: Vec<u64>,
    /// Per target present, its box as `[lo.x, lo.y, hi.x, hi.y]`.
    swept: Vec<[f64; 4]>,
}

impl Level {
    /// Whether grid cell `cell` is on the grid and unlisted.
    #[inline]
    fn unlisted(&self, cell: u32) -> bool {
        let bit = cell as usize;
        self.cells
            .get(bit / 64)
            .is_some_and(|w| w & (1 << (bit % 64)) == 0)
    }
}

impl Reach {
    /// The reach of the nodes of `topology` that sample every `period`.
    #[must_use]
    pub fn new(topology: Arc<Topology>, period: SimDuration) -> Self {
        Reach {
            topology,
            period: period.as_micros().max(1),
            boxes: Vec::new(),
            levels: Vec::new(),
            windows: 0,
            sweeps: 0,
            listed: 0,
            covered: 0,
            walked: 0,
        }
    }

    /// Adds how it has answered so far to `work`. It says how the work was
    /// done, not what was sampled:
    /// - `reach_windows`: windows listed, a level asked about a window it
    ///   did not hold;
    /// - `reach_sweeps`: target sweeps those windows took, one a target;
    /// - `reach_listed`: cells those sweeps listed;
    /// - `samples_covered`: samples answered "ambient", no target looked at;
    /// - `samples_walked`: samples that took the exact walk over every
    ///   target.
    pub fn work(&self, work: &mut Work) {
        work.add("reach_windows", self.windows);
        work.add("reach_sweeps", self.sweeps);
        work.add("reach_listed", self.listed);
        work.add("samples_covered", self.covered);
        work.add("samples_walked", self.walked);
    }

    /// The heap bytes of the cell boxes and the levels' lists.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let levels = self.levels.iter().map(|l| {
            l.cells.capacity() * size_of::<u64>() + l.swept.capacity() * size_of::<[f64; 4]>()
        });
        self.boxes.capacity() * size_of::<[f32; 4]>()
            + self.levels.capacity() * size_of::<Level>()
            + levels.sum::<usize>()
    }

    /// The end of the longest aligned window holding `t`, two periods
    /// doubling up to 64, in which no target of `env` can reach a node of
    /// grid cell `cell` — the instant after its last — and `None` if a
    /// target can in the two periods that hold `t`.
    pub fn quiet_until(
        &mut self,
        env: &Environment,
        t: Timestamp,
        cell: usize,
    ) -> Option<Timestamp> {
        (0..LEVELS).rev().find_map(|level| {
            let span = self.span(level);
            let window = t.as_micros() / span;
            let end = Timestamp::from_micros((window + 1).saturating_mul(span));
            let listed = self.list(env, level, window);
            listed.unlisted(cell as u32).then_some(end)
        })
    }

    /// Whether a node at `pos` in grid cell `cell` reads the ambient levels
    /// of `env` at `t`, noise aside: its cell is unlisted in the level-0
    /// window that holds `t`, or it is outside every box. A cell past the
    /// grid's last is listed, so a position in none is tested alone; one
    /// that is not a number is inside every box. The common answer — the
    /// window held holds `t`, asked by its ends with no division, and the
    /// cell is unlisted — is inlined into the caller's tick.
    #[inline]
    fn clear(&mut self, env: &Environment, cell: u32, pos: Point, t: Timestamp) -> bool {
        let t = t.as_micros();
        let held = |l: &Level| l.from <= t && t <= l.last && l.key.1 == env.targets.len();
        let quick = |l: &Level| held(l) && l.unlisted(cell);
        self.levels.first().is_some_and(quick) || self.clear_listed(env, cell, pos, t)
    }

    /// [`Reach::clear`] past its common answer, at `t` µs.
    #[inline(never)]
    fn clear_listed(&mut self, env: &Environment, cell: u32, pos: Point, t: u64) -> bool {
        let level = self.list(env, 0, t / self.span(0));
        let outside =
            |&[x0, y0, x1, y1]: &[f64; 4]| pos.x < x0 || pos.y < y0 || pos.x > x1 || pos.y > y1;
        level.unlisted(cell) || level.swept.iter().all(outside)
    }

    /// The lists of `level` for window `window`, listed now if the level
    /// holds another window or fewer targets.
    #[inline]
    fn list(&mut self, env: &Environment, level: u32, window: u64) -> &Level {
        let key = (window + 1, env.targets.len());
        let at = level as usize;
        if self.levels.get(at).is_none_or(|l| l.key != key) {
            self.relist(env, level, window);
            self.levels[at].key = key;
        }
        &self.levels[at]
    }

    /// How many µs a window of level `level` lasts.
    fn span(&self, level: u32) -> u64 {
        self.period.saturating_mul(2 << level)
    }

    #[cold]
    fn relist(&mut self, env: &Environment, level: u32, window: u64) {
        if self.levels.is_empty() {
            self.boxes = self.topology.member_boxes();
            self.levels.resize_with(LEVELS as usize, Level::default);
        }
        let at = level as usize;
        let span = self.span(level);
        let from = Timestamp::from_micros(window.saturating_mul(span));
        let last = from.saturating_add(SimDuration::from_micros(span - 1));
        let level = &mut self.levels[at];
        (level.from, level.last) = (from.as_micros(), last.as_micros());
        let Level { cells, swept, .. } = level;
        cells.clear();
        cells.resize(self.boxes.len().div_ceil(64), 0);
        swept.clear();
        let mut listed = 0;
        let mut set = |cell: usize| {
            let (word, bit) = (&mut cells[cell / 64], 1 << (cell % 64));
            listed += u64::from(*word & bit == 0);
            *word |= bit;
        };
        for target in &env.targets {
            let Some((at, half)) = target.sweep(from, last) else {
                continue;
            };
            let (lo, hi) = (
                Point::new(at.x - half, at.y - half),
                Point::new(at.x + half, at.y + half),
            );
            if ![lo.x, lo.y, hi.x, hi.y].iter().all(|v| v.is_finite()) {
                (0..self.boxes.len()).for_each(&mut set);
                swept.push([-f64::INFINITY, -f64::INFINITY, f64::INFINITY, f64::INFINITY]);
                continue;
            }
            swept.push([lo.x, lo.y, hi.x, hi.y]);
            for cell in self.topology.cells_within(lo, hi) {
                let [x0, y0, x1, y1] = self.boxes[cell].map(f64::from);
                if !(hi.x < x0 || lo.x > x1 || hi.y < y0 || lo.y > y1) {
                    set(cell);
                }
            }
        }
        self.windows += 1;
        self.sweeps += env.targets.len() as u64;
        self.listed += listed;
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

    /// Whether the sensors are noisy: a sample then draws, even where no
    /// target reaches ([`Reach`]). Fixed when the environment is built.
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
    /// draw, for a node at `pos` in grid cell `cell` of `reach`'s topology:
    /// where [`Reach`] says no target reaches the node at `t`, it reads the
    /// ambient levels (plus noise) without a look at any trajectory;
    /// anything else takes the exact walk.
    #[inline]
    #[must_use]
    pub fn sample_covered(
        &self,
        reach: &mut Reach,
        cell: u32,
        pos: Point,
        t: Timestamp,
        rng: &mut SimRng,
    ) -> SensorSample {
        if reach.clear(self, cell, pos, t) {
            reach.covered += 1;
            debug_assert_eq!(
                self.sample(pos, t).values.map(f64::to_bits),
                self.ambient.values.map(f64::to_bits),
                "the reach skipped a target at {pos}, {t:?}"
            );
            return self.noise.perturb(self.ambient, rng);
        }
        self.sample_walked(reach, pos, t, rng)
    }

    /// [`Environment::sample_covered`] where the reach has already said no:
    /// the exact walk, counted as one. For a caller whose
    /// [`Environment::reads_ambient`] was `false` in a noiseless
    /// environment, which asked the reach the same question.
    #[inline]
    #[must_use]
    pub fn sample_walked(
        &self,
        reach: &mut Reach,
        pos: Point,
        t: Timestamp,
        rng: &mut SimRng,
    ) -> SensorSample {
        reach.walked += 1;
        self.sample_noisy(pos, t, rng)
    }

    /// Whether [`Environment::sample_covered`] would return
    /// [`Environment::ambient`] bit for bit and draw nothing: the
    /// environment is noiseless and no target reaches the node. Counted as
    /// an answered sample when it is, so a caller that takes `true` for that
    /// sample leaves the reach's work where the sample would have; with
    /// noise on it is `false` without a look at the reach.
    #[inline]
    #[must_use]
    pub fn reads_ambient(&self, reach: &mut Reach, cell: u32, pos: Point, t: Timestamp) -> bool {
        if self.noise.noisy || !reach.clear(self, cell, pos, t) {
            return false;
        }
        reach.covered += 1;
        true
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

    fn work_of(reach: &Reach) -> Work {
        let mut work = Work::default();
        reach.work(&mut work);
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

    /// A tank-like disk target crossing a 40 × 40 unit grid of 1 600 nodes
    /// at `speed`, and the field's reach under radius 2.5 and a 200 ms
    /// sensing period.
    fn crossing(speed: f64) -> (Environment, Reach, Vec<Point>) {
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
        let topology = Arc::new(Topology::new(&field, 2.5));
        let reach = Reach::new(topology, SimDuration::from_millis(200));
        (env, reach, field.positions().to_vec())
    }

    /// Every node of the field sampled at `t`, each against the walk.
    fn sample_all(env: &Environment, reach: &mut Reach, nodes: &[Point], t: Timestamp) {
        let mut rng = SimRng::seed_from(1);
        for (id, &pos) in (0u32..).zip(nodes) {
            let cell = reach.topology.cell_of(crate::field::NodeId(id)) as u32;
            assert_eq!(
                env.sample_covered(reach, cell, pos, t, &mut rng),
                env.sample(pos, t)
            );
        }
    }

    #[test]
    fn reach_answers_the_idle_field_and_lists_once_per_window() {
        let (env, mut reach, nodes) = crossing(1.0);
        assert_eq!(work_of(&reach).get("reach_windows"), 0, "nothing built yet");
        // Five rounds of the whole field, 200 ms apart, over three aligned
        // 400 ms windows: 2.8 – 3.2 s, 3.2 – 3.6 s and 3.6 – 4 s.
        for round in 0..5 {
            sample_all(
                &env,
                &mut reach,
                &nodes,
                Timestamp::from_millis(3_000 + 200 * round),
            );
        }
        let work = work_of(&reach);
        assert_eq!(
            [work.get("reach_windows"), work.get("reach_sweeps")],
            [3, 3]
        );
        let walked = work.get("samples_walked");
        assert_eq!(work.get("samples_covered") + walked, 5 * 1_600);
        // Reach 1 and 0.4 units of travel either side: the nodes inside a
        // box 2.8 units wide, though its cells hold some 150.
        assert!(walked <= 5 * 9, "{work:?}");
        assert!(work.get("reach_listed") >= 3, "{work:?}");
        // A step back in time lists its window again.
        sample_all(&env, &mut reach, &nodes[..1], Timestamp::from_secs(1));
        assert_eq!(work_of(&reach).get("reach_windows"), 4);
    }

    #[test]
    fn reach_notices_a_target_added_mid_window() {
        let (mut env, mut reach, nodes) = crossing(1.0);
        let t = Timestamp::from_secs(2);
        sample_all(&env, &mut reach, &nodes, t);
        env.add_target(disk_target(1, nodes[5], 0.5));
        sample_all(&env, &mut reach, &nodes, t);
        let work = work_of(&reach);
        assert_eq!(work.get("reach_windows"), 2);
        assert!(work.get("samples_walked") > 0, "{work:?}");
    }

    #[test]
    fn a_window_of_each_level_holds_its_own_instants() {
        let (mut env, mut reach, _) = crossing(1.0);
        // Present from 12.7 s on, over cell 0.
        env.add_target(
            disk_target(1, Point::ORIGIN, 0.5)
                .active_between(Timestamp::from_millis(12_700), Timestamp::MAX),
        );
        let at = Timestamp::from_millis;
        let mut quiet_until = |t| reach.quiet_until(&env, t, 0);
        // 0 – 12.8 s holds its appearance; 0 – 6.4 s does not.
        assert_eq!(quiet_until(at(300)), Some(at(6_400)));
        // 6.4 – 12.8 s holds it too; 6.4 – 9.6 s does not.
        assert_eq!(quiet_until(at(6_400)), Some(at(9_600)));
        // So do 12.4 – 12.8 s and every longer window around 12.5 s.
        assert_eq!(quiet_until(at(12_500)), None);
        // Levels 5 and 4 at 0.3 s, 4 and 3 at 6.4 s, 3 down to 0 at 12.5 s.
        assert_eq!(work_of(&reach).get("reach_windows"), 2 + 2 + 4);
    }

    #[test]
    fn a_target_of_no_ordinary_reach_lists_every_cell_and_every_position() {
        let (mut env, mut reach, nodes) = crossing(1.0);
        env.add_target(Target::new(
            TargetId(1),
            Trajectory::stationary(Point::ORIGIN),
            vec![Emission {
                channel: Channel::Light,
                strength: 1.0,
                falloff: Falloff::InverseSquare { floor: f64::NAN },
            }],
        ));
        sample_all(&env, &mut reach, &nodes, Timestamp::ZERO);
        let work = work_of(&reach);
        assert_eq!(work.get("samples_walked"), 1_600, "{work:?}");
        assert_eq!(work.get("reach_listed"), reach.boxes.len() as u64);
    }
}
