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
use envirotrack_sim::time::Timestamp;

use crate::geometry::Point;
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

    /// Iterates `(channel, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Channel, f64)> + '_ {
        Channel::ALL
            .iter()
            .map(move |&c| (c, self.values[c.index()]))
    }
}

/// Additive Gaussian noise applied per channel when sampling through a
/// [`NoiseModel`]-carrying environment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseModel {
    stddev: [f64; 5],
}

impl NoiseModel {
    /// No noise on any channel.
    #[must_use]
    pub const fn none() -> Self {
        NoiseModel { stddev: [0.0; 5] }
    }

    /// Sets the standard deviation on one channel; chainable.
    #[must_use]
    pub fn with_channel(mut self, channel: Channel, stddev: f64) -> Self {
        assert!(stddev >= 0.0, "noise stddev must be non-negative");
        self.stddev[channel.index()] = stddev;
        self
    }

    /// Applies noise to a clean sample using the supplied RNG.
    #[must_use]
    pub fn perturb(&self, clean: SensorSample, rng: &mut SimRng) -> SensorSample {
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

    /// Ground truth `Se(t)`: the positions among `candidates` at which a
    /// specific target's signal on `channel` meets `threshold` at time `t`.
    /// Returns indices into `candidates`. Used by the experiment auditors.
    #[must_use]
    pub fn sensing_set(
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

    #[test]
    fn sample_channels_iterate_in_declaration_order() {
        let mut s = SensorSample::zero();
        s.set(Channel::Light, 3.0);
        let collected: Vec<(Channel, f64)> = s.iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[Channel::Light.index()], (Channel::Light, 3.0));
    }
}
