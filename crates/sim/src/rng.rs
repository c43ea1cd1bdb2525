//! Seeded, forkable randomness for reproducible simulations.
//!
//! Every stochastic decision in the simulator (message loss, deployment
//! jitter, backoff) draws from a [`SimRng`]. A run is therefore a pure
//! function of its configuration plus one `u64` seed.
//!
//! [`SimRng::fork`] derives an independent child stream from a label, so
//! subsystems can be given their own streams without consuming numbers from
//! each other — adding a draw in one module does not perturb another.
//!
//! ## Algorithm and stream stability
//!
//! The generator is an in-tree **xoshiro256++** (Blackman & Vigna) whose
//! 256-bit state is expanded from the `u64` seed by **splitmix64** — the
//! reference seeding procedure. Both algorithms are pure integer arithmetic
//! with no platform- or version-dependent behaviour, so identical seeds
//! produce identical streams on every build of this repository.
//!
//! That guarantee is load-bearing: every experiment in EXPERIMENTS.md is
//! reported against a seed. The stream is therefore *pinned* by a
//! regression test (`tests::seed_42_stream_is_pinned`) holding the first
//! eight outputs of seed 42 — any future change to the algorithm (or an
//! accidental reordering of draws) fails loudly instead of silently
//! shifting every experiment.
//!
//! ```
//! use envirotrack_sim::rng::SimRng;
//!
//! let mut a = SimRng::seed_from(42);
//! let mut b = SimRng::seed_from(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//!
//! let mut radio = a.fork("radio");
//! let mut world = a.fork("world");
//! assert_ne!(radio.next_u64(), world.next_u64()); // independent streams
//! ```

/// The splitmix64 step: advances `state` and returns the next output.
///
/// Used to expand a 64-bit seed into xoshiro's 256-bit state, and useful on
/// its own wherever a cheap stateless mix of a `u64` is needed.
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random number generator for simulation use.
///
/// Wraps a fixed algorithm (xoshiro256++ seeded via splitmix64) so that
/// every build of this repository produces identical streams for identical
/// seeds. See the module docs for the stream-stability guarantee.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// Derives an independent child generator from a string label.
    ///
    /// The child's stream depends on this generator's *seed* and the label
    /// only — not on how many numbers have been drawn — so forking is
    /// insensitive to call ordering.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed. Stable across
        // platforms and Rust versions (unlike DefaultHasher).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::seed_from(h)
    }

    /// Derives an independent child generator from an integer index, e.g. a
    /// node id or a run number in a multi-run experiment.
    #[must_use]
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        self.fork(label).indexed(index)
    }

    /// The `index`-th child of this generator: what
    /// [`fork_indexed`](Self::fork_indexed) derives once the label is
    /// applied. A hot loop forks the label once and calls this per index.
    #[must_use]
    pub fn indexed(&self, index: u64) -> SimRng {
        SimRng::seed_from(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value (the xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, 1)`, using the top 53 bits of a draw.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        if lo == hi {
            return lo;
        }
        let x = lo + self.uniform() * (hi - lo);
        // Floating-point rounding can push x onto hi when hi - lo is tiny
        // relative to the magnitudes involved; keep the interval half-open.
        if x >= hi {
            lo
        } else {
            x
        }
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// Uses a plain modulo reduction: the bias is at most `n / 2^64`, far
    /// below anything a simulation or test could resolve, and keeping the
    /// draw count fixed at one per call keeps streams easy to reason about.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// A standard-normal sample, for sensor noise models.
    pub fn gaussian(&mut self) -> f64 {
        // Marsaglia polar method avoids trig and is numerically tame.
        loop {
            let u = self.uniform_range(-1.0, 1.0);
            let v = self.uniform_range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Picks a uniformly random element of a slice, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.below(items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first eight outputs of seed 42 are pinned. A future swap of the
    /// RNG algorithm (or an accidental change to seeding or draw order)
    /// must update this vector *deliberately* — and with it, re-baseline
    /// every seed-reported experiment in EXPERIMENTS.md — rather than
    /// silently changing every experiment's stream.
    #[test]
    fn seed_42_stream_is_pinned() {
        let mut rng = SimRng::seed_from(42);
        let observed: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let pinned: [u64; 8] = [
            0xd076_4d4f_4476_689f,
            0x519e_4174_576f_3791,
            0xfbe0_7cfb_0c24_ed8c,
            0xb37d_9f60_0cd8_35b8,
            0xcb23_1c38_7484_6a73,
            0x968d_9f00_4e50_de7d,
            0x2017_18ff_221a_3556,
            0x9ae9_4e07_0ed8_cb46,
        ];
        assert_eq!(
            observed, pinned,
            "the seed-42 stream drifted — see module docs"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_dependent_and_draw_independent() {
        let parent = SimRng::seed_from(7);
        let mut f1 = parent.fork("net");
        let mut f2 = parent.fork("world");
        assert_ne!(f1.next_u64(), f2.next_u64());

        // Forking does not depend on parent draw position.
        let mut consumed = SimRng::seed_from(7);
        let _ = consumed.next_u64();
        let mut f1_again = consumed.fork("net");
        let mut f1_fresh = SimRng::seed_from(7).fork("net");
        assert_eq!(f1_again.next_u64(), f1_fresh.next_u64());
    }

    #[test]
    fn fork_indexed_varies_by_index() {
        let parent = SimRng::seed_from(7);
        let mut a = parent.fork_indexed("run", 0);
        let mut b = parent.fork_indexed("run", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_edges_are_exact() {
        let mut rng = SimRng::seed_from(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform_range(4.0, 4.0), 4.0);
    }

    #[test]
    fn uniform_is_half_open_and_well_spread() {
        let mut rng = SimRng::seed_from(17);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments_look_normal() {
        let mut rng = SimRng::seed_from(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(23);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((4_500..=5_500).contains(&c), "bucket {i} got {c}");
        }
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = SimRng::seed_from(2);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
