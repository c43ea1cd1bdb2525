//! The choice tape: the substrate that makes every generated value a pure
//! function of a sequence of `u64` draws.
//!
//! A [`Gen`] hands strategies their randomness one `u64` at a time and
//! records every draw. Replaying a recorded tape (possibly mutated by the
//! shrinker) regenerates a value without any strategy-specific shrink
//! logic: deleting, zeroing, or lowering tape entries systematically
//! yields "smaller" values because every strategy maps the draw `0` to its
//! minimal output. Draws past the end of a replayed tape read as `0`,
//! which pads truncated tapes with minimal choices.

use envirotrack_sim::rng::SimRng;

/// Hard cap on draws per generated case: a runaway recursive strategy hits
/// this and the case is rejected rather than looping forever.
const MAX_DRAWS: usize = 100_000;

/// The draw source for one generated case.
pub struct Gen {
    rng: Option<SimRng>,
    tape: Vec<u64>,
    pos: usize,
    recorded: Vec<u64>,
}

impl Gen {
    /// A generator drawing fresh randomness from the deterministic
    /// simulation RNG seeded with `case_seed`.
    #[must_use]
    pub(crate) fn random(case_seed: u64) -> Self {
        Gen {
            rng: Some(SimRng::seed_from(case_seed).fork("testkit-case")),
            tape: Vec::new(),
            pos: 0,
            recorded: Vec::new(),
        }
    }

    /// A generator replaying a recorded (possibly shrunk) tape. Draws past
    /// the end of the tape read as `0`.
    #[must_use]
    pub(crate) fn replay(tape: Vec<u64>) -> Self {
        Gen {
            rng: None,
            tape,
            pos: 0,
            recorded: Vec::new(),
        }
    }

    /// Draws the next raw `u64` choice.
    pub(crate) fn draw(&mut self) -> u64 {
        if self.recorded.len() >= MAX_DRAWS {
            crate::reject();
        }
        let v = if self.pos < self.tape.len() {
            self.tape[self.pos]
        } else if let Some(rng) = &mut self.rng {
            rng.next_u64()
        } else {
            0
        };
        self.pos += 1;
        self.recorded.push(v);
        v
    }

    /// Draws a value in `0..n` (`n` must be nonzero). A draw of `0` maps
    /// to `0`, keeping the minimal tape the minimal value.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "Gen::below(0)");
        self.draw() % n
    }

    /// Draws a fraction in `[0, 1)` with 53 bits of precision; the draw
    /// `0` maps to `0.0`.
    pub(crate) fn fraction(&mut self) -> f64 {
        (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a boolean that is `false` on the minimal draw.
    pub(crate) fn bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// Consumes the generator, returning the recorded tape.
    #[must_use]
    pub(crate) fn into_recorded(self) -> Vec<u64> {
        self.recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaying_a_recording_reproduces_the_draws() {
        let mut a = Gen::random(7);
        let draws: Vec<u64> = (0..10).map(|_| a.draw()).collect();
        let mut b = Gen::replay(a.into_recorded());
        let replayed: Vec<u64> = (0..10).map(|_| b.draw()).collect();
        assert_eq!(draws, replayed);
    }

    #[test]
    fn exhausted_replay_pads_with_zero() {
        let mut g = Gen::replay(vec![41]);
        assert_eq!(g.draw(), 41);
        assert_eq!(g.draw(), 0);
        assert_eq!(g.draw(), 0);
        assert_eq!(g.into_recorded(), [41, 0, 0]);
    }

    #[test]
    fn helpers_map_zero_draw_to_minimal_values() {
        let mut g = Gen::replay(vec![]);
        assert_eq!(g.below(100), 0);
        assert_eq!(g.fraction(), 0.0);
        assert!(!g.bool());
    }
}
