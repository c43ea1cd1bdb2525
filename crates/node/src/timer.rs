//! Cancellable, re-armable protocol timers.
//!
//! The EnviroTrack group-management protocol leans on timers that are reset
//! far more often than they fire: the *receive timer* is re-armed on every
//! leader heartbeat, and the *wait timer* on every overheard one. In a
//! closure-based event engine, scheduled events cannot be unscheduled — so
//! each logical timer is a [`TimerSlot`] carrying a generation counter.
//! Arming returns a [`TimerToken`]; when the engine event fires it asks the
//! slot whether its token is still current, and stale firings fall through
//! harmlessly.
//!
//! ```
//! use envirotrack_node::timer::TimerSlot;
//! use envirotrack_sim::time::Timestamp;
//!
//! let mut receive_timer = TimerSlot::new();
//! let first = receive_timer.arm(Timestamp::from_secs(1));
//! // A heartbeat arrives; push the deadline out.
//! let second = receive_timer.arm(Timestamp::from_secs(2));
//! assert!(!receive_timer.fires(first));   // superseded
//! assert!(receive_timer.fires(second));   // current
//! ```

use envirotrack_sim::time::Timestamp;

/// A token identifying one arming of a [`TimerSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerToken(u64);

impl TimerToken {
    /// The token as one word, for a host that carries it through an event
    /// with no room for types. [`TimerToken::from_raw`] gives it back.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The token [`TimerToken::raw`] came from. A word that never was a
    /// token is harmless: it matches no arming, so it fires nothing.
    #[must_use]
    pub fn from_raw(word: u64) -> Self {
        TimerToken(word)
    }
}

/// One logical, re-armable timer. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    generation: u64,
    deadline: Option<Timestamp>,
}

impl TimerSlot {
    /// Creates a disarmed timer.
    #[must_use]
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arms (or re-arms) the timer for `deadline`, superseding any earlier
    /// arming. The caller schedules an engine event at `deadline` and checks
    /// the returned token with [`TimerSlot::fires`] when it runs.
    pub fn arm(&mut self, deadline: Timestamp) -> TimerToken {
        self.generation += 1;
        self.deadline = Some(deadline);
        TimerToken(self.generation)
    }

    /// Disarms the timer; any outstanding token becomes stale.
    pub fn cancel(&mut self) {
        self.generation += 1;
        self.deadline = None;
    }

    /// Whether an event carrying `token` corresponds to the *current*
    /// arming and should execute. Consumes the arming: the slot disarms, so
    /// a fired one-shot doesn't look pending afterwards.
    pub fn fires(&mut self, token: TimerToken) -> bool {
        if self.deadline.is_some() && token.0 == self.generation {
            self.deadline = None;
            true
        } else {
            false
        }
    }

    /// The pending deadline, if armed.
    #[must_use]
    pub fn deadline(&self) -> Option<Timestamp> {
        self.deadline
    }

    /// Whether the timer is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_token_fires_once() {
        let mut t = TimerSlot::new();
        let tok = t.arm(Timestamp::from_secs(1));
        assert!(t.is_armed());
        assert!(t.fires(tok));
        assert!(!t.is_armed());
        assert!(!t.fires(tok), "a one-shot must not fire twice");
    }

    #[test]
    fn rearming_invalidates_previous_tokens() {
        let mut t = TimerSlot::new();
        let a = t.arm(Timestamp::from_secs(1));
        let b = t.arm(Timestamp::from_secs(2));
        assert_eq!(t.deadline(), Some(Timestamp::from_secs(2)));
        assert!(!t.fires(a));
        assert!(t.fires(b));
    }

    #[test]
    fn cancel_invalidates_everything() {
        let mut t = TimerSlot::new();
        let a = t.arm(Timestamp::from_secs(1));
        t.cancel();
        assert!(!t.is_armed());
        assert!(!t.fires(a));
        // But a fresh arming works.
        let b = t.arm(Timestamp::from_secs(3));
        assert!(t.fires(b));
    }

    #[test]
    fn stale_fire_does_not_consume_a_new_arming() {
        let mut t = TimerSlot::new();
        let old = t.arm(Timestamp::from_secs(1));
        let new = t.arm(Timestamp::from_secs(2));
        assert!(!t.fires(old), "stale token");
        assert!(t.is_armed(), "stale firing must not disarm the new arming");
        assert!(t.fires(new));
    }
}
