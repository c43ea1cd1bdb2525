//! Middleware settings: what an experiment, tool, example or test sets.
//!
//! The defaults follow the paper's best settings (§6.2): receive timer at
//! 2.1× and wait timer at 4.2× the heartbeat period, heartbeats flooded one
//! hop past the group perimeter, and the leadership-relinquish optimisation
//! enabled. Every field here is written at a second value somewhere in the
//! workspace (`scripts/knobs.sh` lists any that stops being). A value
//! nothing ever varied is a `const` beside the code that reads it:
//! the MTP table, pointer, pending and retransmission bounds in
//! [`crate::transport`], directory entry lifetime and query timeout in
//! [`crate::directory`], the takeover jitter in `group/member.rs`, the
//! link-ack schedule in `network/link.rs`, and `DELAY_ESTIMATE` below.

use envirotrack_sim::time::SimDuration;

/// Estimated worst-case in-group message delay `d`; member report periods
/// are `Le − d` (paper §3.2.3).
pub(crate) const DELAY_ESTIMATE: SimDuration = SimDuration::from_millis(100);

/// Group-management, data-collection, directory, and transport parameters.
#[derive(Debug, Clone)]
pub struct MiddlewareConfig {
    /// Leader heartbeat period.
    pub heartbeat_period: SimDuration,
    /// Receive timer as a multiple of the heartbeat period (paper: 2.1 —
    /// slightly more than two missed heartbeats trigger a takeover).
    pub receive_timer_factor: f64,
    /// Wait timer as a multiple of the heartbeat period (paper: 4.2 — a
    /// non-member waits this long after a heard heartbeat before daring to
    /// mint a new label).
    pub wait_timer_factor: f64,
    /// How many hops past the hearing node heartbeats are re-flooded
    /// (paper's `h`; 0 = leader broadcast only, Fig. 4's first setting).
    pub heartbeat_ttl: u8,
    /// How often every node samples its local sensors and re-evaluates
    /// activation conditions.
    pub sense_period: SimDuration,
    /// Whether a leader that stops sensing explicitly relinquishes to a
    /// member (the paper's relinquish optimisation) instead of dying out.
    pub relinquish_enabled: bool,
    /// Whether labels register with the directory service.
    pub directory_enabled: bool,
    /// Period between directory location refreshes from a leader.
    pub directory_update_period: SimDuration,
    /// Whether MTP segments are acknowledged end to end and retransmitted.
    pub mtp_retx_enabled: bool,
    /// Directory registrations fan out to this many nodes nearest the hash
    /// point (1 = the classic single home node).
    pub directory_replicas: usize,
    /// Whether directory replicas run anti-entropy gossip: each replica
    /// periodically pushes its entry digest to a peer replica, which merges
    /// missing/fresher entries and pushes back what the sender lacks. Only
    /// meaningful when `directory_replicas > 1` — with a single home node
    /// there is no peer to repair from.
    pub directory_gossip_enabled: bool,
    /// Period between a replica's anti-entropy rounds.
    pub directory_gossip_period: SimDuration,
    /// Whether persistent object state is carried on heartbeats (the
    /// paper's `setState` mechanism).
    pub state_replication_enabled: bool,
    /// How close (in grid units) another leader must be for cross-label
    /// interactions — joining a heavier label, suppressing one's own, or
    /// remembering a heartbeat in the wait memory. Two same-type leaders
    /// further apart than this are assumed to track *different* physical
    /// entities (the paper's wait timer maintains "memory of **nearby**
    /// events"; without a proximity bound, physically separate entities
    /// within radio range would merge into one label).
    pub proximity_radius: f64,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            heartbeat_period: SimDuration::from_millis(500),
            receive_timer_factor: 2.1,
            wait_timer_factor: 4.2,
            heartbeat_ttl: 1,
            sense_period: SimDuration::from_millis(200),
            relinquish_enabled: true,
            directory_enabled: false,
            directory_update_period: SimDuration::from_secs(10),
            mtp_retx_enabled: true,
            directory_replicas: 1,
            directory_gossip_enabled: false,
            directory_gossip_period: SimDuration::from_secs(5),
            state_replication_enabled: false,
            proximity_radius: 3.0,
        }
    }
}

impl MiddlewareConfig {
    /// The receive timer duration (member-side leader-failure timeout).
    #[must_use]
    pub(crate) fn receive_timer(&self) -> SimDuration {
        self.heartbeat_period.mul_f64(self.receive_timer_factor)
    }

    /// The wait timer duration (non-member new-label suppression window).
    #[must_use]
    pub(crate) fn wait_timer(&self) -> SimDuration {
        self.heartbeat_period.mul_f64(self.wait_timer_factor)
    }

    /// Member report period for an aggregate with freshness `le`:
    /// `max(Le − d, sense period)` — reports can't outpace sensing.
    #[must_use]
    pub(crate) fn report_period(&self, le: SimDuration) -> SimDuration {
        le.saturating_sub(DELAY_ESTIMATE).max(self.sense_period)
    }

    /// Sets the heartbeat period; chainable.
    #[must_use]
    pub fn with_heartbeat_period(mut self, p: SimDuration) -> Self {
        assert!(!p.is_zero(), "heartbeat period must be positive");
        self.heartbeat_period = p;
        self
    }

    /// Sets the heartbeat flood TTL `h`; chainable.
    #[must_use]
    pub fn with_heartbeat_ttl(mut self, h: u8) -> Self {
        self.heartbeat_ttl = h;
        self
    }

    /// Enables or disables the relinquish optimisation; chainable.
    #[must_use]
    pub fn with_relinquish(mut self, enabled: bool) -> Self {
        self.relinquish_enabled = enabled;
        self
    }

    /// Enables the directory service; chainable.
    #[must_use]
    pub fn with_directory(mut self, enabled: bool) -> Self {
        self.directory_enabled = enabled;
        self
    }

    /// Enables or disables end-to-end MTP retransmission; chainable.
    #[must_use]
    pub fn with_mtp_retx(mut self, enabled: bool) -> Self {
        self.mtp_retx_enabled = enabled;
        self
    }

    /// Sets the directory replication factor; chainable.
    #[must_use]
    pub fn with_directory_replicas(mut self, k: usize) -> Self {
        assert!(k >= 1, "at least one directory replica is required");
        self.directory_replicas = k;
        self
    }

    /// Enables or disables replica anti-entropy gossip; chainable.
    #[must_use]
    pub fn with_directory_gossip(mut self, enabled: bool) -> Self {
        self.directory_gossip_enabled = enabled;
        self
    }

    /// Sets the anti-entropy gossip period; chainable.
    #[must_use]
    pub fn with_directory_gossip_period(mut self, p: SimDuration) -> Self {
        assert!(!p.is_zero(), "gossip period must be positive");
        self.directory_gossip_period = p;
        self
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.heartbeat_period.is_zero() {
            return Err("heartbeat period must be positive".into());
        }
        if self.receive_timer_factor <= 1.0 {
            return Err("receive timer factor must exceed 1 heartbeat period".into());
        }
        if self.wait_timer_factor <= self.receive_timer_factor {
            return Err(
                "wait timer must exceed the receive timer or takeovers spawn spurious labels"
                    .into(),
            );
        }
        if self.sense_period.is_zero() {
            return Err("sense period must be positive".into());
        }
        if self.directory_replicas == 0 {
            return Err("at least one directory replica is required".into());
        }
        // A leader re-arms its directory refresh one period ahead: a zero
        // period re-arms at `now` forever and virtual time stops advancing.
        if self.directory_enabled && self.directory_update_period.is_zero() {
            return Err("directory_update_period must be positive".into());
        }
        if self.directory_gossip_enabled {
            if self.directory_gossip_period.is_zero() {
                return Err("directory gossip period must be positive".into());
            }
            if self.directory_replicas <= 1 {
                return Err(
                    "directory gossip needs at least two replicas to exchange with".into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timers_match_the_paper() {
        let c = MiddlewareConfig::default();
        assert_eq!(c.receive_timer(), SimDuration::from_millis(1050)); // 2.1 × 500ms
        assert_eq!(c.wait_timer(), SimDuration::from_millis(2100)); // 4.2 × 500ms
        assert!(c.validate().is_ok());
    }

    #[test]
    fn report_period_is_le_minus_d_with_a_floor() {
        let c = MiddlewareConfig::default();
        assert_eq!(
            c.report_period(SimDuration::from_secs(1)),
            SimDuration::from_millis(900)
        );
        // Tight freshness clamps to the sensing period.
        assert_eq!(
            c.report_period(SimDuration::from_millis(150)),
            c.sense_period
        );
    }

    #[test]
    fn validation_catches_inverted_timers() {
        let mut c = MiddlewareConfig {
            wait_timer_factor: 2.0,
            ..MiddlewareConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wait timer"));
        c.wait_timer_factor = 4.2;
        c.receive_timer_factor = 0.9;
        assert!(c.validate().unwrap_err().contains("receive timer"));
    }

    #[test]
    fn validation_names_the_zero_period() {
        let mut c = MiddlewareConfig::default().with_directory(true);
        c.directory_update_period = SimDuration::ZERO;
        assert!(c.validate().unwrap_err().contains("directory_update_period"));
        // Without the directory no leader ever arms that timer.
        c.directory_enabled = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_style_setters_chain() {
        let c = MiddlewareConfig::default()
            .with_heartbeat_period(SimDuration::from_millis(250))
            .with_heartbeat_ttl(0)
            .with_relinquish(false)
            .with_directory(true);
        assert_eq!(c.heartbeat_period, SimDuration::from_millis(250));
        assert_eq!(c.heartbeat_ttl, 0);
        assert!(!c.relinquish_enabled);
        assert!(c.directory_enabled);
        assert_eq!(c.receive_timer(), SimDuration::from_micros(525_000));
    }
}
