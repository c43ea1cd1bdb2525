//! Middleware tuning knobs.
//!
//! The defaults follow the paper's best settings (§6.2): receive timer at
//! 2.1× and wait timer at 4.2× the heartbeat period, heartbeats flooded one
//! hop past the group perimeter, and the leadership-relinquish optimisation
//! enabled. The Fig. 4/5/6 experiments sweep exactly these fields.

use envirotrack_sim::time::SimDuration;

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
    /// Estimated worst-case in-group message delay `d`; member report
    /// periods are `Le − d` (paper §3.2.3).
    pub delay_estimate: SimDuration,
    /// Whether a leader that stops sensing explicitly relinquishes to a
    /// member (the paper's relinquish optimisation) instead of dying out.
    pub relinquish_enabled: bool,
    /// Maximum random delay a member adds before a timeout-driven takeover
    /// (desynchronises competing takeovers).
    pub takeover_jitter_max: SimDuration,
    /// Whether labels register with the directory service.
    pub directory_enabled: bool,
    /// Period between directory location refreshes from a leader.
    pub directory_update_period: SimDuration,
    /// Directory entries not refreshed within this window expire.
    pub directory_entry_ttl: SimDuration,
    /// Capacity of the transport last-known-leader LRU table.
    pub mtp_table_capacity: usize,
    /// Lifetime of forwarding pointers left by past leaders.
    pub mtp_forward_ttl: SimDuration,
    /// Maximum forwarding-chain hops before an MTP segment is dropped.
    pub mtp_max_chain_hops: u8,
    /// How long a send may wait on directory resolution before expiring.
    pub mtp_pending_ttl: SimDuration,
    /// Whether MTP segments are acknowledged end to end and retransmitted.
    pub mtp_retx_enabled: bool,
    /// Base end-to-end ack timeout; doubles per retransmission attempt.
    pub mtp_retx_timeout: SimDuration,
    /// Total MTP transmission attempts (first send included).
    pub mtp_retx_max_attempts: u32,
    /// Upper bound on the uniform jitter added to each retransmission
    /// backoff (desynchronises retransmitters after a shared outage).
    pub mtp_retx_jitter_max: SimDuration,
    /// Hard ceiling on the exponential retransmission backoff: the
    /// per-attempt doubling clamps here instead of growing unboundedly.
    pub mtp_retx_max_backoff: SimDuration,
    /// Directory registrations fan out to this many nodes nearest the hash
    /// point (1 = the classic single home node).
    pub directory_replicas: usize,
    /// How long a directory query may stay unanswered before failing over
    /// to the next replica.
    pub directory_query_timeout: SimDuration,
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
            delay_estimate: SimDuration::from_millis(100),
            relinquish_enabled: true,
            takeover_jitter_max: SimDuration::from_millis(50),
            directory_enabled: false,
            directory_update_period: SimDuration::from_secs(10),
            directory_entry_ttl: SimDuration::from_secs(30),
            mtp_table_capacity: 8,
            mtp_forward_ttl: SimDuration::from_secs(20),
            mtp_max_chain_hops: 8,
            mtp_pending_ttl: SimDuration::from_secs(5),
            mtp_retx_enabled: true,
            mtp_retx_timeout: SimDuration::from_millis(600),
            mtp_retx_max_attempts: 4,
            mtp_retx_jitter_max: SimDuration::from_millis(80),
            // 60 s is far above timeout * 2^(max_attempts - 1) at the
            // defaults, so the cap only bites deliberately aggressive
            // retry budgets.
            mtp_retx_max_backoff: SimDuration::from_secs(60),
            directory_replicas: 1,
            directory_query_timeout: SimDuration::from_millis(1500),
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
    pub fn receive_timer(&self) -> SimDuration {
        self.heartbeat_period.mul_f64(self.receive_timer_factor)
    }

    /// The wait timer duration (non-member new-label suppression window).
    #[must_use]
    pub fn wait_timer(&self) -> SimDuration {
        self.heartbeat_period.mul_f64(self.wait_timer_factor)
    }

    /// Member report period for an aggregate with freshness `le`:
    /// `max(Le − d, sense period)` — reports can't outpace sensing.
    #[must_use]
    pub fn report_period(&self, le: SimDuration) -> SimDuration {
        le.saturating_sub(self.delay_estimate)
            .max(self.sense_period)
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
    pub fn validate(&self) -> Result<(), String> {
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
        if self.mtp_retx_enabled {
            if self.mtp_retx_max_attempts == 0 {
                return Err("MTP retransmission needs at least one attempt".into());
            }
            if self.mtp_retx_timeout.is_zero() {
                return Err("MTP retransmission timeout must be positive".into());
            }
            if self.mtp_retx_max_backoff < self.mtp_retx_timeout {
                return Err(
                    "MTP retransmission backoff ceiling must be at least the base timeout".into(),
                );
            }
        }
        if self.directory_replicas == 0 {
            return Err("at least one directory replica is required".into());
        }
        if self.directory_enabled && self.directory_query_timeout.is_zero() {
            return Err("directory query timeout must be positive".into());
        }
        // A leader re-arms its directory refresh one period ahead: a zero
        // period re-arms at `now` forever and virtual time stops advancing.
        if self.directory_enabled && self.directory_update_period.is_zero() {
            return Err("directory_update_period must be positive".into());
        }
        if self.mtp_table_capacity == 0 {
            return Err("mtp_table_capacity must be at least 1".into());
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
    fn validation_names_the_zero_period_and_the_empty_table() {
        let mut c = MiddlewareConfig::default().with_directory(true);
        c.directory_update_period = SimDuration::ZERO;
        assert!(c.validate().unwrap_err().contains("directory_update_period"));
        // Without the directory no leader ever arms that timer.
        c.directory_enabled = false;
        assert!(c.validate().is_ok());
        c.mtp_table_capacity = 0;
        assert!(c.validate().unwrap_err().contains("mtp_table_capacity"));
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
