//! The mote CPU model.
//!
//! The paper's stress test (§6.2, Fig. 5) found that at very small heartbeat
//! periods the maximum trackable speed *declines*, and cross-traffic
//! experiments showed the bottleneck is **CPU processing**, not bandwidth.
//! To reproduce that shape, every protocol action on a node (handling a
//! received frame, running a timer handler, executing object code) must pass
//! through [`MoteCpu::admit`], which serialises work on the node's single
//! 4 MHz-class processor:
//!
//! * work is executed in admission order, each unit taking its stated cost;
//! * the *backlog* (time until the CPU would drain) is bounded, modelling
//!   TinyOS's bounded task queue — when the backlog would exceed the bound,
//!   admission fails and the task is dropped (counted).
//!
//! An admitted task's handler should be scheduled at the returned
//! [`Admission::ready_at`] instant, which is when the CPU *finishes* it.
//!
//! ```
//! use envirotrack_node::cpu::{costs, MoteCpu};
//! use envirotrack_sim::time::{SimDuration, Timestamp};
//!
//! let mut cpu = MoteCpu::new(costs::MAX_BACKLOG);
//! let a = cpu.admit(Timestamp::ZERO, SimDuration::from_millis(5)).unwrap();
//! let b = cpu.admit(Timestamp::ZERO, SimDuration::from_millis(5)).unwrap();
//! assert_eq!(a.ready_at, Timestamp::from_millis(5));
//! assert_eq!(b.ready_at, Timestamp::from_millis(10)); // serialised behind a
//! ```

use envirotrack_sim::time::{SimDuration, Timestamp};

/// Standard task costs for a MICA-class (4 MHz AVR) mote.
///
/// On the MICA, the CPU services the radio byte-by-byte over SPI, so
/// *receiving or sending a frame costs CPU time comparable to its airtime*
/// (~9 ms at 50 kb/s for a protocol frame) on top of decode and protocol
/// logic. This is what makes CPU processing — not bandwidth — the paper's
/// Fig.-5 bottleneck: a node surrounded by sub-100 ms heartbeat traffic
/// saturates its processor before the channel itself is full.
pub mod costs {
    use envirotrack_sim::time::SimDuration;

    /// Handling one received frame (byte-level radio service + decode +
    /// protocol logic).
    pub const RX_HANDLE: SimDuration = SimDuration::from_micros(20_000);
    /// Preparing and servicing one transmission.
    pub const TX_PREPARE: SimDuration = SimDuration::from_micros(10_000);
    /// A protocol timer handler (heartbeat generation, timeout logic).
    pub const TIMER_HANDLE: SimDuration = SimDuration::from_micros(30_000);
    /// One outer-loop iteration: ADC reads of the local sensors plus the
    /// scan over the context table (the paper's generic timer handler).
    pub const SENSE: SimDuration = SimDuration::from_micros(15_000);
    /// Maximum backlog of queued work before tasks are dropped: with
    /// per-task costs around a few milliseconds, a TinyOS-style task queue
    /// of a dozen entries.
    pub const MAX_BACKLOG: SimDuration = SimDuration::from_millis(60);
}

/// A successful admission: when the CPU will have finished the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Completion instant — schedule the task's effect here.
    pub ready_at: Timestamp,
}

/// Error returned when the CPU backlog bound would be exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuOverloadError {
    /// The backlog that admission would have created.
    pub backlog: SimDuration,
}

impl std::fmt::Display for CpuOverloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mote CPU overloaded (backlog would reach {})",
            self.backlog
        )
    }
}

impl std::error::Error for CpuOverloadError {}

/// Cumulative CPU statistics for one node.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    /// Tasks admitted.
    pub admitted: u64,
    /// Tasks dropped because the backlog bound was exceeded.
    pub dropped: u64,
    /// Total busy time accumulated.
    pub busy: SimDuration,
}

/// One mote's serial processor. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct MoteCpu {
    max_backlog: SimDuration,
    busy_until: Timestamp,
    stats: CpuStats,
}

impl MoteCpu {
    /// Creates an idle CPU that drops a task once the queued work would
    /// exceed `max_backlog` ([`costs::MAX_BACKLOG`] on every simulated mote).
    #[must_use]
    pub fn new(max_backlog: SimDuration) -> Self {
        MoteCpu {
            max_backlog,
            busy_until: Timestamp::ZERO,
            stats: CpuStats::default(),
        }
    }

    /// Offers a task costing `cost` at the current instant `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuOverloadError`] (and counts a drop) when accepting the
    /// task would push the backlog past the bound.
    pub fn admit(
        &mut self,
        now: Timestamp,
        cost: SimDuration,
    ) -> Result<Admission, CpuOverloadError> {
        let start = self.busy_until.max(now);
        let finish = start + cost;
        let backlog = finish.saturating_since(now);
        if backlog > self.max_backlog {
            self.stats.dropped += 1;
            return Err(CpuOverloadError { backlog });
        }
        self.busy_until = finish;
        self.stats.admitted += 1;
        self.stats.busy += cost;
        Ok(Admission { ready_at: finish })
    }

    /// The instant the CPU drains its current backlog.
    #[must_use]
    pub fn busy_until(&self) -> Timestamp {
        self.busy_until
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_runs_immediately() {
        let mut cpu = MoteCpu::new(costs::MAX_BACKLOG);
        let a = cpu
            .admit(Timestamp::from_secs(1), SimDuration::from_millis(3))
            .unwrap();
        assert_eq!(
            a.ready_at,
            Timestamp::from_secs(1) + SimDuration::from_millis(3)
        );
    }

    #[test]
    fn tasks_serialise_in_admission_order() {
        let mut cpu = MoteCpu::new(costs::MAX_BACKLOG);
        let t0 = Timestamp::ZERO;
        let a = cpu.admit(t0, SimDuration::from_millis(10)).unwrap();
        let b = cpu.admit(t0, SimDuration::from_millis(10)).unwrap();
        assert_eq!(
            b.ready_at.saturating_since(a.ready_at),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut cpu = MoteCpu::new(costs::MAX_BACKLOG);
        cpu.admit(Timestamp::ZERO, SimDuration::from_millis(10))
            .unwrap();
        let backlog = |now| cpu.busy_until().saturating_since(now);
        assert_eq!(
            backlog(Timestamp::from_millis(4)),
            SimDuration::from_millis(6)
        );
        assert_eq!(backlog(Timestamp::from_millis(20)), SimDuration::ZERO);
        // After draining, a new task starts fresh.
        let c = cpu
            .admit(Timestamp::from_millis(20), SimDuration::from_millis(5))
            .unwrap();
        assert_eq!(c.ready_at, Timestamp::from_millis(25));
    }

    #[test]
    fn overload_drops_and_counts() {
        let mut cpu = MoteCpu::new(SimDuration::from_millis(10));
        cpu.admit(Timestamp::ZERO, SimDuration::from_millis(8))
            .unwrap();
        let err = cpu
            .admit(Timestamp::ZERO, SimDuration::from_millis(8))
            .unwrap_err();
        assert_eq!(err.backlog, SimDuration::from_millis(16));
        assert_eq!(cpu.stats().dropped, 1);
        assert_eq!(cpu.stats().admitted, 1);
        // The dropped task must not have consumed CPU time.
        assert_eq!(cpu.busy_until(), Timestamp::from_millis(8));
    }
}
