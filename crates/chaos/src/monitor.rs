//! Invariant monitors: the safety claims a chaos run must not break.
//!
//! The monitor samples the world once per tick and checks five invariants:
//!
//! 1. **Leader uniqueness** — two same-type leaders within the proximity
//!    radius track the *same* physical entity, so one of them must yield;
//!    the condition may exist transiently during takeover, but must not
//!    persist past the settle window (the wait timer is the protocol's own
//!    bound on that race).
//! 2. **Aggregate quorum** — an aggregate reported `valid` must actually
//!    hold at least its critical mass of fresh readings.
//! 3. **Partition isolation** — no frame is delivered between nodes in
//!    different partition groups (checked against the medium's delivery
//!    audit log).
//! 4. **Clock monotonicity** — every node's local clock only moves
//!    forward, whatever skew the plan injects.
//! 5. **Corruption rejection** — no garbled frame is ever accepted by the
//!    receive path (checked against the shadow-hash audit counter the
//!    network keeps alongside its CRC verification).
//!
//! Violations carry the seed and the fault trace so far, so a red run
//! reproduces from the report alone.

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::network::SensorNetwork;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::NodeId;

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Two heavy leaders of one type stayed within the proximity radius
    /// past the settle window.
    DuplicateLeaders,
    /// An aggregate was `valid` with fewer than its critical mass of fresh
    /// readings.
    InvalidAggregate,
    /// A frame crossed an active partition.
    PartitionLeak,
    /// A node's local clock moved backwards.
    ClockRegression,
    /// A corrupted frame slipped past CRC verification and was accepted
    /// (detected by the shadow-hash audit).
    CorruptAccepted,
}

/// One observed invariant violation, with everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When the monitor observed it.
    pub at: Timestamp,
    /// The run's simulation seed.
    pub seed: u64,
    /// The broken invariant.
    pub kind: InvariantKind,
    /// What exactly was seen.
    pub detail: String,
    /// The fault events applied before the observation, in order.
    pub trace: Vec<String>,
    /// The tail of the telemetry trace at observation time: the last
    /// events for the violating label when one is implicated, otherwise
    /// the whole-run tail. Rendered, oldest first.
    pub label_trace: Vec<String>,
}

/// Sampling period of the invariant tick.
pub(crate) const TICK: SimDuration = SimDuration::from_millis(250);
/// How long a duplicate-leader condition may persist before it counts as a
/// violation: above the default wait timer (4.2 × 500 ms) plus takeover
/// jitter, with slack.
const SETTLE: SimDuration = SimDuration::from_secs(5);
const _: () = assert!(TICK.as_micros() < SETTLE.as_micros());
const _: () = assert!(SETTLE.as_micros() > 2_100_000);

/// The sampling monitor: [`crate::harness::install`] creates one, drives
/// it, and hands it back for the run's verdict.
#[derive(Debug)]
pub struct InvariantMonitor {
    seed: u64,
    /// Two same-type leaders closer than this are duplicates: the monitored
    /// world's own `proximity_radius`, read once at construction.
    dup_radius: f64,
    /// Last local-clock sample per node.
    last_clock: Vec<SimDuration>,
    /// When a duplicate-leader condition started, per context type.
    dup_since: Vec<Option<Timestamp>>,
    /// Shadow-hash audit counter value already reported, so each accepted
    /// corrupt frame yields exactly one violation.
    corrupt_accepted_seen: u64,
    trace: Vec<String>,
    violations: Vec<Violation>,
    /// The run's telemetry registry (shared with the world), read to
    /// attach protocol trace tails to violations.
    telemetry: Telemetry,
}

impl InvariantMonitor {
    /// Creates a monitor sized to `world`.
    #[must_use]
    pub(crate) fn new(seed: u64, world: &SensorNetwork) -> Self {
        InvariantMonitor {
            seed,
            dup_radius: world.config().middleware.proximity_radius,
            last_clock: vec![SimDuration::ZERO; world.deployment().len()],
            dup_since: vec![None; world.context_type_count()],
            corrupt_accepted_seen: 0,
            trace: Vec::new(),
            violations: Vec::new(),
            telemetry: world.telemetry().clone(),
        }
    }

    /// Records an applied fault event for violation traces.
    pub(crate) fn note_fault(&mut self, at: Timestamp, description: String) {
        self.trace.push(format!("{at}: {description}"));
    }

    /// All violations observed so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The fault events applied so far.
    #[must_use]
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// How many label-scoped trace events a violation carries.
    const LABEL_TRACE_EVENTS: usize = 32;
    /// How many whole-run trace events a label-free violation carries.
    const TAIL_TRACE_EVENTS: usize = 16;

    fn record(&mut self, at: Timestamp, kind: InvariantKind, detail: String, label: Option<&str>) {
        let label_trace = match label {
            Some(l) => self.telemetry.events_for_label(l, Self::LABEL_TRACE_EVENTS),
            None => self.telemetry.last_events(Self::TAIL_TRACE_EVENTS),
        };
        self.violations.push(Violation {
            at,
            seed: self.seed,
            kind,
            detail,
            trace: self.trace.clone(),
            label_trace,
        });
    }

    /// Runs every invariant check once. Called on each monitor tick.
    pub(crate) fn check(&mut self, world: &mut SensorNetwork, now: Timestamp) {
        self.check_clocks(world, now);
        self.check_leaders(world, now);
        self.check_aggregates(world, now);
        self.check_deliveries(world, now);
        self.check_corruption(now);
    }

    /// A frame garbled in flight must fail CRC verification and be
    /// dropped; the network's shadow-hash audit counts any that were
    /// accepted anyway. The counter staying at zero is the soak harness's
    /// core integrity claim.
    fn check_corruption(&mut self, now: Timestamp) {
        let accepted = self.telemetry.counter("net.corrupt_accepted");
        if accepted > self.corrupt_accepted_seen {
            self.record(
                now,
                InvariantKind::CorruptAccepted,
                format!(
                    "{} corrupted frame(s) accepted past CRC verification",
                    accepted - self.corrupt_accepted_seen
                ),
                None,
            );
            self.corrupt_accepted_seen = accepted;
        }
    }

    fn check_clocks(&mut self, world: &SensorNetwork, now: Timestamp) {
        for i in 0..self.last_clock.len() {
            let node = NodeId(u32::try_from(i).unwrap_or(u32::MAX));
            let c = world.local_clock(node, now);
            if c < self.last_clock[i] {
                self.record(
                    now,
                    InvariantKind::ClockRegression,
                    format!(
                        "node {i} local clock went {} -> {c}",
                        self.last_clock[i]
                    ),
                    None,
                );
            }
            self.last_clock[i] = c;
        }
    }

    fn check_leaders(&mut self, world: &SensorNetwork, now: Timestamp) {
        // Leader uniqueness is a claim about a *connected* network: while a
        // partition is active, both sides of a split group correctly elect
        // their own leader, so the check pauses and the settle clock
        // restarts after the heal.
        if world.partition().is_some() {
            for s in &mut self.dup_since {
                *s = None;
            }
            return;
        }
        for t in 0..self.dup_since.len() {
            let tid = ContextTypeId(u16::try_from(t).unwrap_or(u16::MAX));
            let leaders = world.leaders_of_type(tid);
            let at = |node| world.deployment().position(node);
            let mut close_pair = None;
            'outer: for (i, a) in leaders.iter().enumerate() {
                for b in leaders.iter().skip(i + 1) {
                    if at(a.0).distance_to(at(b.0)) <= self.dup_radius {
                        close_pair = Some((a.0, b.0, a.1));
                        break 'outer;
                    }
                }
            }
            match (close_pair, self.dup_since[t]) {
                (None, _) => self.dup_since[t] = None,
                (Some(_), None) => self.dup_since[t] = Some(now),
                (Some((a, b, label)), Some(since)) => {
                    if now.saturating_since(since) > SETTLE {
                        self.record(
                            now,
                            InvariantKind::DuplicateLeaders,
                            format!(
                                "type {t}: nodes {} and {} both lead within {} units since {since}",
                                a.0, b.0, self.dup_radius
                            ),
                            Some(&label.to_string()),
                        );
                        // Start a new episode so one long condition does
                        // not flood the report.
                        self.dup_since[t] = Some(now);
                    }
                }
            }
        }
    }

    fn check_aggregates(&mut self, world: &SensorNetwork, now: Timestamp) {
        for t in 0..self.dup_since.len() {
            let tid = ContextTypeId(u16::try_from(t).unwrap_or(u16::MAX));
            for (node, rows) in world.aggregate_health(tid, now) {
                for row in rows {
                    if row.valid && row.fresh < row.need {
                        self.record(
                            now,
                            InvariantKind::InvalidAggregate,
                            format!(
                                "node {} aggregate '{}' valid with {}/{} fresh readings",
                                node.0, row.variable, row.fresh, row.need
                            ),
                            None,
                        );
                    }
                }
            }
        }
    }

    /// Drains the medium's delivery log and checks each delivered pair
    /// against the *currently* active partition mask. The harness also
    /// calls this immediately before changing the mask, so entries are
    /// always judged by the mask in force when they were delivered.
    pub(crate) fn check_deliveries(&mut self, world: &mut SensorNetwork, now: Timestamp) {
        let log = world.take_delivery_log();
        let Some(groups) = world.partition() else {
            return;
        };
        for (t, src, dst) in log {
            if groups[src.index()] != groups[dst.index()] {
                self.record(
                    now,
                    InvariantKind::PartitionLeak,
                    format!(
                        "frame delivered {} -> {} across partition at {t}",
                        src.0, dst.0
                    ),
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use envirotrack_core::api::Program;
    use envirotrack_core::context::SensePredicate;
    use envirotrack_core::network::NetworkConfig;
    use envirotrack_world::scenario::TankScenario;
    use envirotrack_world::target::Channel;
    use testkit::prelude::*;

    use super::*;

    prop_test! {
        /// The monitor judges duplicates by the radius the monitored world
        /// merges labels at, whatever that world was built with.
        #[test]
        fn duplicate_leader_radius_is_the_monitored_worlds(radius in 0.5..12.0f64) {
            let program = Program::builder()
                .context("tracker", |c| {
                    c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                })
                .build()
                .unwrap();
            let scenario = TankScenario::default().with_grid(4, 2).build();
            let mut config = NetworkConfig::default();
            config.middleware.proximity_radius = radius;
            let (deployment, environment) = (scenario.deployment, scenario.environment);
            let world = SensorNetwork::new(Arc::new(program), deployment, environment, config, 1);
            prop_assert_eq!(InvariantMonitor::new(1, &world).dup_radius, radius);
        }
    }
}
