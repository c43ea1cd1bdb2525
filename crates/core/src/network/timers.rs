//! The group-timer driver: a timer firing passes the node's CPU, then goes
//! to its machine only while its arming is live.
//!
//! Members re-arm their receive timer on every heartbeat, and every
//! superseded arming still fires. Such a stale firing costs the CPU its
//! handling, as it always has, but the machine would answer it with nothing
//! and change nothing ([`GroupMachine::timer_is_current`]), so it stops at
//! the check; debug builds still hand it over and assert exactly that.
//!
//! [`GroupMachine::timer_is_current`]: crate::group::GroupMachine::timer_is_current

use envirotrack_node::cpu::costs;
use envirotrack_node::timer::TimerToken;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;

use super::{words, SensorNetwork, K};
use crate::context::ContextTypeId;
use crate::group::GroupTimer;

/// How the group timers that fired were handled, per timer key: indexed
/// heartbeat, receive, report, formation, directory, and every object
/// method timer in the last entry (`entry`).
#[derive(Default)]
pub(super) struct Timers {
    live: [u64; 6],
    stale: [u64; 6],
    retried: [u64; 6],
}

/// Where `key` is counted in [`Timers`].
fn entry(key: GroupTimer) -> usize {
    match key {
        GroupTimer::Heartbeat => 0,
        GroupTimer::Receive => 1,
        GroupTimer::Report => 2,
        GroupTimer::Formation => 3,
        GroupTimer::Directory => 4,
        GroupTimer::Method(_) => 5,
    }
}

impl Timers {
    /// Adds how the group timers that fired were handled to `work`, each
    /// as a sum and then per timer key (`timer_live_heartbeat`, …,
    /// `timer_retries_method`; a shard's world counts only its own nodes):
    /// - `timer_live`: firings the CPU took whose arming was live, so the
    ///   machine ran;
    /// - `timer_stale`: firings the CPU took whose arming had been
    ///   superseded or called off: charged, then dropped before the machine;
    /// - `timer_retries`: firings the CPU turned away, each queued again
    ///   past its busy period.
    pub(super) fn work(&self, work: &mut Work) {
        const NAMES: [[&str; 7]; 3] = [
            [
                "timer_live",
                "timer_live_heartbeat",
                "timer_live_receive",
                "timer_live_report",
                "timer_live_formation",
                "timer_live_directory",
                "timer_live_method",
            ],
            [
                "timer_stale",
                "timer_stale_heartbeat",
                "timer_stale_receive",
                "timer_stale_report",
                "timer_stale_formation",
                "timer_stale_directory",
                "timer_stale_method",
            ],
            [
                "timer_retries",
                "timer_retries_heartbeat",
                "timer_retries_receive",
                "timer_retries_report",
                "timer_retries_formation",
                "timer_retries_directory",
                "timer_retries_method",
            ],
        ];
        for (names, counts) in NAMES.iter().zip([&self.live, &self.stale, &self.retried]) {
            work.add(names[0], counts.iter().sum());
            for (&name, &count) in names[1..].iter().zip(counts) {
                work.add(name, count);
            }
        }
    }
}

impl SensorNetwork {
    /// A group-management timer firing; `words` say whose and which
    /// (`words.rs`).
    pub(super) fn group_timer(&mut self, k: &mut K, words: [u64; 2]) {
        let (node, tid, key, token) = words::unpack(words);
        self.touch(node);
        let hot = &mut self.sense[node];
        if !hot.alive {
            return;
        }
        let at = entry(key);
        // Overload delays timer handling until the CPU drains.
        if !hot.admit(k.now(), costs::TIMER_HANDLE) {
            self.timers.retried[at] += 1;
            let retry = hot.cpu.busy_until() + SimDuration::from_millis(1);
            k.schedule_inline_at(retry.max(k.now()), Self::group_timer, words);
            return;
        }
        let machine = self
            .layers
            .get(node)
            .map(|rt| &rt.machines[usize::from(tid.0)]);
        if !machine.is_some_and(|m| m.timer_is_current(key, token)) {
            self.timers.stale[at] += 1;
            if cfg!(debug_assertions) {
                self.assert_stale(k.now(), node, tid, key, token);
            }
            return;
        }
        self.timers.live[at] += 1;
        self.run_machine(k, node, tid, |machine, ctx| {
            machine.on_timer(ctx, key, token)
        });
    }

    /// Hands a stale firing to its machine anyway, which must answer with
    /// no action and leave the node's quiescence as it was.
    fn assert_stale(
        &mut self,
        now: Timestamp,
        node: NodeId,
        tid: ContextTypeId,
        key: GroupTimer,
        token: TimerToken,
    ) {
        let quiescent = self.sense[node].quiescent;
        let actions = self.drive_machine(now, node, tid, |machine, ctx| {
            machine.on_timer(ctx, key, token)
        });
        assert!(
            actions.is_empty(),
            "stale {key:?} on {node} acted: {actions:?}"
        );
        assert_eq!(
            self.sense[node].quiescent, quiescent,
            "stale {key:?} on {node}"
        );
    }
}
