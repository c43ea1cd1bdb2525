//! The member's side of a group: what a node holds while it follows a
//! leader — who that leader is, the *receive timer* that presumes it failed,
//! and the *report timer* that sends the node's readings to it. A receive
//! timeout ends the membership, which is the machine's transition to make:
//! [`MemberState::on_timer`] only says that it ran out.

use bytes::Bytes;
use envirotrack_node::timer::{TimerSlot, TimerToken};
use envirotrack_sim::time::SimDuration;
use envirotrack_world::field::NodeId;

use super::{arm, GroupAction, GroupCtx, GroupTimer, Heard};
use crate::wire::{Message, Report};

/// Maximum random delay a member adds to its receive timer, so competing
/// takeovers do not fire in the same instant.
pub(super) const TAKEOVER_JITTER_MAX: SimDuration = SimDuration::from_millis(50);

/// Member-role state.
pub(super) struct MemberState {
    /// The leader followed, as last heard.
    pub(super) heard: Heard,
    /// The last state blob a heartbeat carried, inherited on takeover.
    pub(super) last_state: Option<Bytes>,
    receive: TimerSlot,
    report: TimerSlot,
}

impl MemberState {
    /// Joins the group of `heard`: arms the receive timer and the first
    /// report.
    pub(super) fn join(
        heard: Heard,
        last_state: Option<Bytes>,
        ctx: &mut GroupCtx<'_>,
        out: &mut Vec<GroupAction>,
    ) -> Self {
        let mut member = MemberState {
            heard,
            last_state,
            receive: TimerSlot::new(),
            report: TimerSlot::new(),
        };
        member.rearm_receive(ctx, out);
        if let Some(period) = report_period(ctx) {
            // First report goes out quickly (small jitter decorrelates
            // members) so the new leader gathers critical mass fast.
            let jitter = SimDuration::from_micros(ctx.rng.below(period.as_micros().max(2) / 2));
            let at = ctx.now + ctx.cfg.sense_period.min(period) + jitter;
            arm(&mut member.report, GroupTimer::Report, at, out);
        }
        member
    }

    /// Pushes the leader-failure timeout out: 2.1 × heartbeat period plus a
    /// jitter that keeps members from taking over in the same instant.
    #[inline]
    pub(super) fn rearm_receive(&mut self, ctx: &mut GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        let jitter = SimDuration::from_micros(ctx.rng.below(TAKEOVER_JITTER_MAX.as_micros()));
        let at = ctx.now + ctx.cfg.receive_timer() + jitter;
        arm(&mut self.receive, GroupTimer::Receive, at, out);
    }

    /// Answers one of the member's own timers; a stale token, or a key that
    /// belongs to another role, does nothing. Returns whether the receive
    /// timer ran out: the leader is presumed failed.
    pub(super) fn on_timer(
        &mut self,
        node: NodeId,
        ctx: &mut GroupCtx<'_>,
        key: GroupTimer,
        token: TimerToken,
        out: &mut Vec<GroupAction>,
    ) -> bool {
        match key {
            GroupTimer::Receive => self.receive.fires(token),
            GroupTimer::Report if self.report.fires(token) => {
                if ctx.spec.senses(&ctx.sample(), true) {
                    let taken_at = ctx.now;
                    let values = ctx.readings().map(|(idx, v)| (idx as u8, v)).collect();
                    out.push(GroupAction::Broadcast(Message::Report(Report {
                        label: self.heard.label,
                        member: node,
                        taken_at,
                        values,
                    })));
                }
                if let Some(period) = report_period(ctx) {
                    arm(&mut self.report, key, ctx.now + period, out);
                }
                false
            }
            _ => false,
        }
    }
}

/// How often a member reports: as often as the tightest freshness among the
/// type's aggregates asks for; never, for a type without aggregates.
fn report_period(ctx: &GroupCtx<'_>) -> Option<SimDuration> {
    ctx.spec
        .aggregates
        .iter()
        .map(|a| ctx.cfg.report_period(a.freshness))
        .min()
}
