//! The leader's side of a group: what a node holds *because* it speaks for
//! a label — the aggregate windows its members report into, the heartbeat
//! that announces it, the directory registration it keeps fresh, and the
//! attached objects whose methods run against all of that. None of its
//! timers changes the node's role, so nothing here reaches into the machine.

use std::cell::Cell;
use std::collections::BTreeMap;

use bytes::Bytes;
use envirotrack_node::timer::{TimerSlot, TimerToken};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::{arm, AggregateHealth, GroupAction, GroupCtx, GroupTimer};
use crate::aggregate::{AggValue, ReadingWindow};
use crate::context::{ContextLabel, ContextSpec, ContextTypeId};
use crate::events::SystemEvent;
use crate::object::{ContextAccess, IncomingMessage, ObjectApi, ObjectEffect, ObjectReadError};
use crate::trace;
use crate::wire::{Heartbeat, Message, Relinquish, Report};

/// Leader-role state.
pub(super) struct LeaderState {
    pub(super) label: ContextLabel,
    pub(super) weight: u32,
    hb_seq: u32,
    windows: Vec<ReadingWindow>,
    state_blob: Option<Bytes>,
    /// Live labels of each subscribed type, as the directory last said.
    pub(super) directory_cache: BTreeMap<ContextTypeId, Vec<(ContextLabel, Point)>>,
    heartbeat: TimerSlot,
    directory: TimerSlot,
    method_timers: Vec<TimerSlot>,
}

impl LeaderState {
    /// The heap bytes of its box, windows, timers and directory view.
    pub(super) fn heap_bytes(&self) -> usize {
        let windows = self.windows.iter().map(ReadingWindow::heap_bytes);
        let cached = self.directory_cache.values().map(|v| v.capacity());
        size_of::<Self>()
            + self.windows.capacity() * size_of::<ReadingWindow>()
            + windows.sum::<usize>()
            + self.method_timers.capacity() * size_of::<TimerSlot>()
            + cached.sum::<usize>() * size_of::<(ContextLabel, Point)>()
            + self.state_blob.as_ref().map_or(0, Bytes::heap_bytes)
    }

    /// Takes up the leadership of `label` on `node`: contributes the node's
    /// own readings, announces at once, and starts the periodic heartbeat,
    /// the type's time-triggered methods (one timer each) and the
    /// directory refresh.
    pub(super) fn assume(
        label: ContextLabel,
        weight: u32,
        state_blob: Option<Bytes>,
        node: NodeId,
        ctx: &mut GroupCtx<'_>,
        out: &mut Vec<GroupAction>,
    ) -> Self {
        let methods = ctx.spec.timer_methods().count();
        let mut leader = LeaderState {
            label,
            weight,
            hb_seq: 0,
            windows: vec![ReadingWindow::new(); ctx.spec.aggregates.len()],
            state_blob,
            directory_cache: BTreeMap::new(),
            heartbeat: TimerSlot::new(),
            directory: TimerSlot::new(),
            method_timers: vec![TimerSlot::new(); methods],
        };
        leader.insert_own_readings(node, ctx);
        leader.send_heartbeat(node, ctx, out);
        // Object method timers start one period after leadership begins.
        for (slot, (_, _, period)) in ctx.spec.timer_methods().enumerate() {
            let key = GroupTimer::Method(slot);
            arm(&mut leader.method_timers[slot], key, ctx.now + period, out);
        }
        leader.refresh_directory(ctx, out);
        leader
    }

    /// The leader contributes its own readings to the windows.
    #[inline]
    pub(super) fn insert_own_readings(&mut self, node: NodeId, ctx: &mut GroupCtx<'_>) {
        let now = ctx.now;
        for (idx, value) in ctx.readings() {
            self.windows[idx].insert(node, now, value);
        }
    }

    /// Files a member's report into the windows.
    #[inline]
    pub(super) fn on_report(&mut self, report: &Report) {
        for (idx, value) in &report.values {
            if let Some(w) = self.windows.get_mut(usize::from(*idx)) {
                w.insert(report.member, report.taken_at, *value);
            }
        }
        // The weight counts member messages received to date (paper §5.2).
        self.weight += 1;
    }

    /// Answers one of the leader's own timers; a stale token, or a key
    /// that belongs to another role, does nothing.
    pub(super) fn on_timer(
        &mut self,
        node: NodeId,
        ctx: &mut GroupCtx<'_>,
        key: GroupTimer,
        token: TimerToken,
        out: &mut Vec<GroupAction>,
    ) {
        match key {
            GroupTimer::Heartbeat if self.heartbeat.fires(token) => {
                self.send_heartbeat(node, ctx, out);
                // Bound window memory while we're here. The horizon comes
                // from config alone: a hard floor would outlive the wait
                // timer under a reconfigured short heartbeat period and
                // resurrect long-gone reporters as relinquish successors.
                let horizon = ctx.cfg.wait_timer();
                for w in &mut self.windows {
                    w.prune(ctx.now, horizon);
                }
            }
            GroupTimer::Directory if self.directory.fires(token) => {
                self.refresh_directory(ctx, out);
            }
            GroupTimer::Method(slot)
                if self
                    .method_timers
                    .get_mut(slot)
                    .is_some_and(|t| t.fires(token)) =>
            {
                let method = ctx.spec.timer_methods().nth(slot);
                let (oi, mi, period) = method.expect("one slot per timer method");
                self.invoke_method(node, ctx, (oi, mi), None, out);
                arm(&mut self.method_timers[slot], key, ctx.now + period, out);
            }
            _ => {}
        }
    }

    /// Whether `token` is the live arming of the leader's timer `key`; a key
    /// of another role never is.
    pub(super) fn timer_is_current(&self, key: GroupTimer, token: TimerToken) -> bool {
        let slot = match key {
            GroupTimer::Heartbeat => Some(&self.heartbeat),
            GroupTimer::Directory => Some(&self.directory),
            GroupTimer::Method(slot) => self.method_timers.get(slot),
            GroupTimer::Receive | GroupTimer::Report | GroupTimer::Formation => None,
        };
        slot.is_some_and(|t| t.is_current(token))
    }

    /// Announces the label now and arms the next announcement.
    fn send_heartbeat(&mut self, node: NodeId, ctx: &mut GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        self.hb_seq += 1;
        let args = [self.hb_seq, self.weight, 0];
        ctx.trace(node, self.label, &trace::GROUP_HB, args);
        out.push(GroupAction::Broadcast(Message::Heartbeat(Heartbeat {
            label: self.label,
            leader: node,
            leader_pos: ctx.position,
            weight: self.weight,
            hb_seq: self.hb_seq,
            ttl: ctx.cfg.heartbeat_ttl,
            state: self.replicated_state(ctx),
        })));
        let at = ctx.now + ctx.cfg.heartbeat_period;
        arm(&mut self.heartbeat, GroupTimer::Heartbeat, at, out);
    }

    /// The state blob as it travels in heartbeats and relinquishes.
    fn replicated_state(&self, ctx: &GroupCtx<'_>) -> Option<Bytes> {
        if ctx.cfg.state_replication_enabled {
            self.state_blob.clone()
        } else {
            None
        }
    }

    /// Registers the label with the directory, looks the subscribed types
    /// up, and arms the next refresh. Without a directory no leader ever
    /// arms this timer, so nothing re-arms it either.
    fn refresh_directory(&mut self, ctx: &mut GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        if !ctx.cfg.directory_enabled {
            return;
        }
        out.push(GroupAction::RegisterDirectory { label: self.label });
        for &sub in ctx.subscriptions {
            out.push(GroupAction::QueryDirectory { type_id: sub });
        }
        let at = ctx.now + ctx.cfg.directory_update_period;
        arm(&mut self.directory, GroupTimer::Directory, at, out);
    }

    /// The leader stops sensing: announces the relinquish (when enabled)
    /// and returns the successor it designated, if any.
    pub(super) fn relinquish(
        &self,
        node: NodeId,
        ctx: &GroupCtx<'_>,
        out: &mut Vec<GroupAction>,
    ) -> Option<NodeId> {
        if !ctx.cfg.relinquish_enabled {
            return None;
        }
        // The freshest reporter is the best-placed successor.
        let successor = self.windows.first().and_then(|w| w.successor_after(node));
        out.push(GroupAction::Broadcast(Message::Relinquish(Relinquish {
            label: self.label,
            from: node,
            weight: self.weight,
            successor,
            state: self.replicated_state(ctx),
        })));
        successor
    }

    /// See [`super::GroupMachine::aggregate_health`].
    pub(super) fn aggregate_health(
        &self,
        spec: &ContextSpec,
        now: Timestamp,
    ) -> Vec<AggregateHealth> {
        let rows = spec.aggregates.iter().zip(&self.windows);
        rows.map(|(agg, window)| AggregateHealth {
            variable: agg.name.clone(),
            fresh: window.fresh_count(now, agg.freshness) as u32,
            need: agg.critical_mass.max(1),
            valid: window
                .evaluate(&agg.function, now, agg.freshness, agg.critical_mass)
                .is_ok(),
        })
        .collect()
    }

    /// Runs method `(object, method)` of the attached objects against this
    /// leader's windows, directory cache and state blob, and turns what it
    /// did into actions.
    pub(super) fn invoke_method(
        &mut self,
        node: NodeId,
        ctx: &mut GroupCtx<'_>,
        (oi, mi): (usize, usize),
        incoming: Option<IncomingMessage>,
        out: &mut Vec<GroupAction>,
    ) {
        let label = self.label;
        let spec_obj = &ctx.spec.objects[oi];
        let method = &spec_obj.methods[mi];
        let (effects, failure) = {
            let access = LeaderAccess {
                leader: self,
                ctx,
                node,
                last_failure: Cell::new(None),
            };
            let mut api = ObjectApi::new(label, node, ctx.now, &access, incoming);
            (method.body)(&mut api);
            let failure = access.last_failure.take();
            (api.into_effects(), failure)
        };
        out.push(GroupAction::Emit(SystemEvent::MethodInvoked {
            label,
            node,
            method: format!("{}.{}", spec_obj.name, method.name),
        }));
        if let Some((variable, have, need)) = failure {
            out.push(GroupAction::Emit(SystemEvent::AggregateReadFailed {
                label,
                variable,
                have,
                need,
            }));
        }
        for effect in effects {
            match effect {
                ObjectEffect::SendToBase { payload } => {
                    out.push(GroupAction::SendToBase { label, payload });
                }
                ObjectEffect::MtpSend {
                    dst_label,
                    dst_port,
                    payload,
                } => {
                    out.push(GroupAction::MtpSend {
                        dst_label,
                        dst_port,
                        payload,
                    });
                }
                ObjectEffect::SetState(s) => self.state_blob = Some(s),
                ObjectEffect::Log(line) => out.push(GroupAction::AppLog(line)),
            }
        }
    }
}

/// Leader-side implementation of the read API objects see.
struct LeaderAccess<'a, 'c> {
    leader: &'a LeaderState,
    ctx: &'a GroupCtx<'c>,
    node: NodeId,
    last_failure: Cell<Option<(String, u32, u32)>>,
}

impl ContextAccess for LeaderAccess<'_, '_> {
    fn read_aggregate(&self, name: &str) -> Result<AggValue, ObjectReadError> {
        let (spec, now, telemetry) = (self.ctx.spec, self.ctx.now, self.ctx.telemetry);
        let Some(idx) = spec.aggregate_index(name) else {
            return Err(ObjectReadError::UnknownVariable {
                name: name.to_owned(),
            });
        };
        let (agg, window) = (&spec.aggregates[idx], &self.leader.windows[idx]);
        let read = window.evaluate(&agg.function, now, agg.freshness, agg.critical_mass);
        let var = telemetry.intern(name);
        let (site, args) = match &read {
            Ok(_) => {
                let contributors = window.fresh_count(now, agg.freshness);
                telemetry.incr("agg.valid");
                telemetry.observe("agg.contributors", contributors as u64);
                (&trace::AGG_VALID, [var, trace::count(contributors), 0])
            }
            Err(e) => {
                telemetry.incr("agg.null");
                self.last_failure
                    .set(Some((name.to_owned(), e.have, e.need)));
                (&trace::AGG_NULL, [var, e.have, e.need])
            }
        };
        self.ctx.trace(self.node, self.leader.label, site, args);
        read.map_err(ObjectReadError::NotConfirmed)
    }

    fn labels_of_type(&self, type_id: ContextTypeId) -> Vec<(ContextLabel, Point)> {
        let cached = self.leader.directory_cache.get(&type_id);
        cached.cloned().unwrap_or_default()
    }

    fn persistent_state(&self) -> Option<&Bytes> {
        self.leader.state_blob.as_ref()
    }
}
