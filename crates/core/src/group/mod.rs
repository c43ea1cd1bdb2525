//! Group management: the protocol that keeps one coherent context label per
//! physically tracked entity (paper §5.2).
//!
//! Each node runs one `GroupMachine` per declared context type. The
//! machine is a *state machine without a world*: every input (a sensing
//! tick, a received message, a timer firing) returns a list of
//! `GroupAction`s for the hosting layer ([`crate::network`]) to apply —
//! broadcasts, timer armings, lifecycle events. It touches no kernel, no
//! radio and no other node, which is what makes the protocol unit-testable
//! message by message. It does *record*: `group.hb`, `group.join` and
//! `agg.*` trace events and the `agg.*` counters go to the telemetry handle
//! the host lends it in `GroupCtx::telemetry`. The trace ring is part of
//! what the golden files compare, so the order of those records relative to
//! each other and to the pushed actions is pinned, exactly as the order of
//! the actions and of the draws from `GroupCtx::rng` is.
//!
//! The code is cut along the roles. This file holds the machine, its inputs
//! and the role *transitions* — the §5.2 protocol and nothing else.
//! `leader.rs` owns what a node holds because it leads (aggregate windows,
//! heartbeat emission, directory refresh, method timers, state blob, and
//! the object runtime that borrows them); `member.rs` owns what it holds
//! while it follows (receive and report timers, building a report). Each
//! role state answers its own timer keys; every timer in the three files is
//! armed through the one `arm` below.
//!
//! ## Protocol summary
//!
//! * A node whose `sense_e()` holds **joins** the group it last heard a
//!   leader heartbeat for (its *wait memory*), or — after a short formation
//!   jitter with no leader heard — **mints a fresh label** and leads it.
//! * The **leader heartbeats** every period; heartbeats carry the label,
//!   the leader's *weight* (member messages received to date), a sequence
//!   number, and a TTL `h` for flooding past the group perimeter.
//! * **Members** re-arm a *receive timer* (2.1 × heartbeat period + jitter)
//!   on every heartbeat; expiry triggers a leadership **takeover** carrying
//!   the last-heard weight.
//! * **Non-members** that hear a heartbeat remember it for a *wait timer*
//!   (4.2 × heartbeat period); sensing within that window joins the
//!   remembered label instead of minting a spurious one.
//! * A leader that stops sensing **relinquishes**, designating its freshest
//!   reporter as successor.
//! * Duplicate leaders of the *same* label: the lighter one (ties by node
//!   id) yields immediately. Leaders of *different* labels of the same
//!   type: the lighter label is deleted and its leader joins the heavier
//!   one — spurious labels die out.

mod leader;
mod member;

use std::cmp::Reverse;

use bytes::Bytes;
use envirotrack_node::timer::{TimerSlot, TimerToken};
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{Telemetry, TraceSite};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;
use envirotrack_world::sensing::{Environment, SensorSample};

use self::leader::LeaderState;
use self::member::MemberState;
use crate::aggregate::{AggregateInput, ReadingValue};
use crate::config::MiddlewareConfig;
use crate::context::{trace_label, ContextLabel, ContextSpec, ContextTypeId};
use crate::events::{HandoverReason, SystemEvent};
use crate::object::IncomingMessage;
use crate::trace;
use crate::transport::{LeaderLoc, Port};
use crate::wire::{Heartbeat, Message, Relinquish, Report};

/// One aggregate variable's leader-side health snapshot — see
/// `GroupMachine::aggregate_health`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateHealth {
    /// The aggregate variable name.
    pub variable: String,
    /// Fresh distinct contributors in the window right now.
    pub fresh: u32,
    /// Critical mass `Ne` required for validity.
    pub need: u32,
    /// Whether a read right now would succeed.
    pub valid: bool,
}

/// Logical timers owned by one group machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupTimer {
    /// Leader: periodic heartbeat.
    Heartbeat,
    /// Member: leader-failure timeout.
    Receive,
    /// Member: periodic sensor report.
    Report,
    /// Idle-but-sensing: formation jitter before minting a new label.
    Formation,
    /// Leader: periodic directory registration / subscription refresh.
    Directory,
    /// Leader: a time-triggered object method (flattened index).
    Method(usize),
}

/// An effect requested by the state machine, applied by the hosting layer.
#[derive(Debug)]
pub(crate) enum GroupAction {
    /// Broadcast a protocol message to radio range.
    Broadcast(Message),
    /// Arm a timer: schedule a call to
    /// [`GroupMachine::on_timer`] with this key and token at `at`.
    ArmTimer {
        /// Which timer.
        key: GroupTimer,
        /// Absolute deadline.
        at: Timestamp,
        /// Validity token (stale firings are ignored by the machine).
        token: TimerToken,
    },
    /// Record a lifecycle event.
    Emit(SystemEvent),
    /// Register / refresh this label with the directory service.
    RegisterDirectory {
        /// The label to register.
        label: ContextLabel,
    },
    /// Query the directory for live labels of a type.
    QueryDirectory {
        /// The type to look up.
        type_id: ContextTypeId,
    },
    /// Deliver an application payload to the base station.
    SendToBase {
        /// Originating label.
        label: ContextLabel,
        /// Application payload.
        payload: Bytes,
    },
    /// Send an MTP message to a remote object.
    MtpSend {
        /// Destination label.
        dst_label: ContextLabel,
        /// Destination port.
        dst_port: Port,
        /// Application payload.
        payload: Bytes,
    },
    /// This node just became leader of `label` (directory + transport
    /// bookkeeping in the hosting layer).
    BecameLeader {
        /// The led label.
        label: ContextLabel,
    },
    /// This node stopped leading `label`; if the new leader is known a
    /// forwarding pointer should be left.
    LostLeadership {
        /// The label.
        label: ContextLabel,
        /// The new leader, when known.
        new_leader: Option<LeaderLoc>,
    },
    /// Append a line to the application log.
    AppLog(String),
}

/// What a node's sensors read: the ground truth behind
/// [`GroupCtx::sample`]. The simulation's source is the [`Environment`];
/// handler tests substitute fixed, counting or forbidden ones.
pub(crate) trait SampleSource {
    /// The (noisy) reading at `pos` and time `now`; any noise is drawn
    /// from `rng`, the sampling node's own stream.
    fn sample_at(&self, pos: Point, now: Timestamp, rng: &mut SimRng) -> SensorSample;
}

impl SampleSource for Environment {
    fn sample_at(&self, pos: Point, now: Timestamp, rng: &mut SimRng) -> SensorSample {
        self.sample_noisy(pos, now, rng)
    }
}

/// Per-call context handed to the machine by the hosting layer.
pub(crate) struct GroupCtx<'a> {
    /// Current virtual time.
    pub now: Timestamp,
    /// Middleware configuration.
    pub cfg: &'a MiddlewareConfig,
    /// This context type's declaration.
    pub spec: &'a ContextSpec,
    /// Directory subscriptions of this context type.
    pub subscriptions: &'a [ContextTypeId],
    /// What the node's sensors would read. Consulted by the first
    /// [`GroupCtx::sample`] call of this input and never otherwise: most
    /// radio-side inputs (heartbeats, reports) do not look at the sensors,
    /// and a ground-truth evaluation is the dearest thing an input can buy.
    pub sensors: &'a dyn SampleSource,
    /// The reading that first call took (`None` until then).
    pub reading: Option<SensorSample>,
    /// The node's position.
    pub position: Point,
    /// The node's randomness stream.
    pub rng: &'a mut SimRng,
    /// The run-wide telemetry registry; the machine records
    /// group-transition trace events on it.
    pub telemetry: &'a Telemetry,
}

impl<'a> GroupCtx<'a> {
    /// The node's local sensor sample for this input: taken (and its noise
    /// drawn from `rng`) on the first call, the same reading thereafter.
    pub(crate) fn sample(&mut self) -> SensorSample {
        *self
            .reading
            .get_or_insert_with(|| self.sensors.sample_at(self.position, self.now, self.rng))
    }

    /// Records a trace event about `label` on the lent telemetry handle.
    fn trace(&self, node: NodeId, label: ContextLabel, site: &'static TraceSite, args: [u32; 3]) {
        trace_label(self.telemetry, self.now, node, label, site, args);
    }

    /// What this node reads for each aggregate variable of the type, by
    /// aggregate index: what a leader files into its own windows and what a
    /// member reports.
    #[inline]
    fn readings<'c>(&'c mut self) -> impl Iterator<Item = (usize, ReadingValue)> + use<'c, 'a> {
        let aggregates = self.spec.aggregates.iter().enumerate();
        aggregates.map(move |(idx, agg)| match agg.input {
            AggregateInput::Channel(ch) => (idx, ReadingValue::Scalar(self.sample().get(ch))),
            AggregateInput::Position => (idx, ReadingValue::Position(self.position)),
        })
    }
}

/// Arms `slot` for `at` and asks the host to call
/// [`GroupMachine::on_timer`] with `key` and the slot's new token then. The
/// only place an [`GroupAction::ArmTimer`] is made: the token a host hands
/// back is always the one the slot that `key` routes to is waiting for.
#[inline]
fn arm(slot: &mut TimerSlot, key: GroupTimer, at: Timestamp, out: &mut Vec<GroupAction>) {
    let token = slot.arm(at);
    out.push(GroupAction::ArmTimer { key, at, token });
}

/// A leader this node heard of: what a heartbeat says about who speaks for
/// a label. A non-member remembers it (the wait memory), a member follows
/// it, and joining takes nothing else.
#[derive(Debug, Clone, Copy)]
struct Heard {
    label: ContextLabel,
    leader: LeaderLoc,
    weight: u32,
}

impl Heard {
    fn of(hb: &Heartbeat) -> Self {
        Heard {
            label: hb.label,
            leader: LeaderLoc {
                node: hb.leader,
                pos: hb.leader_pos,
            },
            weight: hb.weight,
        }
    }
}

/// The node's role with respect to one context type.
enum Role {
    /// Not sensing (or sensing but still in formation jitter).
    Idle,
    /// A group member under a known leader.
    Member(MemberState),
    /// The leader of a label, boxed: most machines never lead, and the
    /// leader's state is the largest of the three.
    Leader(Box<LeaderState>),
}

/// A snapshot of the machine's role, for assertions and audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoleKind {
    /// Not in any group.
    Idle,
    /// Member of the given label.
    Member(ContextLabel),
    /// Leader of the given label.
    Leader(ContextLabel),
}

/// The per-node, per-context-type group management state machine.
/// See the [module docs](self).
pub(crate) struct GroupMachine {
    node: NodeId,
    type_id: ContextTypeId,
    role: Role,
    /// Non-member memory of a nearby label, and when it lapses (the
    /// paper's wait timer).
    wait: Option<(Heard, Timestamp)>,
    formation: TimerSlot,
    /// Per-node label mint counter.
    next_seq: u32,
    /// Flood dedup: last rebroadcast (label, hb_seq).
    last_flood: Option<(ContextLabel, u32)>,
}

impl std::fmt::Debug for GroupMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupMachine")
            .field("node", &self.node)
            .field("type_id", &self.type_id)
            .field("role", &self.role_kind())
            .finish()
    }
}

impl GroupMachine {
    /// Creates the idle machine for `node` and context type `type_id`. It
    /// holds no heap data: what the type declares, every input reads from
    /// [`GroupCtx::spec`].
    #[must_use]
    pub(crate) fn new(node: NodeId, type_id: ContextTypeId) -> Self {
        GroupMachine {
            node,
            type_id,
            role: Role::Idle,
            wait: None,
            formation: TimerSlot::new(),
            next_seq: 0,
            last_flood: None,
        }
    }

    /// The machine a rebooted node starts with: a fresh one, bar the
    /// formation timer's arming count. A formation timer armed before the
    /// reboot still fires; were the count to start over, the first arming
    /// after it would take that timer's token, and the old firing would end
    /// the new jitter early.
    pub(crate) fn rebooted(&self) -> Self {
        let mut formation = self.formation.clone();
        formation.cancel();
        GroupMachine {
            formation,
            ..GroupMachine::new(self.node, self.type_id)
        }
    }

    /// The node this machine runs on.
    #[must_use]
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The machine's current role.
    #[must_use]
    pub(crate) fn role_kind(&self) -> RoleKind {
        match &self.role {
            Role::Idle => RoleKind::Idle,
            Role::Member(m) => RoleKind::Member(m.heard.label),
            Role::Leader(l) => RoleKind::Leader(l.label),
        }
    }

    /// The label this node currently belongs to, in any role.
    #[must_use]
    pub(crate) fn current_label(&self) -> Option<ContextLabel> {
        match self.role_kind() {
            RoleKind::Idle => None,
            RoleKind::Member(label) | RoleKind::Leader(label) => Some(label),
        }
    }

    /// The heap bytes the machine holds: its leader's state, if it leads.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.role {
            Role::Leader(l) => l.heap_bytes(),
            Role::Idle | Role::Member(_) => 0,
        }
    }

    /// Whether a sensing tick whose reading does not activate this type
    /// would find nothing to do: idle, and no formation timer to cancel.
    pub(crate) fn is_quiescent(&self) -> bool {
        matches!(self.role, Role::Idle) && !self.formation.is_armed()
    }

    /// Leader-side aggregate health at `now`: one row per aggregate
    /// variable of `spec`, stating how many fresh contributors the window
    /// holds, the critical mass required, and whether a read right now
    /// would be valid. Empty when this node is not leading. Invariant
    /// monitors use this to check that validity is never claimed below
    /// `Ne` fresh reports.
    #[must_use]
    pub(crate) fn aggregate_health(
        &self,
        spec: &ContextSpec,
        now: Timestamp,
    ) -> Vec<AggregateHealth> {
        match &self.role {
            Role::Leader(l) => l.aggregate_health(spec, now),
            _ => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Input: periodic sensing tick
    // ------------------------------------------------------------------

    /// Processes a sensing tick: evaluates the activation/deactivation
    /// condition and drives join/leave/create transitions.
    pub(crate) fn on_sense_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<GroupAction> {
        let mut out = Vec::new();
        // Pinned (static-object) types exist independent of sensing: their
        // single leader never steps down and other nodes never activate.
        if ctx.spec.pinned.is_some() {
            return out;
        }
        let member_now = !matches!(self.role, Role::Idle);
        let senses = ctx.spec.senses(&ctx.sample(), member_now);

        match (&mut self.role, senses) {
            (Role::Idle, true) => {
                // Prefer joining a remembered nearby label.
                if let Some(heard) = self.remembered(ctx.now) {
                    self.become_member(ctx, heard, None, &mut out);
                    return out;
                }
                // No memory: mint after a formation jitter, during which a
                // heartbeat may still reach us.
                if !self.formation.is_armed() {
                    let jitter = SimDuration::from_micros(
                        ctx.rng.below(ctx.cfg.heartbeat_period.as_micros().max(1)),
                    );
                    let at = ctx.now + jitter;
                    arm(&mut self.formation, GroupTimer::Formation, at, &mut out);
                }
            }
            (Role::Idle, false) => self.formation.cancel(),
            (Role::Member(_), false) => self.leave_membership(ctx),
            (Role::Leader(_), false) => self.step_down(ctx, &mut out),
            (Role::Leader(l), true) => l.insert_own_readings(self.node, ctx),
            (Role::Member(_), true) => {}
        }
        out
    }

    /// Instantiates this node as the permanent leader of a pinned
    /// (static-object) context type. Called once at startup, on the node
    /// closest to the declared coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the type is not declared pinned, or on double
    /// instantiation.
    pub(crate) fn instantiate_pinned(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<GroupAction> {
        assert!(
            ctx.spec.pinned.is_some(),
            "instantiate_pinned on a tracking type"
        );
        assert!(
            matches!(self.role, Role::Idle),
            "pinned instance already exists"
        );
        let mut out = Vec::new();
        self.mint_label(ctx, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Input: received protocol messages
    // ------------------------------------------------------------------

    /// Processes a heartbeat heard on the radio.
    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        hb: &Heartbeat,
    ) -> Vec<GroupAction> {
        debug_assert_eq!(hb.label.type_id, self.type_id);
        let mut out = Vec::new();
        // A pinned instance is permanent: it neither yields, joins, nor
        // remembers — and no second instance can legally exist.
        if ctx.spec.pinned.is_some() {
            return out;
        }

        let heard = Heard::of(hb);
        // Cross-label interactions only apply to physically nearby leaders
        // (see `MiddlewareConfig::proximity_radius`).
        let nearby = ctx.position.distance_to(hb.leader_pos) <= ctx.cfg.proximity_radius;
        let theirs = (hb.weight, Reverse(hb.label));
        let lost_to_them = |label| GroupAction::LostLeadership {
            label,
            new_leader: Some(heard.leader),
        };
        match &mut self.role {
            Role::Leader(l) if l.label == hb.label => {
                // Duplicate leaders within one label: the lighter yields
                // (ties broken by node id so exactly one side yields). Our
                // own heartbeat echoed back is nobody's duplicate.
                if hb.leader != self.node && (hb.weight, hb.leader.0) > (l.weight, self.node.0) {
                    self.become_member(ctx, heard, hb.state.clone(), &mut out);
                    out.push(GroupAction::Emit(SystemEvent::LeaderHandover {
                        label: hb.label,
                        from: self.node,
                        to: hb.leader,
                        reason: HandoverReason::DuplicateYield,
                    }));
                    out.push(lost_to_them(hb.label));
                }
            }
            Role::Leader(l) => {
                // Different labels of the same type around the *same*
                // stimulus: the lighter label is spurious and deletes
                // itself. On a weight tie the *older* (lower-ordered)
                // label survives, so exactly one side yields. Distant
                // leaders track different entities and are left alone.
                if nearby && theirs > (l.weight, Reverse(l.label)) {
                    let loser = l.label;
                    out.push(GroupAction::Emit(SystemEvent::LabelSuppressed {
                        loser,
                        winner: hb.label,
                        node: self.node,
                    }));
                    out.push(lost_to_them(loser));
                    self.become_member(ctx, heard, hb.state.clone(), &mut out);
                }
            }
            Role::Member(m) if m.heard.label == hb.label => {
                // Refresh leadership knowledge and push the receive timer.
                m.heard = heard;
                if hb.state.is_some() {
                    m.last_state = hb.state.clone();
                }
                m.rearm_receive(ctx, &mut out);
            }
            Role::Member(m) => {
                // Heartbeat from a *different* nearby label of the same
                // type: follow the heavier label (same tiebreak as the
                // leader-vs-leader rule, so members and leaders agree on
                // the survivor).
                if nearby && theirs > (m.heard.weight, Reverse(m.heard.label)) {
                    self.become_member(ctx, heard, hb.state.clone(), &mut out);
                }
            }
            Role::Idle => {
                // Only *nearby* events are worth remembering: joining a
                // distant group would break physical continuity.
                if nearby {
                    self.remember(heard, ctx);
                    // A pending formation was about to mint a spurious label.
                    self.formation.cancel();
                }
            }
        }

        // Flood propagation past the perimeter: members rebroadcast with a
        // decremented TTL, once per (label, seq).
        if hb.ttl > 0 && hb.leader != self.node {
            let is_member_of = self.role_kind() == RoleKind::Member(hb.label);
            let already = self.last_flood == Some((hb.label, hb.hb_seq));
            if is_member_of && !already {
                self.last_flood = Some((hb.label, hb.hb_seq));
                let mut fwd = hb.clone();
                fwd.ttl -= 1;
                out.push(GroupAction::Broadcast(Message::Heartbeat(fwd)));
            }
        }
        out
    }

    /// Processes a member's sensor report (meaningful only on leaders).
    pub(crate) fn on_report(&mut self, report: &Report) {
        if let Role::Leader(l) = &mut self.role {
            if l.label == report.label && report.member != self.node {
                l.on_report(report);
            }
        }
    }

    /// Processes a relinquish announcement from a departing leader.
    pub(crate) fn on_relinquish(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        r: &Relinquish,
    ) -> Vec<GroupAction> {
        let mut out = Vec::new();
        let Role::Member(m) = &mut self.role else {
            return out;
        };
        if m.heard.label != r.label {
            return out;
        }
        let senses = ctx.spec.senses(&ctx.sample(), true);
        if r.successor == Some(self.node) && senses {
            let state = r.state.clone().or_else(|| m.last_state.clone());
            self.promote_to_leader(ctx, r.label, r.weight, state, &mut out);
            out.push(GroupAction::Emit(SystemEvent::LeaderHandover {
                label: r.label,
                from: r.from,
                to: self.node,
                reason: HandoverReason::Relinquish,
            }));
        } else {
            // Someone else should take over; shorten our patience so the
            // takeover backup kicks in quickly if they don't.
            if let Some(s) = r.successor {
                m.heard.leader.node = s;
            }
            m.heard.weight = r.weight;
            m.rearm_receive(ctx, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // Input: timers
    // ------------------------------------------------------------------

    /// Processes a timer firing, handing `key` to the slot that owns it:
    /// the machine's own formation timer, or the current role's state.
    /// Stale tokens (superseded armings) and keys of a role this node is no
    /// longer in are ignored.
    pub(crate) fn on_timer(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        key: GroupTimer,
        token: TimerToken,
    ) -> Vec<GroupAction> {
        let mut out = Vec::new();
        match (key, &mut self.role) {
            (GroupTimer::Formation, _) => {
                if self.formation.fires(token) {
                    self.formation_expired(ctx, &mut out);
                }
            }
            (_, Role::Leader(l)) => l.on_timer(self.node, ctx, key, token, &mut out),
            (_, Role::Member(m)) => {
                if !m.on_timer(self.node, ctx, key, token, &mut out) {
                    return out;
                }
                // Leader presumed failed. If we still sense the entity we
                // take over, carrying the last-heard weight.
                if ctx.spec.senses(&ctx.sample(), true) {
                    let (heard, state) = (m.heard, m.last_state.clone());
                    self.promote_to_leader(ctx, heard.label, heard.weight, state, &mut out);
                    out.push(GroupAction::Emit(SystemEvent::LeaderHandover {
                        label: heard.label,
                        from: heard.leader.node,
                        to: self.node,
                        reason: HandoverReason::ReceiveTimeout,
                    }));
                } else {
                    self.leave_membership(ctx);
                }
            }
            (_, Role::Idle) => {}
        }
        out
    }

    /// Whether a firing of `key` under `token` is the live arming of the
    /// slot [`GroupMachine::on_timer`] would hand it to. When it is not,
    /// `on_timer` answers nothing and changes nothing, so a host may skip
    /// it; nothing is consumed here.
    pub(crate) fn timer_is_current(&self, key: GroupTimer, token: TimerToken) -> bool {
        match (key, &self.role) {
            (GroupTimer::Formation, _) => self.formation.is_current(token),
            (_, Role::Leader(l)) => l.timer_is_current(key, token),
            (_, Role::Member(m)) => m.timer_is_current(key, token),
            (_, Role::Idle) => false,
        }
    }

    /// The formation jitter ran out. Still idle, still sensing, still no
    /// nearby label?
    fn formation_expired(&mut self, ctx: &mut GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        let senses = ctx.spec.senses(&ctx.sample(), false);
        if matches!(self.role, Role::Idle) && senses {
            match self.remembered(ctx.now) {
                // Memory appeared while jittering: join it instead.
                Some(heard) => self.become_member(ctx, heard, None, out),
                None => self.mint_label(ctx, out),
            }
        }
    }

    // ------------------------------------------------------------------
    // Input: MTP delivery and directory responses (leader side)
    // ------------------------------------------------------------------

    /// Delivers an MTP payload to object method `method` (`(object,
    /// method)` indices) of the label this node leads. The transport layer
    /// has established that it leads the destination label before it
    /// delivers; on any other node nothing runs.
    pub(crate) fn deliver_mtp(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        incoming: IncomingMessage,
        method: (usize, usize),
    ) -> Vec<GroupAction> {
        let mut out = Vec::new();
        if let Role::Leader(l) = &mut self.role {
            l.invoke_method(self.node, ctx, method, Some(incoming), &mut out);
        }
        out
    }

    /// Installs a directory response into the leader's subscription cache.
    pub(crate) fn on_directory_entries(
        &mut self,
        type_id: ContextTypeId,
        entries: Vec<(ContextLabel, Point)>,
    ) {
        if let Role::Leader(l) = &mut self.role {
            l.directory_cache.insert(type_id, entries);
        }
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    fn mint_label(&mut self, ctx: &mut GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        let label = ContextLabel {
            type_id: self.type_id,
            creator: self.node,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        out.push(GroupAction::Emit(SystemEvent::LabelCreated {
            label,
            node: self.node,
            at: ctx.position,
        }));
        // New labels start at weight zero (paper §5.2).
        self.promote_to_leader(ctx, label, 0, None, out);
    }

    fn promote_to_leader(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        label: ContextLabel,
        weight: u32,
        state: Option<Bytes>,
        out: &mut Vec<GroupAction>,
    ) {
        let leader = LeaderState::assume(label, weight, state, self.node, ctx, out);
        self.role = Role::Leader(Box::new(leader));
        self.wait = None;
        self.formation.cancel();
        out.push(GroupAction::BecameLeader { label });
    }

    fn become_member(
        &mut self,
        ctx: &mut GroupCtx<'_>,
        heard: Heard,
        last_state: Option<Bytes>,
        out: &mut Vec<GroupAction>,
    ) {
        let args = [heard.leader.node.0, heard.weight, 0];
        ctx.trace(self.node, heard.label, &trace::GROUP_JOIN, args);
        self.role = Role::Member(MemberState::join(heard, last_state, ctx, out));
        self.wait = None;
        self.formation.cancel();
    }

    fn leave_membership(&mut self, ctx: &GroupCtx<'_>) {
        if let Role::Member(m) = &self.role {
            // Remember the label so a flap rejoins instead of minting.
            self.remember(m.heard, ctx);
        }
        self.role = Role::Idle;
    }

    fn step_down(&mut self, ctx: &GroupCtx<'_>, out: &mut Vec<GroupAction>) {
        let Role::Leader(l) = &self.role else {
            return;
        };
        let (label, weight) = (l.label, l.weight);
        let successor = l.relinquish(self.node, ctx, out);
        if successor.is_none() {
            out.push(GroupAction::Emit(SystemEvent::LabelDissolved {
                label,
                node: self.node,
            }));
        }
        out.push(GroupAction::LostLeadership {
            label,
            new_leader: None,
        });
        self.role = Role::Idle;
        let leader = LeaderLoc {
            node: successor.unwrap_or(self.node),
            pos: ctx.position,
        };
        let heard = Heard {
            label,
            leader,
            weight,
        };
        self.remember(heard, ctx);
    }

    /// Starts (or restarts) the wait timer on `heard`.
    fn remember(&mut self, heard: Heard, ctx: &GroupCtx<'_>) {
        self.wait = Some((heard, ctx.now + ctx.cfg.wait_timer()));
    }

    /// The remembered leader, while the wait timer has not lapsed.
    fn remembered(&self, now: Timestamp) -> Option<Heard> {
        self.wait
            .and_then(|(heard, until)| (until > now).then_some(heard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggValue, AggregateFn};
    use crate::context::{AggregateSpec, Invocation, SensePredicate};
    use crate::object::ObjectApi;
    use envirotrack_world::target::Channel;
    use std::cell::Cell;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// A fixed reading is its own source: the harness's sensors.
    impl SampleSource for SensorSample {
        fn sample_at(&self, _: Point, _: Timestamp, _: &mut SimRng) -> SensorSample {
            *self
        }
    }

    /// Sensors no handler may read.
    struct Forbidden;

    impl SampleSource for Forbidden {
        fn sample_at(&self, _: Point, _: Timestamp, _: &mut SimRng) -> SensorSample {
            panic!("this input must not read the sensors");
        }
    }

    /// A fixed reading that counts how often it is taken.
    struct Counting {
        reading: SensorSample,
        reads: Cell<u32>,
    }

    impl Counting {
        fn sensing() -> Self {
            let mut reading = SensorSample::zero();
            reading.set(Channel::Magnetic, 1.0);
            Counting {
                reading,
                reads: Cell::new(0),
            }
        }

        /// Reads since the last call.
        fn take(&self) -> u32 {
            self.reads.replace(0)
        }
    }

    impl SampleSource for Counting {
        fn sample_at(&self, _: Point, _: Timestamp, _: &mut SimRng) -> SensorSample {
            self.reads.set(self.reads.get() + 1);
            self.reading
        }
    }

    fn spec_with_tracker() -> ContextSpec {
        ContextSpec {
            name: "tracker".into(),
            activation: SensePredicate::threshold(Channel::Magnetic, 0.5),
            deactivation: None,
            aggregates: vec![AggregateSpec {
                name: "location".into(),
                function: AggregateFn::CenterOfGravity,
                input: AggregateInput::Position,
                freshness: SimDuration::from_secs(1),
                critical_mass: 2,
            }],
            objects: vec![],
            pinned: None,
        }
    }

    struct Harness {
        spec: ContextSpec,
        cfg: MiddlewareConfig,
        rng: SimRng,
        sample: SensorSample,
        now: Timestamp,
        position: Point,
        telemetry: Telemetry,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                spec: spec_with_tracker(),
                cfg: MiddlewareConfig::default(),
                rng: SimRng::seed_from(7),
                sample: SensorSample::zero(),
                now: Timestamp::from_secs(1),
                position: Point::new(3.0, 0.5),
                telemetry: Telemetry::new(),
            }
        }

        fn sensing(mut self) -> Self {
            self.sample.set(Channel::Magnetic, 1.0);
            self
        }

        fn ctx(&mut self) -> GroupCtx<'_> {
            GroupCtx {
                now: self.now,
                cfg: &self.cfg,
                spec: &self.spec,
                subscriptions: &[],
                sensors: &self.sample,
                reading: None,
                position: self.position,
                rng: &mut self.rng,
                telemetry: &self.telemetry,
            }
        }
    }

    impl Harness {
        /// Like [`Harness::ctx`], reading `sensors` instead of the
        /// harness's own fixed sample.
        fn ctx_reading<'a>(&'a mut self, sensors: &'a dyn SampleSource) -> GroupCtx<'a> {
            GroupCtx {
                sensors,
                ..self.ctx()
            }
        }
    }

    /// What the assertions below ask of a machine and no caller does.
    impl GroupMachine {
        fn is_leader(&self) -> bool {
            matches!(self.role, Role::Leader(_))
        }

        fn leader_weight(&self) -> Option<u32> {
            match &self.role {
                Role::Leader(l) => Some(l.weight),
                _ => None,
            }
        }
    }

    fn machine(node: u32) -> GroupMachine {
        GroupMachine::new(NodeId(node), ContextTypeId(0))
    }

    fn label(creator: u32, seq: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(creator),
            seq,
        }
    }

    /// A heartbeat from a leader physically near the harness node (within
    /// the proximity radius), as for a group around the same stimulus.
    fn hb(lbl: ContextLabel, leader: u32, weight: u32, seq: u32) -> Heartbeat {
        Heartbeat {
            label: lbl,
            leader: NodeId(leader),
            leader_pos: Point::new(3.5, 0.5),
            weight,
            hb_seq: seq,
            ttl: 0,
            state: None,
        }
    }

    /// A heartbeat from a physically distant leader (another entity).
    fn far_hb(lbl: ContextLabel, leader: u32, weight: u32, seq: u32) -> Heartbeat {
        Heartbeat {
            leader_pos: Point::new(50.0, 50.0),
            ..hb(lbl, leader, weight, seq)
        }
    }

    fn find_timer(actions: &[GroupAction], key: GroupTimer) -> Option<(Timestamp, TimerToken)> {
        actions.iter().find_map(|a| match a {
            GroupAction::ArmTimer { key: k, at, token } if *k == key => Some((*at, *token)),
            _ => None,
        })
    }

    fn broadcasts(actions: &[GroupAction]) -> Vec<&Message> {
        actions
            .iter()
            .filter_map(|a| match a {
                GroupAction::Broadcast(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    /// Drives a machine from idle to leadership: sense → formation timer →
    /// mint. Returns the minted label and the heartbeat-timer arming.
    fn make_leader(h: &mut Harness, m: &mut GroupMachine) -> ContextLabel {
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Formation).expect("formation armed");
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, token);
        assert!(m.is_leader(), "machine should lead after formation expiry");
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, GroupAction::Emit(SystemEvent::LabelCreated { .. }))),
            "LabelCreated must be emitted"
        );
        m.current_label().unwrap()
    }

    #[test]
    fn idle_node_that_senses_mints_after_formation_jitter() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let lbl = make_leader(&mut h, &mut m);
        assert_eq!(lbl.creator, NodeId(1));
        assert_eq!(
            m.leader_weight(),
            Some(0),
            "new labels start at weight zero"
        );
    }

    #[test]
    fn leader_announces_immediately_and_periodically() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Formation).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, token);
        // Immediate announce.
        let hbs: Vec<_> = broadcasts(&actions)
            .into_iter()
            .filter(|m| matches!(m, Message::Heartbeat(_)))
            .collect();
        assert_eq!(hbs.len(), 1);
        // Periodic rearm.
        let (next_at, next_tok) = find_timer(&actions, GroupTimer::Heartbeat).unwrap();
        assert_eq!(next_at, h.now + h.cfg.heartbeat_period);
        h.now = next_at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Heartbeat, next_tok);
        assert_eq!(broadcasts(&actions).len(), 1);
        assert!(find_timer(&actions, GroupTimer::Heartbeat).is_some());
    }

    #[test]
    fn formation_is_cancelled_when_a_heartbeat_arrives() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Formation).unwrap();
        // A heartbeat from an existing group arrives during the jitter.
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, token);
        assert!(actions.is_empty(), "stale formation token must be inert");
        // The next sense tick joins the remembered label instead.
        let _ = m.on_sense_tick(&mut h.ctx());
        assert_eq!(m.role_kind(), RoleKind::Member(label(9, 0)));
    }

    #[test]
    fn idle_heartbeat_sets_wait_memory_and_sensing_joins_it() {
        let mut h = Harness::new();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        // Start sensing within the wait window.
        h.sample.set(Channel::Magnetic, 1.0);
        h.now = h.now + h.cfg.wait_timer() - SimDuration::from_millis(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        assert_eq!(m.role_kind(), RoleKind::Member(label(9, 0)));
        assert!(find_timer(&actions, GroupTimer::Receive).is_some());
        assert!(find_timer(&actions, GroupTimer::Report).is_some());
    }

    #[test]
    fn expired_wait_memory_leads_to_a_fresh_label() {
        let mut h = Harness::new();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        h.sample.set(Channel::Magnetic, 1.0);
        h.now = h.now + h.cfg.wait_timer() + SimDuration::from_millis(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        assert!(find_timer(&actions, GroupTimer::Formation).is_some());
        assert_eq!(m.role_kind(), RoleKind::Idle);
    }

    #[test]
    fn member_reports_and_rearms_receive_timer_on_heartbeats() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        let _ = m.on_sense_tick(&mut h.ctx());
        assert!(matches!(m.role_kind(), RoleKind::Member(_)));
        // Heartbeats keep refreshing the receive timer.
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 6, 2));
        let (at, _) = find_timer(&actions, GroupTimer::Receive).unwrap();
        assert!(at >= h.now + h.cfg.receive_timer());
        assert!(at <= h.now + h.cfg.receive_timer() + member::TAKEOVER_JITTER_MAX);
    }

    #[test]
    fn member_report_timer_broadcasts_readings() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Report).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Report, token);
        let reports: Vec<_> = broadcasts(&actions)
            .into_iter()
            .filter_map(|msg| match msg {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].member, NodeId(1));
        assert_eq!(reports[0].values.len(), 1);
        assert_eq!(
            reports[0].values[0].1,
            ReadingValue::Position(Point::new(3.0, 0.5))
        );
        // And the next report is scheduled.
        assert!(find_timer(&actions, GroupTimer::Report).is_some());
    }

    #[test]
    fn receive_timeout_promotes_member_carrying_weight() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 41, 1));
        let actions = m.on_sense_tick(&mut h.ctx());
        let _ = actions;
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 42, 2));
        let (at, token) = find_timer(&actions, GroupTimer::Receive).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Receive, token);
        assert!(m.is_leader());
        assert_eq!(
            m.current_label(),
            Some(label(9, 0)),
            "the label survives the takeover"
        );
        assert_eq!(m.leader_weight(), Some(42), "weight is inherited");
        assert!(actions.iter().any(|a| matches!(
            a,
            GroupAction::Emit(SystemEvent::LeaderHandover {
                reason: HandoverReason::ReceiveTimeout,
                ..
            })
        )));
    }

    #[test]
    fn receive_timeout_while_not_sensing_just_leaves() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Receive).unwrap();
        h.sample.set(Channel::Magnetic, 0.0); // target moved away
        h.now = at;
        let _ = m.on_timer(&mut h.ctx(), GroupTimer::Receive, token);
        assert_eq!(m.role_kind(), RoleKind::Idle);
    }

    #[test]
    fn relinquish_promotes_the_designated_successor() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 10, 1));
        let _ = m.on_sense_tick(&mut h.ctx());
        let r = Relinquish {
            label: label(9, 0),
            from: NodeId(9),
            weight: 10,
            successor: Some(NodeId(1)),
            state: None,
        };
        let actions = m.on_relinquish(&mut h.ctx(), &r);
        assert!(m.is_leader());
        assert_eq!(m.leader_weight(), Some(10));
        assert!(actions.iter().any(|a| matches!(
            a,
            GroupAction::Emit(SystemEvent::LeaderHandover {
                reason: HandoverReason::Relinquish,
                ..
            })
        )));
    }

    #[test]
    fn relinquish_to_someone_else_updates_leader_expectation() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 10, 1));
        let _ = m.on_sense_tick(&mut h.ctx());
        let r = Relinquish {
            label: label(9, 0),
            from: NodeId(9),
            weight: 10,
            successor: Some(NodeId(4)),
            state: None,
        };
        let actions = m.on_relinquish(&mut h.ctx(), &r);
        assert!(matches!(m.role_kind(), RoleKind::Member(_)));
        assert!(
            find_timer(&actions, GroupTimer::Receive).is_some(),
            "backup takeover armed"
        );
    }

    #[test]
    fn leader_that_stops_sensing_relinquishes_to_freshest_reporter() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let lbl = make_leader(&mut h, &mut m);
        // Two members report; node 5 most recently.
        h.now += SimDuration::from_millis(100);
        let now = h.now;
        m.on_report(&Report {
            label: lbl,
            member: NodeId(4),
            taken_at: now,
            values: vec![(0, ReadingValue::Position(Point::new(4.0, 0.0)))],
        });
        h.now += SimDuration::from_millis(100);
        let now = h.now;
        m.on_report(&Report {
            label: lbl,
            member: NodeId(5),
            taken_at: now,
            values: vec![(0, ReadingValue::Position(Point::new(5.0, 0.0)))],
        });
        assert_eq!(m.leader_weight(), Some(2), "weight counts member messages");
        // The target moves out of range.
        h.sample.set(Channel::Magnetic, 0.0);
        let actions = m.on_sense_tick(&mut h.ctx());
        assert_eq!(m.role_kind(), RoleKind::Idle);
        let relinquishes: Vec<_> = broadcasts(&actions)
            .into_iter()
            .filter_map(|msg| match msg {
                Message::Relinquish(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(relinquishes.len(), 1);
        assert_eq!(
            relinquishes[0].successor,
            Some(NodeId(5)),
            "freshest reporter chosen"
        );
        assert_eq!(relinquishes[0].weight, 2);
    }

    #[test]
    fn relinquish_disabled_dissolves_silently() {
        let mut h = Harness::new().sensing();
        h.cfg.relinquish_enabled = false;
        let mut m = machine(1);
        let _ = make_leader(&mut h, &mut m);
        h.sample.set(Channel::Magnetic, 0.0);
        let actions = m.on_sense_tick(&mut h.ctx());
        assert!(
            broadcasts(&actions).is_empty(),
            "no relinquish broadcast when disabled"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, GroupAction::Emit(SystemEvent::LabelDissolved { .. }))));
    }

    #[test]
    fn duplicate_leader_with_lower_weight_yields() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let lbl = make_leader(&mut h, &mut m); // weight 0
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(lbl, 7, 5, 1));
        assert_eq!(m.role_kind(), RoleKind::Member(lbl));
        assert!(actions.iter().any(|a| matches!(
            a,
            GroupAction::Emit(SystemEvent::LeaderHandover {
                reason: HandoverReason::DuplicateYield,
                ..
            })
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, GroupAction::LostLeadership { .. })));
    }

    #[test]
    fn duplicate_leader_with_higher_weight_stands_firm() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let lbl = make_leader(&mut h, &mut m);
        // Feed reports to gain weight.
        let now = h.now;
        for i in 0..3 {
            m.on_report(&Report {
                label: lbl,
                member: NodeId(10 + i),
                taken_at: now,
                values: vec![],
            });
        }
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(lbl, 7, 1, 1));
        assert!(m.is_leader(), "heavier leader must not yield");
        assert!(actions.is_empty());
    }

    #[test]
    fn spurious_label_is_suppressed_by_heavier_same_type_leader() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let my_label = make_leader(&mut h, &mut m); // weight 0
        let other = label(9, 3);
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(other, 9, 20, 1));
        assert_eq!(m.role_kind(), RoleKind::Member(other), "joins the winner");
        assert!(actions.iter().any(|a| matches!(
            a,
            GroupAction::Emit(SystemEvent::LabelSuppressed { loser, winner, .. })
                if *loser == my_label && *winner == other
        )));
    }

    #[test]
    fn equal_weight_leader_collision_converges_on_the_older_label() {
        // Regression: the tiebreak compared raw labels, so with equal
        // weights the *younger* (higher-ordered) label won and the paper's
        // heavier/older-leader-wins rule was inverted — worse, each side
        // believed the other should yield.
        let mut ha = Harness::new().sensing();
        let mut hx = Harness::new().sensing();
        let mut a = machine(1);
        let mut b = machine(2);
        let la = make_leader(&mut ha, &mut a);
        let lb = make_leader(&mut hx, &mut b);
        assert!(la < lb, "node 1 minted the older label");
        // Exchange heartbeats both ways, repeatedly (stale heartbeats from
        // the losing label keep arriving for a while in a real network):
        // exactly one label survives, and the outcome is stable.
        for round in 0..3 {
            let _ = a.on_heartbeat(&mut ha.ctx(), &hb(lb, 2, 0, 1));
            let _ = b.on_heartbeat(&mut hx.ctx(), &hb(la, 1, 0, 1));
            assert!(
                a.is_leader(),
                "round {round}: the older equal-weight label must survive"
            );
            assert_eq!(a.current_label(), Some(la));
            assert_eq!(
                b.role_kind(),
                RoleKind::Member(la),
                "round {round}: the younger label must suppress itself and join"
            );
        }
    }

    #[test]
    fn window_prune_horizon_follows_a_short_heartbeat_period() {
        // Regression: the prune horizon had a hard 10 s floor, so with a
        // reconfigured sub-second heartbeat period a reporter that left
        // long ago (many wait-timer windows in the past) still got
        // designated relinquish successor instead of the label dissolving.
        let mut h = Harness::new().sensing();
        h.cfg = MiddlewareConfig::default().with_heartbeat_period(SimDuration::from_millis(200));
        let wait = h.cfg.wait_timer();
        assert!(wait < SimDuration::from_secs(1), "sub-second horizon");
        let mut m = machine(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Formation).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, token);
        let lbl = m.current_label().unwrap();
        let (_, hb_tok) = find_timer(&actions, GroupTimer::Heartbeat).unwrap();
        // One member reports, then goes silent.
        let report = Report {
            label: lbl,
            member: NodeId(5),
            taken_at: h.now,
            values: vec![(0, ReadingValue::Position(Point::new(3.2, 0.5)))],
        };
        m.on_report(&report);
        // Well past the wait timer (but far below the old 10 s floor) the
        // heartbeat tick prunes the window.
        h.now += SimDuration::from_secs(1);
        let _ = m.on_timer(&mut h.ctx(), GroupTimer::Heartbeat, hb_tok);
        // Sensing stops: the leader steps down. The long-gone reporter must
        // NOT be resurrected as successor — the label dissolves.
        h.sample = SensorSample::zero();
        let actions = m.on_sense_tick(&mut h.ctx());
        let relinquish: Vec<_> = broadcasts(&actions)
            .into_iter()
            .filter_map(|msg| match msg {
                Message::Relinquish(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(relinquish.len(), 1);
        assert_eq!(
            relinquish[0].successor, None,
            "stale reporter must have been pruned from the window"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                GroupAction::Emit(SystemEvent::LabelDissolved { label, .. }) if *label == lbl
            )),
            "no successor → the label dissolves"
        );
    }

    #[test]
    fn lighter_same_type_leader_is_ignored() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let my_label = make_leader(&mut h, &mut m);
        let now = h.now;
        for i in 0..5 {
            m.on_report(&Report {
                label: my_label,
                member: NodeId(20 + i),
                taken_at: now,
                values: vec![],
            });
        }
        let actions = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 3), 9, 2, 1));
        assert!(m.is_leader());
        assert_eq!(m.current_label(), Some(my_label));
        assert!(actions.is_empty());
    }

    #[test]
    fn member_follows_the_heavier_of_two_labels() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 10, 1));
        let _ = m.on_sense_tick(&mut h.ctx());
        assert_eq!(m.role_kind(), RoleKind::Member(label(9, 0)));
        // A lighter label of the same type: ignored.
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(4, 0), 4, 3, 1));
        assert_eq!(m.role_kind(), RoleKind::Member(label(9, 0)));
        // A heavier one: switch.
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(5, 0), 5, 30, 1));
        assert_eq!(m.role_kind(), RoleKind::Member(label(5, 0)));
    }

    #[test]
    fn members_flood_heartbeats_with_ttl_once_per_seq() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, 5, 1));
        let _ = m.on_sense_tick(&mut h.ctx());
        let mut beat = hb(label(9, 0), 9, 5, 2);
        beat.ttl = 1;
        let actions = m.on_heartbeat(&mut h.ctx(), &beat);
        let rebroadcast: Vec<_> = broadcasts(&actions)
            .into_iter()
            .filter_map(|msg| match msg {
                Message::Heartbeat(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(rebroadcast.len(), 1);
        assert_eq!(rebroadcast[0].ttl, 0, "TTL decremented");
        // Same sequence again: deduplicated.
        let actions = m.on_heartbeat(&mut h.ctx(), &beat);
        assert!(broadcasts(&actions)
            .into_iter()
            .all(|msg| !matches!(msg, Message::Heartbeat(_))));
    }

    #[test]
    fn non_members_do_not_flood() {
        let mut h = Harness::new(); // not sensing
        let mut m = machine(1);
        let mut beat = hb(label(9, 0), 9, 5, 1);
        beat.ttl = 2;
        let actions = m.on_heartbeat(&mut h.ctx(), &beat);
        assert!(
            broadcasts(&actions).is_empty(),
            "idle nodes only remember, never flood"
        );
    }

    #[test]
    fn timer_methods_run_on_the_leader_with_aggregate_access() {
        let invocations: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(Vec::new()));
        let log = invocations.clone();
        let mut spec = spec_with_tracker();
        spec.objects.push(crate::context::ObjectSpec {
            name: "reporter".into(),
            methods: vec![crate::context::MethodSpec {
                name: "report".into(),
                invocation: Invocation::Timer(SimDuration::from_secs(5)),
                body: Arc::new(move |ctx: &mut ObjectApi<'_>| {
                    let read = ctx.read("location");
                    log.lock().unwrap().push(read.is_ok());
                    if let Ok(AggValue::Point(p)) = read {
                        ctx.send_to_base(crate::object::payload::position(p));
                    }
                }),
            }],
        });
        let mut h = Harness::new().sensing();
        h.spec = spec;
        let mut m = GroupMachine::new(NodeId(1), ContextTypeId(0));

        // Drive to leadership, capturing the method-timer arming.
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, tok) = find_timer(&actions, GroupTimer::Formation).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, tok);
        let lbl = m.current_label().unwrap();
        let (method_at, method_tok) =
            find_timer(&actions, GroupTimer::Method(0)).expect("method timer armed on promotion");
        assert_eq!(method_at, h.now + SimDuration::from_secs(5));

        // At fire time: a fresh own reading plus one member report meet the
        // critical mass of 2.
        h.now = method_at;
        let _ = m.on_sense_tick(&mut h.ctx());
        let now = h.now;
        m.on_report(&Report {
            label: lbl,
            member: NodeId(2),
            taken_at: now,
            values: vec![(0, ReadingValue::Position(Point::new(1.0, 0.5)))],
        });
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Method(0), method_tok);
        assert_eq!(invocations.lock().unwrap().as_slice(), &[true]);
        // The method's send became an action, it was logged as invoked, and
        // the timer re-armed.
        let base_sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                GroupAction::SendToBase { payload, .. } => {
                    crate::object::payload::decode_position(payload)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            base_sends,
            vec![Point::new(2.0, 0.5)],
            "avg of (3,0.5) and (1,0.5)"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, GroupAction::Emit(SystemEvent::MethodInvoked { .. }))));
        let (next_at, next_tok) = find_timer(&actions, GroupTimer::Method(0)).unwrap();

        // Second firing 5 s later: readings are stale, the read fails, and
        // the failure is surfaced as an event.
        h.now = next_at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Method(0), next_tok);
        assert_eq!(invocations.lock().unwrap().as_slice(), &[true, false]);
        assert!(actions.iter().any(|a| matches!(
            a,
            GroupAction::Emit(SystemEvent::AggregateReadFailed { variable, .. }) if variable == "location"
        )));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, GroupAction::SendToBase { .. })),
            "an unconfirmed siting must not be reported"
        );
    }

    #[test]
    fn distant_same_type_leaders_do_not_interact() {
        // Two tanks far apart must keep distinct labels even though their
        // heartbeats are mutually audible (comm radius > separation).
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let my_label = make_leader(&mut h, &mut m);
        // A much heavier leader far away: ignored.
        let actions = m.on_heartbeat(&mut h.ctx(), &far_hb(label(9, 0), 9, 100, 1));
        assert!(
            m.is_leader(),
            "distant heavy leader must not suppress this label"
        );
        assert_eq!(m.current_label(), Some(my_label));
        assert!(actions.is_empty());

        // Members likewise do not defect to distant labels.
        let mut h2 = Harness::new().sensing();
        let mut m2 = machine(2);
        let _ = m2.on_heartbeat(&mut h2.ctx(), &hb(label(5, 0), 5, 1, 1));
        let _ = m2.on_sense_tick(&mut h2.ctx());
        assert_eq!(m2.role_kind(), RoleKind::Member(label(5, 0)));
        let _ = m2.on_heartbeat(&mut h2.ctx(), &far_hb(label(9, 0), 9, 100, 1));
        assert_eq!(m2.role_kind(), RoleKind::Member(label(5, 0)));

        // Idle nodes do not remember distant events.
        let mut h3 = Harness::new();
        let mut m3 = machine(3);
        let _ = m3.on_heartbeat(&mut h3.ctx(), &far_hb(label(9, 0), 9, 100, 1));
        h3.sample.set(Channel::Magnetic, 1.0);
        let actions = m3.on_sense_tick(&mut h3.ctx());
        assert!(
            find_timer(&actions, GroupTimer::Formation).is_some(),
            "a fresh stimulus far from known groups must mint its own label"
        );
    }

    #[test]
    fn heartbeats_and_reports_never_read_the_sensors() {
        let mut h = Harness::new().sensing();
        let lbl = label(9, 0);
        let report = |member: u32| Report {
            label: lbl,
            member: NodeId(member),
            taken_at: Timestamp::from_secs(1),
            values: vec![(0, ReadingValue::Position(Point::new(3.0, 1.0)))],
        };
        // Idle: remembers the label. Member: re-arms its receive timer.
        let mut m = machine(1);
        let _ = m.on_heartbeat(&mut h.ctx_reading(&Forbidden), &hb(lbl, 9, 5, 1));
        m.on_report(&report(2));
        let _ = m.on_sense_tick(&mut h.ctx());
        assert_eq!(m.role_kind(), RoleKind::Member(lbl));
        let actions = m.on_heartbeat(&mut h.ctx_reading(&Forbidden), &hb(lbl, 9, 6, 2));
        assert!(find_timer(&actions, GroupTimer::Receive).is_some());
        m.on_report(&report(2));
        // Leader: weighs reports, yields to a heavier duplicate.
        let mut l = machine(2);
        let own = make_leader(&mut h, &mut l);
        let mine = Report {
            label: own,
            ..report(3)
        };
        l.on_report(&mine);
        assert_eq!(l.leader_weight(), Some(1));
        let _ = l.on_heartbeat(&mut h.ctx_reading(&Forbidden), &far_hb(lbl, 9, 50, 3));
        let _ = l.on_heartbeat(&mut h.ctx_reading(&Forbidden), &hb(own, 7, 50, 1));
        assert!(!l.is_leader(), "the heavier duplicate wins");
    }

    #[test]
    fn sensing_inputs_read_the_sensors_once() {
        // A channel-fed aggregate makes reports and the leader's own
        // readings look at the sample a second time within one input.
        let mut h = Harness::new();
        h.spec.aggregates.push(AggregateSpec {
            name: "field".into(),
            function: AggregateFn::Average,
            input: AggregateInput::Channel(Channel::Magnetic),
            freshness: SimDuration::from_secs(1),
            critical_mass: 1,
        });
        let sensors = Counting::sensing();

        // Idle sense tick → formation timer → leader sense tick.
        let mut l = machine(1);
        let actions = l.on_sense_tick(&mut h.ctx_reading(&sensors));
        assert_eq!(sensors.take(), 1);
        let (at, token) = find_timer(&actions, GroupTimer::Formation).unwrap();
        h.now = at;
        let _ = l.on_timer(&mut h.ctx_reading(&sensors), GroupTimer::Formation, token);
        assert_eq!(sensors.take(), 1);
        assert!(l.is_leader());
        let _ = l.on_sense_tick(&mut h.ctx_reading(&sensors));
        assert_eq!(
            sensors.take(),
            1,
            "senses() and own readings share one sample"
        );

        // Member: report timer, receive timer, relinquish.
        let lbl = label(9, 0);
        let mut m = machine(2);
        let _ = m.on_heartbeat(&mut h.ctx_reading(&sensors), &hb(lbl, 9, 5, 1));
        assert_eq!(sensors.take(), 0);
        let actions = m.on_sense_tick(&mut h.ctx_reading(&sensors));
        assert_eq!(sensors.take(), 1);
        let (report_at, report_tok) = find_timer(&actions, GroupTimer::Report).unwrap();
        let (receive_at, receive_tok) = find_timer(&actions, GroupTimer::Receive).unwrap();
        h.now = report_at;
        let actions = m.on_timer(&mut h.ctx_reading(&sensors), GroupTimer::Report, report_tok);
        assert_eq!(
            sensors.take(),
            1,
            "senses() and the report values share one sample"
        );
        assert_eq!(broadcasts(&actions).len(), 1);
        let r = Relinquish {
            label: lbl,
            from: NodeId(9),
            weight: 5,
            successor: Some(NodeId(4)),
            state: None,
        };
        let actions = m.on_relinquish(&mut h.ctx_reading(&sensors), &r);
        assert_eq!(sensors.take(), 1);
        // The relinquish re-armed the receive timer; the old token is
        // stale and must not cost a sample, the new one takes exactly one.
        h.now = receive_at;
        let _ = m.on_timer(
            &mut h.ctx_reading(&sensors),
            GroupTimer::Receive,
            receive_tok,
        );
        assert_eq!(sensors.take(), 0);
        let (at, token) = find_timer(&actions, GroupTimer::Receive).unwrap();
        h.now = at;
        let _ = m.on_timer(&mut h.ctx_reading(&sensors), GroupTimer::Receive, token);
        assert_eq!(sensors.take(), 1);
        assert!(
            m.is_leader(),
            "a sensing member takes over on receive timeout"
        );
    }

    #[test]
    fn stale_timer_tokens_are_inert() {
        let mut h = Harness::new().sensing();
        let mut m = machine(1);
        let actions = m.on_sense_tick(&mut h.ctx());
        let (at, token) = find_timer(&actions, GroupTimer::Formation).unwrap();
        h.now = at;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Formation, token);
        let (_, hb_tok) = find_timer(&actions, GroupTimer::Heartbeat).unwrap();
        // The leader yields before its heartbeat timer fires.
        let lbl = m.current_label().unwrap();
        let _ = m.on_heartbeat(&mut h.ctx(), &hb(lbl, 7, 5, 1));
        assert!(!m.is_leader());
        // The old heartbeat token must now be dead.
        h.now += h.cfg.heartbeat_period;
        let actions = m.on_timer(&mut h.ctx(), GroupTimer::Heartbeat, hb_tok);
        assert!(
            actions.is_empty(),
            "stale heartbeat timer fired actions: {actions:?}"
        );
    }

    testkit::prop_test! {
        /// What the sensing driver's quiescent test rests on
        /// (`network/sense.rs`): a quiescent machine handed a reading that
        /// does not activate its type answers with no action, changes
        /// nothing an input can later see, and has taken exactly one
        /// reading and no other draw — so the driver may take that reading
        /// itself and keep the tick out of the machine. Random inputs walk
        /// the machine through every role first; every sensing tick on the
        /// way is checked. A pinned type stays idle off its host node and
        /// must not even look at the sensors.
        #[test]
        fn quiescent_machine_ignores_a_reading_that_does_not_activate(
            ops in testkit::prop::collection::vec((0u8..9, 0u32..8), 1..120),
            pinned in testkit::any::<bool>(),
        ) {
            let mut h = Harness::new();
            let mut spec = spec_with_tracker();
            spec.pinned = pinned.then(|| Point::new(9.0, 9.0));
            h.spec.pinned = spec.pinned;
            let mut m = machine(1);
            let mut timers: Vec<(GroupTimer, Timestamp, TimerToken)> = Vec::new();
            let mut roles = [false; 3];
            let (near, other) = (label(9, 0), label(8, 3));
            // Everything a later input can tell apart (a slot's generation
            // counter is not: tokens are only ever compared with it).
            let observable = |m: &GroupMachine| {
                let slots = (m.formation.deadline(), m.wait, m.next_seq, m.last_flood);
                format!("{:?} {slots:?}", m.role_kind())
            };
            for &(op, arg) in &ops {
                let actions = match op {
                    0..=2 => {
                        let mut sensors = Counting::sensing();
                        if op > 0 {
                            sensors.reading = SensorSample::zero();
                        }
                        let idle = m.is_quiescent() && !spec.senses(&sensors.reading, false);
                        let before = (observable(&m), format!("{:?}", h.rng));
                        let actions = m.on_sense_tick(&mut h.ctx_reading(&sensors));
                        if idle || pinned {
                            testkit::prop_assert!(actions.is_empty(), "acted: {actions:?}");
                            testkit::prop_assert_eq!(&before.0, &observable(&m));
                            testkit::prop_assert_eq!(&before.1, &format!("{:?}", h.rng));
                            testkit::prop_assert_eq!(sensors.take(), u32::from(!pinned));
                        }
                        actions
                    }
                    3 => m.on_heartbeat(&mut h.ctx(), &hb(near, 9, arg, arg)),
                    4 => m.on_heartbeat(&mut h.ctx(), &hb(other, 8, arg, arg)),
                    5 => {
                        let own = m.current_label().unwrap_or(near);
                        m.on_heartbeat(&mut h.ctx(), &hb(own, 7, 4 * arg, arg))
                    }
                    6 => {
                        let r = Relinquish {
                            label: m.current_label().unwrap_or(near),
                            from: NodeId(9),
                            weight: arg,
                            successor: (arg % 2 == 0).then_some(NodeId(1)),
                            state: None,
                        };
                        // Sensing or not, by turns.
                        h.sample.set(Channel::Magnetic, f64::from(arg % 4 / 2));
                        m.on_relinquish(&mut h.ctx(), &r)
                    }
                    7 if !timers.is_empty() => {
                        let (key, at, token) = timers.remove(arg as usize % timers.len());
                        h.now = h.now.max(at);
                        h.sample.set(Channel::Magnetic, f64::from(arg % 2));
                        // What a host may drop unseen (`network/timers.rs`):
                        // an arming the machine calls dead acts on nothing.
                        let live = m.timer_is_current(key, token);
                        let before = (observable(&m), format!("{:?}", h.rng));
                        let actions = m.on_timer(&mut h.ctx(), key, token);
                        if !live {
                            testkit::prop_assert!(actions.is_empty(), "stale {key:?} acted");
                            testkit::prop_assert_eq!(&before.0, &observable(&m));
                            testkit::prop_assert_eq!(&before.1, &format!("{:?}", h.rng));
                        }
                        actions
                    }
                    _ => {
                        h.now += SimDuration::from_millis(150 * u64::from(arg));
                        Vec::new()
                    }
                };
                for a in &actions {
                    if let GroupAction::ArmTimer { key, at, token } = a {
                        timers.push((*key, *at, *token));
                    }
                }
                roles[match m.role_kind() {
                    RoleKind::Idle => 0,
                    RoleKind::Member(_) => 1,
                    RoleKind::Leader(_) => 2,
                }] = true;
            }
            // Cheap guard against the walk degenerating: a long unpinned one
            // that never left idle means the inputs above stopped working.
            testkit::prop_assert!(pinned || ops.len() < 100 || roles[1] || roles[2]);
        }

        /// What the one `arm` states: the token in an `ArmTimer` is the one
        /// the slot `on_timer` routes that key to is waiting for. Over
        /// random walks through every role, the latest arming of a key is
        /// never a stale no-op — firing it acts or changes the machine — for
        /// as long as its slot lives: until the key is armed again, the role
        /// that owns it ends, or the formation jitter is called off.
        #[test]
        fn the_latest_arming_of_a_key_is_never_stale(
            ops in testkit::prop::collection::vec((0u8..6, 0u32..8), 1..120),
        ) {
            let mut h = Harness::new();
            h.cfg.directory_enabled = true;
            let mut m = machine(1);
            let mut live: Vec<(GroupTimer, Timestamp, TimerToken)> = Vec::new();
            let observable = |m: &GroupMachine| (m.role_kind(), m.formation.deadline());
            for &(op, arg) in &ops {
                h.sample.set(Channel::Magnetic, f64::from(arg % 4 / 2));
                let before = observable(&m);
                let actions = match op {
                    0 | 1 => m.on_sense_tick(&mut h.ctx()),
                    2 => m.on_heartbeat(&mut h.ctx(), &hb(label(9, 0), 9, arg, arg)),
                    3 => {
                        let own = m.current_label().unwrap_or(label(8, 3));
                        m.on_heartbeat(&mut h.ctx(), &hb(own, 7, 4 * arg, arg))
                    }
                    _ if !live.is_empty() => {
                        let (key, at, token) = live.remove(arg as usize % live.len());
                        h.now = h.now.max(at);
                        let current = m.timer_is_current(key, token);
                        testkit::prop_assert!(current, "{key:?} called stale");
                        let actions = m.on_timer(&mut h.ctx(), key, token);
                        let acted = !actions.is_empty() || observable(&m) != before;
                        testkit::prop_assert!(acted, "{key:?} armed for {at} was stale");
                        actions
                    }
                    _ => Vec::new(),
                };
                let after = observable(&m);
                live.retain(|&(key, ..)| match key {
                    GroupTimer::Formation => after.1.is_some(),
                    _ => after.0 == before.0,
                });
                for a in &actions {
                    if let GroupAction::ArmTimer { key, at, token } = a {
                        live.retain(|(k, ..)| k != key);
                        live.push((*key, *at, *token));
                    }
                }
            }
        }
    }
}
