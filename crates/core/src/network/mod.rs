//! The assembled sensor network: middleware instances on every node, glued
//! to the radio medium, the mote CPUs, geographic routing, the directory,
//! and the transport layer — all driven by the discrete-event engine.
//!
//! [`SensorNetwork`] is the concrete world type for
//! [`envirotrack_sim::engine::Engine`]. Build one with
//! [`SensorNetwork::build_engine`] and run it:
//!
//! ```
//! use std::sync::Arc;
//! use envirotrack_core::api::Program;
//! use envirotrack_core::context::SensePredicate;
//! use envirotrack_core::network::{NetworkConfig, SensorNetwork};
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::scenario::TankScenario;
//! use envirotrack_world::target::Channel;
//!
//! let program = Arc::new(
//!     Program::builder()
//!         .context("tracker", |c| c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5)))
//!         .build()
//!         .unwrap(),
//! );
//! let world = TankScenario::default().build();
//! let mut engine = SensorNetwork::build_engine(
//!     program,
//!     world.deployment,
//!     world.environment,
//!     NetworkConfig::default(),
//!     42,
//! );
//! engine.run_until(Timestamp::from_secs(30));
//! // The tank has entered the field: exactly one live tracker group leads it.
//! let leaders = engine.world().leaders_of_type(envirotrack_core::context::ContextTypeId(0));
//! assert!(leaders.len() <= 1 || !leaders.is_empty());
//! ```
//!
//! ## Processing model
//!
//! Every logical task on a node passes through its
//! [`MoteCpu`](envirotrack_node::cpu::MoteCpu): received
//! frames are **dropped** when the CPU backlog bound is exceeded (receive
//! overflow), timer handlers are **delayed** until the backlog drains, and
//! sensing ticks are **skipped**. This reproduces the paper's finding that
//! CPU processing — not channel bandwidth — is what limits tracking at very
//! small heartbeat periods.
//!
//! ## Layers
//!
//! [`SensorNetwork`] owns the world and wires it to the kernel: every
//! scheduled event, and every hand-over between layers, goes through this
//! file. The layers (`link`, `dir`, `mtp`, the machines of [`crate::group`])
//! are functions over their own per-node state that say what should happen
//! next; none sees the world. DESIGN.md §17 has what each takes and owns.

mod build;
mod control;
mod dir;
mod events;
mod inspect;
mod link;
mod mtp;
mod node;
mod sense;
mod words;

use std::sync::Arc;

use bytes::Bytes;
use envirotrack_net::medium::{DeliveryOutcome, Medium, ResolvedTx, TxId, TxKey};
use envirotrack_net::packet::Frame;
use envirotrack_net::routing::GeoRouter;
use envirotrack_node::cpu::costs;
use envirotrack_sim::engine::Kernel;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::sensing::Environment;

pub use self::build::NetworkConfig;
pub use self::control::FaultEvent;
use self::dir::Failover;
use self::events::Recorder;
use self::link::Decoded;
pub use self::link::LinkReliability;
use self::node::{NodeState, SenseState};
pub use self::sense::SensingWork;
pub(crate) use self::words::MAX_TIMER_METHODS;
use crate::api::Program;
use crate::context::{ContextLabel, ContextTypeId};
use crate::directory::{self, replica_set};
use crate::events::SystemEvent;
use crate::group::{GroupAction, GroupCtx, GroupMachine, RoleKind};
use crate::object::IncomingMessage;
use crate::report::{BaseStationLog, ReportEntry};
use crate::shard::ShardState;
use crate::transport::{self, LeaderLoc, Outstanding, PendingSend, Port};
use crate::wire::{kinds, BaseReport, DirRegister, DirResponse, GeoForward, Message, MtpSegment};

/// The simulation world. See the [module docs](self).
pub struct SensorNetwork {
    program: Arc<Program>,
    config: NetworkConfig,
    deployment: Deployment,
    environment: Environment,
    medium: Medium,
    router: GeoRouter,
    /// Per-node state in two parallel arrays indexed by node id: the hot
    /// record a sensing tick lives in, and everything else.
    sense: Vec<SenseState>,
    nodes: Vec<NodeState>,
    /// The sensing driver's coverage of `environment` and its work counters.
    sensing: sense::Sensing,
    /// Event log, telemetry handle and label cache, lent to whichever
    /// layer has something to record.
    rec: Recorder,
    base_log: BaseStationLog,
    app_log: Vec<(Timestamp, NodeId, String)>,
    /// Sharded-execution state (`None` for monolithic runs). When set, this
    /// world drives only its owned nodes and diverts transmit requests to
    /// an outbox exchanged at epoch barriers — see [`crate::shard`].
    shard: Option<ShardState>,
    /// Test hook: keep every sensing loop off the kernel's recurring lane,
    /// so a test can pin that the lane changes no byte of a run.
    #[cfg(test)]
    sense_loops_on_heap: bool,
    /// Test hook: send every admitted sensing tick into the group machines,
    /// so a test can pin that the quiescent test changes no byte of a run.
    #[cfg(test)]
    ticks_enter_machines: bool,
}

type K = Kernel<SensorNetwork>;

impl SensorNetwork {
    // ------------------------------------------------------------------
    // Control: failure injection and chaos hooks
    // ------------------------------------------------------------------

    /// Kills a node: it stops sensing, processing, and transmitting.
    pub fn kill_node(&mut self, node: NodeId) {
        self.sense[node.index()].alive = false;
    }

    /// Revives a previously killed node with cleared protocol state. Its
    /// sensing loop needs no restart: a dead node's loop keeps ticking
    /// (doing nothing) and resumes work on the first tick after revival,
    /// on the phase it always had.
    pub fn revive_node(&mut self, node: NodeId) {
        let i = node.index();
        node::reboot(node, &mut self.sense[i], &mut self.nodes[i], &self.program);
    }

    /// Applies one fault at `now` (see [`FaultEvent`]).
    ///
    /// # Panics
    ///
    /// Panics on a clock rate outside the bounded-skew range `[0.5, 2.0]` —
    /// the protocol makes no claims under unbounded drift.
    pub fn apply_fault(&mut self, now: Timestamp, fault: &FaultEvent) {
        let shard = self.shard.as_ref();
        let drives = |node| shard.is_none_or(|s| s.owns(node));
        fault.apply(
            now,
            &mut self.medium,
            &mut self.sense,
            &mut self.nodes,
            &self.program,
            drives,
        );
    }

    /// Delivers a frame straight into one node's receive path, exactly as
    /// the medium does after airtime. A corruption-corpus hook: tests
    /// build a frame (stamping [`Frame::shadow`] from the pristine
    /// payload), garble `payload` in place, and inject — then hold the
    /// per-kind corrupt-drop counters to exact expected values.
    pub fn inject_frame(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, frame: Frame) {
        let airtime = self.config.radio.tx_time(&frame);
        self.receive(k, node, &frame, airtime, &mut None);
    }

    /// Triggers an immediate anti-entropy push (with pull) on every live
    /// replica of every context type. Chaos harnesses call this right
    /// after healing a partition so divergent replicas repair in one
    /// exchange instead of waiting out the gossip period. A no-op at
    /// replication factor 1 (a lone replica has no peer to push to); works
    /// whether or not periodic gossip is on.
    pub fn kick_directory_gossip(&mut self, k: &mut Kernel<SensorNetwork>) {
        for tid in self.program.type_ids() {
            for node in self.directory_replicas_of(tid) {
                if self.sense[node.index()].alive {
                    self.push_dir_sync(k, node, tid);
                }
            }
        }
    }

    /// Enables or disables the medium's delivery audit log.
    pub fn set_delivery_log(&mut self, enabled: bool) {
        self.medium.set_delivery_log(enabled);
    }

    /// Drains the medium's delivery audit log.
    pub fn take_delivery_log(&mut self) -> Vec<(Timestamp, NodeId, NodeId)> {
        self.medium.take_delivery_log()
    }

    // ------------------------------------------------------------------
    // Sharded execution (driven by `shard::run_sharded`)
    // ------------------------------------------------------------------

    /// This replica's sharding state (outbox, buffer pools).
    ///
    /// # Panics
    ///
    /// Panics on a monolithic world.
    pub(crate) fn shard_mut(&mut self) -> &mut ShardState {
        self.shard
            .as_mut()
            .expect("not a shard replica built by run_sharded")
    }

    /// Takes the keys of transmissions that delivered to at least one owned
    /// receiver since the last drain, for the orchestrator's global
    /// `tx_lost` settlement. Empty for monolithic worlds.
    pub(crate) fn drain_shard_delivered(&mut self) -> Vec<TxKey> {
        self.medium.drain_delivered_keys()
    }

    /// Ingests the routed slice of one globally-resolved batch, in batch
    /// order. The transmit side (CSMA, MAC drops, garbling, duplication)
    /// was already decided once by the orchestrator's `ChannelScheduler`;
    /// this shard's executor only resolves receiver outcomes for its owned
    /// nodes when each transmission completes. Transmit energy is charged
    /// on the source's owning shard — which is always routed, so
    /// self-accounting never misses. The emptied buffer is stashed for the
    /// next epoch response.
    ///
    /// # Panics
    ///
    /// Panics on a monolithic world.
    pub(crate) fn inject_shard_resolved(&mut self, k: &mut K, mut batch: Vec<ResolvedTx>) {
        for rtx in batch.drain(..) {
            let src = rtx.frame.src;
            if self.owns(src) {
                // `end - start` is exactly the frame airtime: garbling
                // never touches `wire_len`, so the on-air cost the energy
                // model sees matches the monolithic `tx_time` charge.
                let airtime = rtx.end - rtx.start;
                self.nodes[src.index()].energy.charge_tx(airtime);
            }
            let (local, completes_at) = self.medium.ingest_resolved(rtx);
            k.schedule_inline_at(completes_at, Self::transmission_complete, [local, 0]);
        }
        self.shard_mut().stash_resolved(batch);
    }

    // ------------------------------------------------------------------
    // Group driver: group timers, machine inputs and actions (sensing loop: sense.rs)
    // ------------------------------------------------------------------

    /// A group-management timer firing; `words` say whose and which
    /// (`words.rs`).
    fn group_timer(&mut self, k: &mut K, words: [u64; 2]) {
        let (node, tid, key, token) = words::unpack(words);
        let hot = &mut self.sense[node.index()];
        if !hot.alive {
            return;
        }
        // Overload delays timer handling until the CPU drains.
        if !hot.admit(k.now(), costs::TIMER_HANDLE) {
            let retry = hot.cpu.busy_until() + SimDuration::from_millis(1);
            k.schedule_inline_at(retry.max(k.now()), Self::group_timer, words);
            return;
        }
        self.run_machine(k, node, tid, |machine, ctx| {
            machine.on_timer(ctx, key, token)
        });
    }

    /// Gives `node`'s machine for `tid` one input and carries out its answer.
    fn run_machine(
        &mut self,
        k: &mut K,
        node: NodeId,
        tid: ContextTypeId,
        f: impl FnOnce(&mut GroupMachine, &mut GroupCtx<'_>) -> Vec<GroupAction>,
    ) {
        let actions = self.drive_machine(k.now(), node, tid, f);
        self.apply_actions(k, node, tid, actions);
    }

    /// Runs one machine input with a fresh [`GroupCtx`]; the environment is
    /// sampled only if the handler reads [`GroupCtx::sample`].
    fn drive_machine(
        &mut self,
        now: Timestamp,
        node: NodeId,
        tid: ContextTypeId,
        f: impl FnOnce(&mut GroupMachine, &mut GroupCtx<'_>) -> Vec<GroupAction>,
    ) -> Vec<GroupAction> {
        let (hot, rt) = (&mut self.sense[node.index()], &mut self.nodes[node.index()]);
        let mut ctx = GroupCtx {
            now,
            cfg: &self.config.middleware,
            spec: self.program.spec(tid),
            subscriptions: self.program.subscriptions(tid),
            sensors: &self.environment,
            reading: None,
            position: hot.pos,
            rng: &mut rt.rng,
            telemetry: &self.rec.telemetry,
            labels: &self.rec.labels,
        };
        let actions = f(&mut rt.machines[tid.0 as usize], &mut ctx);
        hot.quiescent = sense::quiescent(&rt.machines);
        actions
    }

    fn apply_actions(
        &mut self,
        k: &mut K,
        node: NodeId,
        tid: ContextTypeId,
        actions: Vec<GroupAction>,
    ) {
        let now = k.now();
        for action in actions {
            let (pos, rt) = (self.sense[node.index()].pos, &mut self.nodes[node.index()]);
            match action {
                GroupAction::Broadcast(msg) => self.send_message(k, node, None, &msg),
                GroupAction::ArmTimer { key, at, token } => {
                    // Machines arm timers as delays on the node's local
                    // clock; convert through its clock model (exact
                    // identity at rate 1.0).
                    let fire_at = now + rt.clock.global_delay(at.saturating_since(now));
                    let words = words::pack(node, tid, key, token);
                    k.schedule_inline_at(fire_at, Self::group_timer, words);
                }
                GroupAction::Emit(event) => self.rec.record(now, node, event),
                GroupAction::RegisterDirectory { label } => {
                    let location = pos;
                    let home = self.directory_home(tid);
                    let msg = Message::DirRegister(DirRegister { label, location });
                    let replicas = self.config.middleware.directory_replicas;
                    if replicas <= 1 {
                        self.send_geo(k, node, home, None, msg);
                    } else {
                        // Fan the registration out to every replica
                        // explicitly; geo routing alone finds only the
                        // primary.
                        for target in replica_set(&self.deployment, home, replicas) {
                            self.send_to_node(k, node, target, msg.clone());
                        }
                    }
                }
                GroupAction::QueryDirectory { type_id } => {
                    self.issue_query(k, node, type_id, Some(tid), None)
                }
                GroupAction::SendToBase { label, payload } => {
                    if let Some(base) = self.config.base_station {
                        let report = BaseReport {
                            label,
                            generated_at: now,
                            payload,
                        };
                        self.send_to_node(k, node, base, Message::Base(report));
                    }
                }
                GroupAction::MtpSend {
                    dst_label,
                    dst_port,
                    payload,
                } => self.mtp_send(k, node, tid, dst_label, dst_port, payload),
                GroupAction::BecameLeader { label } => {
                    rt.mtp.learn(label, LeaderLoc { node, pos });
                }
                GroupAction::LostLeadership { label, new_leader } => {
                    if let Some(loc) = new_leader {
                        rt.mtp.leave_forward_pointer(label, loc, now);
                        rt.mtp.learn(label, loc);
                    }
                }
                GroupAction::AppLog(line) => self.app_log.push((now, node, line)),
            }
        }
    }

    // ------------------------------------------------------------------
    // Receive pipeline: medium → link → dispatch
    // ------------------------------------------------------------------

    /// A transmission finished serialising: every receiver that got it
    /// intact — and that this world drives; a shard's peers replay the same
    /// transmission for theirs — takes it through `receive`, all of them
    /// off one decode of the payload. An inline event: `[id, _]`.
    fn transmission_complete(&mut self, k: &mut K, [id, _]: [u64; 2]) {
        let report = self.medium.deliveries(TxId(id));
        // A link-duplicated frame is processed twice end to end — that is
        // precisely what the dedup layers (link_seq, MTP seq, hb_seq) are
        // under test against.
        let passes = if report.duplicated { 2 } else { 1 };
        // Worked out once for all receivers: the airtime each radio spent
        // listening, and (on demand) the decode of the payload.
        let airtime = self.config.radio.tx_time(&report.frame);
        let mut decoded = None;
        for _ in 0..passes {
            for (receiver, outcome) in &report.outcomes {
                if *outcome == DeliveryOutcome::Delivered && self.owns(*receiver) {
                    self.receive(k, *receiver, &report.frame, airtime, &mut decoded);
                }
            }
        }
        // Hand the outcome buffer back so the next broadcast reuses it.
        self.medium.recycle(report);
    }

    /// A frame arrived intact at `node`: charge the radio and the CPU, run
    /// it through the link layer, and hand up what comes out.
    fn receive(
        &mut self,
        k: &mut K,
        node: NodeId,
        frame: &Frame,
        airtime: SimDuration,
        decoded: &mut Decoded,
    ) {
        // A unicast frame means nothing to the neighbours that overheard it.
        if !frame.link_dst.accepts(node) {
            return;
        }
        let (hot, rt) = (&mut self.sense[node.index()], &mut self.nodes[node.index()]);
        // The radio spent the airtime decoding the frame whatever the CPU
        // does next; an overloaded one drops it (receive overflow).
        if hot.alive {
            rt.energy.charge_rx(airtime);
        }
        if !hot.admit(k.now(), costs::RX_HANDLE) {
            return;
        }
        let Some(rx) = rt.link.receive(&self.config.link, node, frame, decoded) else {
            // Dropped without touching protocol state.
            self.rec.corrupt_drop(frame.kind);
            return;
        };
        // The accepted-corrupt invariant the chaos monitor checks must stay
        // at zero; counted per accepting receiver.
        if !rx.pristine {
            self.rec.telemetry.incr("net.corrupt_accepted");
        }
        if let Some(ack) = rx.ack {
            self.transmit(k, node, ack);
        }
        if let Some(msg) = rx.deliver {
            self.dispatch(k, node, msg);
        }
    }

    /// Hands a message that reached `node` — off the air, or from the node
    /// itself when it is its own destination — to the layer it is for.
    fn dispatch(&mut self, k: &mut K, node: NodeId, msg: &Message) {
        let now = k.now();
        let ttl = directory::ENTRY_TTL;
        match msg {
            Message::Heartbeat(hb) if self.hosts(hb.label.type_id) => {
                // The transport layer snoops leadership from heartbeats.
                let leader = LeaderLoc {
                    node: hb.leader,
                    pos: hb.leader_pos,
                };
                self.nodes[node.index()].mtp.learn(hb.label, leader);
                self.run_machine(k, node, hb.label.type_id, |m, ctx| m.on_heartbeat(ctx, hb));
            }
            Message::Report(r) if self.hosts(r.label.type_id) => {
                self.run_machine(k, node, r.label.type_id, |m, _| {
                    m.on_report(r);
                    Vec::new()
                });
            }
            Message::Relinquish(r) if self.hosts(r.label.type_id) => {
                self.run_machine(k, node, r.label.type_id, |m, ctx| m.on_relinquish(ctx, r));
            }
            // Group traffic for a context type this program does not have.
            Message::Heartbeat(_) | Message::Report(_) | Message::Relinquish(_) => {}
            Message::Geo(geo) => match self.next_hop(node, geo.dest, geo.deliver_to) {
                None => self.dispatch(k, node, &geo.inner),
                Some(next) => {
                    // Count intermediate hops taken by directory traffic
                    // specifically.
                    if geo.inner.kind() == kinds::DIRECTORY {
                        self.rec.telemetry.incr("dir.hop");
                    }
                    self.send_message(k, node, Some(next), msg);
                }
            },
            Message::Mtp(seg) => self.on_mtp_segment(k, node, seg),
            Message::MtpAckMsg(ack) => {
                mtp::on_ack(&mut self.nodes[node.index()].mtp, ack, node, now, &self.rec);
            }
            Message::DirRegister(reg) => {
                let dir = &mut self.nodes[node.index()].dir;
                dir.register(reg, node, now, ttl, &self.rec);
            }
            Message::DirQuery(q) => {
                let resp = self.nodes[node.index()]
                    .dir
                    .answer(q, node, now, ttl, &self.rec);
                self.send_geo(k, node, q.reply_pos, Some(q.reply_to), resp);
            }
            Message::DirResponse(resp) => self.on_dir_response(k, node, resp),
            Message::DirSyncMsg(sync) => {
                let dir = &mut self.nodes[node.index()].dir;
                if let Some(reply) = dir.merge(sync, node, now, ttl, &self.rec) {
                    self.send_to_node(k, node, sync.from, reply);
                }
            }
            Message::Base(b) => {
                if Some(node) == self.config.base_station {
                    self.base_log.record(ReportEntry {
                        received_at: now,
                        generated_at: b.generated_at,
                        label: b.label,
                        payload: b.payload.clone(),
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Directory service wiring
    // ------------------------------------------------------------------

    /// Opens a directory query from `node` for the live labels of
    /// `target_type` — for `asker`'s subscription view, or to resolve the
    /// destination of `park`, an MTP send that waits on the answer. Whatever
    /// waited longer than [`transport::PENDING_TTL`] on an earlier query is given up
    /// on first.
    fn issue_query(
        &mut self,
        k: &mut K,
        node: NodeId,
        target_type: ContextTypeId,
        asker: Option<ContextTypeId>,
        park: Option<MtpSegment>,
    ) {
        let now = k.now();
        let ttl = transport::PENDING_TTL;
        let rt = &mut self.nodes[node.index()];
        for expired in rt.mtp.sweep(now, ttl) {
            self.rec.telemetry.incr("mtp.pending_expired");
            self.rec.mtp_dropped(now, node, expired.segment.dst_label);
        }
        let query_id = rt.dir.issue(target_type, asker, now, ttl);
        // Parked before the query leaves: this node may be the home itself,
        // and then the answer is back before `send_query` returns.
        if let Some(segment) = park {
            rt.mtp.park(PendingSend {
                segment,
                query_id,
                parked_at: now,
            });
        }
        self.send_query(k, node, query_id, target_type, None);
    }

    /// Sends query `query_id` to `replica` — or, with none named, wherever
    /// geo routing finds the type's home — and arms its failover timer; not
    /// at replication factor 1, whose runs schedule no extra kernel events.
    fn send_query(
        &mut self,
        k: &mut K,
        node: NodeId,
        query_id: u32,
        target_type: ContextTypeId,
        replica: Option<NodeId>,
    ) {
        let msg = dir::query(query_id, target_type, node, self.sense[node.index()].pos);
        match replica {
            Some(target) => self.send_to_node(k, node, target, msg),
            None => self.send_geo(k, node, self.directory_home(target_type), None, msg),
        }
        if self.config.middleware.directory_replicas > 1 {
            k.schedule_at(k.now() + directory::QUERY_TIMEOUT, move |w, k| {
                w.query_failover(k, node, query_id)
            });
        }
    }

    /// Re-issues an unanswered directory query to the next replica, or
    /// fails it — dropping any MTP sends parked on it — once the replica
    /// set is exhausted.
    fn query_failover(&mut self, k: &mut K, node: NodeId, query_id: u32) {
        if !self.sense[node.index()].alive {
            return;
        }
        let rt = &mut self.nodes[node.index()];
        let replicas = self.config.middleware.directory_replicas;
        match rt
            .dir
            .failover(query_id, replicas.min(self.deployment.len()))
        {
            Failover::Settled => {}
            Failover::Exhausted => {
                for send in rt.mtp.take_pending(query_id) {
                    self.rec.mtp_dropped(k.now(), node, send.segment.dst_label);
                }
            }
            Failover::Retry {
                target_type,
                attempt,
            } => {
                let target = self.directory_replicas_of(target_type)[attempt];
                self.send_query(k, node, query_id, target_type, Some(target));
            }
        }
    }

    fn on_dir_response(&mut self, k: &mut K, node: NodeId, resp: &DirResponse) {
        let rt = &mut self.nodes[node.index()];
        let Some(query) = rt.dir.settle(resp.query_id) else {
            return;
        };
        // Subscription query: install the view into the asking machine.
        if let Some(asker) = query.asker {
            rt.machines[asker.0 as usize]
                .on_directory_entries(query.target_type, resp.entries.clone());
            return;
        }
        // MTP resolution query: release the parked sends.
        for PendingSend { segment, .. } in rt.mtp.take_pending(resp.query_id) {
            let dst = segment.dst_label;
            match resp.entries.iter().find(|(label, _)| *label == dst) {
                Some((_, location)) => self.send_segment(k, node, segment, *location, None),
                None => self.rec.mtp_dropped(k.now(), node, dst),
            }
        }
    }

    /// One periodic anti-entropy round on a replica: push the local digest
    /// to the next replica in ring order (with the pull flag set), then
    /// re-arm.
    fn gossip_tick(&mut self, k: &mut K, node: NodeId, tid: ContextTypeId) {
        let period = self.config.middleware.directory_gossip_period;
        // Reschedule first so the round survives any processing below.
        k.schedule_at(k.now() + period, move |w, k| w.gossip_tick(k, node, tid));
        // Overloaded CPUs skip the round; the next period retries.
        if self.sense[node.index()].admit(k.now(), costs::TIMER_HANDLE) {
            self.push_dir_sync(k, node, tid);
        }
    }

    /// Pushes `node`'s digest for `tid` to its ring successor, pulling the peer's.
    fn push_dir_sync(&mut self, k: &mut K, node: NodeId, tid: ContextTypeId) {
        let Some(peer) = dir::ring_successor(&self.directory_replicas_of(tid), node) else {
            return;
        };
        let dir = &self.nodes[node.index()].dir;
        if let Some(digest) = dir.digest(tid, node, true, &self.rec) {
            self.send_to_node(k, node, peer, digest);
        }
    }

    // ------------------------------------------------------------------
    // MTP wiring
    // ------------------------------------------------------------------

    fn mtp_send(
        &mut self,
        k: &mut K,
        node: NodeId,
        tid: ContextTypeId,
        dst_label: ContextLabel,
        dst_port: Port,
        payload: Bytes,
    ) {
        let rt = &mut self.nodes[node.index()];
        let Some(src_label) = rt.machines[tid.0 as usize].current_label() else {
            return; // lost leadership between invocation and send
        };
        // Every transmission of the segment — first or repeated — starts a
        // fresh forwarding chain from here.
        let segment = MtpSegment {
            src_label,
            src_port: Port(0),
            dst_label,
            dst_port,
            src_leader: node,
            src_leader_pos: self.sense[node.index()].pos,
            chain_hops: 0,
            seq: 0,
            payload,
        };
        match rt.mtp.lookup(dst_label) {
            Some(loc) => self.send_segment(k, node, segment, loc.pos, Some(loc.node)),
            // Park the send and resolve through the directory.
            None if self.config.middleware.directory_enabled => {
                self.issue_query(k, node, dst_label.type_id, None, Some(segment));
            }
            None => self.rec.mtp_dropped(k.now(), node, dst_label),
        }
    }

    fn send_segment(
        &mut self,
        k: &mut K,
        node: NodeId,
        segment: MtpSegment,
        dest: Point,
        deliver_to: Option<NodeId>,
    ) {
        let mw = &self.config.middleware;
        let mtp = &mut self.nodes[node.index()].mtp;
        let (segment, retry) = mtp::open(mtp, segment, k.now(), mw, &self.rec);
        if let Some(seq) = retry {
            let first = k.now() + transport::RETX.timeout;
            k.schedule_at(first, move |w, k| w.mtp_retry(k, node, seq));
        }
        self.send_geo(k, node, dest, deliver_to, segment);
    }

    fn mtp_retry(&mut self, k: &mut K, node: NodeId, seq: u32) {
        if !self.sense[node.index()].alive {
            return;
        }
        let rt = &mut self.nodes[node.index()];
        let now = k.now();
        let again = mtp::retry(&mut rt.mtp, &mut rt.retx_rng, seq, node, now, &mut self.rec);
        if let Some((out, jitter, backoff)) = again {
            k.schedule_at(now + jitter + backoff, move |w, k| {
                w.mtp_retry(k, node, seq)
            });
            k.schedule_at(now + jitter, move |w, k| w.mtp_resend(k, node, out));
        }
    }

    fn mtp_resend(&mut self, k: &mut K, node: NodeId, out: Outstanding) {
        if !self.sense[node.index()].alive {
            return;
        }
        let rt = &mut self.nodes[node.index()];
        if let Some((loc, segment)) = mtp::resend(&mut rt.mtp, out, k.now()) {
            self.send_geo(k, node, loc.pos, Some(loc.node), segment);
        }
    }

    fn on_mtp_segment(&mut self, k: &mut K, node: NodeId, seg: &MtpSegment) {
        let (now, mw) = (k.now(), &self.config.middleware);
        let (dst_label, tid) = (seg.dst_label, seg.dst_label.type_id);
        let hosted = self.hosts(tid);
        let rt = &mut self.nodes[node.index()];
        let leads = hosted.then(|| {
            matches!(
                rt.machines[tid.0 as usize].role_kind(),
                RoleKind::Leader(l) if l == dst_label
            )
        });
        let here = LeaderLoc {
            node,
            pos: self.sense[node.index()].pos,
        };
        let arrival = mtp::arrive(&mut rt.mtp, seg, here, leads, now, mw, &mut self.rec);
        if let Some((loc, msg)) = arrival.send {
            self.send_geo(k, node, loc.pos, Some(loc.node), msg);
        }
        if !arrival.deliver {
            return;
        }
        let Some(method) = self.program.method_for_port(tid, seg.dst_port) else {
            return;
        };
        let incoming = IncomingMessage {
            src_label: seg.src_label,
            src_port: seg.src_port,
            payload: seg.payload.clone(),
        };
        let actions = self.drive_machine(now, node, tid, |machine, ctx| {
            machine.deliver_mtp(ctx, incoming, method)
        });
        let delivered = SystemEvent::MtpDelivered {
            label: dst_label,
            node,
            chain_hops: seg.chain_hops,
        };
        self.rec.record(now, node, delivered);
        self.apply_actions(k, node, tid, actions);
    }

    // ------------------------------------------------------------------
    // Send path: geo routing → link → medium
    // ------------------------------------------------------------------

    /// Sends a message towards a field coordinate; delivers locally when
    /// this node is already the home (or the explicit recipient).
    fn send_geo(
        &mut self,
        k: &mut K,
        from: NodeId,
        dest: Point,
        deliver_to: Option<NodeId>,
        inner: Message,
    ) {
        match self.next_hop(from, dest, deliver_to) {
            None => self.dispatch(k, from, &inner),
            Some(next) => {
                let geo = Message::Geo(GeoForward {
                    dest,
                    deliver_to,
                    inner: Box::new(inner),
                });
                self.send_message(k, from, Some(next), &geo);
            }
        }
    }

    fn send_to_node(&mut self, k: &mut K, from: NodeId, to: NodeId, msg: Message) {
        self.send_geo(k, from, self.deployment.position(to), Some(to), msg);
    }

    /// Frames `msg` — unicast to `to`, or broadcast — and sends it.
    fn send_message(&mut self, k: &mut K, from: NodeId, to: Option<NodeId>, msg: &Message) {
        let frame = match to {
            Some(next) => Frame::unicast(from, next, msg.kind(), msg.encode()),
            None => Frame::broadcast(from, msg.kind(), msg.encode()),
        };
        let cfg = &self.config.link;
        let link = &mut self.nodes[from.index()].link;
        let (frame, retry) = link.admit(cfg, frame);
        if let Some(seq) = retry {
            k.schedule_at(k.now() + link::ACK_TIMEOUT, move |w, k| {
                w.link_retry(k, from, seq)
            });
        }
        self.transmit(k, from, frame);
    }

    /// Retransmits an unacknowledged unicast frame after a random delay
    /// (which decorrelates it from whatever collided with the last copy),
    /// or gives up after [`link::MAX_ATTEMPTS`].
    fn link_retry(&mut self, k: &mut K, node: NodeId, seq: u32) {
        if !self.sense[node.index()].alive {
            return;
        }
        let rt = &mut self.nodes[node.index()];
        let Some(frame) = rt.link.retry(link::MAX_ATTEMPTS, seq) else {
            return;
        };
        let jitter = rt.rng.below(link::RETRY_JITTER_MAX.as_micros());
        let retry_at = k.now() + SimDuration::from_micros(jitter);
        k.schedule_at(retry_at + link::ACK_TIMEOUT, move |w, k| {
            w.link_retry(k, node, seq)
        });
        k.schedule_at(retry_at, move |w, k| w.transmit(k, node, frame));
    }

    fn transmit(&mut self, k: &mut K, node: NodeId, frame: Frame) {
        let cpu = &mut self.sense[node.index()].cpu;
        let energy = &mut self.nodes[node.index()].energy;
        let shard = self.shard.as_mut();
        let sent = link::transmit(cpu, energy, &mut self.medium, shard, k.now(), frame);
        if let Some(tx) = sent {
            k.schedule_inline_at(tx.completes_at, Self::transmission_complete, [tx.id.0, 0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateFn, AggregateInput};
    use crate::api::Program;
    use crate::config::MiddlewareConfig;
    use crate::context::SensePredicate;
    use crate::report::telemetry_to_jsonl;
    use envirotrack_world::scenario::TankScenario;
    use envirotrack_world::sensing::NoiseModel;
    use envirotrack_world::target::Channel;

    /// A tracker type, `with_post` beside a pinned type.
    fn program(with_post: bool) -> Arc<Program> {
        let mut program = Program::builder().context("tracker", |c| {
            c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                .aggregate(
                    "location",
                    AggregateFn::CenterOfGravity,
                    AggregateInput::Position,
                    SimDuration::from_secs(1),
                    2,
                )
        });
        if with_post {
            program = program.context("post", |c| c.pinned(Point::new(3.0, 15.0)));
        }
        Arc::new(program.build().expect("a valid program"))
    }

    fn tracker() -> Arc<Program> {
        program(false)
    }

    /// A tank crossing a 20 × 20 field of noisy sensors for 5 s, a pinned
    /// object to one side, with a clock slowed at 1 s and a node near the
    /// lane crashed at 1.5 s and rebooted at 3 s; `hook` sets a test hook
    /// first. Returns how the run was executed — the sensing loops left on
    /// the lane, the sensing work counters — and the run: `kernel.events`,
    /// the event log and the telemetry JSONL.
    fn faulted_run(hook: fn(&mut SensorNetwork)) -> ((usize, SensingWork), (u64, String, String)) {
        let scenario = TankScenario {
            lane_y: 9.5,
            sensing_radius: 1.5,
            ..TankScenario::default()
        }
        .with_grid(20, 20)
        .with_speed_hops_per_s(2.0)
        .build();
        let noise = NoiseModel::none().with_channel(Channel::Magnetic, 0.2);
        let mut engine = SensorNetwork::build_engine(
            program(true),
            scenario.deployment,
            scenario.environment.with_noise(noise),
            NetworkConfig::default(),
            7,
        );
        hook(engine.world_mut());
        let (slowed, crashed) = (NodeId(10 * 20 + 4), NodeId(9 * 20 + 3));
        let k = engine.kernel_mut();
        k.schedule_at(Timestamp::from_secs(1), move |w: &mut SensorNetwork, k| {
            let rate = 0.8;
            w.apply_fault(k.now(), &FaultEvent::ClockRate { node: slowed, rate });
        });
        k.schedule_at(
            Timestamp::from_millis(1500),
            move |w: &mut SensorNetwork, _| {
                w.kill_node(crashed);
            },
        );
        k.schedule_at(Timestamp::from_secs(3), move |w: &mut SensorNetwork, _| {
            w.revive_node(crashed);
        });
        engine.run_until(Timestamp::from_secs(5));
        let world = engine.world();
        let run = (
            world.telemetry().counter("kernel.events"),
            format!("{:?}", world.events().entries()),
            telemetry_to_jsonl(world.telemetry()),
        );
        ((engine.kernel().recurring_len(), world.sensing_work()), run)
    }

    /// The lane against the hook that sends every sensing tick through the
    /// heap. A tick off the lane is an inline heap event (`arm_sense_tick`),
    /// no longer a boxed closure, and means what it meant: the slowed node's
    /// ticks take that arm in both runs, all 400 nodes' in the hooked one,
    /// across the clock-rate change and the crash and reboot, and not a byte
    /// differs.
    #[test]
    fn the_recurring_lane_changes_no_byte_of_a_faulted_run() {
        let ((on_lane, _), run) = faulted_run(|_| {});
        assert_eq!(on_lane, 399, "all but the slowed node");
        let (events, log, telemetry) = &run;
        assert!(log.contains("LabelCreated") && telemetry.contains("group.hb"));
        assert!(
            *events > 400 * 25,
            "protocol events on top of 25 ticks per node"
        );
        let ((on_lane, _), on_heap) = faulted_run(|w| w.sense_loops_on_heap = true);
        assert_eq!((0, run), (on_lane, on_heap));
    }

    /// Every label of the run starts on a quiescent node whose reading the
    /// driver took and handed to the machine; with the hook the machine
    /// takes every reading itself, noise and all. The driver samples
    /// through the coverage and the machine walks the targets, so this
    /// also pins coverage against walk over a noisy run in which the tank
    /// crosses a cell, and so a coverage window, about every 0.48 s.
    #[test]
    fn the_quiescent_test_changes_no_byte_of_a_faulted_run() {
        let ((_, work), run) = faulted_run(|_| {});
        let sampled = work.coverage.answered + work.coverage.walked;
        assert!(work.admitted <= work.ticks && sampled <= work.admitted);
        assert!(
            work.coverage.answered > 9 * work.coverage.walked,
            "{work:?}"
        );
        assert!((10..=12).contains(&work.coverage.rebuilds), "{work:?}");
        let ((_, hooked), through_machines) = faulted_run(|w| w.ticks_enter_machines = true);
        assert_eq!(run, through_machines);
        assert_eq!(hooked.coverage, Default::default(), "every sample walked");
        assert_eq!((hooked.ticks, hooked.admitted), (work.ticks, work.admitted));
    }

    /// `traffic_dense`'s shape in small: wide targets over a short-range
    /// radio, so group timers and transmission completions are nearly all
    /// the heap holds. Every one of them was a boxed closure once.
    #[test]
    fn a_hot_radio_boxes_next_to_none_of_its_events() {
        use envirotrack_world::scenario::ScaleScenario;
        let scenario = ScaleScenario {
            nodes: 400,
            targets: 3,
            speed_hops_per_s: 1.0,
            sensing_radius: 3.0,
            ..ScaleScenario::default()
        }
        .build();
        let mut config = NetworkConfig::default();
        config.radio = config.radio.with_comm_radius(2.5);
        config.middleware.proximity_radius = 3.0;
        let (field, targets) = (scenario.deployment, scenario.environment);
        let mut engine = SensorNetwork::build_engine(tracker(), field, targets, config, 1);
        engine.run_until(Timestamp::from_secs(10));
        let work = engine.kernel().event_work();
        let ticks = engine.world().sensing_work().ticks;
        assert_eq!(work.lane_pops, ticks, "no clock is skewed");
        assert!(engine.world().net_stats().sum(|k| k.tx) > 500, "{work:?}");
        let heap_path = work.inline_scheduled + work.boxed_scheduled;
        assert!(work.heap_pops <= heap_path && heap_path > 5_000, "{work:?}");
        assert!(work.boxed_scheduled * 20 <= heap_path, "{work:?}");
    }

    #[test]
    fn the_hot_record_is_one_cache_line() {
        assert_eq!(std::mem::align_of::<SenseState>(), 64);
        assert!(std::mem::size_of::<SenseState>() <= 64);
    }

    #[test]
    fn a_pending_formation_ends_quiescence_and_a_reboot_restores_it() {
        let scenario = TankScenario::default().with_speed_hops_per_s(0.5).build();
        let mut engine = SensorNetwork::build_engine(
            tracker(),
            scenario.deployment,
            scenario.environment,
            NetworkConfig::default(),
            5,
        );
        let busy = |w: &SensorNetwork| w.sense.iter().position(|hot| !hot.quiescent);
        // Event by event up to the tick that first senses the tank.
        while busy(engine.world()).is_none() {
            engine.step().expect("the tank reaches the field");
        }
        let world = engine.world();
        let first = busy(world).expect("just found");
        let role = world.nodes[first].machines[0].role_kind();
        assert_eq!(role, RoleKind::Idle, "still waiting out its jitter");
        // A leader is not quiescent, dead or alive, until it reboots.
        engine.run_until(engine.kernel().now() + SimDuration::from_secs(3));
        let (leader, _) = engine.world().leaders_of_type(ContextTypeId(0))[0];
        let world = engine.world_mut();
        world.kill_node(leader);
        assert!(!world.sense[leader.index()].quiescent);
        world.revive_node(leader);
        assert!(world.sense[leader.index()].quiescent);
        let role = world.nodes[leader.index()].machines[0].role_kind();
        assert_eq!(role, RoleKind::Idle);
    }

    /// Without the skew guard the slow node's deadline, one of its longer
    /// periods away, becomes the lane's tail, and every tick armed before
    /// that instant goes to the heap: half the field at any moment.
    #[test]
    fn one_slow_clock_leaves_the_other_sensing_loops_on_the_lane() {
        let field = Deployment::grid(40, 25, 1.0);
        let mut engine = SensorNetwork::build_engine(
            tracker(),
            field,
            Environment::new(),
            NetworkConfig::default(),
            3,
        );
        let slow = FaultEvent::ClockRate {
            node: NodeId(500),
            rate: 0.5,
        };
        engine.world_mut().apply_fault(Timestamp::ZERO, &slow);
        // Sampled at instants spread over several of the slow node's periods.
        for ms in (450..=2_250).step_by(180) {
            engine.run_until(Timestamp::from_millis(ms));
            assert_eq!(engine.kernel().pending_events(), 1_000, "one tick per node");
            assert!(
                engine.kernel().recurring_len() >= 990,
                "only {} of 1000 pending ticks are on the lane at {ms} ms",
                engine.kernel().recurring_len()
            );
        }
    }

    /// At the default replication factor nothing retries a directory query,
    /// so one whose home is dead used to stay on the node for good, with
    /// the send parked on it.
    #[test]
    fn a_send_parked_on_a_lost_directory_query_expires() {
        use envirotrack_world::target::{Emission, Falloff, Target, TargetId, Trajectory};
        const TRACKER: ContextTypeId = ContextTypeId(0);
        let field = Deployment::grid(9, 9, 1.0);
        let config = NetworkConfig {
            middleware: MiddlewareConfig::default().with_directory(true),
            ..NetworkConfig::default()
        };
        let mut engine =
            SensorNetwork::build_engine(tracker(), field, Environment::new(), config, 11);
        // A stationary target in the corner farthest from the directory home.
        let home = engine.world().directory_replicas_of(TRACKER)[0];
        let home_at = engine.world().deployment().position(home);
        let corner = |c: f64| if c < 4.0 { 7.0 } else { 1.0 };
        engine.world_mut().environment.add_target(Target::new(
            TargetId(0),
            Trajectory::stationary(Point::new(corner(home_at.x), corner(home_at.y))),
            vec![Emission {
                channel: Channel::Magnetic,
                strength: 1.0,
                falloff: Falloff::Disk { radius: 1.2 },
            }],
        ));
        // The leader sends to a label nobody has heard of, twice: while the
        // home is down, and again — past the TTL — once it is back.
        let send = |w: &mut SensorNetwork, k: &mut K| {
            let (leader, _) = w.leaders_of_type(TRACKER)[0];
            let nobody = ContextLabel {
                type_id: TRACKER,
                creator: NodeId(80),
                seq: 77,
            };
            w.mtp_send(
                k,
                leader,
                TRACKER,
                nobody,
                Port(1),
                Bytes::from_static(b"hello"),
            );
            leader
        };
        let k = engine.kernel_mut();
        k.schedule_at(Timestamp::from_secs(10), move |w, _| w.kill_node(home));
        k.schedule_at(Timestamp::from_secs(11), move |w, k| {
            send(w, k);
        });
        engine.run_until(Timestamp::from_secs(16));
        let (leader, _) = engine.world().leaders_of_type(TRACKER)[0];
        let waiting = |w: &SensorNetwork| {
            let rt = &w.nodes[leader.index()];
            (rt.dir.pending_len(), rt.mtp.pending_len())
        };
        assert_eq!(waiting(engine.world()), (1, 1), "the query was lost");
        let dropped = |w: &SensorNetwork| {
            w.events()
                .count(|e| matches!(e, SystemEvent::MtpDropped { node, .. } if *node == leader))
        };
        assert_eq!(dropped(engine.world()), 0);

        let k = engine.kernel_mut();
        k.schedule_at(Timestamp::from_millis(16_500), move |w, _| {
            w.revive_node(home)
        });
        k.schedule_at(Timestamp::from_secs(17), move |w, k| {
            assert_eq!(send(w, k), leader, "a stationary target keeps its leader");
        });
        engine.run_until(Timestamp::from_secs(20));
        let world = engine.world();
        assert_eq!(waiting(world), (0, 0), "expired, and the second answered");
        assert_eq!(dropped(world), 2, "one expired, one resolved to nothing");
        assert_eq!(world.telemetry().counter("mtp.pending_expired"), 1);
    }
}
