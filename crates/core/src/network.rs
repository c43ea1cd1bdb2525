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
//! Every logical task on a node passes through its [`MoteCpu`]: received
//! frames are **dropped** when the CPU backlog bound is exceeded (receive
//! overflow), timer handlers are **delayed** until the backlog drains, and
//! sensing ticks are **skipped**. This reproduces the paper's finding that
//! CPU processing — not channel bandwidth — is what limits tracking at very
//! small heartbeat periods.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use envirotrack_net::medium::{
    DeliveryOutcome, GilbertElliott, LinkFaults, Medium, NetStats, RadioConfig, ResolvedTx, TxId,
    TxKey,
};
use envirotrack_net::packet::{Frame, FrameKind, LinkDest, WireCodec};
use envirotrack_net::routing::GeoRouter;
use envirotrack_node::cpu::{costs, CpuConfig, MoteCpu};
use envirotrack_node::energy::EnergyMeter;
use envirotrack_node::timer::TimerToken;
use envirotrack_sim::engine::{Engine, Kernel};
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{CounterHandle, Telemetry};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::sensing::Environment;

use crate::api::Program;
use crate::config::MiddlewareConfig;
use crate::context::{ContextLabel, ContextTypeId, LabelIntern};
use crate::directory::{hash_point, replica_set, DirectoryStore};
use crate::events::{EventLog, HandoverReason, SystemEvent};
use crate::group::{AggregateHealth, GroupAction, GroupCtx, GroupMachine, GroupTimer, RoleKind};
use crate::object::IncomingMessage;
use crate::report::{BaseStationLog, ReportEntry, RunRecord};
use crate::shard::{ShardFault, ShardState};
use crate::transport::{LeaderLoc, MtpState, Outstanding, Port, RetxPolicy};
use crate::wire::{
    BaseReport, DirQuery, DirRegister, DirResponse, DirSync, GeoForward, Heartbeat, Message,
    MtpAck, MtpSegment, Relinquish, Report,
};

/// Link-layer acknowledgement/retransmit parameters for *unicast* frames
/// (geo-routing hops). Broadcast protocol traffic — heartbeats, member
/// reports — stays unreliable, exactly as on the MICA MAC the paper used;
/// multi-hop unicast needs per-hop retries or a single hidden-terminal
/// collision silently kills an entire route.
#[derive(Debug, Clone)]
pub struct LinkReliability {
    /// Whether unicast frames are acknowledged and retransmitted.
    pub enabled: bool,
    /// How long the sender waits for an acknowledgement.
    pub ack_timeout: SimDuration,
    /// Total transmission attempts before giving up.
    pub max_attempts: u8,
    /// Upper bound on the random extra delay before a retransmission
    /// (decorrelates retries from the periodic traffic that collided with
    /// the original).
    pub retry_jitter_max: SimDuration,
}

impl Default for LinkReliability {
    fn default() -> Self {
        LinkReliability {
            enabled: true,
            ack_timeout: SimDuration::from_millis(120),
            max_attempts: 3,
            retry_jitter_max: SimDuration::from_millis(40),
        }
    }
}

/// Everything configurable about one simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Radio and MAC parameters.
    pub radio: RadioConfig,
    /// Middleware (group management, aggregation, directory, MTP).
    pub middleware: MiddlewareConfig,
    /// Mote CPU model.
    pub cpu: CpuConfig,
    /// Link-layer reliability for unicast frames.
    pub link: LinkReliability,
    /// The node acting as base station / pursuer interface, if any.
    pub base_station: Option<NodeId>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            radio: RadioConfig::default(),
            middleware: MiddlewareConfig::default(),
            cpu: CpuConfig::default(),
            link: LinkReliability::default(),
            base_station: Some(NodeId(0)),
        }
    }
}

/// A directory query in flight, correlating the response to its consumer.
#[derive(Debug, Clone, Copy)]
struct PendingQuery {
    query_id: u32,
    /// The type being queried.
    target_type: ContextTypeId,
    /// The local machine (context type) that asked, for subscription
    /// queries; `None` for MTP resolution queries.
    asker: Option<ContextTypeId>,
    /// Replica-failover attempts so far (0 = the initial geo-routed query).
    attempt: usize,
}

/// A node's local clock model: `local = anchor_local + (global −
/// anchor_global) · rate`. Rate 1.0 is a perfect clock; the anchors are
/// rebased whenever the rate changes so local time stays continuous (and
/// therefore monotonic — which the invariant monitor checks).
#[derive(Debug, Clone, Copy)]
struct NodeClock {
    rate: f64,
    anchor_global: Timestamp,
    anchor_local: SimDuration,
}

impl NodeClock {
    fn ideal() -> Self {
        NodeClock {
            rate: 1.0,
            anchor_global: Timestamp::ZERO,
            anchor_local: SimDuration::ZERO,
        }
    }

    /// The node's local clock reading at global instant `now`.
    fn local_time(&self, now: Timestamp) -> SimDuration {
        self.anchor_local + now.saturating_since(self.anchor_global).mul_f64(self.rate)
    }

    fn set_rate(&mut self, rate: f64, now: Timestamp) {
        self.anchor_local = self.local_time(now);
        self.anchor_global = now;
        self.rate = rate;
    }

    /// Converts a delay measured on this node's clock into global time: a
    /// fast clock (rate > 1) makes local delays elapse sooner.
    fn global_delay(&self, local: SimDuration) -> SimDuration {
        if (self.rate - 1.0).abs() < f64::EPSILON {
            local
        } else {
            local.mul_f64(1.0 / self.rate)
        }
    }
}

/// The per-node runtime: middleware machines plus node-local substrates.
struct NodeRuntime {
    id: NodeId,
    pos: Point,
    alive: bool,
    cpu: MoteCpu,
    rng: SimRng,
    machines: Vec<GroupMachine>,
    mtp: MtpState,
    directory: DirectoryStore,
    next_query_id: u32,
    pending_queries: Vec<PendingQuery>,
    next_link_seq: u32,
    pending_acks: Vec<PendingAck>,
    /// Recently seen unicast (src, seq) pairs, for retransmit dedup.
    seen_unicast: Vec<(NodeId, u32)>,
    /// Marginal radio energy (CPU energy derives from the CPU meter).
    energy: EnergyMeter,
    /// The node's local clock (skew/drift model).
    clock: NodeClock,
    /// Dedicated stream for MTP retransmission jitter, so enabling or
    /// disabling retransmission never perturbs the node's main RNG.
    retx_rng: SimRng,
}

/// An unacknowledged unicast frame awaiting retransmission.
struct PendingAck {
    seq: u32,
    frame: Frame,
    attempts: u8,
}

/// The simulation world. See the [module docs](self).
/// Decode state shared across one broadcast's delivery walk: the payload
/// is decoded — and hashed against its shadow — at most once no matter
/// how many receivers heard the frame.
enum BroadcastDecode {
    /// No receiver has needed the payload yet.
    Pending,
    /// Decoded once; all receivers dispatch off this shared value.
    /// `pristine` is [`Frame::payload_is_pristine`] for the same bytes.
    Ok { msg: Message, pristine: bool },
    /// The payload failed to decode; every receiver drops it.
    Corrupt,
}

pub struct SensorNetwork {
    program: Arc<Program>,
    config: NetworkConfig,
    deployment: Deployment,
    environment: Environment,
    medium: Medium,
    router: GeoRouter,
    nodes: Vec<NodeRuntime>,
    events: EventLog,
    base_log: BaseStationLog,
    app_log: Vec<(Timestamp, NodeId, String)>,
    /// Rendezvous coordinate per context type (directory homes).
    hash_points: Vec<Point>,
    /// The run-wide telemetry registry, shared (via cheap clones) with the
    /// kernel, the medium, and every per-node substrate.
    telemetry: Telemetry,
    /// Shared cache of label/type display strings: trace emission on the
    /// heartbeat/handover hot paths reuses one `Rc<str>` per label instead
    /// of re-formatting it per event.
    labels: LabelIntern,
    /// Pre-resolved `group.handover.<label>` counters, keyed by the packed
    /// label so the per-handover cost is an integer-map probe, not a
    /// format + string-keyed registry walk.
    handover_counters: RefCell<BTreeMap<u128, CounterHandle>>,
    /// Pre-resolved `net.k<kind>.corrupt` counters by `FrameKind.0`,
    /// resolved at a kind's first corrupt drop so that a kind which never
    /// drops one registers no counter.
    corrupt_counters: BTreeMap<u8, CounterHandle>,
    /// Sharded-execution state (`None` for monolithic runs). When set, this
    /// world drives only its owned nodes and diverts transmit requests to
    /// an outbox exchanged at epoch barriers — see [`crate::shard`].
    shard: Option<ShardState>,
    /// Test hook: keep every sensing loop off the kernel's recurring lane,
    /// so a test can pin that the lane changes no byte of a run.
    #[cfg(test)]
    sense_loops_on_heap: bool,
}

impl std::fmt::Debug for SensorNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorNetwork")
            .field("nodes", &self.nodes.len())
            .field("types", &self.program.context_count())
            .field("events", &self.events.len())
            .finish()
    }
}

impl SensorNetwork {
    /// Assembles the world. Prefer [`SensorNetwork::build_engine`], which
    /// also schedules the bootstrap.
    #[must_use]
    pub fn new(
        program: Arc<Program>,
        deployment: Deployment,
        environment: Environment,
        config: NetworkConfig,
        seed: u64,
    ) -> Self {
        config
            .middleware
            .validate()
            .expect("invalid middleware configuration");
        let master = SimRng::seed_from(seed);
        let telemetry = Telemetry::new();
        let mut medium = Medium::new(&deployment, config.radio.clone(), &master);
        medium.attach_telemetry(telemetry.clone());
        let router = GeoRouter::new(&deployment, config.radio.comm_radius);
        let bounds = deployment.bounds();
        let hash_points = program
            .type_ids()
            .map(|tid| hash_point(&program.spec(tid).name, bounds))
            .collect();
        let nodes = deployment
            .iter()
            .map(|(id, pos)| NodeRuntime {
                id,
                pos,
                alive: true,
                cpu: MoteCpu::new(config.cpu),
                rng: master.fork_indexed("node", u64::from(id.0)),
                machines: program
                    .type_ids()
                    .map(|tid| GroupMachine::new(id, tid, program.spec(tid)))
                    .collect(),
                mtp: MtpState::new(
                    config.middleware.mtp_table_capacity,
                    config.middleware.mtp_forward_ttl,
                    config.middleware.mtp_max_chain_hops,
                )
                .with_telemetry(telemetry.clone()),
                directory: DirectoryStore::new().with_telemetry(telemetry.clone()),
                next_query_id: 0,
                pending_queries: Vec::new(),
                next_link_seq: 0,
                pending_acks: Vec::new(),
                seen_unicast: Vec::new(),
                energy: EnergyMeter::new(),
                clock: NodeClock::ideal(),
                retx_rng: master.fork_indexed("mtp-retx", u64::from(id.0)),
            })
            .collect();
        SensorNetwork {
            program,
            config,
            deployment,
            environment,
            medium,
            router,
            nodes,
            events: EventLog::new(),
            base_log: BaseStationLog::new(),
            app_log: Vec::new(),
            hash_points,
            telemetry,
            labels: LabelIntern::new(),
            handover_counters: RefCell::new(BTreeMap::new()),
            corrupt_counters: BTreeMap::new(),
            shard: None,
            #[cfg(test)]
            sense_loops_on_heap: false,
        }
    }

    /// The run-wide telemetry registry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Builds the world *and* an engine with the bootstrap scheduled: every
    /// node's sensing loop starts with a per-node phase offset.
    #[must_use]
    pub fn build_engine(
        program: Arc<Program>,
        deployment: Deployment,
        environment: Environment,
        config: NetworkConfig,
        seed: u64,
    ) -> Engine<SensorNetwork> {
        SensorNetwork::new(program, deployment, environment, config, seed).into_engine(seed)
    }

    /// Builds one shard's replica of a sharded run: a complete world whose
    /// handlers drive only the nodes `shard_assignment` maps to
    /// `shard_idx`, with transmit requests diverted to the epoch outbox and
    /// the medium narrowed to the receiver side of those nodes — it only
    /// ingests the [`ResolvedTx`]es the orchestrator's central
    /// `ChannelScheduler` routes here. [`crate::shard::run_sharded`] owns
    /// the barrier protocol that drives the result.
    pub(crate) fn build_engine_sharded(
        program: Arc<Program>,
        deployment: Deployment,
        environment: Environment,
        config: NetworkConfig,
        seed: u64,
        shards: usize,
        shard_idx: usize,
    ) -> Engine<SensorNetwork> {
        assert!(shard_idx < shards, "shard index {shard_idx} out of {shards}");
        let mut world = SensorNetwork::new(program, deployment, environment, config, seed);
        let owners = envirotrack_world::grid::shard_assignment(
            &world.deployment,
            world.config.radio.comm_radius,
            shards,
        );
        let owned: Vec<bool> = owners.iter().map(|&s| s == shard_idx).collect();
        world.medium.enable_shard_exec(owned.clone());
        world.shard = Some(ShardState::new(owned));
        world.into_engine(seed)
    }

    /// Wraps the world in an engine with telemetry attached and the
    /// bootstrap scheduled at time zero.
    fn into_engine(self, seed: u64) -> Engine<SensorNetwork> {
        let telemetry = self.telemetry.clone();
        let mut engine = Engine::new(self, seed);
        engine.kernel_mut().attach_telemetry(telemetry);
        engine
            .kernel_mut()
            .schedule_at(Timestamp::ZERO, |w: &mut SensorNetwork, k| {
                w.bootstrap(k);
            });
        engine
    }

    /// Whether this world drives `node` (always true for monolithic runs).
    fn owns(&self, node: NodeId) -> bool {
        self.shard.as_ref().is_none_or(|s| s.owns(node))
    }

    fn bootstrap(&mut self, k: &mut Kernel<SensorNetwork>) {
        let period = self.config.middleware.sense_period;
        let mut starts = Vec::with_capacity(self.nodes.len());
        for id in self.deployment.ids() {
            // Sharded worlds start only their owned nodes' loops. Each
            // node's phase comes from its own forked RNG stream, so
            // skipping a node draws nothing and perturbs no other node.
            if !self.owns(id) {
                continue;
            }
            let phase = SimDuration::from_micros(
                self.nodes[id.index()].rng.below(period.as_micros().max(1)),
            );
            starts.push((phase, id));
        }
        // Armed in firing order — id order among equal phases, the order
        // arming by id gave them — every loop goes straight onto the kernel's
        // recurring lane and the heap never holds one entry per node.
        starts.sort_unstable();
        k.reserve_recurring(starts.len());
        for (phase, id) in starts {
            self.arm_sense_tick(k, k.now() + phase, id, true);
        }
        // Instantiate static (pinned) objects on their host nodes.
        for tid in self.program.type_ids() {
            let Some(at) = self.program.spec(tid).pinned else {
                continue;
            };
            let host = self.router.closest_node(at);
            if !self.owns(host) {
                continue;
            }
            let actions = self.drive_machine(k.now(), host, tid, |machine, ctx| {
                machine.instantiate_pinned(ctx)
            });
            self.apply_actions(k, host, tid, actions);
        }
        self.schedule_gossip(k);
    }

    /// Arms the first anti-entropy round on every directory replica. A
    /// no-op unless gossip is enabled with ≥ 2 replicas, so default runs
    /// schedule no extra kernel events (and draw no extra randomness —
    /// replica phases are staggered deterministically, not jittered).
    fn schedule_gossip(&mut self, k: &mut Kernel<SensorNetwork>) {
        let mw = &self.config.middleware;
        if !mw.directory_gossip_enabled || mw.directory_replicas <= 1 {
            return;
        }
        let period = mw.directory_gossip_period;
        for tid in self.program.type_ids() {
            let replicas = self.directory_replicas_of(tid);
            let k_len = replicas.len();
            for (i, node) in replicas.into_iter().enumerate() {
                // A sharded world arms only its owned replicas' timers; the
                // stagger index `i` still counts the full replica set, so
                // each replica's phase is shard-count invariant.
                if !self.owns(node) {
                    continue;
                }
                // Stagger replicas across the period so their pushes don't
                // pile onto the channel in one burst.
                let phase = period.mul_f64((i + 1) as f64 / (k_len + 1) as f64);
                k.schedule_at(k.now() + phase, move |w: &mut SensorNetwork, k| {
                    w.gossip_tick(k, node, tid);
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Inspection API (examples, tests, experiment harness)
    // ------------------------------------------------------------------

    /// The protocol event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The base station's received reports.
    #[must_use]
    pub fn base_log(&self) -> &BaseStationLog {
        &self.base_log
    }

    /// The application log lines emitted by object code.
    #[must_use]
    pub fn app_log(&self) -> &[(Timestamp, NodeId, String)] {
        &self.app_log
    }

    /// Channel statistics.
    #[must_use]
    pub fn net_stats(&self) -> &NetStats {
        self.medium.stats()
    }

    /// The ground-truth environment.
    #[must_use]
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The node deployment.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The middleware configuration in force.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of context types in the deployed program.
    #[must_use]
    pub fn context_type_count(&self) -> usize {
        self.program.context_count()
    }

    /// Current leaders of a context type as `(node, label)` pairs.
    #[must_use]
    pub fn leaders_of_type(&self, type_id: ContextTypeId) -> Vec<(NodeId, ContextLabel)> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| match n.machines[type_id.0 as usize].role_kind() {
                RoleKind::Leader(label) => Some((n.id, label)),
                _ => None,
            })
            .collect()
    }

    /// Current members (non-leader) of a label.
    #[must_use]
    pub fn members_of_label(&self, label: ContextLabel) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter(|n| {
                matches!(
                    n.machines[label.type_id.0 as usize].role_kind(),
                    RoleKind::Member(l) if l == label
                )
            })
            .map(|n| n.id)
            .collect()
    }

    /// Aggregate CPU statistics: `(admitted, dropped)` over all nodes.
    #[must_use]
    pub fn cpu_totals(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(a, d), n| {
            let s = n.cpu.stats();
            (a + s.admitted, d + s.dropped)
        })
    }

    /// Whether a node is alive.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// The directory rendezvous coordinate of a context type.
    #[must_use]
    pub fn directory_home(&self, type_id: ContextTypeId) -> Point {
        self.hash_points[type_id.0 as usize]
    }

    /// Number of directory entries stored on a node (nonzero only on home
    /// nodes).
    #[must_use]
    pub fn directory_entries_at(&self, node: NodeId) -> usize {
        self.nodes[node.index()].directory.len()
    }

    /// The marginal protocol energy spent by one node (radio + CPU).
    #[must_use]
    pub fn energy_at(&self, node: NodeId) -> EnergyMeter {
        let rt = &self.nodes[node.index()];
        let mut m = rt.energy;
        m.charge_cpu(rt.cpu.stats().busy);
        m
    }

    /// Fleet-wide marginal protocol energy.
    #[must_use]
    pub fn energy_totals(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for id in self.deployment.ids() {
            total.merge(&self.energy_at(id));
        }
        total
    }

    // ------------------------------------------------------------------
    // Failure injection (stress tests, Fig. 5's leader-failure mode)
    // ------------------------------------------------------------------

    /// Kills a node: it stops sensing, processing, and transmitting.
    pub fn kill_node(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = false;
    }

    /// Revives a previously killed node with cleared protocol state (a
    /// rebooted mote remembers nothing): group machines, transport tables,
    /// directory entries, and every in-flight query or ack are gone. Only
    /// the link/transport sequence bases survive, as a nonvolatile boot
    /// counter — reusing sequence numbers would trip peers' dedup windows.
    /// Its sensing loop needs no restart: a dead node's loop keeps ticking
    /// (doing nothing) and resumes work on the first tick after revival,
    /// on the phase it always had.
    pub fn revive_node(&mut self, node: NodeId) {
        let rt = &mut self.nodes[node.index()];
        rt.alive = true;
        rt.machines = self
            .program
            .type_ids()
            .map(|tid| GroupMachine::new(node, tid, self.program.spec(tid)))
            .collect();
        let seq_base = rt.mtp.seq_base();
        rt.mtp = MtpState::new(
            self.config.middleware.mtp_table_capacity,
            self.config.middleware.mtp_forward_ttl,
            self.config.middleware.mtp_max_chain_hops,
        )
        .with_telemetry(self.telemetry.clone());
        rt.mtp.set_seq_base(seq_base);
        rt.directory = DirectoryStore::new().with_telemetry(self.telemetry.clone());
        rt.pending_queries.clear();
        rt.pending_acks.clear();
        rt.seen_unicast.clear();
    }

    // ------------------------------------------------------------------
    // Chaos hooks (fault plans and invariant monitors)
    // ------------------------------------------------------------------

    /// Installs or clears a radio partition mask (see
    /// [`Medium::set_partition`]).
    pub fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        self.medium.set_partition(groups);
    }

    /// The active partition mask, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&[u8]> {
        self.medium.partition()
    }

    /// Installs or clears the Gilbert–Elliott burst-loss model on the
    /// channel.
    pub fn set_burst_loss(&mut self, model: Option<GilbertElliott>) {
        self.medium.set_burst_loss(model);
    }

    /// Installs or clears link-level fault injection — bit corruption,
    /// truncation, duplication, and bounded reordering — on the medium
    /// (see [`LinkFaults`]).
    pub fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        self.medium.set_link_faults(faults);
    }

    /// Delivers a frame straight into one node's receive path, exactly as
    /// the medium does after airtime. A corruption-corpus hook: tests
    /// build a frame (stamping [`Frame::shadow`] from the pristine
    /// payload), garble `payload` in place, and inject — then hold the
    /// per-kind corrupt-drop counters to exact expected values.
    pub fn inject_frame(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, frame: Frame) {
        self.receive_frame(k, node, frame);
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
    pub fn drain_shard_delivered(&mut self) -> Vec<TxKey> {
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
    pub fn inject_shard_resolved(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        mut batch: Vec<ResolvedTx>,
    ) {
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
            k.schedule_at(completes_at, move |w: &mut SensorNetwork, k| {
                w.transmission_complete(k, TxId(local));
            });
        }
        self.shard_mut().stash_resolved(batch);
    }

    /// Applies one barrier-quantized fault. Channel faults install on the
    /// central scheduler (transmit side) *and* on every shard's executor
    /// (delivery masking, burst chains — installing is draw-free); node
    /// faults act only on the owning shard, which alone drives the node.
    pub fn apply_shard_fault(&mut self, fault: &ShardFault) {
        match fault {
            ShardFault::Partition(groups) => self.set_partition(Some(groups.clone())),
            ShardFault::ClearPartition => self.set_partition(None),
            ShardFault::BurstLossOn(model) => self.set_burst_loss(Some(*model)),
            ShardFault::BurstLossOff => self.set_burst_loss(None),
            ShardFault::LinkFaultsOn(faults) => self.set_link_faults(Some(*faults)),
            ShardFault::LinkFaultsOff => self.set_link_faults(None),
            ShardFault::Crash(node) => {
                if self.owns(*node) {
                    self.kill_node(*node);
                }
            }
            ShardFault::Revive(node) => {
                if self.owns(*node) {
                    self.revive_node(*node);
                }
            }
        }
    }

    /// Triggers an immediate anti-entropy push (with pull) on every live
    /// replica of every context type. Chaos harnesses call this right
    /// after healing a partition so divergent replicas repair in one
    /// exchange instead of waiting out the gossip period. A no-op at
    /// replication factor 1; works whether or not periodic gossip is on.
    pub fn kick_directory_gossip(&mut self, k: &mut Kernel<SensorNetwork>) {
        if self.config.middleware.directory_replicas <= 1 {
            return;
        }
        for tid in self.program.type_ids() {
            for node in self.directory_replicas_of(tid) {
                if self.nodes[node.index()].alive {
                    self.send_dir_sync(k, node, tid, true);
                }
            }
        }
    }

    /// Order-insensitive digest of one node's directory entries for a type
    /// (see [`DirectoryStore::digest`]).
    #[must_use]
    pub fn directory_digest_at(&self, node: NodeId, type_id: ContextTypeId) -> u64 {
        self.nodes[node.index()].directory.digest(type_id)
    }

    /// Whether every *live* replica of `type_id` stores an identical entry
    /// set — the anti-entropy convergence oracle.
    #[must_use]
    pub fn directory_replicas_converged(&self, type_id: ContextTypeId) -> bool {
        let mut digests = self
            .directory_replicas_of(type_id)
            .into_iter()
            .filter(|n| self.nodes[n.index()].alive)
            .map(|n| self.directory_digest_at(n, type_id));
        match digests.next() {
            Some(first) => digests.all(|d| d == first),
            None => true,
        }
    }

    /// The live (unexpired at `now`) labels a replica stores for a type,
    /// in canonical order.
    #[must_use]
    pub fn directory_labels_at(
        &self,
        node: NodeId,
        type_id: ContextTypeId,
        now: Timestamp,
    ) -> Vec<ContextLabel> {
        let ttl = self.config.middleware.directory_entry_ttl;
        let mut labels: Vec<ContextLabel> = self.nodes[node.index()]
            .directory
            .entries_of(type_id)
            .into_iter()
            .filter(|(_, _, refreshed)| now.saturating_since(*refreshed) <= ttl)
            .map(|(label, _, _)| label)
            .collect();
        labels.sort_by_key(|l| (l.type_id.0, l.creator.0, l.seq));
        labels
    }

    /// Whether every live replica of `type_id` agrees on the set of live
    /// labels at `now`. Weaker than [`Self::directory_replicas_converged`]
    /// — digests compare refresh timestamps too, and ordinary refresh
    /// traffic re-stamps entries at slightly different instants per
    /// replica — so membership agreement is the right post-heal oracle
    /// while the system keeps running.
    #[must_use]
    pub fn directory_replicas_agree(&self, type_id: ContextTypeId, now: Timestamp) -> bool {
        let mut sets = self
            .directory_replicas_of(type_id)
            .into_iter()
            .filter(|n| self.nodes[n.index()].alive)
            .map(|n| self.directory_labels_at(n, type_id, now));
        match sets.next() {
            Some(first) => sets.all(|s| s == first),
            None => true,
        }
    }

    /// Sets a node's clock rate (1.0 = ideal; 1.02 = 2 % fast). The local
    /// clock is rebased at `now` so it stays continuous. Applies to all
    /// subsequently armed timers and sensing ticks.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside the bounded-skew range `[0.5, 2.0]` —
    /// the protocol makes no claims under unbounded drift.
    pub fn set_clock_rate(&mut self, node: NodeId, rate: f64, now: Timestamp) {
        assert!(
            (0.5..=2.0).contains(&rate),
            "clock rate {rate} outside the bounded-skew range [0.5, 2.0]"
        );
        self.nodes[node.index()].clock.set_rate(rate, now);
    }

    /// A node's local clock reading at global instant `now`.
    #[must_use]
    pub fn local_clock(&self, node: NodeId, now: Timestamp) -> SimDuration {
        self.nodes[node.index()].clock.local_time(now)
    }

    /// Enables or disables the medium's delivery audit log.
    pub fn set_delivery_log(&mut self, enabled: bool) {
        self.medium.set_delivery_log(enabled);
    }

    /// Drains the medium's delivery audit log.
    pub fn take_delivery_log(&mut self) -> Vec<(Timestamp, NodeId, NodeId)> {
        self.medium.take_delivery_log()
    }

    /// Current leaders of a type with their weight and position, for
    /// invariant monitors: `(node, label, weight, position)`.
    #[must_use]
    pub fn leaders_detailed(
        &self,
        type_id: ContextTypeId,
    ) -> Vec<(NodeId, ContextLabel, u32, Point)> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| {
                let m = &n.machines[type_id.0 as usize];
                match m.role_kind() {
                    RoleKind::Leader(label) => {
                        Some((n.id, label, m.leader_weight().unwrap_or(0), n.pos))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Aggregate health rows for every live leader of `type_id` at `now`,
    /// as `(leader node, rows)` — see [`GroupMachine::aggregate_health`].
    #[must_use]
    pub fn aggregate_health(
        &self,
        type_id: ContextTypeId,
        now: Timestamp,
    ) -> Vec<(NodeId, Vec<AggregateHealth>)> {
        let spec = self.program.spec(type_id);
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| {
                let rows = n.machines[type_id.0 as usize].aggregate_health(spec, now);
                if rows.is_empty() {
                    None
                } else {
                    Some((n.id, rows))
                }
            })
            .collect()
    }

    /// Number of MTP segments a node holds awaiting end-to-end acks.
    #[must_use]
    pub fn mtp_outstanding_at(&self, node: NodeId) -> usize {
        self.nodes[node.index()].mtp.outstanding_len()
    }

    /// Number of cached last-known-leader entries on a node.
    #[must_use]
    pub fn mtp_table_len_at(&self, node: NodeId) -> usize {
        self.nodes[node.index()].mtp.table_len()
    }

    /// The directory replica set of a context type: the `k` nodes nearest
    /// its hash point (`k` = the configured replication factor).
    #[must_use]
    pub fn directory_replicas_of(&self, type_id: ContextTypeId) -> Vec<NodeId> {
        replica_set(
            &self.deployment,
            self.hash_points[type_id.0 as usize],
            self.config.middleware.directory_replicas,
        )
    }

    /// A whole-run robustness record for JSON-lines output; `violations`
    /// comes from the caller's invariant monitor (0 without one).
    #[must_use]
    pub fn run_record(&self, seed: u64, elapsed: SimDuration, violations: u64) -> RunRecord {
        let mut record = RunRecord {
            seed,
            elapsed,
            labels_created: self.events.count(|e| {
                matches!(e, SystemEvent::LabelCreated { .. })
            }) as u64,
            labels_suppressed: self.events.count(|e| {
                matches!(e, SystemEvent::LabelSuppressed { .. })
            }) as u64,
            handovers: self.events.count(|e| {
                matches!(e, SystemEvent::LeaderHandover { .. })
            }) as u64,
            base_reports: self.base_log.len() as u64,
            mtp_delivered: self.events.count(|e| {
                matches!(e, SystemEvent::MtpDelivered { .. })
            }) as u64,
            mtp_dropped: self.events.count(|e| {
                matches!(e, SystemEvent::MtpDropped { .. })
            }) as u64,
            violations,
            ..RunRecord::default()
        };
        record.set_channel(self.medium.stats());
        record
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Schedules `node`'s next sensing tick at `at`: on the kernel's
    /// recurring lane when `on_lane`, as an ordinary event otherwise. The
    /// two differ in cost only, never in when or in what order the tick runs.
    fn arm_sense_tick(
        &self,
        k: &mut Kernel<SensorNetwork>,
        at: Timestamp,
        node: NodeId,
        on_lane: bool,
    ) {
        #[cfg(test)]
        let on_lane = on_lane && !self.sense_loops_on_heap;
        if on_lane {
            k.schedule_recurring_at(at, Self::sense_tick_of, u64::from(node.0));
        } else {
            k.schedule_at(at, move |w: &mut SensorNetwork, k| {
                w.sense_tick(k, node);
            });
        }
    }

    /// [`SensorNetwork::sense_tick`] as a recurring handler over a node id.
    fn sense_tick_of(&mut self, k: &mut Kernel<SensorNetwork>, id: u64) {
        self.sense_tick(k, NodeId(u32::try_from(id).expect("armed with a node id")));
    }

    /// One sensing tick on `node`: reschedule, then drive every
    /// context-type machine. Each owned node has exactly one such loop,
    /// started by `bootstrap`; it outlives crashes (a dead node's tick
    /// only reschedules), so nothing may start a second one.
    fn sense_tick(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId) {
        // The sensing period elapses on the node's *local* clock: skewed
        // clocks sample faster or slower than global time.
        let period = self.nodes[node.index()]
            .clock
            .global_delay(self.config.middleware.sense_period);
        // Reschedule first: the loop survives any processing below. A skewed
        // node stays off the lane: a slow clock's later deadline would become
        // the lane's tail and send every other node's tick to the heap until
        // it fired.
        let nominal = period == self.config.middleware.sense_period;
        self.arm_sense_tick(k, k.now() + period, node, nominal);
        if !self.nodes[node.index()].alive {
            return;
        }
        // Overloaded CPU skips sensing ticks.
        if self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::SENSE)
            .is_err()
        {
            return;
        }
        for tid in self.program.type_ids() {
            let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
                machine.on_sense_tick(ctx)
            });
            self.apply_actions(k, node, tid, actions);
        }
    }

    /// A group-management timer firing.
    fn group_timer(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        tid: ContextTypeId,
        key: GroupTimer,
        token: TimerToken,
    ) {
        if !self.nodes[node.index()].alive {
            return;
        }
        // Overload delays timer handling until the CPU drains.
        match self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::TIMER_HANDLE)
        {
            Ok(_) => {}
            Err(_) => {
                let retry = self.nodes[node.index()].cpu.busy_until() + SimDuration::from_millis(1);
                k.schedule_at(retry.max(k.now()), move |w: &mut SensorNetwork, k| {
                    w.group_timer(k, node, tid, key, token);
                });
                return;
            }
        }
        let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
            machine.on_timer(ctx, key, token)
        });
        self.apply_actions(k, node, tid, actions);
    }

    /// A transmission finished serialising: resolve deliveries.
    ///
    /// Broadcast frames are processed *shared*: the wire payload is
    /// decoded at most once and every receiver dispatches off the same
    /// borrowed [`Message`], instead of decoding (and allocating) per
    /// receiver. Unicast frames go straight to the addressed node — every
    /// other receiver would discard them at the link-destination check
    /// before touching any state, so skipping them is behaviour-identical.
    fn transmission_complete(&mut self, k: &mut Kernel<SensorNetwork>, id: TxId) {
        let report = self.medium.deliveries(id);
        // A link-duplicated frame is processed twice end to end — that is
        // precisely what the dedup layers (link_seq, MTP seq, hb_seq) are
        // under test against. The broadcast decode cache spans both passes,
        // so the payload is still decoded at most once.
        let passes = if report.duplicated { 2 } else { 1 };
        let mut decoded = BroadcastDecode::Pending;
        for _ in 0..passes {
            match report.frame.link_dst {
                LinkDest::Node(dst) => {
                    // Sharded worlds dispatch only to owned receivers; the
                    // owning shard replays the same transmission and
                    // dispatches there.
                    if self.owns(dst)
                        && report
                            .outcomes
                            .iter()
                            .any(|(r, o)| *r == dst && *o == DeliveryOutcome::Delivered)
                    {
                        self.receive_frame(k, dst, report.frame.clone());
                    }
                }
                LinkDest::Broadcast => {
                    for (receiver, outcome) in &report.outcomes {
                        if *outcome == DeliveryOutcome::Delivered && self.owns(*receiver) {
                            self.receive_broadcast(k, *receiver, &report.frame, &mut decoded);
                        }
                    }
                }
            }
        }
        // Hand the outcome buffer back so the next broadcast reuses it.
        self.medium.recycle(report);
    }

    /// Records one receiver-side drop of a frame that failed its integrity
    /// or structural checks. Counted per (frame, receiver) pair under
    /// `net.k<kind>.corrupt`, mirroring the medium's per-pair loss stats.
    /// Cold: a clean channel never gets here, and inlining the map probe
    /// into the receive path cost `field_sparse` 8 % of its events/s.
    #[cold]
    fn note_corrupt_drop(&mut self, kind: FrameKind) {
        self.corrupt_counters
            .entry(kind.0)
            .or_insert_with(|| {
                self.telemetry
                    .counter_handle(&format!("net.k{}.corrupt", kind.0))
            })
            .incr();
    }

    /// Audits an *accepted* frame against its shadow hash (`pristine` is
    /// its [`Frame::payload_is_pristine`]): if the payload no longer
    /// matches what the sender built, the CRC let garbled bytes
    /// through — the accepted-corrupt invariant the chaos monitor checks
    /// must stay at zero. (With CRC-32 this fires with probability ~2⁻³²
    /// per garbled frame; the counter exists so that if it ever *does*
    /// fire, the run fails loudly instead of silently mis-tracking.)
    fn audit_accepted(&mut self, pristine: bool) {
        if !pristine {
            self.telemetry.incr("net.corrupt_accepted");
        }
    }

    /// A broadcast frame arrived intact at `node`. `decoded` caches the
    /// payload decode across the whole delivery walk.
    fn receive_broadcast(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        frame: &Frame,
        decoded: &mut BroadcastDecode,
    ) {
        if !self.nodes[node.index()].alive {
            return;
        }
        // The radio spent the frame's airtime decoding it regardless of
        // what the CPU does with it afterwards.
        let airtime = self.medium.config().tx_time(frame);
        self.nodes[node.index()].energy.charge_rx(airtime);
        // Receive overflow: overloaded CPUs drop frames.
        if self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::RX_HANDLE)
            .is_err()
        {
            return;
        }
        // Link-layer acks and reliable-unicast sequence numbers only ride
        // on unicast frames, so none of `receive_frame`'s link
        // bookkeeping applies to a broadcast.
        if matches!(decoded, BroadcastDecode::Pending) {
            *decoded = match Message::decode_with(self.config.radio.codec, &frame.payload) {
                Ok(msg) => BroadcastDecode::Ok {
                    msg,
                    pristine: frame.payload_is_pristine(),
                },
                Err(_) => BroadcastDecode::Corrupt,
            };
        }
        let (msg, pristine) = match &*decoded {
            BroadcastDecode::Ok { msg, pristine } => (msg, *pristine),
            BroadcastDecode::Corrupt => {
                // The CRC (or structural decode) rejected the payload: drop
                // it without touching protocol state, and count the drop
                // per kind and per receiver.
                self.note_corrupt_drop(frame.kind);
                return;
            }
            BroadcastDecode::Pending => unreachable!("decode cache is resolved above"),
        };
        // Counted per accepting receiver, hashed once per walk.
        self.audit_accepted(pristine);
        match msg {
            Message::Heartbeat(hb) => self.handle_heartbeat(k, node, hb),
            Message::Report(report) => self.handle_report(k, node, report),
            Message::Relinquish(r) => self.handle_relinquish(k, node, r),
            // The protocol only broadcasts the three kinds above; anything
            // else takes the owned dispatch path.
            other => {
                let owned = other.clone();
                self.dispatch_message(k, node, owned);
            }
        }
    }

    /// A frame arrived intact at `node`.
    fn receive_frame(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, frame: Frame) {
        if !self.nodes[node.index()].alive || !frame.link_dst.accepts(node) {
            return;
        }
        // The radio spent the frame's airtime decoding it regardless of
        // what the CPU does with it afterwards.
        let airtime = self.medium.config().tx_time(&frame);
        self.nodes[node.index()].energy.charge_rx(airtime);
        // Receive overflow: overloaded CPUs drop frames.
        if self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::RX_HANDLE)
            .is_err()
        {
            return;
        }
        // Link-layer acknowledgements terminate here. They carry no wire
        // `Message` — just a raw sequence number — so they get their own
        // CRC trailer (see `link_ack_payload`), checked before the seq is
        // believed: a garbled ack must not cancel a pending retransmit.
        if frame.kind == crate::wire::kinds::LINK_ACK {
            match link_ack_seq(&frame.payload) {
                Some(seq) => {
                    self.audit_accepted(frame.payload_is_pristine());
                    self.nodes[node.index()]
                        .pending_acks
                        .retain(|p| p.seq != seq);
                }
                None => self.note_corrupt_drop(frame.kind),
            }
            return;
        }
        // Integrity first: a frame that fails its CRC (or any structural
        // check) is dropped before *any* link bookkeeping — in particular
        // it is never acknowledged, so the sender keeps retransmitting the
        // pristine copy. That is exactly how corruption + link retx
        // recovers without a transport round trip.
        let msg = match Message::decode_with(self.config.radio.codec, &frame.payload) {
            Ok(m) => m,
            Err(_) => {
                self.note_corrupt_drop(frame.kind);
                return;
            }
        };
        self.audit_accepted(frame.payload_is_pristine());
        // Acknowledge reliable unicast frames, and deduplicate retransmits.
        if self.config.link.enabled
            && frame.link_dst == LinkDest::Node(node)
            && frame.link_seq != 0
        {
            let ack = Frame::unicast(
                node,
                frame.src,
                crate::wire::kinds::LINK_ACK,
                link_ack_payload(frame.link_seq),
            );
            self.transmit_raw(k, node, ack);
            let rt = &mut self.nodes[node.index()];
            let key = (frame.src, frame.link_seq);
            if rt.seen_unicast.contains(&key) {
                return; // duplicate of an already-processed frame
            }
            if rt.seen_unicast.len() >= 32 {
                rt.seen_unicast.remove(0);
            }
            rt.seen_unicast.push(key);
        }
        self.dispatch_message(k, node, msg);
    }

    fn dispatch_message(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, msg: Message) {
        match msg {
            Message::Heartbeat(hb) => self.handle_heartbeat(k, node, &hb),
            Message::Report(report) => self.handle_report(k, node, &report),
            Message::Relinquish(r) => self.handle_relinquish(k, node, &r),
            Message::Geo(geo) => self.handle_geo(k, node, geo),
            Message::Mtp(seg) => self.handle_mtp_segment(k, node, seg),
            Message::MtpAckMsg(ack) => self.handle_mtp_ack(k.now(), node, &ack),
            Message::DirRegister(reg) => {
                let now = k.now();
                let ttl = self.config.middleware.directory_entry_ttl;
                let dir = &mut self.nodes[node.index()].directory;
                dir.register(reg.label, reg.location, now);
                dir.sweep(now, ttl);
                self.telemetry.trace_shared(
                    now.as_micros(),
                    node.0,
                    &self.labels.label(reg.label),
                    "dir.register",
                    String::new(),
                );
            }
            Message::DirQuery(q) => self.handle_dir_query(k, node, &q),
            Message::DirResponse(resp) => self.handle_dir_response(k, node, resp),
            Message::DirSyncMsg(sync) => self.handle_dir_sync(k, node, sync),
            Message::Base(b) => {
                if Some(node) == self.config.base_station {
                    self.base_log.record(ReportEntry {
                        received_at: k.now(),
                        generated_at: b.generated_at,
                        label: b.label,
                        payload: b.payload,
                    });
                }
            }
        }
    }

    fn handle_heartbeat(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, hb: &Heartbeat) {
        let tid = hb.label.type_id;
        if tid.0 as usize >= self.program.context_count() {
            return;
        }
        // The transport layer snoops leadership from heartbeats.
        self.nodes[node.index()].mtp.learn(
            hb.label,
            LeaderLoc {
                node: hb.leader,
                pos: hb.leader_pos,
            },
        );
        let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
            machine.on_heartbeat(ctx, hb)
        });
        self.apply_actions(k, node, tid, actions);
    }

    fn handle_report(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, report: &Report) {
        let tid = report.label.type_id;
        if tid.0 as usize >= self.program.context_count() {
            return;
        }
        let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
            machine.on_report(ctx, report)
        });
        self.apply_actions(k, node, tid, actions);
    }

    fn handle_relinquish(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, r: &Relinquish) {
        let tid = r.label.type_id;
        if tid.0 as usize >= self.program.context_count() {
            return;
        }
        let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
            machine.on_relinquish(ctx, r)
        });
        self.apply_actions(k, node, tid, actions);
    }

    fn handle_geo(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, geo: GeoForward) {
        let deliver_here =
            geo.deliver_to == Some(node) || self.router.next_hop(node, geo.dest).is_none();
        if deliver_here {
            self.dispatch_message(k, node, *geo.inner);
            return;
        }
        // Count intermediate hops taken by directory traffic specifically.
        if matches!(
            *geo.inner,
            Message::DirQuery(_) | Message::DirRegister(_) | Message::DirResponse(_)
        ) {
            self.telemetry.incr("dir.hop");
        }
        self.send_geo(k, node, geo.dest, geo.deliver_to, *geo.inner);
    }

    fn handle_dir_query(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, q: &DirQuery) {
        let now = k.now();
        let ttl = self.config.middleware.directory_entry_ttl;
        let entries = self.nodes[node.index()]
            .directory
            .query(q.type_id, now, ttl);
        self.telemetry.trace_shared(
            now.as_micros(),
            node.0,
            &self.labels.type_name(q.type_id),
            "dir.query",
            format!("id={} hits={}", q.query_id, entries.len()),
        );
        let resp = Message::DirResponse(DirResponse {
            query_id: q.query_id,
            entries,
        });
        self.send_geo(k, node, q.reply_pos, Some(q.reply_to), resp);
    }

    fn handle_dir_response(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        resp: DirResponse,
    ) {
        let pending = {
            let rt = &mut self.nodes[node.index()];
            match rt
                .pending_queries
                .iter()
                .position(|p| p.query_id == resp.query_id)
            {
                Some(idx) => rt.pending_queries.remove(idx),
                None => return,
            }
        };
        // Subscription query: install the view into the asking machine.
        if let Some(asker) = pending.asker {
            self.nodes[node.index()].machines[asker.0 as usize]
                .on_directory_entries(pending.target_type, resp.entries.clone());
            return;
        }
        // MTP resolution query: release the parked sends.
        let parked = self.nodes[node.index()].mtp.take_pending(resp.query_id);
        for send in parked {
            match resp.entries.iter().find(|(l, _)| *l == send.dst_label) {
                Some((_, location)) => {
                    self.send_mtp_segment(
                        k,
                        node,
                        send.src_label,
                        send.src_port,
                        send.dst_label,
                        send.dst_port,
                        send.payload,
                        *location,
                        None,
                    );
                }
                None => {
                    self.record_event(
                        k.now(),
                        node,
                        SystemEvent::MtpDropped {
                            label: send.dst_label,
                            node,
                        },
                    );
                }
            }
        }
    }

    /// One periodic anti-entropy round on a replica: push the local digest
    /// to the next replica in ring order (with the pull flag set), then
    /// re-arm. The ring guarantees every pair of live replicas converges
    /// within `k − 1` rounds even when some replicas are dead.
    fn gossip_tick(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, tid: ContextTypeId) {
        let period = self.config.middleware.directory_gossip_period;
        // Reschedule first so the round survives any processing below.
        k.schedule_at(k.now() + period, move |w: &mut SensorNetwork, k| {
            w.gossip_tick(k, node, tid);
        });
        if !self.nodes[node.index()].alive {
            return;
        }
        // Overloaded CPUs skip the round; the next period retries.
        if self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::TIMER_HANDLE)
            .is_err()
        {
            return;
        }
        self.send_dir_sync(k, node, tid, true);
    }

    /// Pushes `node`'s directory digest for `tid` to its ring successor in
    /// the replica set. An *empty* digest is still pushed when `reply` is
    /// set — that is precisely how a rebooted (amnesiac) replica pulls the
    /// registrations it lost.
    fn send_dir_sync(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        tid: ContextTypeId,
        reply: bool,
    ) {
        let replicas = self.directory_replicas_of(tid);
        if replicas.len() <= 1 {
            return;
        }
        let Some(i) = replicas.iter().position(|&r| r == node) else {
            return; // not a replica of this type (e.g. after redeployment)
        };
        let peer = replicas[(i + 1) % replicas.len()];
        let entries = self.nodes[node.index()].directory.entries_of(tid);
        self.telemetry.incr("dir.gossip.tx");
        let msg = Message::DirSyncMsg(DirSync {
            type_id: tid,
            from: node,
            reply,
            entries,
        });
        let pos = self.deployment.position(peer);
        self.send_geo(k, node, pos, Some(peer), msg);
    }

    /// A peer replica's anti-entropy digest arrived: merge it (adopting
    /// missing and fresher entries), and answer with our own digest when
    /// the pull flag is set so the sender repairs too. Replies carry
    /// `reply: false`, bounding each exchange to one round trip.
    fn handle_dir_sync(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, sync: DirSync) {
        let now = k.now();
        let ttl = self.config.middleware.directory_entry_ttl;
        let repaired = {
            let dir = &mut self.nodes[node.index()].directory;
            let n = dir.merge(&sync.entries);
            // Expired entries may ride in on a digest; sweep keeps the
            // store's live view identical to an un-partitioned replica's.
            dir.sweep(now, ttl);
            n
        };
        if repaired > 0 {
            self.telemetry.trace_shared(
                now.as_micros(),
                node.0,
                &self.labels.type_name(sync.type_id),
                "dir.gossip.repair",
                format!("from=n{} repaired={repaired}", sync.from.0),
            );
        }
        if sync.reply {
            let entries = self.nodes[node.index()].directory.entries_of(sync.type_id);
            if !entries.is_empty() {
                self.telemetry.incr("dir.gossip.tx");
                let msg = Message::DirSyncMsg(DirSync {
                    type_id: sync.type_id,
                    from: node,
                    reply: false,
                    entries,
                });
                let pos = self.deployment.position(sync.from);
                self.send_geo(k, node, pos, Some(sync.from), msg);
            }
        }
    }

    fn handle_mtp_segment(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, seg: MtpSegment) {
        // Update leadership knowledge from the header.
        self.nodes[node.index()].mtp.learn(
            seg.src_label,
            LeaderLoc {
                node: seg.src_leader,
                pos: seg.src_leader_pos,
            },
        );

        let tid = seg.dst_label.type_id;
        if tid.0 as usize >= self.program.context_count() {
            return;
        }
        let leads_dst = matches!(
            self.nodes[node.index()].machines[tid.0 as usize].role_kind(),
            RoleKind::Leader(l) if l == seg.dst_label
        );
        if leads_dst {
            if self.config.middleware.mtp_retx_enabled {
                // Transport-level ack: the segment reached its label's
                // leader. Duplicates are re-acked — the earlier ack may
                // itself have been lost.
                let ack = Message::MtpAckMsg(MtpAck {
                    dst_label: seg.dst_label,
                    src_node: seg.src_leader,
                    seq: seg.seq,
                    acker: node,
                    acker_pos: self.nodes[node.index()].pos,
                });
                self.send_geo(k, node, seg.src_leader_pos, Some(seg.src_leader), ack);
                if !self.nodes[node.index()]
                    .mtp
                    .note_delivered(seg.src_leader, seg.seq)
                {
                    return; // duplicate: re-acked above, not re-delivered
                }
            }
            let Some(method) = self.program.method_for_port(tid, seg.dst_port) else {
                return;
            };
            let incoming = IncomingMessage {
                src_label: seg.src_label,
                src_port: seg.src_port,
                payload: seg.payload.clone(),
            };
            let dst_label = seg.dst_label;
            let dst_port = seg.dst_port;
            let chain_hops = seg.chain_hops;
            let actions = self.drive_machine(k.now(), node, tid, |machine, ctx| {
                machine
                    .deliver_mtp(ctx, dst_label, dst_port, incoming, method)
                    .unwrap_or_default()
            });
            self.record_event(
                k.now(),
                node,
                SystemEvent::MtpDelivered {
                    label: dst_label,
                    node,
                    chain_hops,
                },
            );
            self.apply_actions(k, node, tid, actions);
            return;
        }
        // Not the leader: chase the label along pointers / cached knowledge.
        if seg.chain_hops >= self.nodes[node.index()].mtp.max_chain_hops {
            self.record_event(
                k.now(),
                node,
                SystemEvent::MtpDropped {
                    label: seg.dst_label,
                    node,
                },
            );
            return;
        }
        let now = k.now();
        let next = {
            let rt = &mut self.nodes[node.index()];
            rt.mtp
                .forward_pointer(seg.dst_label, now)
                .or_else(|| rt.mtp.lookup(seg.dst_label))
        };
        match next {
            // A pointer to ourselves would loop; treat it as no route.
            Some(loc) if loc.node != node => {
                let mut chased = seg;
                chased.chain_hops += 1;
                self.send_geo(k, node, loc.pos, Some(loc.node), Message::Mtp(chased));
            }
            _ => {
                self.record_event(
                    k.now(),
                    node,
                    SystemEvent::MtpDropped {
                        label: seg.dst_label,
                        node,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Machine driving and action application
    // ------------------------------------------------------------------

    /// Runs one machine input with a fresh [`GroupCtx`]; the environment is
    /// sampled only if the handler reads [`GroupCtx::sample`].
    fn drive_machine(
        &mut self,
        now: Timestamp,
        node: NodeId,
        tid: ContextTypeId,
        f: impl FnOnce(&mut GroupMachine, &mut GroupCtx<'_>) -> Vec<GroupAction>,
    ) -> Vec<GroupAction> {
        let telemetry = self.telemetry.clone();
        let rt = &mut self.nodes[node.index()];
        let mut ctx = GroupCtx {
            now,
            cfg: &self.config.middleware,
            spec: self.program.spec(tid),
            subscriptions: self.program.subscriptions(tid),
            sensors: &self.environment,
            reading: None,
            position: rt.pos,
            rng: &mut rt.rng,
            telemetry,
            labels: self.labels.clone(),
        };
        f(&mut rt.machines[tid.0 as usize], &mut ctx)
    }

    /// Appends a system event to the run log and mirrors it into the
    /// telemetry trace/counters, so post-hoc analysis sees one stream.
    fn record_event(&mut self, at: Timestamp, node: NodeId, event: SystemEvent) {
        self.mirror_event(at, node, &event);
        self.events.push(at, event);
    }

    /// The cached `group.handover.<label>` counter handle for `label`,
    /// resolved against the registry on first use.
    fn handover_counter(&self, label: ContextLabel) -> CounterHandle {
        self.handover_counters
            .borrow_mut()
            .entry(label.intern_key())
            .or_insert_with(|| {
                self.telemetry
                    .counter_handle(&format!("group.handover.{label}"))
            })
            .clone()
    }

    /// Translates a [`SystemEvent`] into its telemetry counter/trace form.
    fn mirror_event(&self, at: Timestamp, node: NodeId, event: &SystemEvent) {
        let t = &self.telemetry;
        let us = at.as_micros();
        match event {
            SystemEvent::LabelCreated { label, .. } => {
                t.incr("group.form");
                t.trace_shared(us, node.0, &self.labels.label(*label), "group.form", String::new());
            }
            SystemEvent::LeaderHandover {
                label,
                from,
                to,
                reason,
            } => {
                let kind = match reason {
                    HandoverReason::Relinquish => "group.relinquish",
                    HandoverReason::ReceiveTimeout => "group.takeover",
                    HandoverReason::DuplicateYield => "group.yield",
                };
                self.handover_counter(*label).incr();
                t.trace_shared(
                    us,
                    node.0,
                    &self.labels.label(*label),
                    kind,
                    format!("from=n{} to=n{}", from.0, to.0),
                );
            }
            SystemEvent::LabelSuppressed { loser, winner, .. } => {
                t.incr("group.suppress");
                t.trace_shared(
                    us,
                    node.0,
                    &self.labels.label(*loser),
                    "group.suppress",
                    format!("winner={winner}"),
                );
            }
            SystemEvent::LabelDissolved { label, .. } => {
                t.incr("group.dissolve");
                t.trace_shared(
                    us,
                    node.0,
                    &self.labels.label(*label),
                    "group.dissolve",
                    String::new(),
                );
            }
            SystemEvent::MethodInvoked { .. } => t.incr("app.method"),
            // Aggregate outcomes are recorded at the read site itself
            // (`LeaderAccess::read_aggregate`), which also knows the
            // contributor count; mirroring here would double-count.
            SystemEvent::AggregateReadFailed { .. } => {}
            SystemEvent::MtpDelivered {
                label, chain_hops, ..
            } => {
                t.incr("mtp.delivered");
                t.observe("mtp.chain_hops", u64::from(*chain_hops));
                t.trace_shared(
                    us,
                    node.0,
                    &self.labels.label(*label),
                    "mtp.delivered",
                    format!("chain_hops={chain_hops}"),
                );
            }
            SystemEvent::MtpDropped { label, .. } => {
                t.incr("mtp.drop");
                t.trace_shared(us, node.0, &self.labels.label(*label), "mtp.drop", String::new());
            }
        }
    }

    fn apply_actions(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        tid: ContextTypeId,
        actions: Vec<GroupAction>,
    ) {
        for action in actions {
            match action {
                GroupAction::Broadcast(msg) => {
                    let (payload, wire_len) = self.encode_payload(&msg);
                    let frame =
                        Frame::broadcast(node, msg.kind(), payload).with_wire_len(wire_len);
                    self.send_frame(k, node, frame);
                }
                GroupAction::ArmTimer { key, at, token } => {
                    // Machines arm timers as delays on the node's local
                    // clock; convert through its clock model (exact
                    // identity at rate 1.0).
                    let local_delay = at.saturating_since(k.now());
                    let fire_at =
                        k.now() + self.nodes[node.index()].clock.global_delay(local_delay);
                    k.schedule_at(fire_at, move |w: &mut SensorNetwork, k| {
                        w.group_timer(k, node, tid, key, token);
                    });
                }
                GroupAction::Emit(event) => self.record_event(k.now(), node, event),
                GroupAction::RegisterDirectory { label } => {
                    let dest = self.hash_points[tid.0 as usize];
                    let msg = Message::DirRegister(DirRegister {
                        label,
                        location: self.nodes[node.index()].pos,
                    });
                    let replicas = self.config.middleware.directory_replicas;
                    if replicas <= 1 {
                        self.send_geo(k, node, dest, None, msg);
                    } else {
                        // Fan the registration out to every replica
                        // explicitly; geo routing alone finds only the
                        // primary.
                        for target in replica_set(&self.deployment, dest, replicas) {
                            let pos = self.deployment.position(target);
                            self.send_geo(k, node, pos, Some(target), msg.clone());
                        }
                    }
                }
                GroupAction::QueryDirectory { type_id } => {
                    let rt = &mut self.nodes[node.index()];
                    let query_id = rt.next_query_id;
                    rt.next_query_id += 1;
                    rt.pending_queries.push(PendingQuery {
                        query_id,
                        target_type: type_id,
                        asker: Some(tid),
                        attempt: 0,
                    });
                    let reply_pos = rt.pos;
                    let dest = self.hash_points[type_id.0 as usize];
                    let msg = Message::DirQuery(DirQuery {
                        type_id,
                        reply_to: node,
                        reply_pos,
                        query_id,
                    });
                    self.send_geo(k, node, dest, None, msg);
                    self.arm_query_failover(k, node, query_id);
                }
                GroupAction::SendToBase { label, payload } => {
                    let Some(base) = self.config.base_station else {
                        continue;
                    };
                    let msg = Message::Base(BaseReport {
                        label,
                        generated_at: k.now(),
                        payload,
                    });
                    let dest = self.deployment.position(base);
                    self.send_geo(k, node, dest, Some(base), msg);
                }
                GroupAction::MtpSend {
                    dst_label,
                    dst_port,
                    payload,
                } => {
                    self.mtp_send(k, node, tid, dst_label, dst_port, payload);
                }
                GroupAction::BecameLeader { label } => {
                    let rt = &mut self.nodes[node.index()];
                    let pos = rt.pos;
                    rt.mtp.learn(label, LeaderLoc { node, pos });
                }
                GroupAction::LostLeadership { label, new_leader } => {
                    if let Some(loc) = new_leader {
                        let now = k.now();
                        let rt = &mut self.nodes[node.index()];
                        rt.mtp.leave_forward_pointer(label, loc, now);
                        rt.mtp.learn(label, loc);
                    }
                }
                GroupAction::AppLog(line) => self.app_log.push((k.now(), node, line)),
            }
        }
    }

    fn mtp_send(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        tid: ContextTypeId,
        dst_label: ContextLabel,
        dst_port: Port,
        payload: Bytes,
    ) {
        let src_label = match self.nodes[node.index()].machines[tid.0 as usize].current_label() {
            Some(l) => l,
            None => return, // lost leadership between invocation and send
        };
        let src_pos = self.nodes[node.index()].pos;
        let known = self.nodes[node.index()].mtp.lookup(dst_label);
        match known {
            Some(loc) => {
                self.send_mtp_segment(
                    k,
                    node,
                    src_label,
                    Port(0),
                    dst_label,
                    dst_port,
                    payload,
                    loc.pos,
                    Some(loc.node),
                );
            }
            None if self.config.middleware.directory_enabled => {
                // Park the send and resolve through the directory.
                let rt = &mut self.nodes[node.index()];
                let query_id = rt.next_query_id;
                rt.next_query_id += 1;
                rt.pending_queries.push(PendingQuery {
                    query_id,
                    target_type: dst_label.type_id,
                    asker: None,
                    attempt: 0,
                });
                rt.mtp.park(
                    src_label,
                    Port(0),
                    dst_label,
                    dst_port,
                    payload,
                    k.now(),
                    query_id,
                );
                let dest = self.hash_points[dst_label.type_id.0 as usize];
                let msg = Message::DirQuery(DirQuery {
                    type_id: dst_label.type_id,
                    reply_to: node,
                    reply_pos: src_pos,
                    query_id,
                });
                self.send_geo(k, node, dest, None, msg);
                self.arm_query_failover(k, node, query_id);
            }
            None => {
                self.record_event(
                    k.now(),
                    node,
                    SystemEvent::MtpDropped {
                        label: dst_label,
                        node,
                    },
                );
            }
        }
    }

    /// Transmits one MTP segment towards a destination, allocating an
    /// end-to-end sequence number and arming the retransmission timer when
    /// acks are enabled.
    #[allow(clippy::too_many_arguments)]
    fn send_mtp_segment(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        node: NodeId,
        src_label: ContextLabel,
        src_port: Port,
        dst_label: ContextLabel,
        dst_port: Port,
        payload: Bytes,
        dest: Point,
        deliver_to: Option<NodeId>,
    ) {
        let telemetry = self.telemetry.clone();
        let seq = if self.config.middleware.mtp_retx_enabled {
            let rt = &mut self.nodes[node.index()];
            let seq = rt.mtp.next_seq();
            rt.mtp
                .track_outstanding(seq, src_label, src_port, dst_label, dst_port, payload.clone());
            let timeout = self.config.middleware.mtp_retx_timeout;
            k.schedule_at(k.now() + timeout, move |w: &mut SensorNetwork, k| {
                w.mtp_retry(k, node, seq);
            });
            // The ack span measures first-send to end-to-end ack, across
            // any retransmissions in between.
            telemetry.span_start(k.now().as_micros(), node.0, u64::from(seq));
            seq
        } else {
            0
        };
        telemetry.incr("mtp.send");
        telemetry.trace_shared(
            k.now().as_micros(),
            node.0,
            &self.labels.label(dst_label),
            "mtp.send",
            format!("seq={seq}"),
        );
        let seg = MtpSegment {
            src_label,
            src_port,
            dst_label,
            dst_port,
            src_leader: node,
            src_leader_pos: self.nodes[node.index()].pos,
            chain_hops: 0,
            seq,
            payload,
        };
        self.send_geo(k, node, dest, deliver_to, Message::Mtp(seg));
    }

    /// The end-to-end retransmission timer: resends an unacked segment with
    /// exponential backoff and jitter, or abandons it once the attempt
    /// budget is spent.
    fn mtp_retry(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, seq: u32) {
        if !self.nodes[node.index()].alive {
            return;
        }
        let mw = &self.config.middleware;
        let policy = RetxPolicy {
            timeout: mw.mtp_retx_timeout,
            max_attempts: mw.mtp_retx_max_attempts,
            jitter_max: mw.mtp_retx_jitter_max,
            max_backoff: mw.mtp_retx_max_backoff,
        };
        match self.nodes[node.index()].mtp.retransmit(seq, policy.max_attempts) {
            None => {} // acknowledged in the meantime
            Some(Err(abandoned)) => {
                self.telemetry
                    .observe("mtp.attempts", u64::from(abandoned.attempts));
                self.record_event(
                    k.now(),
                    node,
                    SystemEvent::MtpDropped {
                        label: abandoned.dst_label,
                        node,
                    },
                );
            }
            Some(Ok(out)) => {
                self.telemetry.incr("mtp.retx");
                self.telemetry.trace(
                    k.now().as_micros(),
                    node.0,
                    &out.dst_label.to_string(),
                    "mtp.retx",
                    format!("seq={seq} attempt={}", out.attempts),
                );
                let jitter = SimDuration::from_micros(
                    self.nodes[node.index()]
                        .retx_rng
                        .below(policy.jitter_max.as_micros().max(1)),
                );
                let next_check = k.now() + jitter + policy.backoff(out.attempts);
                k.schedule_at(next_check, move |w: &mut SensorNetwork, k| {
                    w.mtp_retry(k, node, seq);
                });
                let resend_at = k.now() + jitter;
                k.schedule_at(resend_at, move |w: &mut SensorNetwork, k| {
                    w.mtp_resend(k, node, out);
                });
            }
        }
    }

    /// Re-emits a tracked segment towards the current best-known location
    /// of its destination label — which may have moved since the original
    /// send, so the route is re-resolved rather than replayed.
    fn mtp_resend(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, out: Outstanding) {
        if !self.nodes[node.index()].alive {
            return;
        }
        let now = k.now();
        let next = {
            let rt = &mut self.nodes[node.index()];
            rt.mtp
                .forward_pointer(out.dst_label, now)
                .or_else(|| rt.mtp.lookup(out.dst_label))
        };
        // With no route knowledge the attempt is forfeit; the retry timer
        // stays armed, so a later heartbeat can still rescue the segment.
        let Some(loc) = next else { return };
        let seg = MtpSegment {
            src_label: out.src_label,
            src_port: out.src_port,
            dst_label: out.dst_label,
            dst_port: out.dst_port,
            src_leader: node,
            src_leader_pos: self.nodes[node.index()].pos,
            chain_hops: 0,
            seq: out.seq,
            payload: out.payload,
        };
        self.send_geo(k, node, loc.pos, Some(loc.node), Message::Mtp(seg));
    }

    /// An end-to-end ack arrived: clear the outstanding segment and refresh
    /// leadership knowledge from the acker.
    fn handle_mtp_ack(&mut self, now: Timestamp, node: NodeId, ack: &MtpAck) {
        // Geo routing can dead-end an ack at a node other than the
        // segment's source; such strays carry nothing actionable here.
        if ack.src_node != node {
            return;
        }
        let telemetry = self.telemetry.clone();
        let rt = &mut self.nodes[node.index()];
        rt.mtp.learn(
            ack.dst_label,
            LeaderLoc {
                node: ack.acker,
                pos: ack.acker_pos,
            },
        );
        let attempts = rt.mtp.attempts_of(ack.seq);
        if rt.mtp.acknowledge(ack.seq) {
            telemetry.incr("mtp.ack");
            if let Some(attempts) = attempts {
                telemetry.observe("mtp.attempts", u64::from(attempts));
            }
            let us = now.as_micros();
            if let Some(rtt) = telemetry.span_end(us, node.0, u64::from(ack.seq)) {
                telemetry.observe("mtp.ack_us", rtt);
            }
            telemetry.trace_shared(
                us,
                node.0,
                &self.labels.label(ack.dst_label),
                "mtp.ack",
                format!("seq={} acker=n{}", ack.seq, ack.acker.0),
            );
        }
    }

    /// Arms the replica-failover timer for a directory query. A no-op at
    /// the default replication factor of 1, so unreplicated runs schedule
    /// no extra kernel events.
    fn arm_query_failover(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, query_id: u32) {
        if self.config.middleware.directory_replicas <= 1 {
            return;
        }
        let timeout = self.config.middleware.directory_query_timeout;
        k.schedule_at(k.now() + timeout, move |w: &mut SensorNetwork, k| {
            w.query_failover(k, node, query_id);
        });
    }

    /// Re-issues an unanswered directory query to the next replica, or
    /// fails it — dropping any MTP sends parked on it — once the replica
    /// set is exhausted.
    fn query_failover(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, query_id: u32) {
        if !self.nodes[node.index()].alive {
            return;
        }
        let hit = self.nodes[node.index()]
            .pending_queries
            .iter_mut()
            .find(|p| p.query_id == query_id)
            .map(|p| {
                p.attempt += 1;
                (p.target_type, p.attempt)
            });
        let Some((target_type, attempt)) = hit else {
            return; // answered in the meantime
        };
        let replicas = replica_set(
            &self.deployment,
            self.hash_points[target_type.0 as usize],
            self.config.middleware.directory_replicas,
        );
        if attempt >= replicas.len() {
            // Every replica tried: the query fails; parked sends die too.
            let parked = {
                let rt = &mut self.nodes[node.index()];
                rt.pending_queries.retain(|p| p.query_id != query_id);
                rt.mtp.take_pending(query_id)
            };
            for send in parked {
                self.record_event(
                    k.now(),
                    node,
                    SystemEvent::MtpDropped {
                        label: send.dst_label,
                        node,
                    },
                );
            }
            return;
        }
        let msg = Message::DirQuery(DirQuery {
            type_id: target_type,
            reply_to: node,
            reply_pos: self.nodes[node.index()].pos,
            query_id,
        });
        let target = replicas[attempt];
        let pos = self.deployment.position(target);
        self.send_geo(k, node, pos, Some(target), msg);
        self.arm_query_failover(k, node, query_id);
    }

    // ------------------------------------------------------------------
    // Radio primitives
    // ------------------------------------------------------------------

    /// Sends a message towards a field coordinate using greedy geographic
    /// forwarding; delivers locally when this node is already the home (or
    /// the explicit recipient).
    fn send_geo(
        &mut self,
        k: &mut Kernel<SensorNetwork>,
        from: NodeId,
        dest: Point,
        deliver_to: Option<NodeId>,
        inner: Message,
    ) {
        if deliver_to == Some(from) {
            self.dispatch_message(k, from, inner);
            return;
        }
        match self.router.next_hop(from, dest) {
            None => self.dispatch_message(k, from, inner),
            Some(next) => {
                let geo = Message::Geo(GeoForward {
                    dest,
                    deliver_to,
                    inner: Box::new(inner),
                });
                let (payload, wire_len) = self.encode_payload(&geo);
                let frame = Frame::unicast(from, next, geo.kind(), payload).with_wire_len(wire_len);
                self.send_frame(k, from, frame);
            }
        }
    }

    /// Serialises `msg` under the configured codec, returning the frame
    /// payload plus the canonical *binary* length the radio is charged —
    /// which includes the 4-byte CRC-32 trailer every encoded frame ends
    /// in, so airtime charges integrity the way a real link layer does.
    /// The charge is identical in both modes — under the JSON debug codec
    /// the payload buffer carries the textual cross-check encoding (with
    /// its own textual trailer), but airtime and byte counters still
    /// reflect the canonical binary frame — so a fixed-seed run is
    /// byte-identical whichever codec decodes it.
    fn encode_payload(&self, msg: &Message) -> (Bytes, u16) {
        let binary = msg.encode();
        let wire_len = binary.len() as u16;
        match self.config.radio.codec {
            WireCodec::Binary => (binary, wire_len),
            WireCodec::Json => (msg.encode_with(WireCodec::Json), wire_len),
        }
    }

    fn send_frame(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, frame: Frame) {
        let reliable = self.config.link.enabled
            && matches!(frame.link_dst, envirotrack_net::packet::LinkDest::Node(_))
            && frame.kind != crate::wire::kinds::LINK_ACK;
        if !reliable {
            self.transmit_raw(k, node, frame);
            return;
        }
        let rt = &mut self.nodes[node.index()];
        rt.next_link_seq += 1;
        let seq = rt.next_link_seq;
        let frame = frame.with_link_seq(seq);
        rt.pending_acks.push(PendingAck {
            seq,
            frame: frame.clone(),
            attempts: 1,
        });
        let timeout = self.config.link.ack_timeout;
        k.schedule_at(k.now() + timeout, move |w: &mut SensorNetwork, k| {
            w.link_retry(k, node, seq);
        });
        self.transmit_raw(k, node, frame);
    }

    /// Retransmits an unacknowledged unicast frame, or gives up after the
    /// configured number of attempts.
    fn link_retry(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, seq: u32) {
        if !self.nodes[node.index()].alive {
            return;
        }
        let max_attempts = self.config.link.max_attempts;
        let frame = {
            let rt = &mut self.nodes[node.index()];
            let Some(idx) = rt.pending_acks.iter().position(|p| p.seq == seq) else {
                return; // acknowledged in the meantime
            };
            if rt.pending_acks[idx].attempts >= max_attempts {
                rt.pending_acks.remove(idx);
                return;
            }
            rt.pending_acks[idx].attempts += 1;
            rt.pending_acks[idx].frame.clone()
        };
        let jitter = {
            let rt = &mut self.nodes[node.index()];
            SimDuration::from_micros(
                rt.rng
                    .below(self.config.link.retry_jitter_max.as_micros().max(1)),
            )
        };
        let timeout = self.config.link.ack_timeout;
        k.schedule_at(
            k.now() + jitter + timeout,
            move |w: &mut SensorNetwork, k| {
                w.link_retry(k, node, seq);
            },
        );
        let retry_at = k.now() + jitter;
        k.schedule_at(retry_at, move |w: &mut SensorNetwork, k| {
            w.transmit_raw(k, node, frame);
        });
    }

    fn transmit_raw(&mut self, k: &mut Kernel<SensorNetwork>, node: NodeId, frame: Frame) {
        // Preparing a transmission costs CPU; overloaded nodes drop sends.
        if self.nodes[node.index()]
            .cpu
            .admit(k.now(), costs::TX_PREPARE)
            .is_err()
        {
            return;
        }
        // Sharded runs never touch the medium mid-epoch: the request is
        // captured, resolved centrally at the next barrier and ingested by
        // the interested shards (see `inject_shard_resolved`), where it is
        // also energy-charged.
        if let Some(shard) = &mut self.shard {
            debug_assert!(
                shard.owns(node),
                "only owned nodes transmit on a shard ({node})"
            );
            shard.push(k.now(), node, frame);
            return;
        }
        let airtime = self.medium.config().tx_time(&frame);
        match self.medium.transmit(k.now(), frame) {
            Ok(tx) => {
                self.nodes[node.index()].energy.charge_tx(airtime);
                k.schedule_at(tx.completes_at, move |w: &mut SensorNetwork, k| {
                    w.transmission_complete(k, tx.id);
                });
            }
            Err(_saturated) => {
                // Channel overload: the frame is gone; stats already count it.
            }
        }
    }
}

/// Builds a link-layer ack payload: the acknowledged sequence number
/// (big-endian) followed by a 4-byte CRC-32 trailer. Acks carry no wire
/// [`Message`], so this is their entire integrity envelope.
fn link_ack_payload(seq: u32) -> Bytes {
    let body = seq.to_be_bytes();
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crate::wire::crc::crc32(&body).to_le_bytes());
    Bytes::from(out)
}

/// Parses and verifies a link-layer ack payload; `None` when the frame is
/// the wrong size or fails its CRC — a garbled ack must be ignored, not
/// believed.
fn link_ack_seq(payload: &[u8]) -> Option<u32> {
    if payload.len() != 8 {
        return None;
    }
    let (body, trailer) = payload.split_at(4);
    if trailer != crate::wire::crc::crc32(body).to_le_bytes().as_slice() {
        return None;
    }
    Some(u32::from_be_bytes(body.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateFn, AggregateInput};
    use crate::api::Program;
    use crate::context::SensePredicate;
    use crate::report::telemetry_to_jsonl;
    use envirotrack_world::scenario::TankScenario;
    use envirotrack_world::target::Channel;

    fn tracker() -> Arc<Program> {
        let program = Program::builder().context("tracker", |c| {
            c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                .aggregate(
                    "location",
                    AggregateFn::CenterOfGravity,
                    AggregateInput::Position,
                    SimDuration::from_secs(1),
                    2,
                )
        });
        Arc::new(program.build().expect("a valid program"))
    }

    /// A tank crossing a 20 × 20 field for 5 s, with a clock slowed at 1 s
    /// and a node near the lane crashed at 1.5 s and rebooted at 3 s.
    /// Returns `kernel.events`, the event log and the telemetry JSONL.
    fn faulted_run(sense_loops_on_heap: bool) -> (u64, String, String) {
        let scenario = TankScenario {
            lane_y: 9.5,
            sensing_radius: 1.5,
            ..TankScenario::default()
        }
        .with_grid(20, 20)
        .with_speed_hops_per_s(2.0)
        .build();
        let mut engine = SensorNetwork::build_engine(
            tracker(),
            scenario.deployment,
            scenario.environment,
            NetworkConfig::default(),
            7,
        );
        engine.world_mut().sense_loops_on_heap = sense_loops_on_heap;
        let (slowed, crashed) = (NodeId(10 * 20 + 4), NodeId(9 * 20 + 3));
        let k = engine.kernel_mut();
        k.schedule_at(Timestamp::from_secs(1), move |w: &mut SensorNetwork, k| {
            w.set_clock_rate(slowed, 0.8, k.now());
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
        let on_lane = engine.kernel().recurring_len();
        assert_eq!(on_lane, if sense_loops_on_heap { 0 } else { 399 });
        let world = engine.world();
        (
            world.telemetry().counter("kernel.events"),
            format!("{:?}", world.events().entries()),
            telemetry_to_jsonl(world.telemetry()),
        )
    }

    #[test]
    fn the_recurring_lane_changes_no_byte_of_a_faulted_run() {
        let (events, log, telemetry) = faulted_run(false);
        assert!(log.contains("LabelCreated") && telemetry.contains("group.hb"));
        assert!(
            events > 400 * 25,
            "protocol events on top of 25 ticks per node"
        );
        assert_eq!((events, log, telemetry), faulted_run(true));
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
        engine
            .world_mut()
            .set_clock_rate(NodeId(500), 0.5, Timestamp::ZERO);
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
}
