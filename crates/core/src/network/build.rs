//! Assembling a world: its configuration, its constructors, and the
//! bootstrap event that sets it going.

use std::sync::Arc;

use envirotrack_net::medium::{Medium, RadioConfig};
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::engine::Engine;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::Topology;
use envirotrack_world::sensing::Environment;

use super::events::Recorder;
use super::link::LinkReliability;
use super::node::{HotRecords, Layers, NodeState, SenseState};
use super::sense::{self, Sensing};
use super::{SensorNetwork, TimerWork, K};
use crate::api::Program;
use crate::config::MiddlewareConfig;
use crate::report::BaseStationLog;
use crate::shard::ShardState;

/// Everything configurable about one simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Radio and MAC parameters.
    pub radio: RadioConfig,
    /// Middleware (group management, aggregation, directory, MTP).
    pub middleware: MiddlewareConfig,
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
            link: LinkReliability::default(),
            base_station: Some(NodeId(0)),
        }
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
        let topology = Topology::new(&deployment, config.radio.comm_radius);
        let topology = Arc::new(topology);
        Self::with_topology(program, deployment, environment, config, seed, topology)
    }

    /// [`SensorNetwork::new`] over the topology of `deployment` under the
    /// configured radius, built once by the caller: who is in range of whom
    /// is worked out once, and the medium and the router read the same
    /// table. Whatever the node count, the world takes a fixed number of
    /// allocations: per-node state is a few arrays, each allocated once.
    pub(crate) fn with_topology(
        program: Arc<Program>,
        deployment: Deployment,
        environment: Environment,
        config: NetworkConfig,
        seed: u64,
        topology: Arc<Topology>,
    ) -> Self {
        config
            .middleware
            .validate()
            .expect("invalid middleware configuration");
        let master = SimRng::seed_from(seed);
        let telemetry = Telemetry::new();
        let mut medium = Medium::with_topology(topology.clone(), config.radio.clone(), &master);
        medium.attach_telemetry(telemetry.clone());
        let router = GeoRouter::with_topology(topology);
        let period = config.middleware.sense_period;
        let sensing = Sensing::new(&deployment, period, &program, &environment);
        let sense = deployment
            .iter()
            .map(|(_, pos)| SenseState::new(pos, sensing.cell(pos)))
            .collect();
        SensorNetwork {
            nodes: NodeState::all(deployment.len(), &master),
            layers: Layers::new(deployment.len(), &master, &program),
            program,
            config,
            deployment,
            environment,
            medium,
            router,
            sense: HotRecords::new(sense),
            sensing,
            timers: TimerWork::default(),
            rec: Recorder::new(telemetry),
            base_log: BaseStationLog::default(),
            app_log: Vec::new(),
            shard: None,
            #[cfg(test)]
            sense_loops_on_heap: false,
            #[cfg(test)]
            ticks_enter_machines: false,
            #[cfg(test)]
            records_in_id_order: false,
            #[cfg(test)]
            cold_records_up_front: false,
        }
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

    /// Builds one shard's replica of a sharded run over the run's one
    /// `topology`: a complete world whose handlers drive only the nodes
    /// `owned` marks, with transmit requests diverted to the epoch outbox
    /// and the medium narrowed to the receiver side of those nodes — it only
    /// ingests the resolved transmissions the orchestrator's central
    /// `ChannelScheduler` routes here. [`crate::shard::run_sharded`] owns
    /// the barrier protocol that drives the result.
    pub(crate) fn build_engine_sharded(
        program: Arc<Program>,
        deployment: Deployment,
        environment: Environment,
        config: NetworkConfig,
        seed: u64,
        topology: Arc<Topology>,
        owned: Vec<bool>,
    ) -> Engine<SensorNetwork> {
        let mut world =
            SensorNetwork::with_topology(program, deployment, environment, config, seed, topology);
        world.medium.enable_shard_exec(owned.clone());
        world.shard = Some(ShardState::new(owned));
        world.into_engine(seed)
    }

    /// Wraps the world in an engine with telemetry attached and the
    /// bootstrap scheduled at time zero.
    fn into_engine(self, seed: u64) -> Engine<SensorNetwork> {
        let telemetry = self.rec.telemetry.clone();
        let mut engine = Engine::new(self, seed);
        engine.kernel_mut().attach_telemetry(&telemetry);
        engine
            .kernel_mut()
            .schedule_at(Timestamp::ZERO, |w, k| w.bootstrap(k));
        engine
    }

    /// The event at time zero: starts every sensing loop, instantiates the
    /// pinned objects and arms the directory gossip.
    fn bootstrap(&mut self, k: &mut K) {
        #[cfg(test)]
        if self.cold_records_up_front {
            for id in self.deployment.ids() {
                if self.owns(id) {
                    self.layers.engage(id);
                }
            }
        }
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
        // recurring lane and the heap never holds one entry per node. The
        // hot records are laid out in the same order, so a sensing period
        // reads them front to back; the nodes this world does not drive go
        // after them.
        starts.sort_unstable();
        let order = starts.iter().map(|&(_, id)| id);
        #[cfg(test)]
        let in_id_order = self.records_in_id_order;
        #[cfg(test)]
        let order = order.filter(|_| !in_id_order);
        self.sense.lay_out(order);
        k.reserve_recurring(starts.len());
        for (phase, id) in starts {
            let word = sense::lane_word(self.sense.slot(id), id);
            self.arm_sense_tick(k, k.now() + phase, word, true);
        }
        // Instantiate static (pinned) objects on their host nodes.
        for tid in self.program.type_ids() {
            let Some(at) = self.program.spec(tid).pinned else {
                continue;
            };
            let host = self.router.closest_node(at);
            if self.owns(host) {
                self.run_machine(k, host, tid, |machine, ctx| machine.instantiate_pinned(ctx));
            }
        }
        self.schedule_gossip(k);
    }

    /// Arms the first anti-entropy round on every directory replica. A
    /// no-op unless gossip is enabled with ≥ 2 replicas, so default runs
    /// schedule no extra kernel events (and draw no extra randomness —
    /// replica phases are staggered deterministically, not jittered).
    fn schedule_gossip(&mut self, k: &mut K) {
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
                k.schedule_at(k.now() + phase, move |w, k| w.gossip_tick(k, node, tid));
            }
        }
    }
}
