//! Assembling a world: its configuration, and the constructors that turn a
//! program, a deployment and an environment into a [`SensorNetwork`] inside
//! an engine with the bootstrap scheduled.

use std::collections::BTreeMap;
use std::sync::Arc;

use envirotrack_net::medium::{Medium, RadioConfig};
use envirotrack_net::routing::GeoRouter;
use envirotrack_node::cpu::CpuConfig;
use envirotrack_sim::engine::Engine;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::sensing::Environment;

use super::events::Recorder;
use super::link::LinkReliability;
use super::node::NodeState;
use super::SensorNetwork;
use crate::api::Program;
use crate::config::MiddlewareConfig;
use crate::directory::hash_point;
use crate::report::BaseStationLog;
use crate::shard::ShardState;

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
            .map(|(id, pos)| NodeState::new(id, pos, &program, &config, &telemetry, &master))
            .collect();
        SensorNetwork {
            program,
            config,
            deployment,
            environment,
            medium,
            router,
            nodes,
            rec: Recorder::new(telemetry),
            base_log: BaseStationLog::new(),
            app_log: Vec::new(),
            hash_points,
            corrupt_counters: BTreeMap::new(),
            shard: None,
            #[cfg(test)]
            sense_loops_on_heap: false,
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

    /// Builds one shard's replica of a sharded run: a complete world whose
    /// handlers drive only the nodes `shard_assignment` maps to
    /// `shard_idx`, with transmit requests diverted to the epoch outbox and
    /// the medium narrowed to the receiver side of those nodes — it only
    /// ingests the resolved transmissions the orchestrator's central
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
        assert!(
            shard_idx < shards,
            "shard index {shard_idx} out of {shards}"
        );
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
        let telemetry = self.rec.telemetry.clone();
        let mut engine = Engine::new(self, seed);
        engine.kernel_mut().attach_telemetry(telemetry);
        engine
            .kernel_mut()
            .schedule_at(Timestamp::ZERO, |w, k| w.bootstrap(k));
        engine
    }
}
