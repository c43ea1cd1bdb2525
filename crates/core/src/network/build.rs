//! Assembling a world: its configuration, its constructors, and the
//! bootstrap event that sets it going.

use std::sync::Arc;

use envirotrack_net::medium::{Medium, RadioConfig};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::Topology;
use envirotrack_world::sensing::Environment;

use super::events::Recorder;
use super::link::LinkReliability;
use super::node::{Clocks, HotRecords, Layers, Nodes, SenseState};
use super::park::Parking;
use super::sense::{self, Sensing};
use super::{timers, SensorNetwork, K};
use crate::api::Program;
use crate::context::ContextTypeId;
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
    /// configured radius, built once by the caller: the medium reads the
    /// grid, and lists a node's receivers the first time it transmits or
    /// routes a message on. Whatever the node count, the world
    /// takes a fixed number of allocations: per-node state is a few arrays,
    /// each allocated once.
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
        let period = config.middleware.sense_period;
        let sensing = Sensing::new(&topology, period, &program, &environment);
        let nodes = deployment.len();
        SensorNetwork {
            nodes: Nodes::new(nodes, &master),
            clocks: Clocks::default(),
            layers: Layers::new(nodes, &master, &program),
            program,
            config,
            deployment,
            environment,
            medium,
            sense: HotRecords::new(nodes),
            sensing,
            park: Parking::default(),
            topology,
            timers: timers::Timers::default(),
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
            #[cfg(test)]
            ticks_every_period: false,
            #[cfg(test)]
            phase_quantum: 0,
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
                    self.layers.engage_fully(id);
                }
                self.medium.list_neighbors(id);
            }
        }
        let period = self.config.middleware.sense_period;
        let span = period.as_micros().max(1);
        // Each driven node's phase, by id, and the driven nodes in id order.
        let mut phases = vec![0; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        for id in self.deployment.ids() {
            // Sharded worlds start only their owned nodes' loops. Each
            // node's phase comes from its own forked RNG stream, so
            // skipping a node draws nothing and perturbs no other node.
            if !self.owns(id) {
                continue;
            }
            let phase = self.nodes.draw_phase(id, span);
            #[cfg(test)]
            let phase = phase - phase % self.phase_quantum.max(1);
            phases[id.index()] = phase;
            order.push(id.0);
        }
        self.nodes.phases_drawn(span);
        // Armed in firing order — id order among equal phases, the order
        // arming by id gave them — every loop goes straight onto the kernel's
        // recurring lane and the heap never holds one entry per node.
        sort_by_phase(&mut order, span, |id| phases[id as usize]);
        // A loop that would only charge its node's CPU until a target comes
        // near is parked from the start (`park.rs`): not armed at all, and
        // its node gets no record until something touches it. The pinned
        // objects' hosts lead from the start, and are armed.
        let program = Arc::clone(&self.program);
        let pinned = program.type_ids().filter(|&tid| program.spec(tid).pinned.is_some());
        let hosts: Vec<(ContextTypeId, NodeId)> = pinned
            .map(|tid| (tid, self.deployment.nearest(program.spec(tid).pinned.expect("pinned"))))
            .collect();
        let parking = self.start_parking(k);
        if parking {
            let hosted = |id: u32| hosts.iter().any(|&(_, h)| h.0 == id);
            order = self.park_at_birth(k, order, &phases, hosted);
        }
        // The hot records are laid out in firing order, so a sensing period
        // reads them front to back; the nodes this world does not drive go
        // after them, in id order.
        let others: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&id| !self.owns(NodeId(id)))
            .collect();
        let ids = order.iter().chain(&others).map(|&id| NodeId(id));
        #[cfg(test)]
        let ids: Box<dyn Iterator<Item = NodeId>> = if self.records_in_id_order {
            Box::new(self.deployment.ids())
        } else {
            Box::new(ids)
        };
        let laid = order.len() + others.len();
        let (deployment, topology) = (&self.deployment, &self.topology);
        self.sense.lay_out(ids, laid, parking, |id| {
            SenseState::new(deployment.position(id), topology.cell_of(id) as u32)
        });
        // The hook that makes every record up front makes these too.
        #[cfg(test)]
        for node in self.deployment.ids().filter(|_| self.cold_records_up_front) {
            if let super::node::Slot::Unmade(rank) = self.sense.find(node) {
                let record = self.record_from_start(node, rank);
                self.sense.make(node, record);
            }
        }
        k.reserve_recurring(order.len());
        for id in order {
            let (phase, id) = (SimDuration::from_micros(phases[id as usize]), NodeId(id));
            let word = sense::lane_word(self.sense.slot(id), id);
            self.arm_sense_tick(k, k.now() + phase, word, true);
        }
        // Instantiate static (pinned) objects on their host nodes.
        for (tid, host) in hosts {
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

/// The fewest ids [`sort_by_phase`] sorts by radix; a shorter list goes to
/// `sort_unstable_by_key` whole. At a 200 ms period the two cost the same
/// at about 64 ids (≈ 0.57 µs; 0.12 µs for the sort at 16 ids, 0.46 for
/// the radix's bucket arrays), and the radix is 2.8× faster at 256
/// (EXPERIMENTS.md "Bootstrap — before/after").
const PHASE_RADIX_MIN: usize = 64;

/// The most bits of a phase one radix pass places by (2 048 buckets). A
/// 200 ms period's 18 bits take two passes of 9 bits; three passes of 6
/// bits took 1.3–1.6× as long on 4 096 and 20 000 ids, one pass of 18 bits
/// (a 1 MiB bucket array) 1.7× to 70×.
const PHASE_DIGIT_BITS: u32 = 11;

/// Sorts `ids` — distinct and ascending — by `phase(id)`, a phase below
/// `period`, ties in id order: the order `sort_unstable` gives the
/// `(phase, id)` pairs. A list of 64 ids or more (`PHASE_RADIX_MIN`) takes
/// stable radix passes over the phase's bits, low digit first, each a
/// counting placement into a second buffer of ids, so the ids' own order
/// settles ties; a shorter one is sorted outright. Linear in the id count,
/// and it holds one more `u32` an id while it runs.
fn sort_by_phase(ids: &mut Vec<u32>, period: u64, phase: impl Fn(u32) -> u64) {
    if ids.len() < PHASE_RADIX_MIN {
        ids.sort_unstable_by_key(|&id| (phase(id), id));
        return;
    }
    debug_assert!(ids.is_sorted(), "ids out of order");
    let bits = u64::BITS - period.saturating_sub(1).leading_zeros();
    let passes = bits.div_ceil(PHASE_DIGIT_BITS).max(1);
    let digit = bits.div_ceil(passes);
    let (buckets, mask) = (1usize << digit, (1u64 << digit) - 1);
    // Every pass's bucket sizes at once: they do not depend on the order.
    let mut starts = vec![0u32; passes as usize * buckets];
    for &id in ids.iter() {
        let p = phase(id);
        debug_assert!(p < period.max(1), "phase {p} of {id} not below {period}");
        for (pass, sizes) in starts.chunks_exact_mut(buckets).enumerate() {
            sizes[(p >> (pass as u32 * digit) & mask) as usize] += 1;
        }
    }
    let mut placed = vec![0u32; ids.len()];
    for (pass, next) in starts.chunks_exact_mut(buckets).enumerate() {
        let mut at = 0;
        for size in next.iter_mut() {
            (*size, at) = (at, at + *size);
        }
        let shift = pass as u32 * digit;
        for &id in ids.iter() {
            let next = &mut next[(phase(id) >> shift & mask) as usize];
            placed[*next as usize] = id;
            *next += 1;
        }
        std::mem::swap(ids, &mut placed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prelude::*;

    prop_test! {
        /// Phases placed by radix passes come out in `sort_unstable`'s
        /// order of the `(phase, id)` pairs: ascending ids with gaps, as a
        /// shard's nodes; ties, phase 0 and `period - 1`; periods of one
        /// microsecond to nearly 2^64; lists on both sides of the length
        /// below which the placement hands over to `sort_unstable`.
        #[test]
        fn phases_placed_by_radix_are_in_sort_unstable_order(seed: u64) {
            let mut rng = SimRng::seed_from(seed);
            let period = match rng.below(4) {
                0 => 1 + rng.below(3),
                1 => 200_000,
                2 => 1 + rng.below(1 << 40),
                _ => u64::MAX - rng.below(1 << 20),
            };
            let n = match rng.below(3) {
                0 => rng.below(PHASE_RADIX_MIN as u64),
                1 => PHASE_RADIX_MIN as u64 - 4 + rng.below(8),
                _ => rng.below(6_000),
            };
            let mut id = 0;
            let mut ids: Vec<u32> = (0..n)
                .map(|_| {
                    id += 1 + rng.below(3) as u32;
                    id
                })
                .collect();
            let menu = [0, period - 1, rng.below(period), rng.below(period)];
            let phases: Vec<u64> = (0..=id)
                .map(|_| if rng.chance(0.3) { menu[rng.below(4) as usize] } else { rng.below(period) })
                .collect();
            let pair = |&id: &u32| (phases[id as usize], id);
            let mut want: Vec<(u64, u32)> = ids.iter().map(pair).collect();
            want.sort_unstable();
            sort_by_phase(&mut ids, period, |id| phases[id as usize]);
            let got: Vec<(u64, u32)> = ids.iter().map(pair).collect();
            prop_assert_eq!(got, want, "period {}, {} ids", period, n);
        }
    }
}
