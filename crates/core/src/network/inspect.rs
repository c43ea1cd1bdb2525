//! The read-only view of a world: what examples, tests, invariant monitors
//! and the experiment harness look at. Nothing here changes any state.

use envirotrack_net::medium::NetStats;
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{Telemetry, Work};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::sensing::Environment;

use super::dir::{self, DirState};
use super::node::Engaged;
use super::{NetworkConfig, SensorNetwork};
use crate::context::{ContextLabel, ContextTypeId};
use crate::directory::{hash_point, replica_set};
use crate::events::EventLog;
use crate::group::{AggregateHealth, GroupMachine, RoleKind};
use crate::report::{BaseStationLog, RunRecord};

impl std::fmt::Debug for SensorNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorNetwork")
            .field("nodes", &self.nodes.len())
            .field("types", &self.program.context_count())
            .field("events", &self.rec.log.len())
            .finish()
    }
}

impl SensorNetwork {
    /// Whether this world drives `node` (always true for monolithic runs).
    #[inline]
    pub(super) fn owns(&self, node: NodeId) -> bool {
        self.shard.as_ref().is_none_or(|s| s.owns(node))
    }

    /// Whether the deployed program declares `tid`; a label off the air may not.
    #[inline]
    pub(super) fn hosts(&self, tid: ContextTypeId) -> bool {
        (tid.0 as usize) < self.program.context_count()
    }

    /// Where a message bound for `dest` goes next from `from` under greedy
    /// geographic forwarding; `None` when it has arrived — `from` is the
    /// explicit recipient, or no neighbour is closer to `dest`. The walk
    /// reads the list the medium keeps for `from`, which is about to
    /// transmit, and takes the first closest neighbour in id order:
    /// [`GeoRouter::next_hop`](envirotrack_net::routing::GeoRouter::next_hop)'s hop.
    pub(super) fn next_hop(
        &mut self,
        from: NodeId,
        dest: Point,
        to: Option<NodeId>,
    ) -> Option<NodeId> {
        if to == Some(from) {
            return None;
        }
        let positions = self.deployment.positions();
        let mut best = (None, positions[from.index()].distance_sq_to(dest));
        for &n in self.medium.list_neighbors(from) {
            let d = positions[n.index()].distance_sq_to(dest);
            if d < best.1 {
                best = (Some(n), d);
            }
        }
        best.0
    }

    /// Every live node's machine for `tid`, in id order. A node that never
    /// used a layer has an idle one, which is nobody's leader or member and
    /// has no aggregates, so it is left out.
    fn live_machines(&self, tid: ContextTypeId) -> impl Iterator<Item = &GroupMachine> {
        let live = self
            .layers
            .engaged()
            .filter(|(id, _)| self.sense.alive(*id));
        live.map(move |(_, rt)| &rt.machines[usize::from(tid.0)])
    }

    /// The run-wide telemetry registry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.rec.telemetry
    }

    /// The protocol event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.rec.log
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
        self.live_machines(type_id)
            .filter_map(|m| match m.role_kind() {
                RoleKind::Leader(label) => Some((m.node(), label)),
                _ => None,
            })
            .collect()
    }

    /// Current members (non-leader) of a label.
    #[must_use]
    pub fn members_of_label(&self, label: ContextLabel) -> Vec<NodeId> {
        self.live_machines(label.type_id)
            .filter(|m| matches!(m.role_kind(), RoleKind::Member(l) if l == label))
            .map(GroupMachine::node)
            .collect()
    }

    /// Aggregate health rows for every live leader of `type_id` at `now`,
    /// as `(leader node, rows)` — see
    /// `crate::group::GroupMachine::aggregate_health`.
    #[must_use]
    pub fn aggregate_health(
        &self,
        type_id: ContextTypeId,
        now: Timestamp,
    ) -> Vec<(NodeId, Vec<AggregateHealth>)> {
        let spec = self.program.spec(type_id);
        self.live_machines(type_id)
            .map(|m| (m.node(), m.aggregate_health(spec, now)))
            .filter(|(_, rows)| !rows.is_empty())
            .collect()
    }

    /// Aggregate CPU statistics: `(admitted, dropped)` over all nodes.
    #[must_use]
    pub fn cpu_totals(&self) -> (u64, u64) {
        self.deployment.ids().fold((0, 0), |(a, d), id| {
            let s = self.cpu_stats(id);
            (a + s.admitted, d + s.dropped)
        })
    }

    /// Adds how this world did its work to `work`: the sensing driver's,
    /// parking's, the group timers' and the trace ring's counts, and how
    /// the run was stored. Like the kernel's
    /// ([`Kernel::work`](envirotrack_sim::engine::Kernel::work)) they say
    /// how the work was done, not what the simulation did, and a shard's
    /// world counts only its own nodes:
    /// - `cold_engaged`: nodes that hold protocol-layer state — a record
    ///   with their transport, directory and link state and their group
    ///   machines, created on the node's first use of any of them;
    /// - `neighbor_lists`: nodes whose neighbour list the medium has made,
    ///   one per node that transmitted, listed on its first transmission.
    pub fn work(&self, work: &mut Work) {
        self.sensing.work(work);
        self.park.work(work);
        self.timers.work(work);
        work.add("cold_engaged", self.layers.len() as u64);
        work.add("hot_made", self.sense.made() as u64);
        work.add("neighbor_lists", self.medium.neighbor_lists() as u64);
        self.rec.telemetry.work(work);
    }

    /// The nodes `cold_engaged` counts ([`Self::work`]), in id order.
    pub(crate) fn engaged_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.layers.engaged().map(|(id, _)| id)
    }

    /// Whether a node is alive.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.sense.alive(node)
    }

    /// A node's local clock reading at global instant `now`.
    #[must_use]
    pub fn local_clock(&self, node: NodeId, now: Timestamp) -> SimDuration {
        self.clocks.get(node).local_time(now)
    }

    /// The active partition mask, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&[u8]> {
        self.medium.partition()
    }

    /// The marginal protocol energy spent by one node (radio + CPU).
    #[must_use]
    pub fn energy_at(&self, node: NodeId) -> EnergyMeter {
        let mut m = self.nodes.get(node).map_or_else(EnergyMeter::new, |s| s.energy);
        let busy = self.cpu_stats(node).busy;
        m.charge_cpu(busy);
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

    /// Number of MTP segments a node holds awaiting end-to-end acks.
    #[must_use]
    pub fn mtp_outstanding_at(&self, node: NodeId) -> usize {
        self.layers
            .get(node)
            .map_or(0, |rt| rt.mtp.outstanding_len())
    }

    /// Number of cached last-known-leader entries on a node.
    #[must_use]
    pub fn mtp_table_len_at(&self, node: NodeId) -> usize {
        self.layers.get(node).map_or(0, |rt| rt.mtp.table_len())
    }

    /// The directory rendezvous coordinate of a context type.
    #[must_use]
    pub fn directory_home(&self, type_id: ContextTypeId) -> Point {
        hash_point(&self.program.spec(type_id).name, self.deployment.bounds())
    }

    /// The directory replica set of a context type: the `k` nodes nearest
    /// its hash point (`k` = the configured replication factor).
    #[must_use]
    pub fn directory_replicas_of(&self, type_id: ContextTypeId) -> Vec<NodeId> {
        replica_set(
            &self.deployment,
            self.directory_home(type_id),
            self.config.middleware.directory_replicas,
        )
    }

    /// Number of directory entries stored on a node (nonzero only on home
    /// nodes).
    #[must_use]
    pub fn directory_entries_at(&self, node: NodeId) -> usize {
        self.layers.get(node).map_or(0, |rt| rt.dir().store.len())
    }

    /// Whether every *live* replica of `type_id` reads the same under `view`.
    fn live_replicas_agree<V: PartialEq>(
        &self,
        type_id: ContextTypeId,
        view: impl Fn(&DirState) -> V,
    ) -> bool {
        let replicas = self.directory_replicas_of(type_id);
        let live = replicas.iter().filter(|&&n| self.sense.alive(n));
        let dir = |n: NodeId| self.layers.get(n).map_or(&dir::EMPTY, Engaged::dir);
        let views: Vec<V> = live.map(|&n| view(dir(n))).collect();
        views.windows(2).all(|pair| pair[0] == pair[1])
    }

    /// Whether every *live* replica of `type_id` stores an identical entry
    /// set, refresh timestamps included (see
    /// `crate::directory::DirectoryStore::digest`) — the anti-entropy
    /// convergence oracle.
    #[must_use]
    pub fn directory_replicas_converged(&self, type_id: ContextTypeId) -> bool {
        self.live_replicas_agree(type_id, |dir| dir.store.digest(type_id))
    }

    /// Whether every live replica of `type_id` agrees on the set of live
    /// (unexpired at `now`) labels. Weaker than
    /// [`Self::directory_replicas_converged`] — digests compare refresh
    /// timestamps too, and ordinary refresh traffic re-stamps entries at
    /// slightly different instants per replica — so membership agreement
    /// is the right post-heal oracle while the system keeps running.
    #[must_use]
    pub fn directory_replicas_agree(&self, type_id: ContextTypeId, now: Timestamp) -> bool {
        let ttl = crate::directory::ENTRY_TTL;
        self.live_replicas_agree(type_id, |dir| {
            let live = dir.store.query(type_id, now, ttl);
            let mut labels: Vec<ContextLabel> = live.into_iter().map(|(label, _)| label).collect();
            labels.sort_unstable();
            labels
        })
    }

    /// A whole-run robustness record for JSON-lines output, its protocol
    /// counts read from the telemetry counters; `violations` comes from the
    /// caller's invariant monitor (0 without one).
    #[must_use]
    pub fn run_record(&self, seed: u64, elapsed: SimDuration, violations: u64) -> RunRecord {
        let reports = self.base_log.len() as u64;
        let (telemetry, net) = (&self.rec.telemetry, self.medium.stats());
        RunRecord::from_registry(seed, elapsed, telemetry, net, reports, violations)
    }
}
