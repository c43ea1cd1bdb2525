//! Per-node state, split by how often it is touched. [`SenseState`] is the
//! hot half: one cache line per node, held by [`HotRecords`] in the order
//! the sensing lane fires them, holding exactly what a sensing tick that
//! finds nothing reads and writes. The cold half is split by who touches
//! it: [`NodeState`], in id order, is what every node reads — its main
//! stream, energy and clock — and [`Engaged`] is what only a node that uses
//! a protocol layer holds — one state value per layer and its group
//! machines — created in [`Layers`] on the node's first write. A layer takes
//! its own field, plus the substrates it charges.
//!
//! A node holds only its dense state until it uses a layer: the world is a
//! fixed number of arrays plus one record per engaged node, and a layer's
//! own tables start empty and grow on first use. The hot records themselves
//! are made at the bootstrap, and a node parked from the start gets its own
//! only when something touches it (`park.rs`).

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

use envirotrack_node::cpu::{costs, MoteCpu};
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::dir::{self, DirState};
use super::link::LinkState;
use crate::api::Program;
use crate::context::ContextTypeId;
use crate::group::GroupMachine;
use crate::transport::MtpState;

/// A node's local clock model: `local = anchor_local + (global −
/// anchor_global) · rate`. Rate 1.0 is a perfect clock; the anchors are
/// rebased whenever the rate changes so local time stays continuous (and
/// therefore monotonic — which the invariant monitor checks).
#[derive(Debug, Clone, Copy)]
pub(super) struct NodeClock {
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
    pub(super) fn local_time(&self, now: Timestamp) -> SimDuration {
        self.anchor_local + now.saturating_since(self.anchor_global).mul_f64(self.rate)
    }

    pub(super) fn set_rate(&mut self, rate: f64, now: Timestamp) {
        self.anchor_local = self.local_time(now);
        self.anchor_global = now;
        self.rate = rate;
    }

    /// Whether local delays are global delays.
    pub(super) fn is_nominal(&self) -> bool {
        (self.rate - 1.0).abs() < f64::EPSILON
    }

    /// Converts a delay measured on this node's clock into global time: a
    /// fast clock (rate > 1) makes local delays elapse sooner.
    pub(super) fn global_delay(&self, local: SimDuration) -> SimDuration {
        if self.is_nominal() {
            local
        } else {
            local.mul_f64(1.0 / self.rate)
        }
    }
}

/// The hot half of a node: what an idle sensing tick touches, and nothing
/// else, so that tick stays within one cache line (size and alignment are
/// pinned by a test).
#[repr(C, align(64))]
pub(super) struct SenseState {
    pub(super) pos: Point,
    pub(super) cpu: MoteCpu,
    pub(super) alive: bool,
    /// Mirrors [`NodeClock::is_nominal`] of the cold clock, so an unskewed
    /// node's tick converts no delay. Kept where the rate is set.
    pub(super) clock_nominal: bool,
    /// Every group machine of the node is idle with no formation timer
    /// pending (see `sense.rs`). Kept by `drive_machine` and [`reboot`].
    pub(super) quiescent: bool,
    /// The node's clock has left the nominal rate at some point, so its
    /// ticks no longer keep the phase its record's slot was laid out by:
    /// it never parks (`park.rs`).
    pub(super) skewed: bool,
    /// The grid cell the node is in
    /// ([`Topology::cell_of`](envirotrack_world::grid::Topology::cell_of)),
    /// worked out once: a node never moves.
    pub(super) cell: u32,
}

impl SenseState {
    pub(super) fn new(pos: Point, cell: u32) -> Self {
        SenseState {
            pos,
            cpu: MoteCpu::new(costs::MAX_BACKLOG),
            alive: true,
            clock_nominal: true,
            quiescent: true,
            skewed: false,
            cell,
        }
    }

    /// Whether the node is up and its CPU takes a task of `cost` at `now`.
    /// Overload is the paper's limiting factor: the caller drops, skips or
    /// delays the work when this says no.
    #[inline]
    pub(super) fn admit(&mut self, now: Timestamp, cost: SimDuration) -> bool {
        self.alive && self.cpu.admit(now, cost).is_ok()
    }
}

/// Every node's hot record that has been made, plus where each node's is.
/// `bootstrap` lays the records out in the order the recurring lane fires
/// them, so one sensing period reads the array front to back; a tick finds
/// its record by the slot its lane word carries, everything else by node
/// id through the table. Which record sits where changes no byte of a run.
/// A node parked from the start (`park.rs`) gets its record, at the end,
/// when something touches it; until then the table keeps its *rank*, its
/// place in firing order, which a record keeps beside the array.
pub(super) struct HotRecords {
    records: Vec<SenseState>,
    /// `slots[id]` is where node `id`'s record is, or [`UNMADE`] with its
    /// rank in the low bits.
    slots: Vec<u32>,
    /// The rank of the record in each slot, where nodes park.
    ranks: Vec<u32>,
}

/// Marks a node that has no record yet.
const UNMADE: u32 = 1 << 31;

/// Marks a slot [`HotRecords::lay_out`] has already handed out.
const PLACED: u32 = 1 << 30;

/// The rank of a node nothing ranked — one this world does not drive —
/// which no parked bit is ever at.
const NO_RANK: u32 = PLACED - 1;

/// Where a node's record is: in a slot, or not made yet, with its rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Slot {
    Made(u32),
    Unmade(u32),
}

impl HotRecords {
    /// No record yet for any of `nodes` nodes.
    pub(super) fn new(nodes: usize) -> Self {
        let n = u32::try_from(nodes).expect("node ids are u32");
        assert!(n < PLACED, "more nodes than slots");
        HotRecords {
            records: Vec::new(),
            slots: vec![UNMADE | NO_RANK; nodes],
            ranks: Vec::new(),
        }
    }

    /// How many records have been made: none is ever dropped.
    pub(super) fn made(&self) -> usize {
        self.records.len()
    }

    /// The record in `slot`.
    #[inline]
    pub(super) fn at(&self, slot: u32) -> &SenseState {
        &self.records[slot as usize]
    }

    /// The record in `slot`, to change.
    #[inline]
    pub(super) fn at_mut(&mut self, slot: u32) -> &mut SenseState {
        &mut self.records[slot as usize]
    }

    /// Where `node`'s record is, or its rank if it has none.
    #[inline]
    pub(super) fn find(&self, node: NodeId) -> Slot {
        match self.slots[node.index()] {
            slot if slot & UNMADE != 0 => Slot::Unmade(slot & !UNMADE),
            slot => Slot::Made(slot),
        }
    }

    /// Where `node`'s record is; it has one.
    #[inline]
    pub(super) fn slot(&self, node: NodeId) -> u32 {
        let slot = self.slots[node.index()];
        debug_assert!(slot & UNMADE == 0, "{node} has no record");
        slot
    }

    /// The rank of the record in `slot`.
    #[inline]
    pub(super) fn rank(&self, slot: u32) -> u32 {
        self.ranks.get(slot as usize).copied().unwrap_or(NO_RANK)
    }

    /// `node`'s record, if it has one.
    #[inline]
    pub(super) fn get(&self, node: NodeId) -> Option<&SenseState> {
        match self.find(node) {
            Slot::Made(slot) => Some(&self.records[slot as usize]),
            Slot::Unmade(_) => None,
        }
    }

    /// Whether `node` is up: a node without a record is.
    #[inline]
    pub(super) fn alive(&self, node: NodeId) -> bool {
        self.get(node).is_none_or(|hot| hot.alive)
    }

    /// Gives `node` the rank `rank`.
    pub(super) fn set_rank(&mut self, node: NodeId, rank: u32) {
        match self.find(node) {
            Slot::Made(slot) => self.ranks[slot as usize] = rank,
            Slot::Unmade(_) => self.slots[node.index()] = UNMADE | rank,
        }
    }

    /// Makes `record` `node`'s, which has none, at the end of the array,
    /// with the rank it had; returns its slot.
    #[cold]
    pub(super) fn make(&mut self, node: NodeId, record: SenseState) -> u32 {
        let Slot::Unmade(rank) = self.find(node) else {
            panic!("{node} has a record");
        };
        let slot = self.records.len();
        self.records.push(record);
        self.ranks.resize(slot, NO_RANK);
        self.ranks.push(rank);
        self.slots[node.index()] = slot as u32;
        slot as u32
    }

    /// The heap bytes of the records, the slot table and the ranks.
    pub(super) fn heap_bytes(&self) -> usize {
        self.records.capacity() * size_of::<SenseState>()
            + (self.slots.capacity() + self.ranks.capacity()) * size_of::<u32>()
    }

    /// Gives the `count` nodes of `order` the first slots, in that order:
    /// a node that has a record takes it along, any other gets `fresh(id)`;
    /// where `ranked`, each keeps its rank. Every other node is left
    /// without a record.
    ///
    /// # Panics
    ///
    /// Panics if `order` names a node twice.
    pub(super) fn lay_out(
        &mut self,
        order: impl IntoIterator<Item = NodeId>,
        count: usize,
        ranked: bool,
        mut fresh: impl FnMut(NodeId) -> SenseState,
    ) {
        let mut old = std::mem::take(&mut self.records);
        let old_ranks = std::mem::take(&mut self.ranks);
        self.records.reserve_exact(count);
        for id in order {
            let slot = &mut self.slots[id.index()];
            assert!(*slot & PLACED == 0, "{id} laid out twice");
            let (record, rank) = if *slot & UNMADE == 0 {
                let blank = SenseState::new(Point::ORIGIN, 0);
                let rank = old_ranks.get(*slot as usize).copied().unwrap_or(NO_RANK);
                (std::mem::replace(&mut old[*slot as usize], blank), rank)
            } else {
                (fresh(id), *slot & !UNMADE)
            };
            *slot = self.records.len() as u32 | PLACED;
            self.records.push(record);
            if ranked {
                self.ranks.push(rank);
            }
        }
        for slot in &mut self.slots {
            assert!(*slot & (PLACED | UNMADE) != 0, "a record left out of the layout");
            *slot &= !PLACED;
        }
    }
}

impl Index<NodeId> for HotRecords {
    type Output = SenseState;

    #[inline]
    fn index(&self, node: NodeId) -> &SenseState {
        &self.records[self.slot(node) as usize]
    }
}

impl IndexMut<NodeId> for HotRecords {
    #[inline]
    fn index_mut(&mut self, node: NodeId) -> &mut SenseState {
        let slot = self.slot(node);
        &mut self.records[slot as usize]
    }
}

/// The dense cold half of a node: its main stream (the bootstrap draws
/// its sensing phase from it, and a noisy sample its noise) and its radio
/// energy. Its clock is in [`Clocks`].
pub(super) struct NodeState {
    pub(super) rng: SimRng,
    /// Marginal radio energy (CPU energy derives from the CPU meter).
    pub(super) energy: EnergyMeter,
}

/// How many states a block of [`Nodes`] holds.
const CHUNK: u32 = 256;

/// Every node's [`NodeState`], made on the node's first use of it: a node
/// that only ever senses — most of a large field — never draws a number or
/// spends radio energy, and holds none. Its stream is the `"node"` fork of
/// the master stream, indexed by its id, less the draw the bootstrap took
/// for its phase: what it would have held from the start, so when it is
/// made changes no byte of a run.
pub(super) struct Nodes {
    main: SimRng,
    /// `slots[id]` is one more than where node `id`'s state is, or zero.
    slots: Vec<u32>,
    /// The states made, [`CHUNK`] to a block that never grows: the table
    /// grows by a block, not by copying itself into one twice its size.
    states: Vec<Vec<NodeState>>,
    made: u32,
    /// The sensing period the bootstrap drew the driven nodes' phases
    /// over, in microseconds, once it has.
    drawn: Option<u64>,
}

impl Nodes {
    /// No state yet for any of `nodes` nodes.
    pub(super) fn new(nodes: usize, master: &SimRng) -> Self {
        Nodes {
            main: master.fork("node"),
            slots: vec![0; nodes],
            states: Vec::new(),
            made: 0,
            drawn: None,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The sensing phase the bootstrap draws from `node`'s stream, over
    /// `period` µs: from its state if it has one, which the draw advances.
    pub(super) fn draw_phase(&mut self, node: NodeId, period: u64) -> u64 {
        match self.slots[node.index()].checked_sub(1) {
            Some(i) => self.at(i).rng.below(period),
            None => self.main.indexed(u64::from(node.0)).below(period),
        }
    }

    /// The `i`-th state made.
    #[inline]
    fn at(&mut self, i: u32) -> &mut NodeState {
        &mut self.states[(i / CHUNK) as usize][(i % CHUNK) as usize]
    }

    /// [`Nodes::draw_phase`] asked ahead, drawing nothing.
    #[cfg(test)]
    pub(super) fn phase(&self, node: NodeId, period: u64) -> u64 {
        self.get(node).map_or_else(
            || self.main.indexed(u64::from(node.0)).below(period),
            |state| state.rng.clone().below(period),
        )
    }

    /// Whether any node has its state.
    pub(super) fn any_made(&self) -> bool {
        self.made > 0
    }

    /// Notes that the bootstrap drew the phases of the nodes it drives over
    /// `period` µs.
    pub(super) fn phases_drawn(&mut self, period: u64) {
        self.drawn = Some(period);
    }

    /// `node`'s state, if it has one.
    #[inline]
    pub(super) fn get(&self, node: NodeId) -> Option<&NodeState> {
        let i = self.slots[node.index()].checked_sub(1)?;
        Some(&self.states[(i / CHUNK) as usize][(i % CHUNK) as usize])
    }

    /// `node`'s state, made now if it has none; `driven` says whether the
    /// bootstrap drew its phase.
    #[inline]
    pub(super) fn get_mut(&mut self, node: NodeId, driven: bool) -> &mut NodeState {
        let mut slot = self.slots[node.index()];
        if slot == 0 {
            slot = self.make(node, driven);
        }
        self.at(slot - 1)
    }

    /// Makes `node`'s state, and returns its slot.
    #[cold]
    fn make(&mut self, node: NodeId, driven: bool) -> u32 {
        let mut rng = self.main.indexed(u64::from(node.0));
        if let Some(period) = self.drawn.filter(|_| driven) {
            rng.below(period);
        }
        if self.made.is_multiple_of(CHUNK) {
            // A field smaller than a block gets a block its size.
            let room = (CHUNK as usize).min(self.slots.len());
            self.states.push(Vec::with_capacity(room));
        }
        let block = self.states.last_mut().expect("a block with room");
        block.push(NodeState {
            rng,
            energy: EnergyMeter::new(),
        });
        self.made += 1;
        self.slots[node.index()] = self.made;
        self.made
    }

    /// The heap bytes of the slot table and the states.
    pub(super) fn heap_bytes(&self) -> usize {
        let blocks = self.states.iter().map(|b| b.capacity() * size_of::<NodeState>());
        self.slots.capacity() * size_of::<u32>()
            + self.states.capacity() * size_of::<Vec<NodeState>>()
            + blocks.sum::<usize>()
    }
}

/// The clocks whose rate was ever set, by node. Every other node's clock
/// is ideal, and takes no room: a fault may skew any node, but few are.
#[derive(Default)]
pub(super) struct Clocks(BTreeMap<NodeId, NodeClock>);

impl Clocks {
    /// `node`'s clock.
    #[inline]
    pub(super) fn get(&self, node: NodeId) -> NodeClock {
        self.0.get(&node).copied().unwrap_or_else(NodeClock::ideal)
    }

    /// Sets `node`'s clock rate at `now` ([`NodeClock::set_rate`]), and says
    /// whether it is nominal.
    pub(super) fn set_rate(&mut self, node: NodeId, rate: f64, now: Timestamp) -> bool {
        let clock = self.0.entry(node).or_insert_with(NodeClock::ideal);
        clock.set_rate(rate, now);
        clock.is_nominal()
    }

    /// The heap bytes of the table, counted per entry.
    pub(super) fn heap_bytes(&self) -> usize {
        self.0.len() * size_of::<(NodeId, NodeClock)>()
    }
}


/// What a node holds once it uses a protocol layer: one state value per
/// layer and its group machines. The parts most engaged nodes never use —
/// they only ever hear leaders — live in boxes of their own, made on first
/// use too: the MTP endpoint (see [`MtpState`]) and the directory state.
pub(super) struct Engaged {
    pub(super) mtp: MtpState,
    dir: Option<Box<DirState>>,
    pub(super) link: LinkState,
    /// One machine per context type, by type id.
    pub(super) machines: Box<[GroupMachine]>,
}

impl Engaged {
    /// What `node` would have held from the start, running `types` context
    /// types: empty tables, idle machines.
    #[cold]
    fn fresh(types: u16, node: NodeId) -> Box<Self> {
        Box::new(Engaged {
            mtp: MtpState::default(),
            dir: None,
            link: LinkState::default(),
            machines: (0..types)
                .map(|tid| GroupMachine::new(node, ContextTypeId(tid)))
                .collect(),
        })
    }

    /// The node's directory state; [`dir::EMPTY`] until it uses the
    /// directory.
    pub(super) fn dir(&self) -> &DirState {
        self.dir.as_deref().unwrap_or(&dir::EMPTY)
    }

    /// The node's directory state, to change: made now if it has none.
    pub(super) fn dir_mut(&mut self) -> &mut DirState {
        self.dir.get_or_insert_with(Box::default)
    }

    /// The node's directory state, to change, if it has one.
    pub(super) fn dir_if_any(&mut self) -> Option<&mut DirState> {
        self.dir.as_deref_mut()
    }
}

/// Every node's [`Engaged`] record, by node id, created on the node's first
/// write to any of them. Most nodes of a large field never use a layer: the
/// groups live where the targets are. A node without a record reads as a
/// fresh one — idle machines, empty tables — and reading it creates nothing.
///
/// A record, and each box it makes later, is exactly what the node would
/// have held from the start, so when it is created changes no byte of a
/// run: its machines start idle, its tables empty, and its MTP endpoint's
/// stream is the node's own `"mtp-retx"` fork, indexed by id.
pub(super) struct Layers {
    records: Vec<Option<Box<Engaged>>>,
    /// The `"mtp-retx"` fork of the master stream.
    retx: SimRng,
    types: u16,
}

impl Layers {
    /// No record yet for any of `nodes` nodes running `program`.
    pub(super) fn new(nodes: usize, master: &SimRng, program: &Program) -> Self {
        Layers {
            records: std::iter::repeat_with(|| None).take(nodes).collect(),
            retx: master.fork("mtp-retx"),
            types: u16::try_from(program.context_count()).expect("type ids are u16"),
        }
    }

    /// `node`'s record, if it has one.
    #[inline]
    pub(super) fn get(&self, node: NodeId) -> Option<&Engaged> {
        self.records[node.index()].as_deref()
    }

    /// `node`'s record, to change: created now if the node has none.
    #[inline]
    pub(super) fn engage(&mut self, node: NodeId) -> &mut Engaged {
        let types = self.types;
        self.records[node.index()].get_or_insert_with(|| Engaged::fresh(types, node))
    }

    /// [`Layers::engage`], with the stream an MTP endpoint the node makes
    /// now starts from: the `indexed(id)` child of the `"mtp-retx"` fork,
    /// the stream it would have held from the start.
    #[inline]
    pub(super) fn engage_with_retx(
        &mut self,
        node: NodeId,
    ) -> (&mut Engaged, impl FnOnce() -> SimRng + Copy + '_) {
        let Layers {
            records,
            retx,
            types,
        } = self;
        let record = records[node.index()].get_or_insert_with(|| Engaged::fresh(*types, node));
        let retx = &*retx;
        (record, move || retx.indexed(u64::from(node.0)))
    }

    /// `node`'s record with every box a record makes on first use made now.
    #[cfg(test)]
    pub(super) fn engage_fully(&mut self, node: NodeId) {
        let (record, retx) = self.engage_with_retx(node);
        record.mtp.endpoint(retx);
        record.dir_mut();
    }

    /// Every record with its node, in id order.
    pub(super) fn engaged(&self) -> impl Iterator<Item = (NodeId, &Engaged)> {
        let ids = (0..).map(NodeId);
        ids.zip(&self.records)
            .filter_map(|(id, record)| Some((id, record.as_deref()?)))
    }

    /// How many nodes have a record.
    pub(super) fn len(&self) -> usize {
        self.engaged().count()
    }

    /// Adds what the records hold to `work`, tier by tier, each summed over
    /// the records first:
    /// - `heap_engaged`: the slot table, each record with its group
    ///   machines and link tables;
    /// - `heap_mtp`: the records' MTP last-known-leader and forwarding
    ///   tables;
    /// - `heap_endpoints`: MTP endpoints, boxes made on a node's first
    ///   end-to-end send, park or delivery, with their tables;
    /// - `heap_directory`: directory state, boxes made on a node's first
    ///   use of the directory, with their stores and queries;
    /// - `heap_leaders`: what the machines hold because they lead — the
    ///   boxed leader state, its windows, timers and directory view.
    pub(super) fn heap_bytes(&self, work: &mut Work) {
        let mut engaged = self.records.capacity() * size_of::<Option<Box<Engaged>>>();
        let (mut mtp, mut endpoints, mut directory, mut leaders) = (0, 0, 0, 0);
        for (_, record) in self.engaged() {
            let (tables, endpoint) = record.mtp.heap_bytes();
            engaged +=
                size_of::<Engaged>() + size_of_val(&*record.machines) + record.link.heap_bytes();
            mtp += tables;
            endpoints += endpoint;
            directory += record.dir.as_ref().map_or(0, |d| d.heap_bytes());
            leaders += record.machines.iter().map(GroupMachine::heap_bytes).sum::<usize>();
        }
        for (name, bytes) in [
            ("heap_engaged", engaged),
            ("heap_mtp", mtp),
            ("heap_endpoints", endpoints),
            ("heap_directory", directory),
            ("heap_leaders", leaders),
        ] {
            work.add(name, bytes as u64);
        }
    }
}

/// Brings a killed node back with cleared protocol state (a rebooted mote
/// remembers nothing): group machines, transport tables, directory entries,
/// and every in-flight query or ack are gone. Only the link, transport and
/// query sequence counters survive — reusing sequence numbers would trip
/// peers' dedup windows. A node without a record, an MTP endpoint or
/// directory state has nothing of it to clear, and gets none.
pub(super) fn reboot(id: NodeId, hot: &mut SenseState, layers: &mut Layers) {
    hot.alive = true;
    hot.quiescent = true;
    let Some(record) = layers.records[id.index()].as_deref_mut() else {
        return;
    };
    for machine in &mut record.machines {
        *machine = machine.rebooted();
    }
    record.mtp.reboot();
    if let Some(dir) = record.dir_if_any() {
        dir.reboot();
    }
    record.link.reboot();
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prelude::*;

    /// A fresh record tagged with its node's id in both its position and
    /// its cell, so a record says whose it is.
    fn tagged(id: NodeId) -> SenseState {
        SenseState::new(Point::new(f64::from(id.0), 0.0), id.0)
    }

    /// A random order of all of `n` nodes, or of a random share of them —
    /// a shard's owned nodes.
    fn some_order(rng: &mut SimRng, n: u32) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        if rng.chance(0.5) {
            ids.truncate(rng.below(u64::from(n) + 1) as usize);
        }
        ids
    }

    prop_test! {
        /// However the records are laid out — in a full order or a partial
        /// one, once or over records made before — the order's nodes hold
        /// the first slots in that order, each with its own record and
        /// rank (the record it had, if it had one); every other node has
        /// none until it is made, at the end, keeping its rank.
        #[test]
        fn a_laid_out_record_is_still_its_nodes(seed: u64, n in 0u32..300, layouts in 1usize..3) {
            let mut rng = SimRng::seed_from(seed);
            let mut hot = HotRecords::new(n as usize);
            for _ in 0..layouts {
                // Records made before the layout, one in three marked dead.
                for id in (0..n).map(NodeId) {
                    if let Some(record) = hot.get(id) {
                        prop_assert!(record.alive);
                        if rng.chance(0.3) {
                            hot[id].alive = false;
                        }
                    }
                }
                let dead: Vec<NodeId> = (0..n).map(NodeId).filter(|&id| !hot.alive(id)).collect();
                // Every node is ranked by id; a record made before is laid
                // out again, and takes its state and rank along.
                for id in (0..n).map(NodeId) {
                    hot.set_rank(id, id.0);
                }
                let mut order = some_order(&mut rng, n);
                let made = |id: &NodeId| hot.get(*id).is_some() && !order.contains(id);
                let made: Vec<NodeId> = (0..n).map(NodeId).filter(made).collect();
                order.extend(made);
                hot.lay_out(order.iter().copied(), order.len(), true, tagged);
                for (slot, &id) in order.iter().enumerate() {
                    prop_assert_eq!(hot.find(id), Slot::Made(slot as u32));
                    prop_assert_eq!(hot.rank(slot as u32), id.0);
                    prop_assert_eq!(hot.alive(id), !dead.contains(&id));
                }
                let mut next = order.len() as u32;
                for id in (0..n).map(NodeId).filter(|id| !order.contains(id)) {
                    prop_assert_eq!(hot.find(id), Slot::Unmade(id.0));
                    if rng.chance(0.5) {
                        prop_assert_eq!(hot.make(id, tagged(id)), next);
                        prop_assert_eq!(hot.rank(next), id.0);
                        next += 1;
                    }
                }
            }
            for id in (0..n).map(NodeId) {
                if let Some(record) = hot.get(id) {
                    prop_assert_eq!(record.pos.x, f64::from(id.0));
                    prop_assert_eq!(hot.at(hot.slot(id)).cell, id.0);
                }
            }
        }
    }

    /// An engaged record keeps inline what every engaged node uses and
    /// boxes the rest: at most 136 bytes, where the MTP endpoint and the
    /// directory state inline, with the MTP constants copied in, made 312.
    /// A machine with its leader's state boxed is at most 232 bytes (280).
    #[test]
    fn an_engaged_record_holds_what_every_engaged_node_uses() {
        assert!(size_of::<Engaged>() <= 136, "{}", size_of::<Engaged>());
        let machine = size_of::<GroupMachine>();
        assert!(machine <= 232, "{machine}");
    }

    #[test]
    #[should_panic(expected = "laid out twice")]
    fn a_node_laid_out_twice_is_refused() {
        HotRecords::new(4).lay_out([NodeId(2), NodeId(0), NodeId(2)], 3, false, tagged);
    }
}
