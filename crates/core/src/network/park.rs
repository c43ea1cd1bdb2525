//! Parked nodes: a sensing loop that would only charge its own CPU stops
//! re-arming, and the ticks it skips are settled in closed form.
//!
//! On a field of at least [`PARK_MIN_NODES`] nodes, a tick — or the
//! bootstrap, for a first tick — may *park* its node when the node is
//! quiescent, alive, on a nominal clock it never left, with an idle CPU, in
//! a noiseless field whose ambient levels activate no type, and in a grid
//! cell no target can reach for more than a period
//! ([`Environment::quiet_until`](envirotrack_world::sensing::Environment::quiet_until)).
//! Every tick of such a node up to that instant would do exactly one
//! thing: admit [`costs::SENSE`] on an idle CPU. So the loop stops, the
//! node's bit is set, and at the whole period before a target might first
//! reach the cell, one event for every cell due then re-arms the loops of
//! their parked nodes, each on its own phase.
//!
//! Anything that reaches a parked node first — a reception, a timer, a
//! transmission, a fault, a target added mid-run — *unparks* it: the ticks
//! that precede it are applied to the CPU in closed form
//! ([`MoteCpu::settle`](envirotrack_node::cpu::MoteCpu::settle)), and its
//! next tick is armed where the skipped one would have run
//! ([`Kernel::schedule_tick_at`]). Readers — CPU and energy totals, one
//! node's energy — add the pending ticks as they read. Which ticks precede
//! the current event comes from the kernel ([`TickClock`]); DESIGN.md §12
//! has the argument.
//!
//! The run-wide counts — `kernel.events` and the work counts `sense_ticks`
//! and `sense_ticks_admitted` — are settled whenever a run call returns,
//! from a bitset over hot-record slots: the records of the nodes a world
//! drives sit in the order of their sensing phase, so the parked nodes
//! whose tick falls in the part of a period since the last return are the
//! set bits of a slot range or two, found through the phase of every 64th
//! slot. That is about one word operation per 64 parked nodes, and no walk
//! over the nodes.

use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use envirotrack_node::cpu::{costs, MoteCpu};
use envirotrack_sim::engine::TickClock;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::Topology;
use envirotrack_world::sensing::{Coverage, Sweeps};

use super::{sense, FaultEvent, SensorNetwork, K};

/// How far ahead a cell's quiet is proven: a cell no target nears wakes
/// once every this many sensing periods and parks again at its next tick.
const QUIET_PERIODS: u64 = 64;

/// How long a cell a target was near goes untried, in sensing periods.
const SHUN_PERIODS: u64 = 4;

/// The fewest nodes a field parks at. Parking pays where idle loops are
/// most of a period's work; on a smaller field its fixed costs — the
/// kernel's boundary record on every event, a proof per cell, the re-arm
/// churn — cost more than the ticks it saves (`traffic_dense`, 2 500
/// nodes: −8.3 % `ops_per_s` with it, −5.6 % without; `paper_sweep`'s 12-
/// and 20-node cells: −26 % in a pair, −4.7 % without).
#[cfg_attr(test, allow(dead_code))]
const PARK_MIN_NODES: usize = 4_096;

/// What the world keeps about its parked nodes.
pub(super) struct Parking {
    /// Shared with the kernel; `None` where no node can park (noise, a
    /// type the ambient levels activate, a period no longer than a tick's
    /// cost) or before the bootstrap.
    clock: Option<Rc<TickClock>>,
    period: u64,
    /// The world's grid: a cell of it is a parking cell.
    topology: Arc<Topology>,
    /// Per driven slot, the grid cell its node parks in.
    cells: Vec<u32>,
    /// One bit per hot-record slot: parked.
    bits: Vec<u64>,
    count: u64,
    /// The sensing phase, in microseconds, of the first slot of every word
    /// of `bits` that holds driven nodes.
    word_phase: Vec<u64>,
    /// Per grid cell, the instant it wakes at, zero if none, or one no
    /// more than a period ahead until which nothing parks there.
    wakes: Vec<Timestamp>,
    /// Per grid cell, until when no node there tries to park: a target was
    /// near when one last tried.
    shun: Vec<Timestamp>,
    /// Per pending wake event, the cells due then.
    due: BTreeMap<Timestamp, Vec<u32>>,
    /// The target sweeps of the instant cells were last proven at, kept
    /// for every cell proven then.
    sweeps: Sweeps,
    /// Cells proven, quiet or not.
    proofs: u64,
    /// Loops to arm again after the current event: `(at, lane word)`.
    rearm: Vec<(Timestamp, u64)>,
    /// When the run-wide counts were last settled.
    since: Timestamp,
    /// Ticks that the next settling counts over the parked set but that
    /// ran for real (`credit`), and ticks of nodes unparked since (`extra`).
    credit: u64,
    extra: u64,
    parkings: u64,
}

impl Parking {
    pub(super) fn new(topology: Arc<Topology>) -> Self {
        Parking {
            clock: None,
            period: 0,
            topology,
            cells: Vec::new(),
            bits: Vec::new(),
            count: 0,
            word_phase: Vec::new(),
            wakes: Vec::new(),
            shun: Vec::new(),
            due: BTreeMap::new(),
            sweeps: Sweeps::default(),
            proofs: 0,
            rearm: Vec::new(),
            since: Timestamp::ZERO,
            credit: 0,
            extra: 0,
            parkings: 0,
        }
    }

    /// Adds how parking did its work to `work`:
    /// - `sense_parked`: times a tick parked its node, its loop stopped
    ///   re-arming;
    /// - `sense_settled`: ticks of parked nodes settled in closed form, less
    ///   the wake events that ran in their stead — what the kernel counts as
    ///   events it did not pop, so that with the event list's pops it makes
    ///   `kernel.events`;
    /// - `park_proofs`: grid cells proven quiet or not, by a box test
    ///   against the targets' sweeps;
    /// - `park_sweeps`: target sweeps those proofs worked out, once a
    ///   window and target for all the cells proven at one instant.
    pub(super) fn work(&self, work: &mut Work) {
        work.add("sense_parked", self.parkings);
        let settled = self.clock.as_ref().map_or(0, |c| c.settled.get());
        work.add("sense_settled", settled);
        work.add("park_proofs", self.proofs);
        work.add("park_sweeps", self.sweeps.computed());
    }

    /// The heap bytes of the cell table, the bitset, the phase index, the
    /// wake tables and the re-arm list (a pending wake counted at its key,
    /// value and list). The kept sweeps are not counted: a few windows'
    /// worth per target, they are as small as the targets themselves.
    pub(super) fn heap_bytes(&self) -> usize {
        let due = self
            .due
            .values()
            .map(|cells| size_of::<(Timestamp, Vec<u32>)>() + cells.capacity() * size_of::<u32>());
        self.cells.capacity() * size_of::<u32>()
            + self.bits.capacity() * 8
            + self.word_phase.capacity() * 8
            + (self.wakes.capacity() + self.shun.capacity()) * size_of::<Timestamp>()
            + due.sum::<usize>()
            + self.rearm.capacity() * size_of::<(Timestamp, u64)>()
    }

    #[inline]
    fn is_parked(&self, slot: u32) -> bool {
        let slot = slot as usize;
        self.bits
            .get(slot / 64)
            .is_some_and(|w| w & (1 << (slot % 64)) != 0)
    }

    /// Ticks at `last + k·period`, `k ≥ 1`, that have run by the clock: the
    /// ones before its instant, and one at it if the current event follows
    /// the tick boundary. Minus one while a tick applied ahead of its
    /// instant, `last` itself, is still to run ([`SensorNetwork::park_at_birth`]).
    fn pending(&self, last: Timestamp, (now, after): (Timestamp, bool)) -> i64 {
        let Some(d) = now.as_micros().checked_sub(last.as_micros()) else {
            return -1;
        };
        if d == 0 {
            return if after { 0 } else { -1 };
        }
        ((d - 1) / self.period + u64::from(after && d % self.period == 0)) as i64
    }

    /// The clock's instant and whether the tick at it of the node in
    /// `slot`, its rank, has run.
    fn now(&self, slot: u32) -> (Timestamp, bool) {
        self.clock.as_ref().map_or((Timestamp::ZERO, true), |c| {
            (c.now.get(), c.ran(slot))
        })
    }

    /// Ticks of phase `last mod period` in `(since, last]`.
    fn since(&self, last: Timestamp) -> u64 {
        let d = last.as_micros().saturating_sub(self.since.as_micros());
        d.div_ceil(self.period)
    }

    /// Adds `n` to the settled count the kernel reports as events (wrapping:
    /// a wake event takes one off).
    fn report(&self, n: u64) {
        if let Some(c) = &self.clock {
            c.settled.set(c.settled.get().wrapping_add(n));
        }
    }
}

/// The last tick a parked record has had applied: the one its CPU's busy
/// period started at.
#[inline]
fn last_tick(cpu_busy_until: Timestamp) -> Timestamp {
    Timestamp::from_micros(cpu_busy_until.as_micros() - costs::SENSE.as_micros())
}

impl SensorNetwork {
    /// Lets the nodes of `order` — every driven node, in slot order; their
    /// phases in µs by id in `phases` — park, if any node of this world
    /// ever can, and says whether they may. Called by the bootstrap, once
    /// the records are laid out.
    pub(super) fn start_parking(&mut self, k: &mut K, order: &[u32], phases: &[u64]) -> bool {
        let period = self.config.middleware.sense_period;
        // Settling reads phases off the slot order, and a re-armed loop
        // keeps its place through the lane: records left in id order, and
        // loops kept off the lane, park nothing.
        #[cfg(test)]
        if self.ticks_every_period || self.records_in_id_order || self.sense_loops_on_heap {
            return false;
        }
        // A slot is a re-armed tick's rank (`Kernel::schedule_tick_at`).
        let ranked = self.sense.len() < (1 << 24) - 1;
        // No cell of a noisy field is ever quiet (`Environment::quiet_until`).
        let quiet = !self.environment.is_noisy() && self.sensing.ambient_is_idle();
        if period <= costs::SENSE || !quiet || !ranked {
            return false;
        }
        // Unit tests park any field, to check parking on small worlds.
        #[cfg(not(test))]
        if self.deployment.len() < PARK_MIN_NODES {
            return false;
        }
        // Each driven slot's cell, from a walk over the grid's cells: the
        // records of `order` fill the first slots, in its order.
        let topology = Arc::clone(&self.park.topology);
        let (mut cells, mut cell) = (vec![0; order.len()], 0);
        while let Some(members) = topology.bucket(cell) {
            for &m in members {
                let slot = self.sense.slot(NodeId(m)) as usize;
                if let Some(at) = cells.get_mut(slot) {
                    debug_assert_eq!(order[slot], m, "records out of slot order");
                    *at = cell as u32;
                }
            }
            cell += 1;
        }
        let park = &mut self.park;
        park.period = period.as_micros();
        park.bits = vec![0; self.sense.len().div_ceil(64)];
        park.word_phase = order.iter().step_by(64).map(|&id| phases[id as usize]).collect();
        park.wakes = vec![Timestamp::ZERO; cell];
        park.shun = vec![Timestamp::ZERO; cell];
        park.cells = cells;
        park.clock = Some(k.park_ticks(period, |w, k, pause| w.tick_hook(k, pause)));
        true
    }

    /// Parks from the start the driven nodes in `slots` whose first ticks
    /// all fall `phase` µs from now if every one of them would park at that
    /// tick, and says whether it did: their loops are then never armed. A
    /// skipped first tick sits among the first ticks in slot order, so it
    /// stands for its place only if no first tick at its instant runs. Each
    /// first tick is applied to the CPU now, ahead of its instant — readers
    /// take it back until then ([`Parking::pending`]), as does a touch that
    /// comes first.
    pub(super) fn park_at_birth(&mut self, k: &mut K, phase: u64, slots: Range<u32>) -> bool {
        if self.park.clock.is_none() {
            return false;
        }
        let first = k.now() + SimDuration::from_micros(phase);
        let mut may = |w: &mut Self, slot: u32| {
            let hot = w.sense.at(slot);
            let idle = hot.alive && hot.quiescent && hot.clock_nominal && !hot.skewed;
            let cell = w.park.cells[slot as usize] as usize;
            let period = SimDuration::from_micros(w.park.period);
            idle && hot.cpu.busy_until() <= first
                && hot.cell != Coverage::OFF_FIELD
                && w.quiet_cell(k, cell, k.now()) > first + period
        };
        if !slots.clone().all(|slot| may(self, slot)) {
            return false;
        }
        for slot in slots {
            self.sense.at_mut(slot).cpu.settle(1, first, costs::SENSE);
            let park = &mut self.park;
            park.bits[slot as usize / 64] |= 1 << (slot % 64);
            park.count += 1;
            park.parkings += 1;
            // Settling counts the ticks after `since`: one at it is counted
            // here.
            if first == park.since {
                park.extra += 1;
            }
        }
        true
    }

    /// The kernel's hook: arm the loops of unparked nodes again, and when a
    /// run call returns, settle the run-wide counts.
    fn tick_hook(&mut self, k: &mut K, pause: bool) {
        let park = &mut self.park;
        if let Some(clock) = &park.clock {
            clock.rearm.set(false);
        }
        for (at, word) in park.rearm.drain(..) {
            // Truncating: the slot half of the lane word.
            k.schedule_tick_at(at, Self::sense_tick, word, (word >> 32) as u32);
        }
        if pause {
            self.settle_parked(k.now());
        }
    }

    /// Settles the parked nodes' ticks in `(since, now]` into the run-wide
    /// counts: every whole period a tick each, and one more for those whose
    /// phase falls in what is left.
    fn settle_parked(&mut self, now: Timestamp) {
        let park = &self.park;
        let p = park.period;
        let elapsed = now.as_micros().saturating_sub(park.since.as_micros());
        let mut n = elapsed / p * park.count;
        let rest = elapsed % p;
        if rest > 0 && park.count > 0 {
            let from = park.since.as_micros() % p;
            let to = from + rest;
            n += if to < p {
                self.parked_phases_upto(to) - self.parked_phases_upto(from)
            } else {
                park.count - self.parked_phases_upto(from) + self.parked_phases_upto(to - p)
            };
        }
        let n = n + park.extra - park.credit;
        self.sensing.ticks += n;
        self.sensing.admitted += n;
        let park = &mut self.park;
        park.report(n);
        (park.since, park.credit, park.extra) = (now, 0, 0);
    }

    /// How many parked nodes have a sensing phase of at most `phase` µs.
    fn parked_phases_upto(&self, phase: u64) -> u64 {
        let park = &self.park;
        let words = park.word_phase.partition_point(|&f| f <= phase);
        let Some(last) = words.checked_sub(1) else {
            return 0;
        };
        let full: u64 = park.bits[..last]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        let mut bits = park.bits[last];
        let mut partial = 0;
        while bits != 0 {
            let slot = (last * 64 + bits.trailing_zeros() as usize) as u32;
            bits &= bits - 1;
            let tick = last_tick(self.sense.at(slot).cpu.busy_until());
            partial += u64::from(tick.as_micros() % park.period <= phase);
        }
        full + partial
    }

    /// Parks the node of the tick at `now` in `slot` if it may (see the
    /// [module docs](self)), settling this tick itself: its loop is then not
    /// re-armed. Only a tick that sits at the kernel's tick boundary may.
    pub(super) fn park_tick(&mut self, k: &mut K, slot: u32, now: Timestamp) -> bool {
        let Some(clock) = &self.park.clock else {
            return false;
        };
        let hot = self.sense.at(slot);
        let idle = hot.alive && hot.quiescent && hot.clock_nominal && !hot.skewed;
        if !(clock.at_boundary.get()
            && idle
            && hot.cpu.busy_until() <= now
            && hot.cell != Coverage::OFF_FIELD)
        {
            return false;
        }
        let cell = self.park.cells[slot as usize] as usize;
        let wake = self.quiet_cell(k, cell, now);
        let park = &mut self.park;
        if wake <= now + SimDuration::from_micros(park.period) {
            return false;
        }
        let admitted = self.sense.at_mut(slot).admit(now, costs::SENSE);
        debug_assert!(admitted, "an idle CPU turned the sensing task away");
        self.sensing.admitted += 1;
        park.bits[slot as usize / 64] |= 1 << (slot % 64);
        park.count += 1;
        park.parkings += 1;
        park.credit += park.since(now);
        true
    }

    /// The instant grid cell `cell` may first be reached by a target — its
    /// wake, armed now if it has none pending. Wakes fall on whole sensing
    /// periods, so the cells that wake at one instant share an event. The
    /// cells proven at one instant share one set of target sweeps.
    fn quiet_cell(&mut self, k: &mut K, cell: usize, now: Timestamp) -> Timestamp {
        let park = &mut self.park;
        if park.wakes[cell] > now {
            return park.wakes[cell];
        }
        if park.shun[cell] > now {
            return now;
        }
        let members = park.topology.bucket(cell).expect("a cell of the grid");
        let positions = self.deployment.positions();
        let first = positions[members[0] as usize];
        let (mut lo, mut hi) = (first, first);
        for &m in members {
            let p = positions[m as usize];
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let period = SimDuration::from_micros(park.period);
        let cap = period * QUIET_PERIODS;
        park.proofs += 1;
        let quiet = self
            .environment
            .quiet_until(&mut park.sweeps, lo, hi, now, period * 2, cap);
        let wake = Timestamp::from_micros(quiet.as_micros() / park.period * park.period);
        if wake <= now + period {
            // Not quiet for long: the cell is not asked again for a while.
            park.wakes[cell] = now + period;
            park.shun[cell] = now + period * SHUN_PERIODS;
            return wake;
        }
        park.wakes[cell] = wake;
        let cells = park.due.entry(wake).or_default();
        if cells.is_empty() {
            k.schedule_tick_at(wake, Self::wake_cells, wake.as_micros(), 0);
        }
        cells.push(cell as u32);
        wake
    }

    /// The wake event of the grid cells whose wakes are due at `at`: every
    /// parked node of each ticks again from its next tick on. A cell woken
    /// earlier, or due again later, is passed over. The event is none of
    /// the simulation, so it takes itself off the count of settled ticks.
    fn wake_cells(&mut self, k: &mut K, at: u64) {
        self.park.report(u64::MAX);
        debug_assert_eq!(k.now().as_micros(), at);
        let at = k.now();
        let cells = self.park.due.remove(&at).unwrap_or_default();
        let topology = Arc::clone(&self.park.topology);
        for cell in cells {
            let cell = cell as usize;
            if self.park.wakes[cell] != at {
                continue;
            }
            self.park.wakes[cell] = Timestamp::ZERO;
            for &m in topology.bucket(cell).expect("a cell of the grid") {
                self.touch(NodeId(m));
            }
        }
    }

    /// Unparks `node` if it is parked: what reaches a node goes through
    /// here first.
    #[inline]
    pub(super) fn touch(&mut self, node: NodeId) {
        if self.park.count != 0 && self.park.is_parked(self.sense.slot(node)) {
            self.unpark(node);
        }
    }

    /// Unparks the node a node fault hits, if this world drives it.
    pub(super) fn touch_faulted(&mut self, fault: &FaultEvent) {
        if let FaultEvent::Crash(node)
        | FaultEvent::Reboot(node)
        | FaultEvent::ClockRate { node, .. } = *fault
        {
            if self.owns(node) {
                self.touch(node);
            }
        }
    }

    /// Applies the ticks `node` skipped that precede the current event, and
    /// arms its next tick where the skipped one would have run.
    #[cold]
    fn unpark(&mut self, node: NodeId) {
        let slot = self.sense.slot(node);
        let park = &mut self.park;
        let now = park.now(slot);
        let cpu = &mut self.sense.at_mut(slot).cpu;
        let last = last_tick(cpu.busy_until());
        let n = park.pending(last, now);
        let next = if n < 0 {
            // A first tick applied ahead has not run: the CPU is as it
            // began, and the tick is next — and not counted, if it was
            // counted ahead at `since`.
            *cpu = MoteCpu::new(costs::MAX_BACKLOG);
            if last == park.since {
                park.extra -= 1;
            }
            last
        } else {
            let n = n as u64;
            let settled = last + SimDuration::from_micros(n * park.period);
            cpu.settle(n, settled, costs::SENSE);
            // The run-wide counts take the ticks after `since` at the next
            // settling, as if the node were still parked until `settled`.
            park.extra += park.since(settled);
            settled + SimDuration::from_micros(park.period)
        };
        park.bits[slot as usize / 64] &= !(1 << (slot % 64));
        park.count -= 1;
        park.rearm.push((next, sense::lane_word(slot, node)));
        park.clock.as_ref().expect("a node parked").rearm.set(true);
    }

    /// The sensing ticks a node has skipped that have run by the kernel's
    /// clock, less one applied ahead that has not: zero unless it is
    /// parked.
    pub(super) fn pending_ticks(&self, node: NodeId) -> i64 {
        let slot = self.sense.slot(node);
        if !self.park.is_parked(slot) {
            return 0;
        }
        let last = last_tick(self.sense.at(slot).cpu.busy_until());
        self.park.pending(last, self.park.now(slot))
    }

    /// Adds a target to the running world: every grid cell it can reach
    /// before the wake proven without it wakes now. Nothing adds a target
    /// to a running world but tests.
    #[cfg(test)]
    pub(super) fn add_target(&mut self, target: envirotrack_world::target::Target) {
        let (now, _) = self.park.now(0);
        let mut reach = envirotrack_world::sensing::Environment::new();
        reach.add_target(target.clone());
        self.environment.add_target(target);
        if self.park.count == 0 {
            return;
        }
        let (topology, positions) = (Arc::clone(&self.park.topology), self.deployment.positions());
        let mut touched = Vec::new();
        for (cell, wake) in self.park.wakes.iter_mut().enumerate() {
            let members = topology.bucket(cell).expect("a cell of the grid");
            let floor = wake.saturating_since(now);
            let reached = |&m: &u32| {
                let pos = positions[m as usize];
                reach.quiet_until(&mut Sweeps::default(), pos, pos, now, floor, floor) < *wake
            };
            // Its wake was proven without the target: the wake event finds
            // it moved and passes the cell over.
            if *wake > now && members.iter().any(reached) {
                *wake = Timestamp::ZERO;
                touched.extend_from_slice(members);
            }
        }
        touched.sort_unstable();
        for m in touched {
            self.touch(NodeId(m));
        }
    }
}
