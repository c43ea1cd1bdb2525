//! Parked nodes: a sensing loop that would only charge its own CPU stops
//! re-arming, and the ticks it skips are settled in closed form.
//!
//! On a field of at least [`PARK_MIN_NODES`] nodes, a tick — or the
//! bootstrap, for a first tick — may *park* its node when the node is
//! quiescent, alive, on a nominal clock it never left, with an idle CPU, in
//! a noiseless field whose ambient levels activate no type, and in a grid
//! cell no target can reach for more than a period. That is proven from
//! the targets' side: for each aligned window of 2, 4, …, 64 periods a
//! proof asks about, the cells a target's sweep can reach are listed once
//! ([`Reach::quiet_until`](envirotrack_world::sensing::Reach::quiet_until),
//! the lists the sensing verdict reads), and a proof looks its cell up. Every
//! tick of such a node up to the window's end would do exactly one thing:
//! admit [`costs::SENSE`] on an idle CPU. So the loop stops, the node's bit
//! is set, and at the window's end one event for every cell due then
//! proves each again, and re-arms the loops of the parked nodes of those a
//! target is near, each on its own phase.
//!
//! Anything that reaches a parked node first — a reception, a timer, a
//! transmission, a fault, a target added mid-run — *unparks* it: the ticks
//! that precede it are applied to the CPU in closed form
//! ([`MoteCpu::settle`](envirotrack_node::cpu::MoteCpu::settle)), and its
//! next tick is armed where the skipped one would have run
//! ([`Kernel::schedule_tick_at`]), unless that tick would park it again. A
//! node parked at the bootstrap has no hot record until then: it is made,
//! the node's first tick applied, when the node is first touched. Readers —
//! CPU and energy totals, one node's energy — add the pending ticks as they
//! read. Which ticks precede the current event comes from the kernel
//! ([`TickClock`]); DESIGN.md §12 has the argument.
//!
//! The run-wide counts — `kernel.events` and the work counts `sense_ticks`
//! and `sense_ticks_admitted` — are settled whenever a run call returns,
//! from a bitset over *ranks*, the driven nodes' places in the order of
//! their sensing phase: the parked nodes whose tick falls in the part of a
//! period since the last return are the set bits of a rank range or two,
//! found by a binary search of the phases by rank. That is about one word
//! operation per 64 parked nodes, and no walk over the nodes.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use envirotrack_node::cpu::{costs, CpuStats, MoteCpu};
use envirotrack_sim::engine::TickClock;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;

use super::node::{SenseState, Slot};
use super::{sense, FaultEvent, SensorNetwork, K};

/// How long a cell a target was near goes untried, in sensing periods.
const SHUN_PERIODS: u64 = 4;

/// The fewest nodes a field parks at. Parking pays where idle loops are
/// most of a period's work; on a small field its fixed costs — the
/// kernel's boundary record on every event, the proofs and their lists,
/// the re-arm churn — cost more than the ticks it saves: without the floor
/// `paper_sweep`'s 12- and 20-node cells read −29 % `ops_per_s`, and
/// `traffic_dense` (2 500 nodes) +6.4 % but +9.8 % `peak_heap_mb`.
#[cfg_attr(test, allow(dead_code))]
const PARK_MIN_NODES: usize = 4_096;

/// What the world keeps about its parked nodes.
#[derive(Default)]
pub(super) struct Parking {
    /// Shared with the kernel; `None` where no node can park (noise, a
    /// type the ambient levels activate, a period no longer than a tick's
    /// cost) or before the bootstrap.
    clock: Option<Rc<TickClock>>,
    period: u64,
    /// One bit per rank — a driven node's place in firing order: parked.
    bits: Vec<u64>,
    count: u64,
    /// Per rank, the node's sensing phase in µs, ascending: a parked
    /// node's never changes.
    phases: Vec<u32>,
    /// Per grid cell, the instant it wakes at, zero if none, or one no
    /// more than a period ahead until which nothing parks there.
    wakes: Vec<Timestamp>,
    /// Per grid cell, until when no node there tries to park: a target was
    /// near when one last tried.
    shun: Vec<Timestamp>,
    /// Per pending wake event, the cells due then.
    due: BTreeMap<Timestamp, Vec<u32>>,
    /// Cells proven, quiet or not.
    proofs: u64,
    /// Loops to arm again after the current event: `(at, lane word, rank)`.
    rearm: Vec<(Timestamp, u64, u32)>,
    /// When the run-wide counts were last settled.
    since: Timestamp,
    /// Ticks that the next settling counts over the parked set but that
    /// ran for real (`credit`), and ticks of nodes unparked since (`extra`).
    credit: u64,
    extra: u64,
    parkings: u64,
    /// Cells a wake proved quiet again; nodes a wake unparked; parked
    /// nodes a reception reached; nodes an event touched and left parked.
    kept: u64,
    woken: u64,
    received: u64,
    stayed: u64,
}

impl Parking {
    /// Adds how parking did its work to `work`:
    /// - `sense_parked`: times a tick parked its node, its loop stopped
    ///   re-arming, the nodes parked from the start included;
    /// - `sense_settled`: ticks of parked nodes settled in closed form, less
    ///   the wake events that ran in their stead — what the kernel counts as
    ///   events it did not pop, so that with the event list's pops it makes
    ///   `kernel.events`;
    /// - `park_proofs`: grid cells proven quiet or not, each a lookup in the
    ///   reach's lists of its aligned windows (whose work the reach counts);
    /// - `park_kept`: cells a wake proved quiet again, their nodes left parked;
    ///   `park_woken`: parked nodes the other wakes unparked; `park_received`:
    ///   parked nodes a reception reached; `park_stayed`: touched, left parked.
    pub(super) fn work(&self, work: &mut Work) {
        work.add("sense_parked", self.parkings);
        let settled = self.clock.as_ref().map_or(0, |c| c.settled.get());
        work.add("sense_settled", settled);
        work.add("park_proofs", self.proofs);
        work.add("park_kept", self.kept);
        work.add("park_woken", self.woken);
        work.add("park_received", self.received);
        work.add("park_stayed", self.stayed);
    }

    /// The heap bytes of the bitset, the phases, the wake tables and the
    /// re-arm list (a pending wake counted at its key, value and list).
    pub(super) fn heap_bytes(&self) -> usize {
        let due = self
            .due
            .values()
            .map(|cells| size_of::<(Timestamp, Vec<u32>)>() + cells.capacity() * size_of::<u32>());
        self.bits.capacity() * 8
            + self.phases.capacity() * size_of::<u32>()
            + (self.wakes.capacity() + self.shun.capacity()) * size_of::<Timestamp>()
            + due.sum::<usize>()
            + self.rearm.capacity() * size_of::<(Timestamp, u64, u32)>()
    }

    #[inline]
    fn is_parked(&self, rank: u32) -> bool {
        let rank = rank as usize;
        self.bits
            .get(rank / 64)
            .is_some_and(|w| w & (1 << (rank % 64)) != 0)
    }

    /// Flips the bit of `rank` to `parked`, and counts it.
    fn set_parked(&mut self, rank: u32, parked: bool) {
        let (word, bit) = (&mut self.bits[rank as usize / 64], 1 << (rank % 64));
        debug_assert_eq!(*word & bit == 0, parked, "rank {rank} parked twice, or never");
        *word ^= bit;
        self.count = if parked { self.count + 1 } else { self.count - 1 };
    }

    /// Ticks at `last + k·period`, `k ≥ 1`, that have run by the clock: the
    /// ones before its instant, and one at it if the current event follows
    /// the tick boundary. Minus one while a tick applied ahead of its
    /// instant, `last` itself, is still to run (a node parked from the
    /// start).
    fn pending(&self, last: Timestamp, (now, after): (Timestamp, bool)) -> i64 {
        let Some(d) = now.as_micros().checked_sub(last.as_micros()) else {
            return -1;
        };
        if d == 0 {
            return if after { 0 } else { -1 };
        }
        ((d - 1) / self.period + u64::from(after && d % self.period == 0)) as i64
    }

    /// The clock's instant and whether the tick at it of the node of rank
    /// `rank` has run.
    fn now(&self, rank: u32) -> (Timestamp, bool) {
        self.clock.as_ref().map_or((Timestamp::ZERO, true), |c| {
            (c.now.get(), c.ran(rank))
        })
    }

    /// The last tick a parked record of rank `rank` holds: the latest at its
    /// phase before `busy_until`, which a parked CPU reaches by the next.
    fn last_tick(&self, rank: u32, busy_until: Timestamp) -> Timestamp {
        let phase = u64::from(self.phases[rank as usize]);
        let since = busy_until.as_micros() - 1 - phase;
        Timestamp::from_micros(phase + since - since % self.period)
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

impl SensorNetwork {
    /// Sets parking up, if any node of this world ever can park, and says
    /// whether it did. Called by the bootstrap, before the records are laid
    /// out.
    pub(super) fn start_parking(&mut self, k: &mut K) -> bool {
        let period = self.config.middleware.sense_period;
        // Settling reads phases off the rank order, and a re-armed loop
        // keeps its place through the lane: records left in id order, and
        // loops kept off the lane, park nothing.
        #[cfg(test)]
        if self.ticks_every_period || self.records_in_id_order || self.sense_loops_on_heap {
            return false;
        }
        // A rank is a re-armed tick's (`Kernel::schedule_tick_at`), and a
        // phase is kept by rank in 32 bits.
        let ranked = self.nodes.len() < (1 << 24) - 1 && period.as_micros() <= 1 << 32;
        // A noisy sample draws, even where no target reaches.
        let quiet = !self.environment.is_noisy() && self.sensing.ambient_is_idle();
        if period <= costs::SENSE || !quiet || !ranked {
            return false;
        }
        // Unit tests park any field, to check parking on small worlds.
        #[cfg(not(test))]
        if self.deployment.len() < PARK_MIN_NODES {
            return false;
        }
        let (park, cells) = (&mut self.park, self.topology.cells());
        park.period = period.as_micros();
        park.wakes = vec![Timestamp::ZERO; cells];
        park.shun = vec![Timestamp::ZERO; cells];
        park.clock = Some(k.park_ticks(period, |w, k, pause| w.tick_hook(k, pause)));
        true
    }

    /// Parks from the start the driven nodes of `order` — in firing order,
    /// a node's rank its place there; phases by id in `phases` — that would
    /// park at their first tick, and returns the others, in firing order.
    /// Nodes whose first ticks share an instant park together or not at
    /// all, and a pinned object's host (`hosted`) never: a skipped first
    /// tick stands for its place only if no first tick at its instant runs.
    /// Every node is fresh at time zero (one touched before is not), so
    /// whether it would park is its cell's: quiet for two periods, proven
    /// for the cells that hold a node this world drives. A parked node gets
    /// its bit and its rank in the slot table, and no record.
    pub(super) fn park_at_birth(
        &mut self,
        k: &mut K,
        mut order: Vec<u32>,
        phases: &[u64],
        hosted: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        let now = k.now();
        let first = now + SimDuration::from_micros(self.park.period);
        // Most cells are quiet: a bit a node, set, cleared for the nodes
        // of the cells that are not and for those not fresh.
        let mut quiet = vec![!0u64; self.nodes.len().div_ceil(64)];
        let mut unset = |id: u32| quiet[id as usize / 64] &= !(1 << (id % 64));
        let topology = Arc::clone(&self.topology);
        let mut cell = 0;
        while let Some(members) = topology.bucket(cell) {
            let driven = members.iter().any(|&m| self.owns(NodeId(m)));
            if driven && self.quiet_cell(k, cell, now) <= first {
                members.iter().for_each(|&m| unset(m));
            }
            cell += 1;
        }
        if self.sense.made() > 0 || self.nodes.any_made() {
            for id in self.deployment.ids() {
                if self.sense.get(id).is_some() || self.nodes.get(id).is_some() {
                    unset(id.0);
                }
            }
        }
        let may = |id: u32| quiet[id as usize / 64] & (1 << (id % 64)) != 0 && !hosted(id);
        let (mut armed, mut from) = (Vec::new(), 0);
        self.park.bits = vec![0; order.len().div_ceil(64)];
        while from < order.len() {
            let phase = phases[order[from] as usize];
            let same = |&&id: &&u32| phases[id as usize] == phase;
            let to = from + order[from..].iter().take_while(same).count();
            let parks = order[from..to].iter().all(|&id| may(id));
            for (rank, &id) in (from..to).zip(&order[from..to]) {
                self.sense.set_rank(NodeId(id), rank as u32);
                if parks {
                    self.park.set_parked(rank as u32, true);
                } else {
                    armed.push(id);
                }
            }
            // Settling counts the ticks after `since`, zero: one at it is
            // counted here.
            if parks && phase == 0 {
                self.park.extra += (to - from) as u64;
            }
            from = to;
        }
        let park = &mut self.park;
        park.parkings = park.count;
        // The ids give way to their phases, in place: below the period,
        // which fits 32 bits where parking started.
        for id in &mut order {
            *id = phases[*id as usize] as u32;
        }
        park.phases = order;
        armed
    }

    /// A fresh hot record of `node`: its position and grid cell.
    pub(super) fn fresh_record(&self, node: NodeId) -> SenseState {
        let cell = self.topology.cell_of(node) as u32;
        SenseState::new(self.deployment.position(node), cell)
    }

    /// The record the node of rank `rank`, parked from the start, is made
    /// with: its first tick applied ahead of its instant, which readers and
    /// a touch that come first take back ([`Parking::pending`]).
    pub(super) fn record_from_start(&self, node: NodeId, rank: u32) -> SenseState {
        let mut record = self.fresh_record(node);
        let first = Timestamp::from_micros(self.park.phases[rank as usize].into());
        record.cpu.settle(1, first, costs::SENSE);
        record
    }

    /// The kernel's hook: arm the loops of unparked nodes again, or park
    /// them again, and when a run call returns, settle the run-wide counts.
    fn tick_hook(&mut self, k: &mut K, pause: bool) {
        if let Some(clock) = &self.park.clock {
            clock.rearm.set(false);
        }
        for i in 0..self.park.rearm.len() {
            let (at, word, rank) = self.park.rearm[i];
            if !self.repark(k, at, word, rank) {
                k.schedule_tick_at(at, Self::sense_tick, word, rank);
            }
        }
        self.park.rearm.clear();
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

    /// How many parked nodes have a sensing phase of at most `phase` µs:
    /// the parked ranks below the first whose phase is above it.
    fn parked_phases_upto(&self, phase: u64) -> u64 {
        let park = &self.park;
        let ranks = park.phases.partition_point(|&f| u64::from(f) <= phase);
        let (words, rest) = (ranks / 64, ranks % 64);
        let full: u32 = park.bits[..words].iter().map(|w| w.count_ones()).sum();
        let partial = park.bits.get(words).map_or(0, |w| (w & ((1 << rest) - 1)).count_ones());
        u64::from(full + partial)
    }

    /// Parks the node of the tick at `now` in `slot` if it may (see the
    /// [module docs](self)), settling this tick itself: its loop is then not
    /// re-armed. Only a tick that sits at the kernel's tick boundary may.
    pub(super) fn park_tick(&mut self, k: &mut K, slot: u32, now: Timestamp) -> bool {
        let Some(clock) = &self.park.clock else {
            return false;
        };
        let drained = self.sense.at(slot).cpu.busy_until() <= now;
        if !(clock.at_boundary.get() && drained && self.may_park(k, slot, now)) {
            return false;
        }
        let admitted = self.sense.at_mut(slot).admit(now, costs::SENSE);
        debug_assert!(admitted, "an idle CPU turned the sensing task away");
        self.sensing.admitted += 1;
        let park = &mut self.park;
        park.set_parked(self.sense.rank(slot), true);
        park.parkings += 1;
        park.credit += park.since(now);
        true
    }

    /// Whether the node of `slot` would park at its tick at `tick`, its CPU
    /// idle then: alive, quiescent, on a nominal clock it never left, and
    /// in a cell proven now to be quiet past a period on.
    fn may_park(&mut self, k: &mut K, slot: u32, tick: Timestamp) -> bool {
        let hot = self.sense.at(slot);
        let idle = hot.alive && hot.quiescent && hot.clock_nominal && !hot.skewed;
        let (cell, period) = (hot.cell as usize, SimDuration::from_micros(self.park.period));
        idle && self.quiet_cell(k, cell, k.now()) > tick + period
    }

    /// Parks again the node of loop `word` that the event just run
    /// unparked, if its next tick, at `at`, would park it: nothing reaches
    /// the node before that tick without touching it, so the tick would
    /// find the node, its CPU and its cell's wake as they are now. A first
    /// tick still to run follows no tick applied, and is armed.
    fn repark(&mut self, k: &mut K, at: Timestamp, word: u64, rank: u32) -> bool {
        let slot = (word >> 32) as u32;
        let (period, busy_until) = (self.park.period, self.sense.at(slot).cpu.busy_until());
        if at.as_micros() < period || busy_until > at || !self.may_park(k, slot, at) {
            return false;
        }
        let (park, last) = (&mut self.park, at - SimDuration::from_micros(period));
        debug_assert_eq!(park.last_tick(rank, busy_until), last);
        park.set_parked(rank, true);
        // The unpark counted the ticks up to `last` as run for real.
        park.credit += park.since(last);
        park.stayed += 1;
        true
    }

    /// The instant grid cell `cell` may first be reached by a target — its
    /// wake, armed now if it has none pending: the end of the longest
    /// aligned window holding `now`, two periods doubling up to 64, on no
    /// list of which the cell is. The part of the window from `now` on is
    /// quiet, so the proof is sound; it proves no more than a window as
    /// long from `now` would. Window ends fall on whole sensing periods,
    /// and the cells that wake at one instant share an event.
    fn quiet_cell(&mut self, k: &mut K, cell: usize, now: Timestamp) -> Timestamp {
        let park = &mut self.park;
        if park.wakes[cell] > now {
            return park.wakes[cell];
        }
        if park.shun[cell] > now {
            return now;
        }
        park.proofs += 1;
        let wake = self.sensing.reach.quiet_until(&self.environment, now, cell).unwrap_or(now);
        let period = SimDuration::from_micros(park.period);
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

    /// The wake event of the grid cells due at `at`, each proven again. One
    /// still quiet past a period on keeps its nodes parked: a wake falls on
    /// a multiple of two periods, so their next ticks would park on this
    /// proof. The parked nodes of any other tick again from their next tick
    /// on. A cell woken earlier, or due again later, is passed over. The
    /// event is none of the simulation: it takes itself off the settled count.
    fn wake_cells(&mut self, k: &mut K, at: u64) {
        self.park.report(u64::MAX);
        debug_assert_eq!(k.now().as_micros(), at);
        let at = k.now();
        let cells = self.park.due.remove(&at).unwrap_or_default();
        let topology = Arc::clone(&self.topology);
        let period = SimDuration::from_micros(self.park.period);
        for cell in cells {
            let cell = cell as usize;
            if self.park.wakes[cell] != at {
                continue;
            }
            self.park.wakes[cell] = Timestamp::ZERO;
            if self.quiet_cell(k, cell, at) > at + period {
                self.park.kept += 1;
                continue;
            }
            let parked = self.park.count;
            for &m in topology.bucket(cell).expect("a cell of the grid") {
                self.touch(NodeId(m));
            }
            self.park.woken += parked - self.park.count;
        }
    }

    /// Unparks `node` if it is parked, making its record first if it has
    /// none: what reaches a node goes through here first.
    #[inline]
    pub(super) fn touch(&mut self, node: NodeId) {
        if self.park.count == 0 && self.sense.made() == self.nodes.len() {
            return;
        }
        match self.sense.find(node) {
            Slot::Made(slot) if self.park.is_parked(self.sense.rank(slot)) => {
                self.unpark(node, self.park.now(self.sense.rank(slot)));
            }
            Slot::Made(_) => {}
            Slot::Unmade(rank) => self.make_record(node, rank),
        }
    }

    /// Makes the record of `node`, which has none: a fresh one before the
    /// bootstrap, and after it the one it was parked with, then unparked.
    #[cold]
    fn make_record(&mut self, node: NodeId, rank: u32) {
        if self.park.clock.is_none() {
            let record = self.fresh_record(node);
            self.sense.make(node, record);
            return;
        }
        let record = self.record_from_start(node, rank);
        self.sense.make(node, record);
        self.unpark(node, self.park.now(rank));
    }

    /// [`touch`](Self::touch) for a frame `node` receives, counted.
    pub(super) fn touch_received(&mut self, node: NodeId) {
        let parked = self.park.count;
        self.touch(node);
        self.park.received += parked - self.park.count;
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

    /// Applies the ticks `node` skipped that precede the current event —
    /// `now`, by the clock: its instant, and whether the node's tick at it
    /// has run — and arms its next tick where the skipped one would have run.
    #[cold]
    fn unpark(&mut self, node: NodeId, now: (Timestamp, bool)) {
        let slot = self.sense.slot(node);
        let rank = self.sense.rank(slot);
        let park = &mut self.park;
        let cpu = &mut self.sense.at_mut(slot).cpu;
        let last = park.last_tick(rank, cpu.busy_until());
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
        park.set_parked(rank, false);
        park.rearm.push((next, sense::lane_word(slot, node), rank));
        park.clock.as_ref().expect("a node parked").rearm.set(true);
    }

    /// `node`'s CPU statistics as a reader sees them by the kernel's clock:
    /// its record's with the ticks it skipped parked that have run, less one
    /// applied ahead that has not; for a node with no record, the record it
    /// will be made with, read the same way.
    pub(super) fn cpu_stats(&self, node: NodeId) -> CpuStats {
        let (cpu, rank) = match self.sense.find(node) {
            Slot::Made(slot) => (self.sense.at(slot).cpu.clone(), self.sense.rank(slot)),
            Slot::Unmade(rank) if self.park.clock.is_some() => {
                (self.record_from_start(node, rank).cpu, rank)
            }
            Slot::Unmade(_) => return CpuStats::default(),
        };
        let mut stats = cpu.stats();
        if self.park.is_parked(rank) {
            let last = self.park.last_tick(rank, cpu.busy_until());
            let n = self.park.pending(last, self.park.now(rank));
            stats.admitted = stats.admitted.wrapping_add_signed(n);
            stats.busy = if n < 0 {
                stats.busy - costs::SENSE
            } else {
                stats.busy + costs::SENSE * n as u64
            };
        }
        stats
    }
}

#[cfg(test)]
impl SensorNetwork {
    /// Adds a target to the running world. Every wake pending was proven
    /// without it, so every cell with one wakes now; the wake event finds
    /// the cell moved and passes it over. Nothing adds a target to a
    /// running world but tests.
    pub(super) fn add_target(&mut self, target: envirotrack_world::target::Target) {
        self.environment.add_target(target);
        let (now, _) = self.park.now(0);
        let mut touched = Vec::new();
        for (cell, wake) in self.park.wakes.iter_mut().enumerate() {
            if *wake > now {
                *wake = Timestamp::ZERO;
                touched.extend_from_slice(self.topology.bucket(cell).expect("a cell of the grid"));
            }
        }
        touched.sort_unstable();
        for m in touched {
            self.touch(NodeId(m));
        }
    }
}
