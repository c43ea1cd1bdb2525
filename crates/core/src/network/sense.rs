//! The sensing driver: every node's periodic tick, and the test that lets
//! almost all of them end inside the node's hot record.
//!
//! A node is *quiescent* when every one of its group machines is idle with
//! no formation timer pending. Such a machine answers a reading that does
//! not activate its context type with no action and no state change, so the
//! tick evaluates the activation condition itself and enters the machine —
//! handing over the reading it took — only when that holds. In a noiseless
//! field most such ticks take no reading at all: where no target reaches
//! the node ([`Reach`]), the reading is the ambient levels, and whether
//! those activate each type is worked out once, when the world is built.
//! DESIGN.md §12 has the argument; `group::tests` pins it against
//! `on_sense_tick`.

use std::sync::Arc;

use envirotrack_node::cpu::costs;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;
use envirotrack_world::grid::Topology;
use envirotrack_world::sensing::{Environment, Reach};

use super::{SensorNetwork, K};
use crate::api::Program;
use crate::group::GroupMachine;

/// What the driver keeps between ticks.
pub(super) struct Sensing {
    /// Where the targets can be sensed, window by window, so an idle tick
    /// far from all of them reads the ambient levels without asking each
    /// where it is; parking's proofs read it too.
    pub(super) reach: Reach,
    /// Per context type, whether the ambient levels leave it inactive. An
    /// environment's ambient levels and noise are fixed when it is built
    /// (only targets are added later), so this is worked out once.
    quiet: Vec<bool>,
    /// Whether every type that takes readings is in `quiet`: a tick that
    /// reads the ambient levels then acts on nothing.
    idle: bool,
    pub(super) ticks: u64,
    pub(super) admitted: u64,
    strides: u64,
    verdicts: u64,
    /// The slot of the last tick's record.
    last_slot: u32,
}

impl Sensing {
    pub(super) fn new(
        topology: &Arc<Topology>,
        sense_period: SimDuration,
        program: &Program,
        environment: &Environment,
    ) -> Self {
        let ambient = environment.ambient();
        let quiet: Vec<bool> = program
            .type_ids()
            .map(|tid| !program.spec(tid).senses(&ambient, false))
            .collect();
        let reads = |tid: &crate::context::ContextTypeId| program.spec(*tid).pinned.is_none();
        Sensing {
            reach: Reach::new(Arc::clone(topology), sense_period),
            idle: program.type_ids().filter(reads).all(|tid| quiet[usize::from(tid.0)]),
            quiet,
            ticks: 0,
            admitted: 0,
            strides: 0,
            verdicts: 0,
            // So that a first tick in slot 0 reads on.
            last_slot: u32::MAX,
        }
    }

    /// Whether a quiescent tick that reads the ambient levels acts on
    /// nothing, whatever the type.
    pub(super) fn ambient_is_idle(&self) -> bool {
        self.idle
    }

    /// Adds how the driver has done its work to `work` (a shard's world
    /// counts only its own nodes):
    /// - `sense_ticks`: sensing ticks fired, dead and overloaded nodes and
    ///   parked nodes' settled ticks included;
    /// - `sense_ticks_admitted`: of those, ticks the node's CPU admitted;
    /// - `sense_strides`: ticks whose node's hot record is not in the slot
    ///   right after the previous tick's — how often the driver jumped in
    ///   memory instead of reading on: with the records laid out in firing
    ///   order, once per sensing period, plus two for each tick of a node
    ///   off the lane (there and back);
    /// - the reach's counts ([`Reach::work`]): its windows, for sampling
    ///   and parking alike, and the samples a quiescent node's tick took
    ///   itself (a tick that enters a group machine samples through
    ///   `GroupCtx::sample` and shows in none);
    /// - `sense_verdicts`: of the samples the reach answered, those the
    ///   ambient verdict settled — one per (tick, context type) — and so
    ///   never built: the field is noiseless, no target reaches the node,
    ///   and the ambient levels do not activate the type.
    pub(super) fn work(&self, work: &mut Work) {
        work.add("sense_ticks", self.ticks);
        work.add("sense_ticks_admitted", self.admitted);
        work.add("sense_strides", self.strides);
        self.reach.work(work);
        work.add("sense_verdicts", self.verdicts);
    }
}

/// The lane word of a sensing loop: the slot of the node's hot record in
/// the high half, its id in the low half.
pub(super) fn lane_word(slot: u32, node: NodeId) -> u64 {
    u64::from(slot) << 32 | u64::from(node.0)
}

/// Whether a node with these machines is quiescent. `drive_machine`
/// refreshes the node's bit from it after every machine input.
pub(super) fn quiescent(machines: &[GroupMachine]) -> bool {
    machines.iter().all(GroupMachine::is_quiescent)
}

impl SensorNetwork {
    /// Schedules the next tick of the sensing loop `word` ([`lane_word`])
    /// at `at`: on the kernel's recurring lane when `on_lane`, as an inline
    /// heap event otherwise. The two differ in cost only, never in when or
    /// in what order the tick runs.
    pub(super) fn arm_sense_tick(&self, k: &mut K, at: Timestamp, word: u64, on_lane: bool) {
        #[cfg(test)]
        let on_lane = on_lane && !self.sense_loops_on_heap;
        if on_lane {
            k.schedule_recurring_at(at, Self::sense_tick, word);
        } else {
            k.schedule_inline_at(at, |w, k, [word, _]| w.sense_tick(k, word), [word, 0]);
        }
    }

    /// One sensing tick on the node of `word`: reschedule, then give every
    /// context-type machine that could act on it the reading. Each owned
    /// node has exactly one such loop, started by `bootstrap`; it outlives
    /// crashes (a dead node's tick only reschedules), so nothing may start a
    /// second one. The record is reached by its slot, never by the table.
    /// A tick that parks its node (`park.rs`) does not re-arm it.
    pub(super) fn sense_tick(&mut self, k: &mut K, word: u64) {
        // Truncating casts: the halves `lane_word` put together.
        let (slot, node) = ((word >> 32) as u32, NodeId(word as u32));
        let now = k.now();
        let sensing = &mut self.sensing;
        sensing.ticks += 1;
        if slot != sensing.last_slot.wrapping_add(1) {
            sensing.strides += 1;
        }
        sensing.last_slot = slot;
        debug_assert_eq!(self.sense.slot(node), slot, "{node} moved");
        let hot = self.sense.at(slot);
        debug_assert_eq!(
            hot.quiescent,
            self.layers
                .get(node)
                .is_none_or(|rt| quiescent(&rt.machines)),
            "stale quiescent bit on {node}"
        );
        // The sensing period elapses on the node's *local* clock: skewed
        // clocks sample faster or slower than global time.
        let nominal = self.config.middleware.sense_period;
        let period = if hot.clock_nominal {
            nominal
        } else {
            self.clocks.get(node).global_delay(nominal)
        };
        if period == nominal && self.park_tick(k, slot, now) {
            return;
        }
        // Reschedule first: the loop survives any processing below, and the
        // kernel places a parked loop's skipped ticks by this order (a
        // one-shot armed a period on runs after the tick). A skewed
        // node stays off the lane: a slow clock's later deadline would become
        // the lane's tail and send every other node's tick to the heap until
        // it fired.
        self.arm_sense_tick(k, now + period, word, period == nominal);
        // Overloaded CPU skips sensing ticks.
        if !self.sense.at_mut(slot).admit(now, costs::SENSE) {
            return;
        }
        self.sensing.admitted += 1;
        for tid in self.program.type_ids() {
            // Read per type: an earlier type's machine may just have armed
            // its formation timer.
            let hot = self.sense.at(slot);
            let idle = hot.quiescent;
            #[cfg(test)]
            let idle = idle && !self.ticks_enter_machines;
            let mut reading = None;
            if idle {
                let spec = self.program.spec(tid);
                // Pinned types exist independent of sensing and take no reading.
                if spec.pinned.is_some() {
                    continue;
                }
                let (cell, pos) = (hot.cell, hot.pos);
                let sensing = &mut self.sensing;
                // A noiseless sample no target reaches is the ambient
                // levels, which leave this type inactive: the verdict is
                // known, and the tick builds no sample and draws nothing.
                let (quiet, env) = (sensing.quiet[usize::from(tid.0)], &self.environment);
                if quiet && env.reads_ambient(&mut sensing.reach, cell, pos, now) {
                    sensing.verdicts += 1;
                    debug_assert!(
                        !spec.senses(&self.environment.sample(pos, now), false),
                        "the ambient verdict is wrong on {node} at {now:?}"
                    );
                    continue;
                }
                // Taken where the machine would take it, so any noise comes
                // off the node's stream at the same point; through the
                // reach, which returns what the machine's walk would.
                let (reach, rng) = (&mut sensing.reach, &mut self.nodes.get_mut(node, true).rng);
                let taken = self.environment.sample_covered(reach, cell, pos, now, rng);
                if !spec.senses(&taken, false) {
                    continue;
                }
                reading = Some(taken);
            }
            self.run_machine(k, node, tid, |machine, ctx| {
                ctx.reading = reading;
                machine.on_sense_tick(ctx)
            });
        }
    }
}

#[cfg(test)]
impl SensorNetwork {
    /// The instant of `node`'s first sensing tick, as the bootstrap will
    /// draw it: for tests that tie an event with a tick. Asked before the
    /// bootstrap runs.
    pub(super) fn first_tick(&self, node: NodeId) -> Timestamp {
        let period = self.config.middleware.sense_period.as_micros().max(1);
        Timestamp::from_micros(self.nodes.phase(node, period))
    }
}
