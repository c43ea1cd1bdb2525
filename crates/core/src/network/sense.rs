//! The sensing driver: every node's periodic tick, and the test that lets
//! almost all of them end inside the node's hot record.
//!
//! A node is *quiescent* when every one of its group machines is idle with
//! no formation timer pending. Such a machine answers a reading that does
//! not activate its context type with no action and no state change, so the
//! tick evaluates the activation condition itself and enters the machine —
//! handing over the reading it took — only when that holds. DESIGN.md §12
//! has the argument; `group::tests` pins it against `on_sense_tick`.

use envirotrack_node::cpu::costs;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::sensing::{Coverage, CoverageWork};

use super::{SensorNetwork, K};
use crate::group::GroupMachine;

/// How the sensing driver has done its work so far. Like
/// [`Kernel::recurring_len`](envirotrack_sim::engine::Kernel::recurring_len)
/// it says how the work was done, not what the simulation did: it belongs
/// in no run record, and a shard's world counts only its own nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensingWork {
    /// Sensing ticks fired, dead and overloaded nodes included.
    pub ticks: u64,
    /// Ticks the node's CPU admitted.
    pub admitted: u64,
    /// Of the samples a quiescent node's tick took itself: how many the
    /// coverage answered, how many walked the targets, and how often the
    /// coverage was rebuilt. A tick that enters a group machine samples
    /// through `GroupCtx::sample` and shows in none of them.
    pub coverage: CoverageWork,
}

/// What the driver keeps between ticks.
pub(super) struct Sensing {
    /// Where the targets can be sensed for now, so an idle tick far from
    /// all of them reads the ambient levels without asking each where it is.
    coverage: Coverage,
    ticks: u64,
    admitted: u64,
}

impl Sensing {
    pub(super) fn new(field: &Deployment, sense_period: SimDuration) -> Self {
        Sensing {
            coverage: Coverage::new(field.bounds(), field.len(), sense_period),
            ticks: 0,
            admitted: 0,
        }
    }

    pub(super) fn work(&self) -> SensingWork {
        SensingWork {
            ticks: self.ticks,
            admitted: self.admitted,
            coverage: self.coverage.work(),
        }
    }
}

/// Whether a node with these machines is quiescent. `drive_machine`
/// refreshes the node's bit from it after every machine input.
pub(super) fn quiescent(machines: &[GroupMachine]) -> bool {
    machines.iter().all(GroupMachine::is_quiescent)
}

impl SensorNetwork {
    /// Schedules `node`'s next sensing tick at `at`: on the kernel's
    /// recurring lane when `on_lane`, as an inline heap event otherwise. The
    /// two differ in cost only, never in when or in what order the tick runs.
    pub(super) fn arm_sense_tick(&self, k: &mut K, at: Timestamp, node: NodeId, on_lane: bool) {
        #[cfg(test)]
        let on_lane = on_lane && !self.sense_loops_on_heap;
        let id = u64::from(node.0);
        if on_lane {
            k.schedule_recurring_at(at, Self::sense_tick, id);
        } else {
            k.schedule_inline_at(at, |w, k, [id, _]| w.sense_tick(k, id), [id, 0]);
        }
    }

    /// One sensing tick on `node`: reschedule, then give every context-type
    /// machine that could act on it the reading. Each owned node has exactly
    /// one such loop, started by `bootstrap`; it outlives crashes (a dead
    /// node's tick only reschedules), so nothing may start a second one.
    fn sense_tick(&mut self, k: &mut K, id: u64) {
        let node = NodeId(u32::try_from(id).expect("armed with a node id"));
        let (i, now) = (node.index(), k.now());
        self.sensing.ticks += 1;
        debug_assert_eq!(
            self.sense[i].quiescent,
            quiescent(&self.nodes[i].machines),
            "stale quiescent bit on {node}"
        );
        // The sensing period elapses on the node's *local* clock: skewed
        // clocks sample faster or slower than global time.
        let nominal = self.config.middleware.sense_period;
        let period = if self.sense[i].clock_nominal {
            nominal
        } else {
            self.nodes[i].clock.global_delay(nominal)
        };
        // Reschedule first: the loop survives any processing below. A skewed
        // node stays off the lane: a slow clock's later deadline would become
        // the lane's tail and send every other node's tick to the heap until
        // it fired.
        self.arm_sense_tick(k, now + period, node, period == nominal);
        // Overloaded CPU skips sensing ticks.
        if !self.sense[i].admit(now, costs::SENSE) {
            return;
        }
        self.sensing.admitted += 1;
        for tid in self.program.type_ids() {
            // Read per type: an earlier type's machine may just have armed
            // its formation timer.
            let idle = self.sense[i].quiescent;
            #[cfg(test)]
            let idle = idle && !self.ticks_enter_machines;
            let mut reading = None;
            if idle {
                let spec = self.program.spec(tid);
                // Pinned types exist independent of sensing and take no reading.
                if spec.pinned.is_some() {
                    continue;
                }
                // Taken where the machine would take it, so any noise comes
                // off the node's stream at the same point; through the
                // coverage, which returns what the machine's walk would.
                let (pos, rng) = (self.sense[i].pos, &mut self.nodes[i].rng);
                let coverage = &mut self.sensing.coverage;
                let taken = self.environment.sample_covered(coverage, pos, now, rng);
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
