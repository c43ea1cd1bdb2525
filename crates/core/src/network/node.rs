//! Per-node state, split by how often it is touched. [`SenseState`] is the
//! hot half: one cache line per node, dense in id order, holding exactly
//! what a sensing tick that finds nothing reads and writes. [`NodeState`] is
//! the cold half, in a parallel array: energy, clock, randomness and one
//! state value per protocol layer — only a node in or near a group, or one
//! a frame reaches, ever dereferences it. A layer takes its own field, plus
//! the substrates it charges.

use envirotrack_node::cpu::{costs, MoteCpu};
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::dir::DirState;
use super::link::LinkState;
use crate::api::Program;
use crate::group::GroupMachine;
use crate::transport::{self, MtpState};

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
}

impl SenseState {
    pub(super) fn new(pos: Point) -> Self {
        SenseState {
            pos,
            cpu: MoteCpu::new(costs::MAX_BACKLOG),
            alive: true,
            clock_nominal: true,
            quiescent: true,
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

/// The cold half of a node: shared substrates plus each layer's state.
pub(super) struct NodeState {
    pub(super) rng: SimRng,
    /// Marginal radio energy (CPU energy derives from the CPU meter).
    pub(super) energy: EnergyMeter,
    /// The node's local clock (skew/drift model).
    pub(super) clock: NodeClock,
    /// Dedicated stream for MTP retransmission jitter, so enabling or
    /// disabling retransmission never perturbs the node's main RNG.
    pub(super) retx_rng: SimRng,
    pub(super) machines: Vec<GroupMachine>,
    pub(super) mtp: MtpState,
    pub(super) dir: DirState,
    pub(super) link: LinkState,
}

fn machines(id: NodeId, program: &Program) -> Vec<GroupMachine> {
    program
        .type_ids()
        .map(|tid| GroupMachine::new(id, tid, program.spec(tid)))
        .collect()
}

impl NodeState {
    pub(super) fn new(id: NodeId, program: &Program, master: &SimRng) -> Self {
        NodeState {
            rng: master.fork_indexed("node", u64::from(id.0)),
            energy: EnergyMeter::new(),
            clock: NodeClock::ideal(),
            retx_rng: master.fork_indexed("mtp-retx", u64::from(id.0)),
            machines: machines(id, program),
            mtp: MtpState::new(
                transport::TABLE_CAPACITY,
                transport::FORWARD_TTL,
                transport::MAX_CHAIN_HOPS,
            ),
            dir: DirState::default(),
            link: LinkState::default(),
        }
    }
}

/// Brings a killed node back with cleared protocol state (a rebooted mote
/// remembers nothing): group machines, transport tables, directory entries,
/// and every in-flight query or ack are gone. Only the link, transport and
/// query sequence counters survive — reusing sequence numbers would trip
/// peers' dedup windows.
pub(super) fn reboot(id: NodeId, hot: &mut SenseState, cold: &mut NodeState, program: &Program) {
    hot.alive = true;
    hot.quiescent = true;
    cold.machines = machines(id, program);
    cold.mtp.reboot();
    cold.dir.reboot();
    cold.link.reboot();
}
