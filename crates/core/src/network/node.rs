//! Per-node state: the substrates every layer shares — liveness, CPU,
//! energy, clock, randomness — beside one state value per protocol layer
//! (group machines, [`MtpState`], [`DirState`], [`LinkState`]). A layer's
//! functions take its own field, never the whole node, except where they
//! charge the shared substrates.

use envirotrack_node::cpu::MoteCpu;
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::build::NetworkConfig;
use super::dir::DirState;
use super::link::LinkState;
use crate::api::Program;
use crate::config::MiddlewareConfig;
use crate::group::GroupMachine;
use crate::transport::{LeaderLoc, MtpState};

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

    /// Converts a delay measured on this node's clock into global time: a
    /// fast clock (rate > 1) makes local delays elapse sooner.
    pub(super) fn global_delay(&self, local: SimDuration) -> SimDuration {
        if (self.rate - 1.0).abs() < f64::EPSILON {
            local
        } else {
            local.mul_f64(1.0 / self.rate)
        }
    }
}

/// One node: shared substrates plus each layer's state.
pub(super) struct NodeState {
    pub(super) id: NodeId,
    pub(super) pos: Point,
    pub(super) alive: bool,
    pub(super) cpu: MoteCpu,
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

fn mtp_state(mw: &MiddlewareConfig, telemetry: &Telemetry, seq_base: u32) -> MtpState {
    let mut mtp = MtpState::new(
        mw.mtp_table_capacity,
        mw.mtp_forward_ttl,
        mw.mtp_max_chain_hops,
    )
    .with_telemetry(telemetry.clone());
    mtp.set_seq_base(seq_base);
    mtp
}

impl NodeState {
    pub(super) fn new(
        id: NodeId,
        pos: Point,
        program: &Program,
        config: &NetworkConfig,
        telemetry: &Telemetry,
        master: &SimRng,
    ) -> Self {
        NodeState {
            id,
            pos,
            alive: true,
            cpu: MoteCpu::new(config.cpu),
            rng: master.fork_indexed("node", u64::from(id.0)),
            energy: EnergyMeter::new(),
            clock: NodeClock::ideal(),
            retx_rng: master.fork_indexed("mtp-retx", u64::from(id.0)),
            machines: machines(id, program),
            mtp: mtp_state(&config.middleware, telemetry, 0),
            dir: DirState::new(telemetry),
            link: LinkState::default(),
        }
    }

    /// Brings a killed node back with cleared protocol state (a rebooted
    /// mote remembers nothing): group machines, transport tables, directory
    /// entries, and every in-flight query or ack are gone. Only the link,
    /// transport and query sequence bases survive, as a nonvolatile boot
    /// counter — reusing sequence numbers would trip peers' dedup windows.
    /// The substrates (CPU backlog, energy, clock, RNG streams) carry on.
    pub(super) fn reboot(
        &mut self,
        program: &Program,
        mw: &MiddlewareConfig,
        telemetry: &Telemetry,
    ) {
        self.alive = true;
        self.machines = machines(self.id, program);
        self.mtp = mtp_state(mw, telemetry, self.mtp.seq_base());
        self.dir.reboot(telemetry);
        self.link.reboot();
    }

    /// Where this node is, in the form the transport keeps leaders in.
    pub(super) fn here(&self) -> LeaderLoc {
        LeaderLoc {
            node: self.id,
            pos: self.pos,
        }
    }

    /// Whether the node is up and its CPU takes a task of `cost` at `now`.
    /// Overload is the paper's limiting factor: the caller drops, skips or
    /// delays the work when this says no.
    pub(super) fn admit(&mut self, now: Timestamp, cost: SimDuration) -> bool {
        self.alive && self.cpu.admit(now, cost).is_ok()
    }
}
