//! The faults an experiment can inflict on a running world, and the one
//! place that maps each onto the state it changes.

use envirotrack_net::medium::{GilbertElliott, LinkFaults, Medium};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;

use super::node::{self, NodeState, SenseState};
use crate::api::Program;

/// One fault, applied to a world by [`super::SensorNetwork::apply_fault`]:
/// scripted by a chaos plan on a monolithic run, or handed to
/// [`crate::shard::run_sharded`], which applies it at the first epoch
/// barrier at or after its nominal time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The node dies: no sensing, processing, or transmission.
    Crash(NodeId),
    /// The node reboots with amnesia (fresh protocol state).
    Reboot(NodeId),
    /// Install a partition mask, one group per node: nodes in different
    /// groups cannot exchange frames.
    Partition(Vec<u8>),
    /// Remove any active partition mask.
    Heal,
    /// Install a Gilbert–Elliott burst-loss model on the channel.
    BurstLossOn(GilbertElliott),
    /// Remove the burst-loss model (base fading remains).
    BurstLossOff,
    /// Install a link-level fault injector: bit flips, truncation,
    /// duplication, and bounded reordering of frames in flight.
    LinkFaultsOn(LinkFaults),
    /// Remove the link-level fault injector.
    LinkFaultsOff,
    /// Set a node's clock rate (1.0 = ideal), within `[0.5, 2.0]`.
    ClockRate {
        /// The skewed node.
        node: NodeId,
        /// Local seconds per global second.
        rate: f64,
    },
}

impl FaultEvent {
    /// Inflicts the fault at `now`. Channel faults install on the medium —
    /// on a shard's replica that is its executor (delivery masking, burst
    /// chains; installing is draw-free) while the orchestrator installs
    /// them on the central scheduler. Node faults act only in the world
    /// that `drives` the node.
    pub(super) fn apply(
        &self,
        now: Timestamp,
        medium: &mut Medium,
        sense: &mut [SenseState],
        nodes: &mut [NodeState],
        program: &Program,
        drives: impl Fn(NodeId) -> bool,
    ) {
        match self {
            FaultEvent::Partition(groups) => medium.set_partition(Some(groups.clone())),
            FaultEvent::Heal => medium.set_partition(None),
            FaultEvent::BurstLossOn(model) => medium.set_burst_loss(Some(*model)),
            FaultEvent::BurstLossOff => medium.set_burst_loss(None),
            FaultEvent::LinkFaultsOn(faults) => medium.set_link_faults(Some(*faults)),
            FaultEvent::LinkFaultsOff => medium.set_link_faults(None),
            FaultEvent::Crash(node)
            | FaultEvent::Reboot(node)
            | FaultEvent::ClockRate { node, .. }
                if !drives(*node) => {}
            FaultEvent::Crash(node) => sense[node.index()].alive = false,
            FaultEvent::Reboot(node) => {
                let i = node.index();
                node::reboot(*node, &mut sense[i], &mut nodes[i], program);
            }
            // The local clock is rebased at `now` so it stays continuous;
            // the new rate applies to every timer and sensing tick armed
            // from here on.
            FaultEvent::ClockRate { node, rate } => {
                assert!(
                    (0.5..=2.0).contains(rate),
                    "clock rate {rate} outside the bounded-skew range [0.5, 2.0]"
                );
                let i = node.index();
                nodes[i].clock.set_rate(*rate, now);
                sense[i].clock_nominal = nodes[i].clock.is_nominal();
            }
        }
    }
}
