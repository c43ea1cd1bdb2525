//! The faults an experiment can inflict on a running world. A fault only
//! changes state the layers read later — the medium's channel-fault
//! settings, a node's liveness, protocol state or clock — and
//! [`super::SensorNetwork::apply_fault`] is the one place that maps each
//! onto what it changes.

use envirotrack_net::medium::{GilbertElliott, LinkFaults};
use envirotrack_world::field::NodeId;

/// One fault, applied to a world by [`super::SensorNetwork::apply_fault`]:
/// scripted by a chaos plan on a monolithic run, or handed to
/// [`crate::shard::run_sharded`], which applies it at the first epoch
/// barrier at or after its nominal time. Channel faults install on every
/// replica of a sharded world (and on its central scheduler); node faults
/// act only on the shard that drives the node.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The node dies: no sensing, processing, or transmission.
    Crash(NodeId),
    /// The node reboots with amnesia (fresh protocol state); its sensing
    /// loop resumes on the phase it always had.
    Reboot(NodeId),
    /// Install a partition mask: nodes with different group values cannot
    /// exchange frames. The vector must name a group per node.
    Partition(Vec<u8>),
    /// Remove any active partition mask.
    Heal,
    /// Install a Gilbert–Elliott burst-loss model on the channel.
    BurstLossOn(GilbertElliott),
    /// Remove the burst-loss model (base fading remains).
    BurstLossOff,
    /// Install a link-level fault injector: bit-flip corruption,
    /// truncation, duplication, and bounded reordering of frames in
    /// flight.
    LinkFaultsOn(LinkFaults),
    /// Remove the link-level fault injector.
    LinkFaultsOff,
    /// Set a node's clock rate (1.0 = ideal). Must stay within the
    /// bounded-skew range `[0.5, 2.0]`.
    ClockRate {
        /// The skewed node.
        node: NodeId,
        /// Local seconds per global second.
        rate: f64,
    },
}
