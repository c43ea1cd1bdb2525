//! What a world and its kernel hold in heap bytes, layer by layer
//! (DESIGN.md §12 "Bytes a node"). Each layer works its bytes out from its
//! own state — capacities times element sizes — only when asked, so the
//! census costs a run nothing.

use envirotrack_sim::engine::Kernel;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;

use super::SensorNetwork;

/// The heap bytes of a world and its kernel, one field per layer. What is
/// not counted is small: the program, the environment's targets, the
/// sensing coverage, a pending boxed event's captures and payloads shared
/// with a frame on the air.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// The event list: heap, recurring lane and slab, and each pending
    /// boxed closure.
    pub kernel: u64,
    /// The radio medium with its grid and the neighbour lists it made.
    pub medium: u64,
    /// The node positions, which the grid and every shard replica share.
    pub deployment: u64,
    /// Every node's hot record and its slot, and which are parked.
    pub hot: u64,
    /// Every node's slot of cold state, the cold states made — main
    /// stream, energy — and the clocks whose rate was set.
    pub nodes: u64,
    /// Engaged records: the slot table, each record with its group
    /// machines and link tables.
    pub engaged: u64,
    /// Engaged records' MTP last-known-leader and forwarding tables.
    pub mtp: u64,
    /// Engaged records' MTP endpoints: boxes made on a node's first end-to-
    /// end send, park or delivery, with their tables.
    pub endpoints: u64,
    /// Engaged records' directory state: boxes made on a node's first use
    /// of the directory, with their stores and queries.
    pub directory: u64,
    /// What engaged records' machines hold because they lead: the boxed
    /// leader state, its windows, timers and directory view.
    pub leaders: u64,
    /// The telemetry registry: trace ring, strings, counters, histograms.
    pub telemetry: u64,
    /// The event log and the recorder's counter caches.
    pub events: u64,
    /// The base station's reports and the application log.
    pub base_log: u64,
}

impl HeapBytes {
    /// Every layer by name, in field order.
    #[must_use]
    pub fn layers(&self) -> [(&'static str, u64); 13] {
        [
            ("kernel", self.kernel),
            ("medium", self.medium),
            ("deployment", self.deployment),
            ("hot", self.hot),
            ("nodes", self.nodes),
            ("engaged", self.engaged),
            ("mtp", self.mtp),
            ("endpoints", self.endpoints),
            ("directory", self.directory),
            ("leaders", self.leaders),
            ("telemetry", self.telemetry),
            ("events", self.events),
            ("base_log", self.base_log),
        ]
    }

    /// All layers together.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.layers().iter().map(|(_, bytes)| bytes).sum()
    }
}

impl SensorNetwork {
    /// What this world and `kernel`, the kernel it runs under, hold in heap
    /// bytes, by layer. Like [`Self::cold_engaged`] it says how the run was
    /// stored, not what it did, and belongs in no run record.
    #[must_use]
    pub fn heap_bytes(&self, kernel: &Kernel<SensorNetwork>) -> HeapBytes {
        let app_log = self.app_log.iter().map(|(_, _, line)| line.capacity());
        let app_log = self.app_log.capacity() * size_of::<(Timestamp, NodeId, String)>()
            + app_log.sum::<usize>();
        let mut bytes = HeapBytes {
            kernel: kernel.heap_bytes() as u64,
            medium: self.medium.heap_bytes() as u64,
            deployment: self.deployment.heap_bytes() as u64,
            hot: (self.sense.heap_bytes() + self.park.heap_bytes()) as u64,
            nodes: (self.nodes.heap_bytes() + self.clocks.heap_bytes()) as u64,
            telemetry: self.rec.telemetry.heap_bytes() as u64,
            events: self.rec.heap_bytes() as u64,
            base_log: (self.base_log.heap_bytes() + app_log) as u64,
            ..HeapBytes::default()
        };
        self.layers.heap_bytes(&mut bytes);
        bytes
    }
}
