//! What a world and its kernel hold in heap bytes, layer by layer
//! (DESIGN.md §12 "Bytes a node"). Each layer works its bytes out from its
//! own state — capacities times element sizes — only when asked, so the
//! census costs a run nothing.

use envirotrack_sim::engine::Kernel;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::Work;
use envirotrack_world::field::NodeId;

use super::SensorNetwork;

impl SensorNetwork {
    /// Adds what this world and `kernel`, the kernel it runs under, hold in
    /// heap bytes to `work`, one `heap_<layer>` count per layer. Like
    /// [`Self::work`] it says how the run was stored, not what it did. What
    /// is not counted is small: the program, the environment's targets, a
    /// pending boxed event's captures and payloads shared with a frame on
    /// the air.
    /// - `heap_kernel`: the event list — heap, recurring lane and slab, and
    ///   each pending boxed closure;
    /// - `heap_medium`: the radio medium with its grid and the neighbour
    ///   lists it made;
    /// - `heap_deployment`: the node positions, which the grid and every
    ///   shard replica share;
    /// - `heap_hot`: every node's hot record and its slot, which are
    ///   parked, and the reach's cell boxes and lists;
    /// - `heap_nodes`: every node's slot of cold state, the cold states
    ///   made — main stream, energy — and the clocks whose rate was set;
    /// - the engaged records' tiers (`Layers::heap_bytes`);
    /// - `heap_telemetry`: the telemetry registry — trace ring, strings,
    ///   counters, histograms;
    /// - `heap_events`: the event log and the recorder's counter caches;
    /// - `heap_base_log`: the base station's reports and the application
    ///   log.
    pub fn heap_bytes(&self, kernel: &Kernel<SensorNetwork>, work: &mut Work) {
        let app_log = self.app_log.iter().map(|(_, _, line)| line.capacity());
        let app_log = self.app_log.capacity() * size_of::<(Timestamp, NodeId, String)>()
            + app_log.sum::<usize>();
        let bytes = |b: usize| b as u64;
        work.add("heap_kernel", bytes(kernel.heap_bytes()));
        work.add("heap_medium", bytes(self.medium.heap_bytes()));
        work.add("heap_deployment", bytes(self.deployment.heap_bytes()));
        let hot = self.sense.heap_bytes() + self.park.heap_bytes();
        work.add("heap_hot", bytes(hot + self.sensing.reach.heap_bytes()));
        work.add("heap_nodes", bytes(self.nodes.heap_bytes() + self.clocks.heap_bytes()));
        self.layers.heap_bytes(work);
        work.add("heap_telemetry", bytes(self.rec.telemetry.heap_bytes()));
        work.add("heap_events", bytes(self.rec.heap_bytes()));
        work.add("heap_base_log", bytes(self.base_log.heap_bytes() + app_log));
    }
}
