//! What the channel holds in heap bytes.

use super::*;

impl Medium {
    /// The heap bytes the channel holds — the windows on the air and their
    /// frames' payloads, the transmit side's busy list, the per-node
    /// counters, masks and burst chains, the statistics, the scratch and
    /// the recycled outcome buffers, the neighbour lists it has made — and
    /// the topology it reads ([`Topology::heap_bytes`]),
    /// worked out from their capacities when asked.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let windows = self.windows.iter().map(|w| w.frame.payload.heap_bytes());
        let pool = self.outcome_pool.iter().map(Vec::capacity).sum::<usize>();
        let burst = self.burst.as_ref().map_or(0, |b| {
            b.bad.capacity() * size_of::<bool>() + b.rngs.capacity() * size_of::<SimRng>()
        });
        // One leaf of a `BTreeMap` holds every frame kind there is.
        let per_kind = if self.stats.per_kind.is_empty() {
            0
        } else {
            2 * size_of::<usize>() + 11 * size_of::<(u8, KindStats)>()
        };
        self.links.topology.heap_bytes()
            + self.lists.heap_bytes()
            + self.windows.capacity() * size_of::<RxWindow>()
            + windows.sum::<usize>()
            + self
                .tx
                .as_ref()
                .map_or(0, |t| t.busy.capacity() * size_of::<(NodeId, Timestamp)>())
            + self.next_seq.capacity() * size_of::<u64>()
            + self.owned.capacity() * size_of::<bool>()
            + self.links.partition.as_ref().map_or(0, Vec::capacity)
            + burst
            + per_kind
            + self.rivals.capacity() * size_of::<NodeId>()
            + self.waiting.capacity() * size_of::<(Timestamp, Timestamp)>()
            + self.delivered_keys.capacity() * size_of::<TxKey>()
            + self.delivery_log.as_ref().map_or(0, |l| {
                l.capacity() * size_of::<(Timestamp, NodeId, NodeId)>()
            })
            + self.kind_counters.capacity() * size_of::<Option<KindCounters>>()
            + self.outcome_pool.capacity() * size_of::<Vec<(NodeId, DeliveryOutcome)>>()
            + pool * size_of::<(NodeId, DeliveryOutcome)>()
    }
}
