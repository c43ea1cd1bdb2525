//! The receivers of each sender, listed the first time it transmits or
//! routes.

use envirotrack_world::field::NodeId;
use envirotrack_world::grid::Topology;

use super::Medium;

/// A node's start in the arena before its list is made.
const UNLISTED: u32 = u32::MAX;

/// The fewest slots the arena grows by.
const MIN_GROWTH: usize = 64;

/// The neighbour lists a medium has walked, kept for its next walk: one
/// start per node into an arena that holds each list made so far behind
/// its length, in the order the lists were made. A list is the sorted
/// [`Topology::for_each_neighbor`] scan of its node, made the first time
/// something asks for it; a node that is never asked about never has one.
#[derive(Debug)]
pub(super) struct NeighborLists {
    /// Where each node's length word sits in `arena`, or [`UNLISTED`].
    starts: Vec<u32>,
    arena: Vec<NodeId>,
    listed: usize,
}

impl NeighborLists {
    pub(super) fn new(nodes: usize) -> Self {
        NeighborLists {
            starts: vec![UNLISTED; nodes],
            arena: Vec::new(),
            listed: 0,
        }
    }

    /// The nodes within range of `node`, ascending, scanned from
    /// `topology` into the arena if this is the first ask. A full arena
    /// grows by an eighth of what it holds, not by doubling.
    pub(super) fn get(&mut self, topology: &Topology, node: NodeId) -> &[NodeId] {
        let i = node.index();
        if self.starts[i] == UNLISTED {
            let start = self.arena.len();
            self.starts[i] = u32::try_from(start).expect("lists outgrow u32 starts");
            let arena = &mut self.arena;
            let mut push = |id| {
                if arena.len() == arena.capacity() {
                    arena.reserve_exact((arena.len() / 8).max(MIN_GROWTH));
                }
                arena.push(id);
            };
            // The length word, filled in once the scan has counted.
            push(NodeId(0));
            topology.for_each_neighbor(node, push);
            let list = &mut self.arena[start + 1..];
            list.sort_unstable();
            self.arena[start] = NodeId(list.len() as u32);
            self.listed += 1;
        }
        let start = self.starts[i] as usize;
        let len = self.arena[start].index();
        &self.arena[start + 1..=start + len]
    }

    /// How many lists have been made.
    pub(super) fn len(&self) -> usize {
        self.listed
    }

    pub(super) fn heap_bytes(&self) -> usize {
        self.starts.capacity() * size_of::<u32>() + self.arena.capacity() * size_of::<NodeId>()
    }
}

impl Medium {
    /// The nodes within range of `node`, ascending: the receivers a walk
    /// of its transmissions visits, and the candidates for its next hop.
    /// Listed the first time it is asked for and kept;
    /// [`Medium::deliveries`] asks for each sender it walks, and a world
    /// routing a message asks for the node it forwards from.
    pub fn list_neighbors(&mut self, node: NodeId) -> &[NodeId] {
        self.lists.get(&self.links.topology, node)
    }

    /// How many nodes' neighbour lists this medium has made: one for each
    /// node [`Medium::list_neighbors`] was asked about, walks included.
    /// It says how the run was stored, not what it did.
    #[must_use]
    pub fn neighbor_lists(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_world::field::Deployment;

    /// The arena grows by an eighth of what it holds, so at any length it
    /// has at most an eighth (or [`MIN_GROWTH`]) more slots than entries,
    /// and it holds each list once, behind its length.
    #[test]
    fn the_arena_grows_by_an_eighth() {
        let d = Deployment::grid(40, 40, 1.0);
        let topology = Topology::new(&d, 3.0);
        let mut lists = NeighborLists::new(d.len());
        let mut entries = 0;
        for n in d.ids() {
            entries += lists.get(&topology, n).len() + 1;
            let (held, slots) = (lists.arena.len(), lists.arena.capacity());
            assert!(
                slots - held <= (held / 8).max(MIN_GROWTH),
                "{slots} slots for {held}"
            );
        }
        for n in d.ids().step_by(7) {
            lists.get(&topology, n);
        }
        assert_eq!(lists.len(), d.len());
        assert_eq!(lists.arena.len(), entries);
    }
}
