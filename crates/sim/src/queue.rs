//! A deterministic future-event list.
//!
//! [`EventQueue`] orders items primarily by their firing [`Timestamp`]; items
//! scheduled for the *same* instant are delivered in insertion order. That
//! tie-break is what makes whole-simulation runs reproducible: a plain binary
//! heap over timestamps alone would pop equal-time events in an arbitrary
//! order that depends on heap internals.
//!
//! ```
//! use envirotrack_sim::queue::EventQueue;
//! use envirotrack_sim::time::Timestamp;
//!
//! let mut q = EventQueue::new();
//! q.push(Timestamp::from_secs(2), "late");
//! q.push(Timestamp::from_secs(1), "early");
//! q.push(Timestamp::from_secs(1), "early-second");
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(1), "early")));
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(1), "early-second")));
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(2), "late")));
//! assert_eq!(q.pop(), None);
//! ```
//!
//! ## Storage: slot slab + free-list
//!
//! Items live in a *slab* of slots; the heap orders lightweight
//! `(time, seq, slot, generation)` entries that point into it. Popped and
//! cancelled slots go onto a free-list and are reused by later pushes, so a
//! steady-state simulation recycles a bounded working set of slots instead
//! of growing (or repeatedly reallocating) per event. The indirection is
//! also what makes O(log n) cancellation possible:
//!
//! * [`EventQueue::push_keyed`] returns an [`EventKey`];
//! * [`EventQueue::cancel`] retires that key's item immediately (the stale
//!   heap entry is skipped lazily when it surfaces);
//! * generations disambiguate a reused slot from the key of its previous
//!   occupant, so a stale key can never cancel somebody else's event.
//!
//! ## The recurring lane
//!
//! A simulation's periodic loops push `now + period` in exactly the order
//! those events will fire, so sorting them through the heap is wasted work.
//! [`EventQueue::push_recurring`] appends such an event to a FIFO *lane*
//! instead — but only when its time is not before the lane's tail, which
//! keeps the lane sorted by `(time, seq)` whatever the caller does; any
//! other push falls through to the heap. [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] take whichever of lane head and heap top has
//! the smaller `(time, seq)`, which is the event the heap alone would have
//! yielded: the lane changes what a push costs, never the pop order. Lane
//! entries hold their item inline (no slab slot) and cannot be cancelled.
//!
//! The lane may hold a narrower item type than the heap: `EventQueue<E, L>`
//! keeps `L` on the lane and converts it with `L: Into<E>` when it pops (or
//! when an out-of-order push falls through to the heap). A queue whose
//! recurring events need fewer words than its widest event then keeps its
//! lane entries small — every one of them is read and written once per
//! period, so their size is the lane's memory traffic. `EventQueue<E>` is
//! `EventQueue<E, E>`: one item type, no conversion.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Timestamp;

/// A handle to one scheduled event, returned by [`EventQueue::push_keyed`].
///
/// Keys are one-shot: once the event pops or is cancelled, the key goes
/// stale and [`EventQueue::cancel`] on it is a no-op — even if the
/// underlying slot has been reused by a later push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    slot: u32,
    generation: u32,
}

/// One heap entry: ordering metadata plus a pointer into the slab. Ordered
/// so that the binary heap (a max-heap) pops the earliest time first, then
/// the lowest sequence number.
struct Entry {
    at: Timestamp,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slab slot. `generation` advances every time the occupant leaves
/// (pop or cancel), invalidating outstanding keys and stale heap entries.
struct Slot<E> {
    item: Option<E>,
    generation: u32,
}

/// A priority queue of timed events with deterministic FIFO ordering among
/// events scheduled for the same instant, slab-backed with a slot
/// free-list (see the [module docs](self)).
///
/// The queue never reorders same-time events, so a simulation driven from it
/// is a pure function of its inputs and RNG seed.
pub struct EventQueue<E, L = E> {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The recurring lane, sorted by `(time, seq)` because a push is only
    /// accepted at or after its tail's time.
    lane: VecDeque<(Timestamp, u64, L)>,
    next_seq: u64,
    live: usize,
    lane_pops: u64,
    heap_pops: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with one item type for heap and lane. A queue
    /// with a narrower lane item comes from [`EventQueue::default`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E, L: Into<E>> EventQueue<E, L> {
    /// Schedules `item` to fire at instant `at`.
    pub fn push(&mut self, at: Timestamp, item: E) {
        let _ = self.push_keyed(at, item);
    }

    /// Schedules `item` to fire at instant `at` on the recurring lane (see
    /// the [module docs](self)): O(1) and allocation-free when `at` is not
    /// before the lane's last entry, an ordinary [`EventQueue::push`]
    /// otherwise. Either way it pops exactly where `push` would have put it.
    pub fn push_recurring(&mut self, at: Timestamp, item: L) {
        if self.lane.back().is_some_and(|tail| at < tail.0) {
            return self.push(at, item.into());
        }
        self.lane.push_back((at, self.next_seq, item));
        self.next_seq += 1;
        self.live += 1;
    }

    /// Makes room on the recurring lane for exactly `additional` more
    /// events: arming a known number of loops then allocates once, not by
    /// doubling.
    pub(crate) fn reserve_recurring(&mut self, additional: usize) {
        self.lane.reserve_exact(additional);
    }

    /// Schedules `item` to fire at instant `at`, returning a key that can
    /// cancel it before it pops.
    pub fn push_keyed(&mut self, at: Timestamp, item: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].item = Some(item);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab under u32::MAX slots");
                self.slots.push(Slot {
                    item: Some(item),
                    generation: 0,
                });
                i
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(Entry {
            at,
            seq,
            slot,
            generation,
        });
        self.live += 1;
        EventKey { slot, generation }
    }

    /// Cancels a pending event, returning its item, or `None` when the key
    /// is stale (already popped, already cancelled, or from a cleared
    /// queue). The heap entry is discarded lazily when it surfaces.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let item = slot.item.take()?;
        self.retire(key.slot);
        self.live -= 1;
        Some(item)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.pop_due(Timestamp::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`; `None` when the queue is empty or its earliest event is
    /// later. One merge of lane and heap where a [`EventQueue::peek_time`]
    /// followed by a [`EventQueue::pop`] would pay two.
    pub fn pop_due(&mut self, horizon: Timestamp) -> Option<(Timestamp, E)> {
        let lane = self.lane.front().map(|e| (e.0, e.1));
        let heap = self.live_top();
        let from_lane = match (lane, heap) {
            (Some(l), Some(h)) => l < h,
            (l, _) => l.is_some(),
        };
        let (at, _) = if from_lane { lane } else { heap }?;
        if at > horizon {
            return None;
        }
        self.live -= 1;
        let item = if from_lane {
            self.lane_pops += 1;
            self.lane.pop_front().expect("the lane has a head").2.into()
        } else {
            self.heap_pops += 1;
            let entry = self.heap.pop().expect("the heap has a live top");
            let item = self.slots[entry.slot as usize].item.take();
            self.retire(entry.slot);
            item.expect("live generation implies an occupied slot")
        };
        Some((at, item))
    }

    /// The `(time, seq)` of the heap's earliest live entry. Discards any
    /// cancelled entries sitting on top of the heap, so the answer is exact.
    fn live_top(&mut self) -> Option<(Timestamp, u64)> {
        loop {
            let entry = self.heap.peek()?;
            if self.slots[entry.slot as usize].generation == entry.generation {
                return Some((entry.at, entry.seq));
            }
            let _ = self.heap.pop();
        }
    }

    /// Advances a vacated slot's generation and recycles it.
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<Timestamp> {
        let heap = self.live_top().map(|(at, _)| at);
        let lane = self.lane.front().map(|e| e.0);
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// How many pending events sit on the recurring lane rather than in the
    /// heap.
    #[must_use]
    pub fn recurring_len(&self) -> usize {
        self.lane.len()
    }

    /// How many events [`EventQueue::pop`] and [`EventQueue::pop_due`] have
    /// taken off the recurring lane and out of the heap, as `(lane, heap)`.
    /// Cancelled entries discarded on the way count for neither.
    #[must_use]
    pub(crate) fn pops(&self) -> (u64, u64) {
        (self.lane_pops, self.heap_pops)
    }

    /// Drops all pending events. Outstanding keys go stale (their slots'
    /// generations advance, so they can never match a later occupant); the
    /// slab itself is retained for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.item.take().is_some() {
                s.generation = s.generation.wrapping_add(1);
            }
            self.free
                .push(u32::try_from(i).expect("slab under u32::MAX slots"));
        }
        self.live = 0;
    }
}

impl<E, L> Default for EventQueue<E, L> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            live: 0,
            lane_pops: 0,
            heap_pops: 0,
        }
    }
}

impl<E, L> std::fmt::Debug for EventQueue<E, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.live)
            .field("slots", &self.slots.len())
            .field("recurring", &self.lane.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_secs(3), 'c');
        q.push(Timestamp::from_secs(1), 'a');
        q.push(Timestamp::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_preserve_fifo_per_instant() {
        let mut q = EventQueue::new();
        let t1 = Timestamp::from_secs(1);
        let t2 = Timestamp::from_secs(2);
        q.push(t2, "t2-first");
        q.push(t1, "t1-first");
        q.push(t2, "t2-second");
        q.push(t1, "t1-second");
        assert_eq!(q.pop().unwrap().1, "t1-first");
        assert_eq!(q.pop().unwrap().1, "t1-second");
        assert_eq!(q.pop().unwrap().1, "t2-first");
        assert_eq!(q.pop().unwrap().1, "t2-second");
    }

    #[test]
    fn peek_and_len_reflect_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Timestamp::from_secs(5), ());
        q.push(Timestamp::from_secs(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(4)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_the_event_and_returns_its_item() {
        let mut q = EventQueue::new();
        let a = q.push_keyed(Timestamp::from_secs(1), "a");
        let _b = q.push_keyed(Timestamp::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.len(), 1);
        // Cancellation is visible to peek immediately.
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(2)));
        assert_eq!(q.pop(), Some((Timestamp::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stale_keys_are_noops() {
        let mut q = EventQueue::new();
        let a = q.push_keyed(Timestamp::from_secs(1), 1);
        assert_eq!(q.cancel(a), Some(1));
        assert_eq!(q.cancel(a), None, "double cancel");
        // The slot is reused by the next push; the old key must not be able
        // to cancel the new occupant.
        let b = q.push_keyed(Timestamp::from_secs(2), 2);
        assert_eq!(q.cancel(a), None, "stale key on a reused slot");
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(b), Some(2));
        // A popped event's key is stale too.
        let c = q.push_keyed(Timestamp::from_secs(3), 3);
        assert_eq!(q.pop(), Some((Timestamp::from_secs(3), 3)));
        assert_eq!(q.cancel(c), None, "key of a popped event");
    }

    #[test]
    fn pooling_recycles_slots_in_steady_state() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Timestamp::from_micros(i), i);
            let _ = q.pop();
        }
        assert!(
            q.slots.len() <= 2,
            "steady-state push/pop must recycle, got {} slots",
            q.slots.len()
        );
    }

    #[test]
    fn recurring_pushes_take_the_lane_only_in_order() {
        let mut q = EventQueue::new();
        q.push_recurring(Timestamp::from_secs(2), "lane");
        q.push_recurring(Timestamp::from_secs(2), "lane, tying its tail");
        q.push_recurring(Timestamp::from_secs(1), "before the tail: heap");
        q.push(Timestamp::from_secs(2), "heap");
        assert_eq!((q.recurring_len(), q.len()), (2, 4));
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                "before the tail: heap",
                "lane",
                "lane, tying its tail",
                "heap"
            ],
            "exactly the order four plain pushes pop in"
        );
    }

    #[test]
    fn keys_from_before_clear_cannot_touch_later_occupants() {
        let mut q = EventQueue::new();
        let old = q.push_keyed(Timestamp::from_secs(1), "old");
        q.clear();
        assert_eq!(q.cancel(old), None);
        let _new = q.push_keyed(Timestamp::from_secs(2), "new");
        assert_eq!(q.cancel(old), None, "pre-clear key on a recycled slot");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Timestamp::from_secs(2), "new")));
    }

    #[test]
    fn cancelled_entries_do_not_disturb_fifo_order() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        let keys: Vec<EventKey> = (0..10).map(|i| q.push_keyed(t, i)).collect();
        // Cancel the odd ones; evens must still pop in insertion order.
        for (i, k) in keys.iter().enumerate() {
            if i % 2 == 1 {
                assert!(q.cancel(*k).is_some());
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2, 4, 6, 8]);
    }
}
