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
//! Items live in a *slab* of slots; the tiers below order lightweight
//! `(time, key, slot, generation)` entries that point into it. Popped and
//! cancelled slots go onto a free-list and are reused by later pushes, so a
//! steady-state simulation recycles a bounded working set of slots instead
//! of growing (or repeatedly reallocating) per event. The indirection is
//! also what makes cheap cancellation possible:
//!
//! * [`EventQueue::push_keyed`] returns an [`EventKey`];
//! * [`EventQueue::cancel`] retires that key's item immediately (the stale
//!   entry is skipped lazily when it surfaces, or dropped when the far tier
//!   moves it);
//! * generations disambiguate a reused slot from the key of its previous
//!   occupant, so a stale key can never cancel somebody else's event.
//!
//! ## Two tiers: a near heap and far radix buckets
//!
//! The entries are split at an instant, the *edge*. **Near** is a binary
//! heap over `(time, key)` holding every entry at or before the edge;
//! **far** holds every entry after it, in radix buckets: bucket *i* holds
//! the entries whose time first differs from a *base* instant at bit
//! *i − 1* (bucket 0: equal to it), and every far time is at or after the
//! base (a monotone radix heap). A push at or before the edge goes into
//! near, any later one is dropped into its bucket in O(1). Until near has
//! held more than `SPILL` entries there is no far tier and no edge (it
//! is [`Timestamp::MAX`]): a small queue is exactly a binary heap, and
//! constructing one allocates nothing. The first push past that *spills*:
//! the far tier is made, behind a `Box`, with its base and the edge at
//! near's earliest time, and every later entry moves into it.
//!
//! When near runs out, its next entries are the far tier's lowest bucket:
//! every entry of a higher bucket is later than every one of it. The
//! lowest buckets move into near whole, as many as fit in `MOVE` entries
//! together (bucket 0, all at one instant, always fits), and the edge
//! becomes the latest time moved. A lowest bucket too large for that is
//! first redistributed around its earliest time, which becomes the base,
//! into strictly lower buckets. A heap of thousands of timers then sifts
//! each pop through a few dozen entries, and each far entry is moved a few
//! times on its way in.
//!
//! *Any push order is safe*: a push goes to near or far by its time alone,
//! so near always holds every entry up to the edge and far every entry
//! after it, and the base is never after the edge, so a far push is never
//! before the base. A push into the past of the far tier — behind a time a
//! [`EventQueue::pop_due`] has peeked, or before the base — lands in near
//! and needs no rebuild. *The pop order is the single heap's*: near's top
//! is the earliest `(time, key)` of near, every far entry is later than
//! every near entry, and entries of one instant are never split between the
//! tiers, so they are ordered by key in near's heap alone. Cancelled
//! entries a bucket move meets are dropped there, and count for nothing.
//!
//! ## The recurring lane
//!
//! A simulation's periodic loops push `now + period` in exactly the order
//! those events will fire, so sorting them through the heap is wasted work.
//! [`EventQueue::push_recurring`] appends such an event to a FIFO *lane*
//! instead — but only when its `(time, key)` is not before the lane's
//! tail's, which keeps the lane sorted whatever the caller does; any other
//! push falls through to the heap. [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] take whichever of lane head and heap top has
//! the smaller `(time, key)`, which is the event the heap alone would have
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
//!
//! ## Keys
//!
//! Same-instant order is by *key*: the push's sequence number, with a
//! *tag* the kernel may set in the bits above it (`push_tagged`,
//! `push_recurring_tagged`; the public pushes tag nothing). The queue
//! orders by `(time, key)` and knows nothing of what a tag means.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use envirotrack_telemetry::Work;

use crate::time::Timestamp;

/// Near's size past which the first push makes the far tier (see the
/// [module docs](self)).
const SPILL: usize = 256;

/// The most entries a refill moves into near, the lowest far buckets whole;
/// a lowest bucket larger than this is redistributed first.
const MOVE: usize = 64;

/// The largest buffer an emptied far bucket keeps: the bucket that holds
/// the bulk of the far future changes as the base moves, and every bucket
/// that once held it would otherwise keep room for all of it.
const KEEP: usize = 256;

/// Far buckets: one for the base instant, one per bit a time may first
/// differ from it at.
const BUCKETS: usize = 1 + u64::BITS as usize;

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
/// the lowest key (see the [module docs](self)).
#[derive(Clone, Copy)]
struct Entry {
    at: Timestamp,
    key: u64,
    slot: u32,
    generation: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
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
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// The far tier: radix buckets over every entry after the edge (see the
/// [module docs](self)).
struct Far {
    /// No far entry is before it; the buckets are relative to it.
    base: u64,
    /// Bit *i* is set when bucket *i* holds an entry.
    occupied: u128,
    buckets: [Vec<Entry>; BUCKETS],
}

impl Far {
    fn new(base: Timestamp) -> Box<Self> {
        Box::new(Far {
            base: base.as_micros(),
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        })
    }

    /// Drops `entry` into the bucket of the first bit its time differs from
    /// the base at.
    #[inline]
    fn push(&mut self, entry: Entry) {
        debug_assert!(
            entry.at.as_micros() >= self.base,
            "a far entry before the base"
        );
        let i = (u64::BITS - (entry.at.as_micros() ^ self.base).leading_zeros()) as usize;
        self.occupied |= 1 << i;
        self.buckets[i].push(entry);
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
    /// Every heap-side entry at or before `edge`.
    near: BinaryHeap<Entry>,
    /// Near's last instant: [`Timestamp::MAX`] until the far tier is made.
    edge: Timestamp,
    /// Every entry after `edge`, once near has spilled.
    far: Option<Box<Far>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The recurring lane, sorted by `(time, key)` because a push is only
    /// accepted at or after its tail's.
    lane: VecDeque<(Timestamp, u64, L)>,
    /// Pushes so far: the next push's sequence number.
    next_seq: u64,
    live: usize,
    lane_pops: u64,
    heap_pops: u64,
    near_pushes: u64,
    far_pushes: u64,
    moves: u64,
    advances: u64,
    spills: u64,
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
        self.push_recurring_tagged(at, 0, item);
    }

    /// [`EventQueue::push_recurring`] with `tag` in the key (see the
    /// [module docs](self)): onto the lane when `(at, key)` is not before
    /// the lane's last entry, into the heap otherwise.
    pub(crate) fn push_recurring_tagged(&mut self, at: Timestamp, tag: u64, item: L) {
        let key = tag | self.next_seq;
        self.next_seq += 1;
        if self.lane.back().is_some_and(|tail| (at, key) < (tail.0, tail.1)) {
            let _ = self.insert(at, key, item.into());
            return;
        }
        self.lane.push_back((at, key, item));
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
        self.push_tagged(at, 0, item)
    }

    /// [`EventQueue::push_keyed`] with `tag` in the key (see the [module
    /// docs](self)).
    pub(crate) fn push_tagged(&mut self, at: Timestamp, tag: u64, item: E) -> EventKey {
        let key = tag | self.next_seq;
        self.next_seq += 1;
        self.insert(at, key, item)
    }

    fn insert(&mut self, at: Timestamp, key: u64, item: E) -> EventKey {
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
        let entry = Entry {
            at,
            key,
            slot,
            generation,
        };
        if at <= self.edge {
            self.near_pushes += 1;
            self.near.push(entry);
            if self.near.len() > SPILL && self.far.is_none() {
                self.spill();
            }
        } else {
            self.far_pushes += 1;
            let far = self.far.as_deref_mut();
            far.expect("a far tier past the edge").push(entry);
        }
        self.live += 1;
        EventKey { slot, generation }
    }

    /// Makes the far tier, with near's earliest time as its base and the
    /// edge, and moves every later entry into it.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let Self {
            near, slots, edge, ..
        } = self;
        *edge = near.peek().expect("near is past its size").at;
        let mut far = Far::new(*edge);
        near.retain(|e| {
            let live = slots[e.slot as usize].generation == e.generation;
            if live && e.at > *edge {
                far.push(*e);
            }
            live && e.at <= *edge
        });
        self.moves += far.buckets.iter().map(|b| b.len() as u64).sum::<u64>();
        self.spills += 1;
        self.far = Some(far);
    }

    /// Refills an empty near from the far tier's lowest buckets (see the
    /// [module docs](self)); `false` when the far tier holds no live entry.
    #[inline(never)]
    fn advance(&mut self) -> bool {
        let Self {
            near,
            edge,
            far,
            slots,
            moves,
            advances,
            ..
        } = self;
        let far = far.as_deref_mut().expect("a far tier to advance from");
        let live = |e: &Entry| slots[e.slot as usize].generation == e.generation;
        let mut heap = std::mem::take(near).into_vec();
        while far.occupied != 0 {
            let i = far.occupied.trailing_zeros() as usize;
            let len = far.buckets[i].len();
            if !heap.is_empty() && heap.len() + len > MOVE {
                break;
            }
            far.occupied &= !(1 << i);
            let mut bucket = std::mem::take(&mut far.buckets[i]);
            *moves += len as u64;
            if i == 0 || len <= MOVE {
                heap.extend(bucket.drain(..).filter(live));
            } else {
                // Around its earliest time, into strictly lower buckets.
                let base = bucket.iter().map(|e| e.at).min();
                far.base = base.expect("a large bucket").as_micros();
                for e in bucket.drain(..) {
                    far.push(e);
                }
            }
            if bucket.capacity() <= KEEP {
                far.buckets[i] = bucket;
            }
        }
        if let Some(last) = heap.iter().map(|e| e.at).max() {
            *edge = last;
            *advances += 1;
        } else {
            // Every entry met was cancelled and far is empty, its base
            // perhaps redistributed past the edge: bring it back, so that
            // a push after the edge is not before the base.
            far.base = edge.as_micros();
        }
        *near = BinaryHeap::from(heap);
        !near.is_empty()
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
        self.pop_keyed(horizon).map(|(at, _, item)| (at, item))
    }

    /// [`EventQueue::pop_due`], with the event's key.
    #[inline]
    pub(crate) fn pop_keyed(&mut self, horizon: Timestamp) -> Option<(Timestamp, u64, E)> {
        let lane = self.lane.front().map(|e| (e.0, e.1));
        let heap = self.live_top();
        let from_lane = match (lane, heap) {
            (Some(l), Some(h)) => l < h,
            (l, _) => l.is_some(),
        };
        let (at, key) = if from_lane { lane } else { heap }?;
        if at > horizon {
            return None;
        }
        self.live -= 1;
        let item = if from_lane {
            self.lane_pops += 1;
            self.lane.pop_front().expect("the lane has a head").2.into()
        } else {
            self.heap_pops += 1;
            let entry = self.near.pop().expect("the heap has a live top");
            let item = self.slots[entry.slot as usize].item.take();
            self.retire(entry.slot);
            item.expect("live generation implies an occupied slot")
        };
        Some((at, key, item))
    }

    /// The `(time, key)` of the earliest pending event, if any.
    pub(crate) fn peek_key(&mut self) -> Option<(Timestamp, u64)> {
        let lane = self.lane.front().map(|e| (e.0, e.1));
        match (lane, self.live_top()) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    /// The `(time, key)` of the heap's earliest live entry, near's top,
    /// refilling an empty near from the far tier. Discards any cancelled
    /// entries sitting on top of near, so the answer is exact.
    #[inline]
    fn live_top(&mut self) -> Option<(Timestamp, u64)> {
        loop {
            let Some(entry) = self.near.peek() else {
                if self.far.is_some() && self.advance() {
                    continue;
                }
                return None;
            };
            if self.slots[entry.slot as usize].generation == entry.generation {
                return Some((entry.at, entry.key));
            }
            let _ = self.near.pop();
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

    /// The heap bytes the queue holds: its near heap, far tier (the box
    /// and its buckets), slab, free list and lane at their capacities, and
    /// `item_heap` of every pending slab item.
    pub(crate) fn heap_bytes(&self, item_heap: impl Fn(&E) -> usize) -> usize {
        let items = self.slots.iter().filter_map(|s| s.item.as_ref());
        let far = self.far.as_deref().map_or(0, |far| {
            let entries: usize = far.buckets.iter().map(Vec::capacity).sum();
            size_of::<Far>() + entries * size_of::<Entry>()
        });
        far + self.near.capacity() * size_of::<Entry>()
            + self.slots.capacity() * size_of::<Slot<E>>()
            + self.free.capacity() * size_of::<u32>()
            + self.lane.capacity() * size_of::<(Timestamp, u64, L)>()
            + items.map(item_heap).sum::<usize>()
    }

    /// Adds how the queue did its work to `work`:
    /// - `popped_events`: events popped, off the lane and out of the heap;
    /// - `lane_pops`: events popped off the recurring lane;
    /// - `heap_pops`: events popped out of the heap (cancelled entries
    ///   discarded on the way count for neither);
    /// - `queue_near_pushes`: heap pushes at or before the edge, into near;
    /// - `queue_far_pushes`: heap pushes after it, into a far bucket;
    /// - `queue_moves`: entries a spill or a refill moved: into far, from
    ///   one bucket to a lower one, or from a bucket into near;
    /// - `queue_advances`: refills of an empty near from the far tier;
    /// - `queue_spills`: times near passed its size and made the far tier.
    ///
    /// See the [module docs](self) for the tiers.
    pub fn work(&self, work: &mut Work) {
        work.add("popped_events", self.lane_pops + self.heap_pops);
        work.add("lane_pops", self.lane_pops);
        work.add("heap_pops", self.heap_pops);
        work.add("queue_near_pushes", self.near_pushes);
        work.add("queue_far_pushes", self.far_pushes);
        work.add("queue_moves", self.moves);
        work.add("queue_advances", self.advances);
        work.add("queue_spills", self.spills);
    }

    /// Drops all pending events. Outstanding keys go stale (their slots'
    /// generations advance, so they can never match a later occupant); the
    /// slab itself is retained for reuse, and the far tier is dropped until
    /// near spills again.
    pub fn clear(&mut self) {
        self.near.clear();
        (self.edge, self.far) = (Timestamp::MAX, None);
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
            near: BinaryHeap::new(),
            edge: Timestamp::MAX,
            far: None,
            slots: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            live: 0,
            lane_pops: 0,
            heap_pops: 0,
            near_pushes: 0,
            far_pushes: 0,
            moves: 0,
            advances: 0,
            spills: 0,
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

    /// The lane takes a push only at or after its tail's `(time, key)`: a
    /// tagged push that ties its tail's time with a smaller key falls
    /// through to the heap, and pops first.
    #[test]
    fn a_tagged_push_behind_the_tail_falls_through_to_the_heap() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        q.push_recurring_tagged(t, 1 << 63, "high tag");
        q.push_recurring_tagged(t, 0, "no tag, pushed later");
        assert_eq!((q.recurring_len(), q.len()), (1, 2));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["no tag, pushed later", "high tag"]);
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

    /// A refill that redistributes a large bucket moves the base up to its
    /// earliest entry; when every entry it then meets is cancelled, the far
    /// tier is left empty with its base past the edge. A later push between
    /// the two is still after the edge, and must pop before a later push
    /// that lands in a lower bucket.
    #[test]
    fn a_refill_of_cancelled_entries_leaves_the_far_tier_usable() {
        let mut q = EventQueue::new();
        let us = Timestamp::from_micros;
        q.push(us(0), 0);
        // One far bucket past `MOVE` entries, all cancelled.
        let keys: Vec<EventKey> = (0..SPILL as u64)
            .map(|t| q.push_keyed(us(1024 + t), 1))
            .collect();
        assert!(q.far.is_some(), "the push past `SPILL` spills");
        for key in keys {
            assert_eq!(q.cancel(key), Some(1));
        }
        assert_eq!(q.pop(), Some((us(0), 0)));
        assert_eq!(q.pop(), None, "every far entry was cancelled");
        // Between the edge and the far tier's old earliest entry...
        for t in 0..MOVE as u64 {
            q.push(us(500 + t), 2);
        }
        // ... and just past it.
        q.push(us(1025), 3);
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop().map(|(at, _)| at.as_micros())).collect();
        let expected: Vec<u64> = (500..500 + MOVE as u64).chain([1025]).collect();
        assert_eq!(order, expected);
    }
}
