//! Property-based tests for the simulation kernel.

use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use testkit::prelude::*;

/// A lane item narrower than the queue's `usize` items, converted when it
/// pops or falls through to the heap.
struct Narrow(u16);

impl From<Narrow> for usize {
    fn from(item: Narrow) -> usize {
        usize::from(item.0)
    }
}

prop_test! {
    /// Popping the queue yields items sorted by time, and FIFO among equal
    /// times (tracked via the insertion index).
    #[test]
    fn queue_pops_sorted_and_fifo(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Timestamp::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    }

    /// The queue against a reference model — a `Vec<(at, seq, item)>`
    /// scanned for its minimum, which knows nothing of heaps, slabs or
    /// lanes — under random interleavings of every operation: each pop,
    /// due-pop, cancel (live and stale keys), peek and length must agree.
    /// Recurring pushes arrive both in order (onto the lane, ties with its
    /// tail included) and out of order (through to the heap), and times
    /// come from a small range so lane head and heap top tie often, with
    /// the lower sequence number on either side. The lane holds its own,
    /// narrower item type, as the engine's does.
    #[test]
    fn queue_matches_reference_model(
        ops in prop::collection::vec((0u8..12, 0u64..40), 1..400),
    ) {
        let mut q: EventQueue<usize, Narrow> = EventQueue::default();
        let narrow = |item: usize| Narrow(u16::try_from(item).expect("under 400 items"));
        let mut model: Vec<(Timestamp, u64, usize)> = Vec::new();
        let mut keys = Vec::new();
        let mut lane_tail = 0u64;
        let (mut next_seq, mut next_item) = (0u64, 0usize);
        let take_min = |model: &mut Vec<(Timestamp, u64, usize)>, horizon: Timestamp| {
            let min = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
            (model[min].0 <= horizon).then(|| model.remove(min)).map(|(at, _, item)| (at, item))
        };
        for &(op, t) in &ops {
            let at = Timestamp::from_micros(t);
            match op {
                0..=5 => {
                    let at = match op {
                        0 | 1 => { q.push(at, next_item); at }
                        2 => { keys.push((q.push_keyed(at, next_item), next_item)); at }
                        // In order: at or after every earlier recurring push.
                        3 | 4 => {
                            lane_tail += t % 3;
                            let at = Timestamp::from_micros(lane_tail);
                            q.push_recurring(at, narrow(next_item));
                            at
                        }
                        // Anywhere: usually before the lane's tail.
                        _ => { lane_tail = lane_tail.max(t); q.push_recurring(at, narrow(next_item)); at }
                    };
                    model.push((at, next_seq, next_item));
                    next_seq += 1;
                    next_item += 1;
                }
                6 if !keys.is_empty() => {
                    let (key, item) = keys[t as usize % keys.len()];
                    let held = model.iter().position(|e| e.2 == item).map(|i| model.remove(i).2);
                    prop_assert_eq!(q.cancel(key), held, "cancel diverged");
                }
                7 => prop_assert_eq!(q.pop_due(at), take_min(&mut model, at), "pop_due diverged"),
                8 if t == 0 => { q.clear(); model.clear(); }
                _ => prop_assert_eq!(q.pop(), take_min(&mut model, Timestamp::MAX), "pop diverged"),
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
            prop_assert!(q.recurring_len() <= q.len());
        }
        // Drain to the end: the tail must match exactly too.
        loop {
            let (a, b) = (q.pop(), take_min(&mut model, Timestamp::MAX));
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Timestamp/duration arithmetic is consistent: (t + d) − t == d and
    /// (t + d) − d == t for any in-range values.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Timestamp::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert!(t.saturating_since(t + d).is_zero());
    }

    /// Forked RNG streams are stable: forking twice with the same label
    /// gives the same stream, regardless of parent draws in between.
    #[test]
    fn rng_forks_are_stable(seed: u64, label in "[a-z]{1,12}", draws in 0usize..16) {
        let mut parent = SimRng::seed_from(seed);
        let early = parent.fork(&label);
        for _ in 0..draws {
            let _ = parent.next_u64();
        }
        let late = parent.fork(&label);
        let mut a = early.clone();
        let mut b = late.clone();
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` stays in range and `chance` respects its clamps.
    #[test]
    fn rng_bounds_hold(seed: u64, n in 1u64..10_000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }
}
