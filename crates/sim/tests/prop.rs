//! Property-based tests for the simulation kernel.

use std::rc::Rc;

use envirotrack_sim::engine::{Engine, Kernel, TickClock};
use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use testkit::prelude::*;

/// The toy world's loop period in µs: short, so that ticks, one-shots and
/// wakes share instants often.
const P: u64 = 6;

/// How a toy run treats its loops.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every loop ticks every period, and the kernel knows nothing of it.
    Reference,
    /// The same, under [`Kernel::park_ticks`].
    Tagged,
    /// An idle loop may stop at a tick that sits at the tick boundary; its
    /// skipped ticks are counted through the [`TickClock`], and it is
    /// re-armed with [`Kernel::schedule_tick_at`] when touched or woken.
    Skipping,
}

struct Loop {
    phase: u64,
    /// Ticks applied: run, or settled when the loop was re-armed.
    ticks: u64,
    /// The last tick applied.
    last: u64,
    parked: bool,
    /// Which wake event unparks it.
    wake: u64,
}

/// A world of fixed-period loops (some sharing a phase) whose busy ticks
/// arm one-shot events, which arm more, read a loop's tick count and may
/// touch it. Every decision is a hash of the deciding event's identity, so
/// a run that skips idle ticks decides what a run that ticks does.
struct Toy {
    seed: u64,
    mode: Mode,
    loops: Vec<Loop>,
    clock: Option<Rc<TickClock>>,
    /// Every event a tick-by-tick run has, but idle ticks: its instant, its
    /// identity, and the tick count it read.
    log: Vec<(u64, u64, u64)>,
    /// Loops to arm again after the current event: `(at, loop)`.
    rearm: Vec<(u64, usize)>,
    /// Ticks settled at re-arming, and wake events run (no events of a
    /// tick-by-tick run).
    settled: u64,
    wakes: u64,
}

/// SplitMix64's finaliser over two words.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A delay below, at or above the period, by `draw`.
fn delay(draw: u64) -> u64 {
    match draw % 3 {
        0 => 1 + draw / 3 % (P - 1),
        1 => P,
        _ => P + 1 + draw / 3 % (2 * P),
    }
}

/// Ticks at `last + j·P`, `j ≥ 1`, that have run by instant `now`: one at
/// `now` when a skipped tick at it precedes the current event (`ran`).
fn pending(last: u64, now: u64, ran: bool) -> u64 {
    match now - last {
        0 => 0,
        d => (d - 1) / P + u64::from(ran && d % P == 0),
    }
}

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

impl Toy {
    /// The identity of loop `l`'s tick `n`, and whether it is busy.
    fn tick_id(&self, l: usize, n: u64) -> (u64, bool) {
        let id = mix(mix(self.seed, l as u64), n);
        (id, id.is_multiple_of(4))
    }

    /// Whether loop `l`'s skipped tick at the clock's instant precedes the
    /// current event.
    fn ran(&self, l: usize) -> bool {
        self.clock.as_ref().is_none_or(|c| c.ran(l as u32))
    }

    /// Loop `l`'s ticks so far by the clock.
    fn count(&self, l: usize, now: u64) -> u64 {
        let lp = &self.loops[l];
        lp.ticks
            + if lp.parked {
                pending(lp.last, now, self.ran(l))
            } else {
                0
            }
    }

    /// Re-arms loop `l` if it is parked, after the ticks that precede the
    /// current event.
    fn touch(&mut self, l: usize, now: u64) {
        let ran = self.ran(l);
        let lp = &mut self.loops[l];
        if !lp.parked {
            return;
        }
        let n = pending(lp.last, now, ran);
        (lp.ticks, lp.last, lp.parked) = (lp.ticks + n, lp.last + n * P, false);
        self.settled += n;
        self.rearm.push((lp.last + P, l));
        self.clock.as_ref().expect("parked").rearm.set(true);
    }
}

fn arm(k: &mut Kernel<Toy>, at: u64, id: u64, depth: u64) {
    k.schedule_inline_at(ts(at), once, [id, depth]);
}

fn tick(w: &mut Toy, k: &mut Kernel<Toy>, l: u64) {
    let (now, l) = (k.now().as_micros(), l as usize);
    let lp = &mut w.loops[l];
    (lp.ticks, lp.last) = (lp.ticks + 1, now);
    let (phase, n) = (lp.phase, (now - lp.phase) / P);
    let (id, busy) = w.tick_id(l, n);
    if w.mode == Mode::Skipping
        && !busy
        && w.clock.as_ref().is_some_and(|c| c.at_boundary.get())
        && mix(id, 2).is_multiple_of(2)
    {
        // Stop; a wake before the next busy tick re-arms the loop.
        let next = (n + 1..n + 64)
            .find(|&m| w.tick_id(l, m).1)
            .unwrap_or(n + 64);
        let at = now + 1 + mix(id, 3) % (phase + next * P - now - 1);
        let lp = &mut w.loops[l];
        (lp.parked, lp.wake) = (true, lp.wake + 1);
        k.schedule_inline_at(ts(at), wake, [l as u64, lp.wake]);
        return;
    }
    // Re-arm first, as a sensor's tick does: a one-shot this tick arms
    // exactly a period on runs after its successor.
    k.schedule_recurring_at(ts(now + P), tick, l as u64);
    if busy {
        w.log.push((now, id, w.loops[l].ticks));
        for j in 0..mix(id, 1) % 3 {
            arm(k, now + delay(mix(id, 10 + j)), mix(id, 20 + j), 1);
        }
    }
}

fn once(w: &mut Toy, k: &mut Kernel<Toy>, [id, depth]: [u64; 2]) {
    let now = k.now().as_micros();
    let l = (mix(id, 1) % w.loops.len() as u64) as usize;
    w.log.push((now, id, w.count(l, now)));
    if mix(id, 2).is_multiple_of(3) {
        w.touch(l, now);
    }
    if depth < 3 {
        for j in 0..mix(id, 3) % 3 {
            arm(k, now + delay(mix(id, 10 + j)), mix(id, 20 + j), depth + 1);
        }
    }
}

fn wake(w: &mut Toy, k: &mut Kernel<Toy>, [l, id]: [u64; 2]) {
    w.wakes += 1;
    let lp = &w.loops[l as usize];
    if lp.parked && lp.wake == id {
        w.touch(l as usize, k.now().as_micros());
    }
}

fn hook(w: &mut Toy, k: &mut Kernel<Toy>, pause: bool) {
    let clock = Rc::clone(w.clock.as_ref().expect("tied"));
    clock.rearm.set(false);
    for (at, l) in w.rearm.drain(..) {
        // First-arming order is loop order.
        k.schedule_tick_at(ts(at), tick, l as u64, l as u32);
    }
    if pause {
        let now = k.now().as_micros();
        let parked = w.loops.iter().filter(|lp| lp.parked);
        let pending: u64 = parked.map(|lp| pending(lp.last, now, true)).sum();
        clock
            .settled
            .set((w.settled + pending).wrapping_sub(w.wakes));
    }
}

/// What a toy run shows: its log, and at every pause the kernel's event
/// count and every loop's ticks.
type Seen = (Vec<(u64, u64, u64)>, Vec<(u64, Vec<u64>)>);

fn run_toy(seed: u64, phases: &[u64], roots: &[u64], pauses: &[u64], mode: Mode) -> Seen {
    let mut phases = phases.to_vec();
    phases.sort_unstable();
    let loops = phases.iter().map(|&phase| Loop {
        phase,
        ticks: 0,
        last: 0,
        parked: false,
        wake: 0,
    });
    let toy = Toy {
        seed,
        mode,
        loops: loops.collect(),
        clock: None,
        log: Vec::new(),
        rearm: Vec::new(),
        settled: 0,
        wakes: 0,
    };
    let mut e = Engine::new(toy, seed);
    for (l, &phase) in phases.iter().enumerate() {
        e.kernel_mut()
            .schedule_recurring_at(ts(phase), tick, l as u64);
    }
    // Roots armed before ticks may be skipped, and after.
    let (early, late) = roots.split_at(roots.len() / 2);
    for (i, &at) in early.iter().enumerate() {
        arm(e.kernel_mut(), at, mix(seed, 100 + i as u64), 0);
    }
    if mode != Mode::Reference {
        let clock = e.kernel_mut().park_ticks(SimDuration::from_micros(P), hook);
        e.world_mut().clock = Some(clock);
    }
    for (i, &at) in late.iter().enumerate() {
        arm(e.kernel_mut(), at, mix(seed, 200 + i as u64), 0);
    }
    let mut pauses = pauses.to_vec();
    pauses.sort_unstable();
    pauses.push(40 * P);
    let mut seen = Vec::new();
    for &h in &pauses {
        e.run_until(ts(h));
        let counts = (0..phases.len()).map(|l| e.world().count(l, h)).collect();
        seen.push((e.kernel().events_processed(), counts));
    }
    (std::mem::take(&mut e.world_mut().log), seen)
}

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

    /// A world that stops idle loops at boundary ticks and counts their
    /// skipped ticks through the kernel's clock runs every other event in
    /// the order, and reads every tick count, of a run in which every loop
    /// ticks every period; so does one under `park_ticks` that never
    /// stops a loop. Loops share phases; one-shots armed by ticks and by
    /// one-shots fall below, at and above a period on; stopped loops are
    /// re-armed at their next tick when a one-shot touches them or a wake
    /// at a drawn instant comes; run calls pause at drawn instants, where
    /// the kernel's event count and every loop's ticks are compared too.
    #[test]
    fn skipped_ticks_leave_every_event_in_place(
        seed: u64,
        phases in prop::collection::vec(0u64..3, 1..7),
        roots in prop::collection::vec(0u64..8 * P, 0..6),
        pauses in prop::collection::vec(0u64..40 * P, 0..4),
    ) {
        // Three phases: a loop shares one with others more often than not.
        let phases: Vec<u64> = phases.iter().map(|&x| 2 * x).collect();
        let toy = |mode| run_toy(seed, &phases, &roots, &pauses, mode);
        let reference = toy(Mode::Reference);
        for mode in [Mode::Tagged, Mode::Skipping] {
            let (log, seen) = toy(mode);
            let first = reference.0.iter().zip(&log).position(|(a, b)| a != b);
            prop_assert!(
                first.is_none() && log.len() == reference.0.len(),
                "logs part at {first:?} of {} / {}: {:?} vs {:?}",
                log.len(),
                reference.0.len(),
                first.map(|i| &log[i.saturating_sub(2)..(i + 2).min(log.len())]),
                first.map(|i| &reference.0[i.saturating_sub(2)..(i + 2).min(reference.0.len())]),
            );
            prop_assert_eq!(&seen, &reference.1, "event counts or tick counts at a pause");
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
