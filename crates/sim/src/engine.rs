//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a user-supplied *world* (the mutable state of the whole
//! simulation — nodes, radio medium, targets) and a [`Kernel`] (virtual
//! clock, event queue, RNG). Events are boxed `FnOnce` closures invoked with
//! exclusive access to both, so handlers can mutate the world *and* schedule
//! follow-up events:
//!
//! ```
//! use envirotrack_sim::engine::Engine;
//! use envirotrack_sim::time::{SimDuration, Timestamp};
//!
//! struct Counter { ticks: u32 }
//!
//! let mut engine = Engine::new(Counter { ticks: 0 }, 42);
//!
//! // A self-rescheduling periodic tick.
//! fn tick(world: &mut Counter, kernel: &mut envirotrack_sim::engine::Kernel<Counter>) {
//!     world.ticks += 1;
//!     if world.ticks < 5 {
//!         kernel.schedule_in(SimDuration::from_secs(1), tick);
//!     }
//! }
//! engine.kernel_mut().schedule_at(Timestamp::ZERO, tick);
//! engine.run_until(Timestamp::from_secs(10));
//! assert_eq!(engine.world().ticks, 5);
//! assert_eq!(engine.kernel().now(), Timestamp::from_secs(10));
//! ```
//!
//! A fixed-period loop can reschedule itself with
//! [`Kernel::schedule_recurring_at`] instead: a plain `fn` plus one `u64`
//! argument, stored inline on the queue's recurring lane (see
//! [`crate::queue`]) — no box, no heap sift — and run in exactly the order
//! `schedule_at` would have given it. A one-shot event that carries no more
//! than two words — a timer firing, a transmission completing — goes through
//! [`Kernel::schedule_inline_at`]: the same place in the event order, the
//! same heap, but a plain `fn` with its words beside it instead of a box.
//!
//! Determinism: the event queue is FIFO among equal timestamps and all
//! randomness flows from the seed, so two runs with identical configuration
//! produce identical event sequences (see the integration tests).

use envirotrack_telemetry::{CounterHandle, Telemetry};

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, Timestamp};

/// A scheduled event: a one-shot closure over the world and the kernel.
pub(crate) type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Kernel<W>)>;

/// A recurring event's handler: a plain function over the world, the kernel
/// and the one `u64` argument scheduled with it.
pub type RecurringFn<W> = fn(&mut W, &mut Kernel<W>, u64);

/// An inline one-shot event's handler: a plain function over the world, the
/// kernel and the two words scheduled with it.
pub type InlineFn<W> = fn(&mut W, &mut Kernel<W>, [u64; 2]);

/// What the queue's heap side holds: a boxed closure, or a plain handler
/// with its argument words inline (nothing to allocate, nothing to drop).
enum Event<W> {
    Once(EventFn<W>),
    Recurring(RecurringFn<W>, u64),
    Inline(InlineFn<W>, [u64; 2]),
}

/// What the queue's recurring lane holds: only ever a recurring handler and
/// its one word, so a lane entry — this, an instant and a sequence number —
/// is 32 bytes whatever the widest [`Event`] grows to.
struct LaneEvent<W>(RecurringFn<W>, u64);

impl<W> From<LaneEvent<W>> for Event<W> {
    #[inline]
    fn from(LaneEvent(handler, arg): LaneEvent<W>) -> Self {
        Event::Recurring(handler, arg)
    }
}

/// How the kernel's event list has done its work so far. Like
/// [`Kernel::recurring_len`] it says how events were stored and taken, not
/// what the simulation did: it belongs in no run record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventWork {
    /// Events popped off the recurring lane.
    pub lane_pops: u64,
    /// Events popped out of the heap (inline, boxed, and recurring ones
    /// that were scheduled out of order).
    pub heap_pops: u64,
    /// One-shot events scheduled inline ([`Kernel::schedule_inline_at`]).
    pub inline_scheduled: u64,
    /// One-shot events scheduled as boxed closures ([`Kernel::schedule_at`],
    /// [`Kernel::schedule_in`]): one allocation each.
    pub boxed_scheduled: u64,
}

/// The simulation kernel: virtual clock, future-event list, and seeded RNG.
///
/// Handlers receive `&mut Kernel<W>` and use it to read the clock, draw
/// randomness and schedule further events.
pub struct Kernel<W> {
    now: Timestamp,
    queue: EventQueue<Event<W>, LaneEvent<W>>,
    rng: SimRng,
    events_processed: u64,
    inline_scheduled: u64,
    boxed_scheduled: u64,
    /// Pre-resolved `kernel.events` counter: the per-event accounting is one
    /// cell increment instead of a registry borrow + name lookup.
    events_counter: Option<CounterHandle>,
}

impl<W> Kernel<W> {
    fn new(seed: u64) -> Self {
        Kernel {
            now: Timestamp::ZERO,
            queue: EventQueue::default(),
            rng: SimRng::seed_from(seed),
            events_processed: 0,
            inline_scheduled: 0,
            boxed_scheduled: 0,
            events_counter: None,
        }
    }

    /// Attaches the run-wide telemetry registry; the kernel counts every
    /// executed event on it (`kernel.events`).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.events_counter = Some(telemetry.counter_handle("kernel.events"));
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The seeded random number generator for this run.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `event` to run at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — the simulator has no time machine, and
    /// silently clamping would hide protocol bugs.
    pub fn schedule_at<F>(&mut self, at: Timestamp, event: F)
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + 'static,
    {
        self.assert_not_past(at);
        self.boxed_scheduled += 1;
        self.queue.push(at, Event::Once(Box::new(event)));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + 'static,
    {
        let at = self.now.saturating_add(delay);
        self.boxed_scheduled += 1;
        self.queue.push(at, Event::Once(Box::new(event)));
    }

    /// Schedules `handler(world, kernel, words)` to run at absolute instant
    /// `at`: exactly where a [`Kernel::schedule_at`] made now would run, at
    /// the cost of a heap push and nothing else — no box to allocate when
    /// it is armed, none to free when it fires. For the one-shot events a
    /// run arms by the hundred thousand, whose whole state fits two words;
    /// an event that owns heap data stays a closure.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, like [`Kernel::schedule_at`].
    pub fn schedule_inline_at(&mut self, at: Timestamp, handler: InlineFn<W>, words: [u64; 2]) {
        self.assert_not_past(at);
        self.inline_scheduled += 1;
        self.queue.push(at, Event::Inline(handler, words));
    }

    /// Schedules `handler(world, kernel, arg)` to run at absolute instant
    /// `at`, in the same place in the event order as a
    /// [`Kernel::schedule_at`] made now. Meant for fixed-period loops: when
    /// calls arrive with non-decreasing `at` — as `now + period` does — each
    /// is an O(1), allocation-free append to the queue's recurring lane; a
    /// call that is out of order costs what `schedule_at` costs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, like [`Kernel::schedule_at`].
    pub fn schedule_recurring_at(&mut self, at: Timestamp, handler: RecurringFn<W>, arg: u64) {
        self.assert_not_past(at);
        self.queue.push_recurring(at, LaneEvent(handler, arg));
    }

    /// Makes room for exactly `additional` more recurring events: a caller
    /// about to arm that many loops spares the lane its doubling growth.
    pub fn reserve_recurring(&mut self, additional: usize) {
        self.queue.reserve_recurring(additional);
    }

    fn assert_not_past(&self, at: Timestamp) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
    }

    /// Number of events executed so far in this run.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// How many of the pending events sit on the queue's recurring lane. A
    /// plain accessor for tests and tools: it says how events are stored,
    /// not what the simulation did, and belongs in no run record.
    #[must_use]
    pub fn recurring_len(&self) -> usize {
        self.queue.recurring_len()
    }

    /// The event list's work counters (see [`EventWork`]). Like
    /// [`Kernel::recurring_len`], for tests and tools: it says how the work
    /// was done, not what the simulation did, and belongs in no run record.
    #[must_use]
    pub fn event_work(&self) -> EventWork {
        let (lane_pops, heap_pops) = self.queue.pops();
        EventWork {
            lane_pops,
            heap_pops,
            inline_scheduled: self.inline_scheduled,
            boxed_scheduled: self.boxed_scheduled,
        }
    }
}

impl<W> std::fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.events_processed)
            .finish()
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached; the clock now equals the horizon.
    HorizonReached,
    /// The event queue drained before the horizon.
    QueueDrained,
}

/// A discrete-event simulation engine over a user world `W`.
///
/// See the [module documentation](self) for an end-to-end example.
pub struct Engine<W> {
    kernel: Kernel<W>,
    world: W,
}

impl<W> Engine<W> {
    /// Runaway-simulation guard: the most events one run call may execute.
    /// A run that wants more has a handler re-arming itself without end, or
    /// a horizon no machine reaches; it panics rather than return short.
    const EVENT_LIMIT: u64 = 2_000_000_000;

    /// Creates an engine over `world`, seeding all randomness from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Engine {
            kernel: Kernel::new(seed),
            world,
        }
    }

    /// Shared access to the world.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. for inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the kernel.
    #[must_use]
    pub fn kernel(&self) -> &Kernel<W> {
        &self.kernel
    }

    /// Exclusive access to the kernel (e.g. to schedule initial events).
    pub fn kernel_mut(&mut self) -> &mut Kernel<W> {
        &mut self.kernel
    }

    /// Executes exactly one event if one is pending, returning its time.
    pub fn step(&mut self) -> Option<Timestamp> {
        let (at, event) = self.kernel.queue.pop()?;
        self.dispatch(at, event);
        Some(at)
    }

    fn dispatch(&mut self, at: Timestamp, event: Event<W>) {
        debug_assert!(
            at >= self.kernel.now,
            "event queue yielded an event from the past"
        );
        self.kernel.now = at;
        self.kernel.events_processed += 1;
        if let Some(c) = &self.kernel.events_counter {
            c.incr();
        }
        match event {
            Event::Once(f) => f(&mut self.world, &mut self.kernel),
            Event::Recurring(f, arg) => f(&mut self.world, &mut self.kernel, arg),
            Event::Inline(f, words) => f(&mut self.world, &mut self.kernel, words),
        }
    }

    /// Runs until the virtual clock reaches `horizon` or the queue drains;
    /// either way the clock is advanced to `horizon` so repeated calls
    /// compose.
    ///
    /// # Panics
    ///
    /// Panics, naming the event count and the virtual time, when the call
    /// would execute more than two billion events: nothing reads a run's
    /// outcome to learn that it stopped short, so a short run must not look
    /// like a finished one.
    pub fn run_until(&mut self, horizon: Timestamp) -> RunOutcome {
        self.run_capped(horizon, Self::EVENT_LIMIT)
    }

    fn run_capped(&mut self, horizon: Timestamp, limit: u64) -> RunOutcome {
        let start_processed = self.kernel.events_processed;
        loop {
            if self.kernel.events_processed - start_processed >= limit {
                self.assert_nothing_due(horizon, limit);
            }
            let Some((at, event)) = self.kernel.queue.pop_due(horizon) else {
                self.kernel.now = self.kernel.now.max(horizon);
                return if self.kernel.queue.is_empty() {
                    RunOutcome::QueueDrained
                } else {
                    RunOutcome::HorizonReached
                };
            };
            self.dispatch(at, event);
        }
    }

    /// The guard's cold half, out of line: with the panic and its message
    /// between `pop_due` and `dispatch` the loop ran a third slower
    /// (`field_sparse`, 316 → 211 `ops_per_s`). A run call that has executed
    /// `limit` events may end, and may not go on.
    #[cold]
    #[inline(never)]
    fn assert_nothing_due(&mut self, horizon: Timestamp, limit: u64) {
        let next = self.kernel.queue.peek_time();
        let due = next.is_some_and(|at| at <= horizon);
        assert!(
            !due,
            "event limit reached: {limit} events executed in one run call and more are due, \
             at virtual time {} short of the horizon {horizon}",
            self.kernel.now
        );
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("kernel", &self.kernel)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(2), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "b"));
            });
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "a1"));
            });
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |w: &mut World, k| {
                w.log.push((k.now().as_micros(), "a2"));
            });
        assert_eq!(e.run_until(Timestamp::MAX), RunOutcome::QueueDrained);
        assert_eq!(
            e.world().log,
            vec![(1_000_000, "a1"), (1_000_000, "a2"), (2_000_000, "b")]
        );
    }

    /// The epoch-barrier contract the sharded kernel
    /// (`envirotrack-core::shard`) builds on: `run_until(b)` consumes
    /// every event at or before `b`, so an event scheduled *at* `b`
    /// afterwards (legal — `schedule_at` accepts `at == now`) is strictly
    /// the next to execute, ahead of anything later. Barrier injections
    /// therefore occupy a fixed point in the global event order.
    #[test]
    fn post_horizon_scheduling_at_the_horizon_runs_next() {
        let b = Timestamp::from_secs(2);
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut().schedule_at(b, |w: &mut World, _| {
            w.log.push((0, "pre-barrier"));
        });
        e.kernel_mut()
            .schedule_at(b + SimDuration::from_micros(1), |w: &mut World, _| {
                w.log.push((0, "post-barrier"));
            });
        assert_eq!(e.run_until(b), RunOutcome::HorizonReached);
        assert_eq!(e.world().log, vec![(0, "pre-barrier")], "run_until is inclusive");
        e.kernel_mut().schedule_at(b, |w: &mut World, k| {
            w.log.push((k.now().as_micros(), "injected"));
        });
        e.run_until(Timestamp::MAX);
        assert_eq!(
            e.world().log,
            vec![
                (0, "pre-barrier"),
                (2_000_000, "injected"),
                (0, "post-barrier")
            ]
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |_w: &mut World, k| {
                k.schedule_in(SimDuration::from_secs(1), |w: &mut World, k| {
                    w.log.push((k.now().as_micros(), "child"));
                });
            });
        e.run_until(Timestamp::MAX);
        assert_eq!(e.world().log, vec![(2_000_000, "child")]);
    }

    #[test]
    fn run_until_respects_horizon_and_advances_clock() {
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(5), |w: &mut World, _| {
                w.log.push((5, "late"));
            });
        assert_eq!(
            e.run_until(Timestamp::from_secs(3)),
            RunOutcome::HorizonReached
        );
        assert!(e.world().log.is_empty());
        assert_eq!(e.kernel().now(), Timestamp::from_secs(3));
        assert_eq!(
            e.run_until(Timestamp::from_secs(6)),
            RunOutcome::QueueDrained
        );
        assert_eq!(e.world().log.len(), 1);
        assert_eq!(e.kernel().now(), Timestamp::from_secs(6));
    }

    fn recurring(w: &mut World, k: &mut Kernel<World>, arg: u64) {
        w.log.push((k.now().as_micros() + arg, "recurring"));
    }

    fn once(w: &mut World, k: &mut Kernel<World>) {
        w.log.push((k.now().as_micros(), "once"));
    }

    #[test]
    fn recurring_and_closure_events_at_one_instant_run_in_scheduling_order() {
        let t = Timestamp::from_secs(1);
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut().schedule_recurring_at(t, recurring, 0);
        e.kernel_mut().schedule_at(t, once);
        e.kernel_mut().schedule_recurring_at(t, recurring, 1);
        assert_eq!(e.kernel().recurring_len(), 2);
        assert_eq!(e.run_until(Timestamp::MAX), RunOutcome::QueueDrained);
        assert_eq!(
            e.world().log,
            vec![
                (1_000_000, "recurring"),
                (1_000_000, "once"),
                (1_000_001, "recurring")
            ]
        );

        // The other way round, and with a recurring event that had to fall
        // through to the heap (it is earlier than the lane's tail).
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut().schedule_at(t, once);
        e.kernel_mut()
            .schedule_recurring_at(Timestamp::from_secs(2), recurring, 0);
        e.kernel_mut().schedule_recurring_at(t, recurring, 0);
        assert_eq!(e.kernel().recurring_len(), 1);
        assert_eq!(e.kernel().pending_events(), 3);
        e.kernel_mut().schedule_at(t, once);
        e.run_until(Timestamp::MAX);
        assert_eq!(
            e.world().log,
            vec![
                (1_000_000, "once"),
                (1_000_000, "recurring"),
                (1_000_000, "once"),
                (2_000_000, "recurring")
            ]
        );
    }

    fn inline(w: &mut World, k: &mut Kernel<World>, words: [u64; 2]) {
        w.log
            .push((k.now().as_micros() + words[0] + words[1], "inline"));
    }

    /// An inline event takes the sequence number a closure scheduled at the
    /// same moment would have taken, so the three forms interleave in
    /// scheduling order; and the counters say which form each was.
    #[test]
    fn inline_events_run_where_a_closure_would_and_are_counted_apart() {
        let t = Timestamp::from_secs(1);
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut().schedule_at(t, once);
        e.kernel_mut()
            .schedule_inline_at(t, inline, [1, u64::MAX - 1_000_001]);
        e.kernel_mut().schedule_recurring_at(t, recurring, 0);
        e.kernel_mut().schedule_inline_at(t, inline, [2, 0]);
        e.kernel_mut().schedule_in(SimDuration::from_secs(1), once);
        e.kernel_mut()
            .schedule_inline_at(Timestamp::from_millis(500), inline, [0, 0]);
        assert_eq!(e.kernel().pending_events(), 6);
        assert_eq!(e.run_until(Timestamp::MAX), RunOutcome::QueueDrained);
        assert_eq!(
            e.world().log,
            vec![
                (500_000, "inline"),
                (1_000_000, "once"),
                (u64::MAX, "inline"),
                (1_000_000, "recurring"),
                (1_000_002, "inline"),
                (1_000_000, "once"),
            ]
        );
        let expected = EventWork {
            lane_pops: 1,
            heap_pops: 5,
            inline_scheduled: 3,
            boxed_scheduled: 2,
        };
        assert_eq!(e.kernel().event_work(), expected);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn inline_scheduling_into_the_past_panics() {
        let mut e = Engine::new(World::default(), 1);
        e.run_until(Timestamp::from_secs(1));
        e.kernel_mut()
            .schedule_inline_at(Timestamp::ZERO, inline, [0, 0]);
    }

    /// The lane entry is read and written once per period per loop, the
    /// slab slot once per heap event: neither may grow unnoticed. (A lane
    /// that held the three-word [`Event`] was 48 bytes an entry and cost a
    /// 20k-node field 4 % of its rate.)
    #[test]
    fn a_lane_entry_and_a_heap_side_event_are_at_most_32_bytes() {
        use std::mem::size_of;
        assert!(size_of::<(Timestamp, u64, LaneEvent<World>)>() <= 32);
        assert!(size_of::<Event<World>>() <= 32);
    }

    #[test]
    fn run_until_is_inclusive_and_stops_for_lane_and_heap_alike() {
        let mut e = Engine::new(World::default(), 1);
        for s in 1..=3 {
            e.kernel_mut()
                .schedule_recurring_at(Timestamp::from_secs(s), recurring, 0);
            e.kernel_mut().schedule_at(Timestamp::from_secs(s), once);
        }
        let horizon = Timestamp::from_secs(2);
        assert_eq!(e.run_until(horizon), RunOutcome::HorizonReached);
        assert_eq!(e.world().log.len(), 4, "both events due at the horizon ran");
        assert_eq!(e.kernel().now(), horizon);
        assert_eq!(e.kernel().pending_events(), 2);
        // Next up is the lane's head: not due, and not mistaken for empty.
        assert_eq!(e.step(), Some(Timestamp::from_secs(3)));
        assert_eq!(e.kernel().recurring_len(), 0);
        // Now only the heap holds an event; a horizon short of it stops too.
        e.kernel_mut().schedule_at(Timestamp::from_secs(5), once);
        assert_eq!(
            e.run_until(Timestamp::from_secs(3)),
            RunOutcome::HorizonReached
        );
        assert_eq!(
            e.run_until(Timestamp::from_secs(4)),
            RunOutcome::HorizonReached
        );
        assert_eq!(e.world().log.len(), 6);
        // And only the lane: same answer, then drained once it has run.
        e.kernel_mut()
            .schedule_recurring_at(Timestamp::from_secs(6), recurring, 0);
        assert_eq!(
            e.run_until(Timestamp::from_secs(5)),
            RunOutcome::HorizonReached
        );
        assert_eq!(e.kernel().pending_events(), 1);
        assert_eq!(
            e.run_until(Timestamp::from_secs(6)),
            RunOutcome::QueueDrained
        );
        assert_eq!(e.world().log.len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn recurring_scheduling_into_the_past_panics() {
        let mut e = Engine::new(World::default(), 1);
        e.run_until(Timestamp::from_secs(1));
        e.kernel_mut()
            .schedule_recurring_at(Timestamp::ZERO, recurring, 0);
    }

    /// A run that hits the cap must not return as if it had finished: no
    /// caller reads the outcome, so it panics, naming the count and the
    /// virtual time it got to.
    #[test]
    #[should_panic(expected = "event limit reached: 1000 events executed in one run call and \
                               more are due, at virtual time 0.000999s")]
    fn event_limit_halts_runaway_simulations() {
        fn forever(_: &mut World, k: &mut Kernel<World>) {
            k.schedule_in(SimDuration::from_micros(1), forever);
        }
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut().schedule_at(Timestamp::ZERO, forever);
        e.run_capped(Timestamp::MAX, 1000);
    }

    /// Exactly as many events as the cap allows, and then nothing due, is a
    /// finished run.
    #[test]
    fn a_run_of_exactly_the_cap_finishes() {
        let mut e = Engine::new(World::default(), 1);
        for i in 0..3 {
            e.kernel_mut().schedule_at(Timestamp::from_secs(i), once);
        }
        assert_eq!(e.run_capped(Timestamp::MAX, 3), RunOutcome::QueueDrained);
        assert_eq!(e.kernel().events_processed(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = Engine::new(World::default(), 1);
        e.kernel_mut()
            .schedule_at(Timestamp::from_secs(1), |_: &mut World, _| {});
        e.run_until(Timestamp::MAX);
        e.kernel_mut()
            .schedule_at(Timestamp::ZERO, |_: &mut World, _| {});
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        /// Every `(instant, draw)` a chain of randomly spaced steps saw.
        fn run(seed: u64) -> Vec<(u64, u64)> {
            type Seen = Vec<(u64, u64)>;
            fn step(n: u32) -> impl FnOnce(&mut Seen, &mut Kernel<Seen>) {
                move |seen, k| {
                    seen.push((k.now().as_micros(), k.rng().below(100)));
                    if n < 20 {
                        let jitter = SimDuration::from_micros(k.rng().below(5000));
                        k.schedule_in(jitter, step(n + 1));
                    }
                }
            }
            let mut e = Engine::new(Seen::new(), seed);
            e.kernel_mut().schedule_at(Timestamp::ZERO, step(0));
            e.run_until(Timestamp::MAX);
            e.world().clone()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
