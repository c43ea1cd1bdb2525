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
//!
//! ## Skipped ticks
//!
//! A world whose periodic loops mostly find nothing to do may stop
//! re-arming some of them and settle the ticks they skipped later, in
//! closed form ([`Kernel::park_ticks`]). The world can do that arithmetic;
//! what it cannot know is where a skipped tick at instant `t` falls among
//! the other events at `t`, since only the kernel knows when each was
//! armed. A tick at `t` was armed during the loop's tick at `t − p`, so it
//! follows exactly the events armed before that moment. The kernel keeps,
//! for every instant of the last period, that moment's push count — its
//! *boundary* — on the assumption that the skipped tick at `t − p` itself
//! sat at the boundary of its instant; a loop may stop only at a tick that
//! does (nothing runs between the tick and the boundary), and from there
//! the assumption is an induction one period at a time. DESIGN.md §10 has
//! the argument.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use envirotrack_telemetry::{CounterHandle, Telemetry};

use crate::queue::{EventQueue, KEY_SHIFT};

/// The low bits of a key, which order the ticks of a boundary's group.
const RANKS: u64 = (1 << KEY_SHIFT) - 1;
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

/// What a world that skips ticks shares with the kernel
/// ([`Kernel::park_ticks`]).
#[derive(Debug, Default)]
pub struct TickClock {
    /// The current instant.
    pub now: Cell<Timestamp>,
    /// The current event's key; `u64::MAX` between run calls. A skipped
    /// tick at `now` has run before the current event when this is at least
    /// `boundary`.
    pub key: Cell<u64>,
    /// The tick boundary of `now`, as a key.
    pub boundary: Cell<u64>,
    /// Whether the current event, a recurring one, sits at the tick
    /// boundary — nothing runs between it and a skipped tick at its
    /// instant — so that its loop may stop re-arming here.
    pub at_boundary: Cell<bool>,
    /// Set by the world when it has ticks to re-arm: the kernel calls the
    /// world's hook after the current event.
    pub rearm: Cell<bool>,
    /// The skipped ticks the world has settled, less the events it ran that
    /// a tick-by-tick run has not (wrapping): the kernel counts them among
    /// its events.
    pub settled: Cell<u64>,
}

/// The kernel's record of tick boundaries (see the [module docs](self)).
struct Ties<W> {
    /// The loops' period in microseconds.
    period: u64,
    /// The instant of the events being run, the push count when it began,
    /// and at its boundary (as of now while `open`).
    instant: Timestamp,
    start: u64,
    beta: u64,
    /// Whether the boundary of `instant` has yet to be passed.
    open: bool,
    /// Whether `instant` is in `ring` already.
    recorded: bool,
    /// Ticks armed one period on by ticks that sit in the boundary's group
    /// at this instant, with their ranks: armed when the boundary passes,
    /// where they then belong.
    deferred: Vec<(Timestamp, LaneEvent<W>, u32)>,
    /// The push count when ticks began to be skipped: the boundary of every
    /// instant of the first period (see [`Kernel::park_ticks`]).
    base: u64,
    /// The boundary of this instant as a key: events with smaller keys
    /// come before a skipped tick at it, the others after it.
    boundary: u64,
    /// Per instant of the last period that armed anything or passed its
    /// boundary late, or at which a run call returned: when it began and
    /// its boundary, as push counts. An instant that armed nothing and
    /// passed its boundary at once has both where the next entry begins.
    ring: VecDeque<(Timestamp, u64, u64)>,
    clock: Rc<TickClock>,
    /// The world's hook: re-arms ticks when asked, and settles its skipped
    /// ticks when a run call returns (its flag).
    hook: fn(&mut W, &mut Kernel<W>, bool),
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
    /// The `kernel.events` counter, brought up to date when a run call
    /// returns; `reported` is what it has been told.
    events_counter: Option<CounterHandle>,
    reported: u64,
    ties: Option<Box<Ties<W>>>,
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
            reported: 0,
            ties: None,
        }
    }

    /// Attaches the run-wide telemetry registry; the kernel counts every
    /// executed event on it (`kernel.events`), settled ticks included, as
    /// of the last return from a run call.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.events_counter = Some(telemetry.counter_handle("kernel.events"));
    }

    /// Lets the world skip the ticks of loops with period `period` and
    /// settle them itself (see the [module docs](self)): from now on the
    /// kernel keeps the tick boundaries and shares what the world needs in
    /// the returned [`TickClock`], calls `hook(world, kernel, false)` after
    /// an event that set its `rearm`, and `hook(world, kernel, true)` when a
    /// run call returns. A loop stopped at a tick that sat at the boundary
    /// is armed again with [`Kernel::schedule_tick_at`].
    pub fn park_ticks(
        &mut self,
        period: SimDuration,
        hook: fn(&mut W, &mut Kernel<W>, bool),
    ) -> Rc<TickClock> {
        let pushes = self.queue.pushes();
        let clock = Rc::new(TickClock::default());
        clock.now.set(self.now);
        clock.key.set(u64::MAX);
        clock.boundary.set(pushes << KEY_SHIFT);
        self.ties = Some(Box::new(Ties {
            period: period.as_micros().max(1),
            instant: self.now,
            start: pushes,
            beta: pushes,
            open: true,
            recorded: false,
            deferred: Vec::new(),
            base: pushes,
            boundary: pushes << KEY_SHIFT,
            ring: VecDeque::new(),
            clock: Rc::clone(&clock),
            hook,
        }));
        clock
    }

    /// Arms `handler(world, kernel, arg)`, a loop's tick, at `at`, where
    /// the tick armed at the boundary of instant `at − p` would run: after
    /// every event armed before that moment, before every event armed
    /// after it, and among the ticks armed so by `rank` (see
    /// [`Kernel::park_ticks`]). For a loop that stopped re-arming and must
    /// tick again; its rank is its place in the order the loops were first
    /// armed. A tick of the first period goes where the first ticks were
    /// armed; with `at − p` still to come it is an event armed now, off the
    /// recurring lane.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, if `rank` is not under 2²⁴ − 1, or
    /// without [`Kernel::park_ticks`].
    pub fn schedule_tick_at(&mut self, at: Timestamp, handler: RecurringFn<W>, arg: u64, rank: u32) {
        self.assert_not_past(at);
        assert!(rank < (1 << KEY_SHIFT) - 1, "tick rank {rank} out of range");
        let ties = self.ties.as_ref().expect("park_ticks first");
        let event = Event::Recurring(handler, arg);
        let boundary = match at.as_micros().checked_sub(ties.period) {
            None => ties.base,
            Some(armed) => {
                let armed = Timestamp::from_micros(armed);
                if armed > ties.instant || (armed == ties.instant && ties.open) {
                    return self.queue.push(at, event);
                }
                ties.boundary_of(armed)
            }
        };
        // The boundary's group, just below its key, in rank order.
        let key = (boundary.saturating_sub(1) << KEY_SHIFT) + 1 + u64::from(rank);
        self.queue.push_at_key(at, key, event);
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
        if let Some(ties) = self.ties.as_deref_mut() {
            // A tick armed by `schedule_tick_at` arms its successor in the
            // same place one period on: in the boundary's group, by rank.
            let key = ties.clock.key.get();
            let ranked = key != u64::MAX && key & RANKS != 0;
            if ranked && at.as_micros() == self.now.as_micros() + ties.period {
                // Truncating: the rank is below 2²⁴.
                let rank = (key & RANKS) as u32 - 1;
                ties.deferred.push((at, LaneEvent(handler, arg), rank));
                return;
            }
        }
        self.queue.push_recurring(at, LaneEvent(handler, arg));
    }

    /// Ends the current instant if a tick is deferred to its boundary and no
    /// event is left at it: the boundary is its end, and the tick must be in
    /// the queue before the next event is taken.
    #[inline]
    fn flush_deferred(&mut self) {
        let Some(ties) = self.ties.as_deref() else {
            return;
        };
        if ties.deferred.is_empty() {
            return;
        }
        let instant = ties.instant;
        if self.queue.peek_key().is_none_or(|(at, _)| at > instant) {
            let pushes = self.queue.pushes();
            self.pass_boundary(pushes);
        }
    }

    /// Passes the boundary of the current instant, `pushes` pushes in, and
    /// arms the ticks deferred to it.
    fn pass_boundary(&mut self, pushes: u64) {
        let Kernel { ties, queue, .. } = self;
        let ties = ties.as_deref_mut().expect("tied");
        ties.pass(pushes);
        let group = pushes.saturating_sub(1) << KEY_SHIFT;
        for (at, tick, rank) in ties.deferred.drain(..) {
            queue.push_recurring_keyed(at, group + 1 + u64::from(rank), tick);
        }
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

    /// Number of events executed so far in this run, the ticks a world
    /// settled instead ([`Kernel::park_ticks`]) included.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        let settled = self.ties.as_ref().map_or(0, |t| t.clock.settled.get());
        self.events_processed.wrapping_add(settled)
    }

    /// Brings `kernel.events` up to [`Kernel::events_processed`].
    fn report_events(&mut self) {
        let total = self.events_processed();
        if let Some(c) = &self.events_counter {
            c.add(total.wrapping_sub(self.reported));
        }
        self.reported = total;
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

    /// The heap bytes the event list holds — its heap, recurring lane and
    /// slab, and each pending boxed closure — and the tick boundaries it
    /// keeps, worked out from their capacities when asked. Like
    /// [`Kernel::event_work`], for tests and tools.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let ties = self.ties.as_deref().map_or(0, |t| {
            // The box, the ring, and the clock's shared allocation.
            size_of::<Ties<W>>()
                + t.ring.capacity() * size_of::<(Timestamp, u64, u64)>()
                + 2 * size_of::<usize>()
                + size_of_val(&*t.clock)
        });
        ties + self.queue.heap_bytes(|event| match event {
            Event::Once(f) => size_of_val(&**f),
            Event::Recurring(..) | Event::Inline(..) => 0,
        })
    }
}

impl<W> Ties<W> {
    /// Starts instant `at`, `pushes` pushes into the run, closing the one
    /// before.
    fn enter(&mut self, at: Timestamp, pushes: u64) {
        self.close(pushes, false);
        (self.instant, self.start, self.beta) = (at, pushes, pushes);
        (self.open, self.recorded) = (true, false);
        // The ticks of the first period were armed together, when ticks
        // began to be skipped.
        self.boundary = match at.as_micros().checked_sub(self.period) {
            None => self.base << KEY_SHIFT,
            Some(armed) => {
                let armed = Timestamp::from_micros(armed);
                while self.ring.front().is_some_and(|e| e.0 < armed) {
                    self.ring.pop_front();
                }
                // What `boundary_of` finds, at the front.
                (match self.ring.front() {
                    Some(&(instant, _, beta)) if instant == armed => beta,
                    Some(&(_, start, _)) => start,
                    None => self.start,
                }) << KEY_SHIFT
            }
        };
    }

    /// Passes the boundary of the current instant, `pushes` pushes in.
    #[inline]
    fn pass(&mut self, pushes: u64) {
        self.beta = pushes;
        self.open = false;
    }

    /// Ends the current instant `pushes` pushes in — its boundary, if not
    /// yet passed, is its end — and records it if a lookup needs it to
    /// (`keep`: a run call returns, and what is pushed next is pushed
    /// after the instant).
    fn close(&mut self, pushes: u64, keep: bool) {
        if self.open {
            self.pass(pushes);
        }
        let needed = keep || pushes != self.start || self.beta != self.start;
        if needed && !self.recorded {
            self.ring.push_back((self.instant, self.start, self.beta));
            self.recorded = true;
        }
    }

    /// The push count at the boundary of instant `at`, of the last period
    /// and no later than the current instant: its own boundary if it is
    /// recorded, otherwise where the next instant recorded began (nothing
    /// was pushed in between).
    fn boundary_of(&self, at: Timestamp) -> u64 {
        if at == self.instant {
            debug_assert!(!self.open, "the boundary of {at} is yet to come");
            return self.beta;
        }
        let i = self.ring.partition_point(|e| e.0 < at);
        match self.ring.get(i) {
            Some(&(instant, _, beta)) if instant == at => beta,
            Some(&(_, start, _)) => start,
            None => self.start,
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
    /// `kernel.events` is brought up to date as by a run call, but a world
    /// that skips ticks settles them only when a run call returns.
    pub fn step(&mut self) -> Option<Timestamp> {
        self.kernel.flush_deferred();
        let (at, key, event) = self.kernel.queue.pop_keyed(Timestamp::MAX)?;
        self.dispatch(at, key, event);
        self.kernel.report_events();
        Some(at)
    }

    #[inline]
    fn dispatch(&mut self, at: Timestamp, key: u64, event: Event<W>) {
        debug_assert!(
            at >= self.kernel.now,
            "event queue yielded an event from the past"
        );
        self.kernel.now = at;
        self.kernel.events_processed += 1;
        if self.kernel.ties.is_some() {
            return self.dispatch_tied(at, key, event);
        }
        match event {
            Event::Once(f) => f(&mut self.world, &mut self.kernel),
            Event::Recurring(f, arg) => f(&mut self.world, &mut self.kernel, arg),
            Event::Inline(f, words) => f(&mut self.world, &mut self.kernel, words),
        }
    }

    /// [`Engine::dispatch`] for a world that skips ticks: the tick
    /// boundary kept and shared first, the world's hook called after the
    /// event when it asks.
    fn dispatch_tied(&mut self, at: Timestamp, key: u64, event: Event<W>) {
        let kernel = &mut self.kernel;
        let pushes = kernel.queue.pushes();
        let ties = kernel.ties.as_deref_mut().expect("tied");
        if at != ties.instant {
            if ties.open {
                kernel.pass_boundary(pushes);
            }
            let ties = kernel.ties.as_deref_mut().expect("tied");
            ties.enter(at, pushes);
            ties.clock.now.set(at);
            ties.clock.boundary.set(ties.boundary);
        }
        let ties = kernel.ties.as_deref().expect("tied");
        let boundary = ties.boundary;
        let after = key >= boundary;
        let passes = ties.open && after;
        if passes {
            kernel.pass_boundary(pushes);
        }
        let at_boundary = matches!(event, Event::Recurring(..)) && {
            // Nothing runs between a tick and the boundary: it is in the
            // boundary's group, the first event past it, or the last
            // before it.
            key & RANKS != 0
                || passes
                || !after
                    && kernel
                        .queue
                        .peek_key()
                        .is_none_or(|(t, k)| t > at || k >= boundary)
        };
        let clock = &kernel.ties.as_deref().expect("tied").clock;
        clock.key.set(key);
        clock.at_boundary.set(at_boundary);
        match event {
            Event::Once(f) => f(&mut self.world, &mut self.kernel),
            Event::Recurring(f, arg) => f(&mut self.world, &mut self.kernel, arg),
            Event::Inline(f, words) => f(&mut self.world, &mut self.kernel, words),
        }
        let ties = self.kernel.ties.as_deref().expect("tied");
        if ties.clock.rearm.get() {
            let hook = ties.hook;
            hook(&mut self.world, &mut self.kernel, false);
        }
    }

    /// A run call's return: the instant it stopped at is over, so every
    /// skipped tick up to it has run; the world settles them, and
    /// `kernel.events` is brought up to date.
    fn pause(&mut self) {
        let now = self.kernel.now;
        let pushes = self.kernel.queue.pushes();
        if let Some(ties) = self.kernel.ties.as_deref_mut() {
            if now != ties.instant {
                if ties.open {
                    self.kernel.pass_boundary(pushes);
                }
                self.kernel.ties.as_deref_mut().expect("tied").enter(now, pushes);
            }
            if self.kernel.ties.as_deref().expect("tied").open {
                self.kernel.pass_boundary(pushes);
            }
            let ties = self.kernel.ties.as_deref_mut().expect("tied");
            ties.close(pushes, true);
            let clock = &ties.clock;
            clock.now.set(now);
            clock.boundary.set(ties.boundary);
            clock.key.set(u64::MAX);
            clock.at_boundary.set(false);
            let hook = ties.hook;
            hook(&mut self.world, &mut self.kernel, true);
        }
        self.kernel.report_events();
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
        // Ticks a world asked to re-arm between run calls.
        if let Some(ties) = self.kernel.ties.as_deref() {
            if ties.clock.rearm.get() {
                let hook = ties.hook;
                hook(&mut self.world, &mut self.kernel, false);
            }
        }
        loop {
            if self.kernel.events_processed - start_processed >= limit {
                self.assert_nothing_due(horizon, limit);
            }
            self.kernel.flush_deferred();
            let Some((at, key, event)) = self.kernel.queue.pop_keyed(horizon) else {
                self.kernel.now = self.kernel.now.max(horizon);
                self.pause();
                return if self.kernel.queue.is_empty() {
                    RunOutcome::QueueDrained
                } else {
                    RunOutcome::HorizonReached
                };
            };
            self.dispatch(at, key, event);
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
