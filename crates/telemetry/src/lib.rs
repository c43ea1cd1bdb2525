//! Zero-dependency telemetry for the EnviroTrack simulator.
//!
//! Three instruments, all deterministic under a fixed event order:
//!
//! * **Counters and gauges** — named monotone totals and last-written
//!   values, stored in [`BTreeMap`]s so iteration order is stable.
//! * **Log-linear histograms** — each power-of-two octave is split into
//!   four linear sub-buckets, giving ~12% relative resolution over the
//!   full `u64` range with a handful of sparse buckets. Used for latency
//!   (microseconds) and small-count distributions alike.
//! * **A bounded trace stream** — structured [`TraceEvent`]s (timestamp,
//!   node, context label, kind, detail), kept in a drop-oldest ring so a
//!   long run cannot grow without bound, plus **spans** keyed by
//!   `(node, id)` for measuring request→response latency.
//!
//! Trace labels are `Rc<str>`: hot paths that emit many events for the
//! same context label format the label once, cache the `Rc` in an
//! [`Interner`], and hand it to [`Telemetry::trace_shared`] — appending an
//! event is then a reference-count bump instead of a format + allocation.
//! Event kinds are `&'static str` (they are always literals), so they
//! never allocate at all.
//!
//! The [`Telemetry`] handle is a cheap `Rc<RefCell<..>>` clone, mirroring
//! the single-threaded simulation kernel it instruments: every layer of
//! the stack (kernel, radio medium, transport, directory, group
//! management) holds the same registry and the recording order is exactly
//! the deterministic event order, so identical seeds produce
//! byte-identical exports.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Default bound on the trace ring: old events are dropped (and counted)
/// past this many.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time, microseconds since the epoch.
    pub at_us: u64,
    /// The node the event happened on.
    pub node: u32,
    /// The context label the event concerns (display form, e.g.
    /// `type0@n3#1`), or `"-"` for label-free events. Shared, so events
    /// for the same label alias one allocation.
    pub label: Rc<str>,
    /// Event kind, dot-namespaced (`group.hb`, `mtp.retx`, ...).
    pub kind: &'static str,
    /// Free-form detail, already formatted.
    pub detail: String,
}

impl TraceEvent {
    /// A stable single-line rendering, used in violation attachments and
    /// the smoke digest.
    #[must_use]
    fn render(&self) -> String {
        format!(
            "{}us n{} [{}] {} {}",
            self.at_us, self.node, self.label, self.kind, self.detail
        )
    }
}

/// A log-linear histogram: 4 linear sub-buckets per power-of-two octave.
///
/// Buckets are sparse (only touched ones are stored) and iterate in
/// ascending value order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogLinearHistogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl LogLinearHistogram {
    /// The bucket index recording `v`.
    #[must_use]
    fn bucket_index(v: u64) -> u32 {
        if v < 4 {
            return u32::try_from(v).unwrap_or(3);
        }
        let octave = 63 - v.leading_zeros();
        let sub = u32::try_from((v >> (octave - 2)) & 3).unwrap_or(3);
        (octave - 1) * 4 + sub
    }

    /// The smallest value landing in bucket `index` (inverse of
    /// [`Self::bucket_index`]).
    #[must_use]
    fn bucket_low(index: u32) -> u64 {
        if index < 4 {
            return u64::from(index);
        }
        let octave = index / 4 + 1;
        let sub = u64::from(index % 4);
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observation seen (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets in ascending value order, as
    /// `(bucket lower bound, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(i, c)| (Self::bucket_low(*i), *c))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the lower bound of the bucket
    /// where the cumulative count first reaches `ceil(q * count)`.
    ///
    /// Resolution is the bucket width (~12% relative), which is plenty for
    /// latency percentiles; returns 0 when empty. `q` outside `[0, 1]` is
    /// clamped.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // count is bounded by observations recorded one at a time, so the
        // f64 round-trip is exact far beyond any realistic run length.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (low, c) in self.iter() {
            seen += c;
            if seen >= rank {
                return low;
            }
        }
        self.max
    }
}

/// A pre-resolved counter: a shared cell registered under a name in the
/// [`Registry`], handed out by [`Telemetry::counter_handle`].
///
/// Incrementing through a handle skips the name formatting, the registry
/// borrow, and the map lookup that [`Telemetry::incr`] pays — the hot-path
/// cost is a single unconditional `Cell` read-modify-write. Exports read
/// the same cell, so a handle and its name always agree.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    cell: Rc<Cell<u64>>,
}

impl CounterHandle {
    /// Adds `n` (saturating).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get().saturating_add(n));
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A tiny numeric-keyed string intern pool.
///
/// Hot paths derive a stable `u128` key from a cheap `Copy` identifier
/// (e.g. a packed `ContextLabel`) and look the display string up here
/// instead of re-formatting it per event; the first use pays the format,
/// every later use is a `BTreeMap<u128, _>` probe — integer comparisons,
/// no string hashing or allocation. Clones share the pool.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Rc<RefCell<BTreeMap<u128, Rc<str>>>>,
}

impl Interner {
    /// The shared string for `key`, formatting it with `make` on first use.
    pub fn get_or_insert_with(&self, key: u128, make: impl FnOnce() -> String) -> Rc<str> {
        let mut strings = self.strings.borrow_mut();
        Rc::clone(
            strings
                .entry(key)
                .or_insert_with(|| Rc::from(make().as_str())),
        )
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.borrow().is_empty()
    }
}

/// The shared metric + trace store. Accessed through [`Telemetry`].
#[derive(Debug)]
pub struct Registry {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
    trace: VecDeque<TraceEvent>,
    trace_capacity: usize,
    trace_dropped: u64,
    spans: BTreeMap<(u32, u64), u64>,
}

impl Registry {
    fn new(trace_capacity: usize) -> Self {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            trace: VecDeque::new(),
            trace_capacity: trace_capacity.max(1),
            trace_dropped: 0,
            spans: BTreeMap::new(),
        }
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogLinearHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The retained trace events, oldest first.
    pub fn trace_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// How many trace events were dropped by the ring bound.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// A counter's current value (0 when never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// A histogram by name, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms.get(name)
    }
}

/// The cloneable telemetry handle plumbed through every layer.
///
/// All methods take `&self`: interior mutability keeps the call sites
/// (many of which only hold shared borrows) unintrusive.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Rc<RefCell<Registry>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh registry with the default trace bound.
    #[must_use]
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh registry keeping at most `capacity` trace events.
    #[must_use]
    fn with_trace_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Rc::new(RefCell::new(Registry::new(capacity))),
        }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        let mut r = self.inner.borrow_mut();
        match r.counters.get(name) {
            Some(c) => c.set(c.get().saturating_add(n)),
            None => {
                r.counters.insert(name.to_owned(), Rc::new(Cell::new(n)));
            }
        }
    }

    /// Resolves (registering if absent) the named counter into a
    /// [`CounterHandle`] for repeated hot-path increments.
    #[must_use]
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        let mut r = self.inner.borrow_mut();
        let cell = r
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Rc::new(Cell::new(0)));
        CounterHandle {
            cell: Rc::clone(cell),
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// The named counter's current value.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counter(name)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.inner.borrow_mut().gauges.insert(name.to_owned(), v);
    }

    /// Records `v` into the named log-linear histogram.
    pub fn observe(&self, name: &str, v: u64) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(v);
    }

    /// Appends a trace event, dropping (and counting) the oldest past the
    /// ring bound. Allocates a fresh shared label; hot paths that reuse
    /// one label should intern it and call [`Telemetry::trace_shared`].
    pub fn trace(&self, at_us: u64, node: u32, label: &str, kind: &'static str, detail: String) {
        self.trace_shared(at_us, node, &Rc::from(label), kind, detail);
    }

    /// Appends a trace event whose label is already shared — a
    /// reference-count bump, no string copy.
    pub fn trace_shared(
        &self,
        at_us: u64,
        node: u32,
        label: &Rc<str>,
        kind: &'static str,
        detail: String,
    ) {
        let mut r = self.inner.borrow_mut();
        if r.trace.len() >= r.trace_capacity {
            r.trace.pop_front();
            r.trace_dropped += 1;
        }
        r.trace.push_back(TraceEvent {
            at_us,
            node,
            label: Rc::clone(label),
            kind,
            detail,
        });
    }

    /// Opens (or restarts) the span keyed by `(node, id)`.
    pub fn span_start(&self, at_us: u64, node: u32, id: u64) {
        self.inner.borrow_mut().spans.insert((node, id), at_us);
    }

    /// Closes the span keyed by `(node, id)`, returning the elapsed
    /// microseconds, or `None` when no span was open.
    pub fn span_end(&self, at_us: u64, node: u32, id: u64) -> Option<u64> {
        self.inner
            .borrow_mut()
            .spans
            .remove(&(node, id))
            .map(|start| at_us.saturating_sub(start))
    }

    /// Number of trace events currently retained.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.inner.borrow().trace.len()
    }

    /// The last `n` trace events (any label), oldest first, rendered.
    #[must_use]
    pub fn last_events(&self, n: usize) -> Vec<String> {
        let r = self.inner.borrow();
        let skip = r.trace.len().saturating_sub(n);
        r.trace.iter().skip(skip).map(TraceEvent::render).collect()
    }

    /// The last `n` trace events for `label`, oldest first, rendered.
    #[must_use]
    pub fn events_for_label(&self, label: &str, n: usize) -> Vec<String> {
        let r = self.inner.borrow();
        let mut picked: Vec<&TraceEvent> =
            r.trace.iter().rev().filter(|e| &*e.label == label).take(n).collect();
        picked.reverse();
        picked.into_iter().map(TraceEvent::render).collect()
    }

    /// Read access to the whole registry (for exporters).
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(&self.inner.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let t = Telemetry::new();
        assert_eq!(t.counter("a"), 0);
        t.incr("a");
        t.add("a", 4);
        assert_eq!(t.counter("a"), 5);
        t.set_gauge("g", 2.5);
        let gauges: Vec<(String, f64)> =
            t.with_registry(|r| r.gauges().map(|(k, v)| (k.to_owned(), v)).collect());
        assert_eq!(gauges, [("g".to_owned(), 2.5)]);
        // Clones share the registry.
        let u = t.clone();
        u.incr("a");
        assert_eq!(t.counter("a"), 6);
    }

    #[test]
    fn counter_handles_share_the_named_cell() {
        let t = Telemetry::new();
        t.add("hot", 2);
        let h = t.counter_handle("hot");
        h.incr();
        h.add(3);
        assert_eq!(t.counter("hot"), 6, "handle writes are visible by name");
        t.incr("hot");
        assert_eq!(h.cell.get(), 7, "named writes are visible through the handle");
        // Resolving an unseen name registers it at zero, and exports see it.
        let fresh = t.counter_handle("fresh");
        assert_eq!(t.counter("fresh"), 0);
        fresh.incr();
        t.with_registry(|r| {
            let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
            assert_eq!(names, vec!["fresh", "hot"], "name order is stable");
        });
    }

    #[test]
    fn histogram_buckets_are_log_linear() {
        // Values below 4 get exact buckets.
        for v in 0..4u64 {
            assert_eq!(
                LogLinearHistogram::bucket_low(LogLinearHistogram::bucket_index(v)),
                v
            );
        }
        // Every bucket's lower bound maps back to the same bucket, and
        // bounds are strictly increasing.
        let mut prev = None;
        for i in 0..200u32 {
            let low = LogLinearHistogram::bucket_low(i);
            assert_eq!(LogLinearHistogram::bucket_index(low), i, "index {i}");
            if let Some(p) = prev {
                assert!(low > p);
            }
            prev = Some(low);
        }
        // A value never lands below its bucket's lower bound.
        for v in [5u64, 9, 100, 1000, 65_537, u64::MAX] {
            let i = LogLinearHistogram::bucket_index(v);
            assert!(LogLinearHistogram::bucket_low(i) <= v);
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = LogLinearHistogram::default();
        assert!(h.is_empty());
        for v in [1u64, 2, 2, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1105);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        // 1→one bucket, 2→one bucket (count 2), 100 and 1000 separate.
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[1], (2, 2));
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let mut h = LogLinearHistogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 100 observations of 1, one outlier at 1000.
        for _ in 0..100 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1);
        let p100 = h.quantile(1.0);
        assert!(
            LogLinearHistogram::bucket_index(p100) == LogLinearHistogram::bucket_index(1000),
            "p100 lands in the outlier's bucket, got {p100}"
        );
        // Quantile is monotone in q and bounded by max.
        let mut single = LogLinearHistogram::default();
        single.record(42);
        for q in [0.0, 0.25, 0.5, 0.999, 1.0, 7.0, -1.0] {
            let v = single.quantile(q);
            assert!(v <= single.max());
            assert_eq!(
                LogLinearHistogram::bucket_index(v),
                LogLinearHistogram::bucket_index(42)
            );
        }
    }

    #[test]
    fn trace_ring_drops_oldest() {
        let t = Telemetry::with_trace_capacity(3);
        for i in 0..5u64 {
            t.trace(i, 0, "l", "k", format!("e{i}"));
        }
        assert_eq!(t.trace_len(), 3);
        t.with_registry(|r| {
            assert_eq!(r.trace_dropped(), 2);
            let details: Vec<&str> =
                r.trace_events().map(|e| e.detail.as_str()).collect();
            assert_eq!(details, vec!["e2", "e3", "e4"]);
        });
    }

    #[test]
    fn label_filtered_tail_is_ordered_oldest_first() {
        let t = Telemetry::new();
        for i in 0..10u64 {
            let label = if i % 2 == 0 { "even" } else { "odd" };
            t.trace(i, 1, label, "k", format!("{i}"));
        }
        let tail = t.events_for_label("even", 3);
        assert_eq!(tail.len(), 3);
        assert!(tail[0].contains(" 4"));
        assert!(tail[2].contains(" 8"));
        assert!(t.events_for_label("missing", 4).is_empty());
        let all = t.last_events(4);
        assert_eq!(all.len(), 4);
        assert!(all[0].ends_with('6'));
    }

    #[test]
    fn spans_pair_start_and_end() {
        let t = Telemetry::new();
        t.span_start(100, 7, 42);
        assert_eq!(t.span_end(160, 7, 42), Some(60));
        assert_eq!(t.span_end(200, 7, 42), None, "span consumed");
        // Restart overwrites.
        t.span_start(10, 7, 42);
        t.span_start(20, 7, 42);
        assert_eq!(t.span_end(25, 7, 42), Some(5));
        // Clock weirdness saturates rather than panicking.
        t.span_start(50, 7, 42);
        assert_eq!(t.span_end(40, 7, 42), Some(0));
        // Ids are independent per (node, id) pair.
        t.span_start(0, 7, 1);
        t.span_start(0, 8, 1);
        assert_eq!(t.span_end(9, 8, 1), Some(9));
        assert_eq!(t.span_end(10, 7, 1), Some(10));
    }

    #[test]
    fn interner_formats_once_and_shares() {
        let pool = Interner::default();
        let mut formats = 0;
        let a = pool.get_or_insert_with(7, || {
            formats += 1;
            "type0@n3#1".to_owned()
        });
        let b = pool.get_or_insert_with(7, || {
            formats += 1;
            unreachable!("key 7 is already interned")
        });
        assert_eq!(formats, 1);
        assert!(Rc::ptr_eq(&a, &b), "same key aliases one allocation");
        assert_eq!(pool.strings.borrow().len(), 1);
        // Clones share the pool; traces share the interned label.
        let clone = pool.clone();
        let c = clone.get_or_insert_with(7, || unreachable!());
        assert!(Rc::ptr_eq(&a, &c));
        let t = Telemetry::new();
        t.trace_shared(5, 3, &a, "group.hb", String::new());
        t.with_registry(|r| {
            let e = r.trace_events().next().unwrap();
            assert!(Rc::ptr_eq(&e.label, &a));
            assert_eq!(e.render(), "5us n3 [type0@n3#1] group.hb ");
        });
    }

    #[test]
    fn render_is_stable() {
        let e = TraceEvent {
            at_us: 1_500_000,
            node: 3,
            label: "type0@n3#1".into(),
            kind: "group.hb",
            detail: "seq=9".into(),
        };
        assert_eq!(e.render(), "1500000us n3 [type0@n3#1] group.hb seq=9");
    }
}
