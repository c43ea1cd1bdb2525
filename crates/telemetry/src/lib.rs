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
//! * **A bounded trace stream** — [`TraceEvent`] records (timestamp, node,
//!   context label, site, arguments), kept in a drop-oldest ring so a long
//!   run cannot grow without bound, plus **spans** keyed by `(node, id)`
//!   for measuring request→response latency.
//!
//! A trace record is plain data: 40 bytes, no heap, `Copy` and `Send`. Its
//! label and any string argument are ids of strings the registry interns
//! once ([`Telemetry::intern`], [`Telemetry::intern_keyed`]); its kind and
//! the template of its detail are a `&'static` [`TraceSite`]; the detail's
//! numbers are up to three `u32` arguments. Text is made only when
//! something reads the trace — [`Registry::write_detail`],
//! [`Telemetry::last_events`] and the exporters built on them — so
//! appending a record is a copy into the ring, and once the ring is full it
//! allocates nothing.
//!
//! Beside the registry, not in it, [`Work`] is a snapshot of how a run did
//! its work — counts by name that the kernel and the world's layers add
//! when asked, for tests and tools, in no export.
//!
//! The [`Telemetry`] handle is a cheap `Rc<RefCell<..>>` clone, mirroring
//! the single-threaded simulation kernel it instruments: every layer of
//! the stack (kernel, radio medium, transport, directory, group
//! management) holds the same registry and the recording order is exactly
//! the deterministic event order, so identical seeds produce
//! byte-identical exports.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

/// Default bound on the trace ring: old events are dropped (and counted)
/// past this many.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Where a trace record is made: its kind, and the template its arguments
/// fill to make its detail.
///
/// In the template, `{}` is the next argument written as a decimal number
/// and `{s}` the next argument read as an interned string's id; every
/// other byte is copied. [`TraceSite::new`] admits at most three holes, one
/// per argument a record carries.
#[derive(Debug, PartialEq, Eq)]
pub struct TraceSite {
    kind: &'static str,
    detail: &'static str,
}

impl TraceSite {
    /// A site of `kind` whose detail is `detail` with its holes filled.
    ///
    /// # Panics
    ///
    /// On a `{` that opens neither hole, or on more than three holes — at
    /// compile time when the site is a `static`.
    #[must_use]
    pub const fn new(kind: &'static str, detail: &'static str) -> Self {
        let bytes = detail.as_bytes();
        let (mut i, mut holes) = (0, 0);
        while i < bytes.len() {
            if bytes[i] != b'{' {
                i += 1;
                continue;
            }
            let next = if i + 1 < bytes.len() { bytes[i + 1] } else { 0 };
            let after = if i + 2 < bytes.len() { bytes[i + 2] } else { 0 };
            i += match (next, after) {
                (b'}', _) => 2,
                (b's', b'}') => 3,
                _ => panic!("a detail hole is an empty pair of braces or one holding s"),
            };
            holes += 1;
        }
        assert!(holes <= 3, "a trace record carries at most three arguments");
        TraceSite { kind, detail }
    }

    /// The event kind, dot-namespaced (`group.hb`, `mtp.retx`, ...).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The detail template: a record's arguments fill its holes in order.
    #[must_use]
    pub fn detail(&self) -> &'static str {
        self.detail
    }
}

/// One trace record. Plain data: what it says in text is made from it, and
/// the registry's strings, only when it is read ([`Registry::write_detail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time, microseconds since the epoch.
    pub at_us: u64,
    /// The site that made it: kind and detail template.
    pub site: &'static TraceSite,
    /// The node the event happened on.
    pub node: u32,
    /// The context label the event concerns (display form, e.g.
    /// `type0@n3#1`), as the id of an interned string.
    pub label: u32,
    /// What fills the site's holes, in order; unused ones are 0.
    pub args: [u32; 3],
}

/// The site of a record made from text ([`Telemetry::trace_shared`]):
/// `kind`, with the whole detail one interned string (`{s}`) when it
/// `has_detail`, else with none. One per distinct kind and template for the
/// life of the process, made on its first use.
fn text_site(kind: &'static str, has_detail: bool) -> &'static TraceSite {
    static SITES: Mutex<Vec<&'static TraceSite>> = Mutex::new(Vec::new());
    // A push is the only update, so the list is whole whoever panicked.
    let mut sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
    let detail = if has_detail { "{s}" } else { "" };
    // The two templates differ in length; comparing that skips a `memcmp`
    // of two empty strings, which costs ~100 ns on some hosts.
    let same = |site: &&&TraceSite| site.kind == kind && site.detail.len() == detail.len();
    if let Some(site) = sites.iter().find(same) {
        return site;
    }
    let site: &'static TraceSite = Box::leak(Box::new(TraceSite::new(kind, detail)));
    sites.push(site);
    site
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

    /// Adds every observation of `other`, bucket by bucket: the result is
    /// what recording both streams into one histogram would have made.
    fn absorb(&mut self, other: &LogLinearHistogram) {
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
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

/// The strings trace records name by id — labels and string arguments —
/// each stored once.
///
/// A hot path that names the same thing again and again derives a `u128`
/// key from a cheap `Copy` identifier (e.g. a packed `ContextLabel`) and
/// finds its id by that key: the first use pays the format, every later
/// use is a `BTreeMap<u128, _>` probe — integer comparisons, no string
/// hashing or allocation.
#[derive(Debug, Default)]
struct Strings {
    text: Vec<Box<str>>,
    by_text: BTreeMap<Box<str>, u32>,
    by_key: BTreeMap<u128, u32>,
}

impl Strings {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = u32::try_from(self.text.len()).expect("fewer than 2^32 distinct trace strings");
        self.text.push(text.into());
        self.by_text.insert(text.into(), id);
        id
    }
}

/// How a run did its work, by name: an ordered list of counts that each
/// owner — the kernel, the world's layers, the coverage, the trace ring,
/// the heap census — adds its own to, in one place, for tests and tools.
/// It says how the work was done, not what the simulation did: it is no
/// [`Registry`] entry and belongs in no run record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work(Vec<(&'static str, u64)>);

impl Work {
    /// Adds `name`'s count. An owner adds a name once, so it sums its own
    /// parts before it adds them.
    ///
    /// # Panics
    ///
    /// When `name` was added before.
    pub fn add(&mut self, name: &'static str, count: u64) {
        assert!(
            self.0.iter().all(|&(n, _)| n != name),
            "work count {name} added twice"
        );
        self.0.push((name, count));
    }

    /// `name`'s count.
    ///
    /// # Panics
    ///
    /// When no owner added `name`, so that a renamed count fails its
    /// readers loudly.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        match self.0.iter().find(|&&(n, _)| n == name) {
            Some(&(_, count)) => count,
            None => panic!("no work count {name}"),
        }
    }

    /// Every count, in the order it was added.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().copied()
    }
}

/// What an `Rc` allocates for its value: the two counts beside it.
struct RcBox<T> {
    _counts: [usize; 2],
    _value: T,
}

/// About what a `BTreeMap` of `len` entries allocates: leaves of eleven
/// slots, two thirds full on average, and above more than one of them an
/// internal node (a leaf plus twelve edges) per eight.
fn btree_bytes<K, V>(len: usize) -> usize {
    const SLOTS: usize = 11;
    let leaf = 2 * size_of::<usize>() + SLOTS * (size_of::<K>() + size_of::<V>());
    let leaves = len.div_ceil(8);
    let internal = if leaves > 1 { leaves.div_ceil(8) } else { 0 };
    leaves * leaf + internal * (leaf + (SLOTS + 1) * size_of::<usize>())
}

/// The shared metric + trace store. Accessed through [`Telemetry`].
#[derive(Debug)]
pub struct Registry {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
    trace: VecDeque<TraceEvent>,
    trace_capacity: usize,
    trace_appended: u64,
    trace_dropped: u64,
    strings: Strings,
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
            trace_appended: 0,
            trace_dropped: 0,
            strings: Strings::default(),
            spans: BTreeMap::new(),
        }
    }

    /// Appends `event`, dropping (and counting) the oldest past the bound.
    /// Below the bound the ring grows by an eighth when it is full, not by
    /// doubling, so its slots are never more than an eighth unused.
    fn push_trace(&mut self, event: TraceEvent) {
        self.trace_appended += 1;
        let len = self.trace.len();
        if len >= self.trace_capacity {
            self.trace.pop_front();
            self.trace_dropped += 1;
        } else if len == self.trace.capacity() {
            let room = self.trace_capacity - len;
            self.trace.reserve_exact((len / 8).clamp(1, room));
        }
        self.trace.push_back(event);
    }

    /// The interned string `id` (a record's label or string argument).
    ///
    /// # Panics
    ///
    /// When `id` came from no [`Telemetry::intern`] of this registry.
    #[must_use]
    pub fn text(&self, id: u32) -> &str {
        &self.strings.text[id as usize]
    }

    /// Writes `event`'s detail to `out`: its site's template, each hole
    /// filled from the next argument.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    pub fn write_detail<W: fmt::Write + ?Sized>(
        &self,
        event: &TraceEvent,
        out: &mut W,
    ) -> fmt::Result {
        let mut args = event.args.iter();
        let mut rest = event.site.detail;
        while let Some(open) = rest.find('{') {
            out.write_str(&rest[..open])?;
            // `TraceSite::new` admits at most three holes, each `{}` or `{s}`.
            let arg = *args.next().expect("a hole per argument");
            rest = match rest[open..].strip_prefix("{}") {
                Some(after) => {
                    out.write_fmt(format_args!("{arg}"))?;
                    after
                }
                None => {
                    out.write_str(self.text(arg))?;
                    &rest[open + "{s}".len()..]
                }
            };
        }
        out.write_str(rest)
    }

    /// `event` as one stable line, `<at>us n<node> [<label>] <kind>
    /// <detail>`: what violation attachments and the smoke digest show.
    #[must_use]
    fn render(&self, event: &TraceEvent) -> String {
        let (at, node, kind) = (event.at_us, event.node, event.site.kind);
        let label = self.text(event.label);
        let mut line = format!("{at}us n{node} [{label}] {kind} ");
        // Writing to a `String` cannot fail.
        let _ = self.write_detail(event, &mut line);
        line
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

    /// Adds every observation of `h` to the named histogram, as if each had
    /// been recorded here: how per-shard histograms fold into one registry.
    pub fn absorb_histogram(&self, name: &str, h: &LogLinearHistogram) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .absorb(h);
    }

    /// The id of `text` among the registry's strings, storing it on first
    /// use.
    pub fn intern(&self, text: &str) -> u32 {
        self.inner.borrow_mut().strings.intern(text)
    }

    /// The id of the string `make` formats for `key`. `make` runs on the
    /// key's first use only; after that the id is one integer-map probe.
    /// A key names one string for the registry's life.
    pub fn intern_keyed(&self, key: u128, make: impl FnOnce() -> String) -> u32 {
        let mut r = self.inner.borrow_mut();
        if let Some(&id) = r.strings.by_key.get(&key) {
            return id;
        }
        let id = r.strings.intern(&make());
        r.strings.by_key.insert(key, id);
        id
    }

    /// Appends a trace record made at `site` about the interned `label`,
    /// dropping (and counting) the oldest past the ring bound. Allocates
    /// nothing once the ring is full.
    pub fn trace(
        &self,
        at_us: u64,
        node: u32,
        label: u32,
        site: &'static TraceSite,
        args: [u32; 3],
    ) {
        self.inner.borrow_mut().push_trace(TraceEvent {
            at_us,
            site,
            node,
            label,
            args,
        });
    }

    /// Appends a trace record given as text: `label` and a non-empty
    /// `detail` are interned, and the record's site is `kind` with the
    /// detail as its one string argument. Every distinct detail is kept for
    /// the registry's life, so this is a form for tests and probes; the
    /// middleware's own sites carry numbers and call [`Telemetry::trace`].
    pub fn trace_shared(
        &self,
        at_us: u64,
        node: u32,
        label: &Rc<str>,
        kind: &'static str,
        detail: String,
    ) {
        let mut r = self.inner.borrow_mut();
        let (site, args) = if detail.is_empty() {
            (text_site(kind, false), [0; 3])
        } else {
            (text_site(kind, true), [r.strings.intern(&detail), 0, 0])
        };
        let label = r.strings.intern(label);
        r.push_trace(TraceEvent {
            at_us,
            site,
            node,
            label,
            args,
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

    /// Forgets the span keyed by `(node, id)` without measuring it: the
    /// request it timed will never be answered.
    pub fn span_cancel(&self, node: u32, id: u64) {
        self.inner.borrow_mut().spans.remove(&(node, id));
    }

    /// Number of spans open.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Number of trace events currently retained.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.inner.borrow().trace.len()
    }

    /// Adds the trace ring's work to `work`:
    /// - `trace_records`: records appended over the registry's life;
    /// - `trace_dropped`: of those, the oldest the ring dropped to stay
    ///   within its bound;
    /// - `trace_ring_bytes`: the ring's slots, its capacity times the
    ///   record size.
    pub fn work(&self, work: &mut Work) {
        let r = self.inner.borrow();
        work.add("trace_records", r.trace_appended);
        work.add("trace_dropped", r.trace_dropped);
        let ring = r.trace.capacity() * std::mem::size_of::<TraceEvent>();
        work.add("trace_ring_bytes", ring as u64);
    }

    /// The heap bytes the registry holds: the trace ring at its capacity,
    /// the interned strings, and the counters, gauges, histograms and open
    /// spans with their names, worked out when asked. A `BTreeMap`'s nodes
    /// are estimated from its length; everything else is exact.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let r = self.inner.borrow();
        fn names<'a>(keys: impl Iterator<Item = &'a String>) -> usize {
            keys.map(String::capacity).sum()
        }
        let text: usize = r.strings.text.iter().map(|t| t.len()).sum();
        let buckets = r.histograms.values().map(|h| h.buckets.len());
        size_of::<RcBox<RefCell<Registry>>>()
            + r.trace.capacity() * size_of::<TraceEvent>()
            + btree_bytes::<String, Rc<Cell<u64>>>(r.counters.len())
            + names(r.counters.keys())
            + r.counters.len() * size_of::<RcBox<Cell<u64>>>()
            + btree_bytes::<String, f64>(r.gauges.len())
            + names(r.gauges.keys())
            + btree_bytes::<String, LogLinearHistogram>(r.histograms.len())
            + names(r.histograms.keys())
            + buckets.map(btree_bytes::<u32, u64>).sum::<usize>()
            + r.strings.text.capacity() * size_of::<Box<str>>()
            + 2 * text
            + btree_bytes::<Box<str>, u32>(r.strings.by_text.len())
            + btree_bytes::<u128, u32>(r.strings.by_key.len())
            + btree_bytes::<(u32, u64), u64>(r.spans.len())
    }

    /// The last `n` trace events (any label), oldest first, rendered.
    #[must_use]
    pub fn last_events(&self, n: usize) -> Vec<String> {
        let r = self.inner.borrow();
        let skip = r.trace.len().saturating_sub(n);
        r.trace.iter().skip(skip).map(|e| r.render(e)).collect()
    }

    /// The last `n` trace events for `label`, oldest first, rendered.
    #[must_use]
    pub fn events_for_label(&self, label: &str, n: usize) -> Vec<String> {
        let r = self.inner.borrow();
        let Some(&id) = r.strings.by_text.get(label) else {
            return Vec::new();
        };
        let same_label = r.trace.iter().rev().filter(|e| e.label == id);
        let mut picked: Vec<&TraceEvent> = same_label.take(n).collect();
        picked.reverse();
        picked.into_iter().map(|e| r.render(e)).collect()
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

    /// Absorbing histogram `b` into `a` makes what recording both streams
    /// into one histogram makes: the same buckets, count, sum, maximum and
    /// quantiles — over seeded random streams, empty ones and `u64::MAX`
    /// included.
    #[test]
    fn absorbing_a_histogram_equals_recording_both_streams() {
        // splitmix64: a seeded stream with no dependency on other crates.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Short streams, empty ones often; values at every scale.
        let mut stream = |empty: bool| -> Vec<u64> {
            let len = if empty { 0 } else { next() % 40 };
            (0..len)
                .map(|_| match next() % 4 {
                    0 => next() % 8,
                    1 => u64::MAX - next() % 2,
                    _ => next() >> (next() % 64),
                })
                .collect()
        };
        let histogram = |values: &[u64]| {
            let mut h = LogLinearHistogram::default();
            values.iter().for_each(|&v| h.record(v));
            h
        };
        for case in 0..300 {
            let (xs, ys) = (stream(case % 5 == 0), stream(case % 7 == 0));
            let (mut a, b) = (histogram(&xs), histogram(&ys));
            let both = histogram(&[xs.clone(), ys.clone()].concat());
            a.absorb(&b);
            assert_eq!(a, both, "case {case}: {xs:?} + {ys:?}");
            let summary = |h: &LogLinearHistogram| {
                let buckets: Vec<(u64, u64)> = h.iter().collect();
                let quantiles = (h.quantile(0.5), h.quantile(0.99));
                (h.count(), h.sum(), h.max(), buckets, quantiles)
            };
            assert_eq!(summary(&a), summary(&both), "case {case}");
        }
    }

    static SEQ: TraceSite = TraceSite::new("k", "seq={} weight={}");
    static WINNER: TraceSite = TraceSite::new("group.suppress", "winner={s}");

    #[test]
    fn trace_ring_drops_oldest() {
        let t = Telemetry::with_trace_capacity(3);
        let label = t.intern("l");
        for i in 0..5u32 {
            t.trace(u64::from(i), 0, label, &SEQ, [i, 0, 0]);
        }
        assert_eq!(t.trace_len(), 3);
        t.with_registry(|r| {
            assert_eq!(r.trace_dropped(), 2);
            let seqs: Vec<u32> = r.trace_events().map(|e| e.args[0]).collect();
            assert_eq!(seqs, vec![2, 3, 4]);
        });
        let mut work = Work::default();
        t.work(&mut work);
        assert_eq!(
            (work.get("trace_records"), work.get("trace_dropped")),
            (5, 2)
        );
        assert_eq!(
            work.get("trace_ring_bytes"),
            3 * std::mem::size_of::<TraceEvent>() as u64
        );
    }

    /// Below its bound the ring grows by an eighth of what it holds, so at
    /// any length its slots are at most an eighth (or one slot) more than
    /// its records; at the bound it stops growing.
    #[test]
    fn the_ring_grows_by_an_eighth_up_to_its_bound() {
        let bound = 5_000;
        let t = Telemetry::with_trace_capacity(bound);
        for i in 0..2 * bound as u32 {
            t.trace(0, 0, 0, &SEQ, [i, 0, 0]);
            let (len, slots) = t.with_registry(|r| (r.trace.len(), r.trace.capacity()));
            assert!(
                slots <= bound && slots <= (len + len / 8).max(len + 1),
                "{slots} slots for {len}"
            );
        }
        let mut work = Work::default();
        t.work(&mut work);
        assert_eq!(
            work.get("trace_ring_bytes"),
            (bound * std::mem::size_of::<TraceEvent>()) as u64
        );
    }

    #[test]
    fn work_counts_read_back_by_name_in_the_order_added() {
        let mut work = Work::default();
        work.add("b", 2);
        work.add("a", 1);
        assert_eq!(work.get("a"), 1);
        assert_eq!(work.iter().collect::<Vec<_>>(), [("b", 2), ("a", 1)]);
    }

    #[test]
    #[should_panic(expected = "no work count c")]
    fn a_work_count_never_added_panics() {
        let mut work = Work::default();
        work.add("a", 1);
        let _ = work.get("c");
    }

    #[test]
    #[should_panic(expected = "work count a added twice")]
    fn a_work_count_added_twice_panics() {
        let mut work = Work::default();
        work.add("a", 1);
        work.add("a", 1);
    }

    #[test]
    fn label_filtered_tail_is_ordered_oldest_first() {
        let t = Telemetry::new();
        let (even, odd) = (t.intern("even"), t.intern("odd"));
        for i in 0..10u32 {
            let label = if i % 2 == 0 { even } else { odd };
            t.trace(u64::from(i), 1, label, &SEQ, [i, 0, 0]);
        }
        let tail = t.events_for_label("even", 3);
        assert_eq!(tail.len(), 3);
        assert!(tail[0].contains("seq=4 "));
        assert!(tail[2].contains("seq=8 "));
        assert!(t.events_for_label("missing", 4).is_empty());
        let all = t.last_events(4);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], "6us n1 [even] k seq=6 weight=0");
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
    fn interned_strings_are_stored_once() {
        let t = Telemetry::new();
        let mut formats = 0;
        let a = t.intern_keyed(7, || {
            formats += 1;
            "type0@n3#1".to_owned()
        });
        let b = t.intern_keyed(7, || unreachable!("key 7 is already interned"));
        assert_eq!((a, b, formats), (0, 0, 1));
        // A key and its text name one string, whichever comes first.
        assert_eq!(t.intern("type0@n3#1"), a);
        assert_eq!(t.intern_keyed(8, || "type0".to_owned()), t.intern("type0"));
        t.with_registry(|r| {
            assert_eq!(r.strings.text.len(), 2);
            assert_eq!(r.text(a), "type0@n3#1");
        });
    }

    #[test]
    fn render_fills_numbers_and_strings_from_the_arguments() {
        let t = Telemetry::new();
        let (label, winner) = (t.intern("type0@n3#1"), t.intern("type0@n\"9#2"));
        t.trace(1_500_000, 3, label, &SEQ, [9, u32::MAX, 0]);
        t.trace(7, 4, label, &WINNER, [winner, 0, 0]);
        static NONE: TraceSite = TraceSite::new("group.form", "");
        t.trace(8, 4, label, &NONE, [0; 3]);
        assert_eq!(
            t.last_events(3),
            [
                "1500000us n3 [type0@n3#1] k seq=9 weight=4294967295",
                "7us n4 [type0@n3#1] group.suppress winner=type0@n\"9#2",
                "8us n4 [type0@n3#1] group.form ",
            ]
        );
    }

    /// The text form keeps its kind and detail as they were given. One site
    /// serves every record of a kind with a detail, and one every record of
    /// it without, which interns no detail.
    #[test]
    fn text_records_keep_their_kind_and_detail() {
        let t = Telemetry::new();
        let label: Rc<str> = "type0@n3#1".into();
        t.trace_shared(5, 3, &label, "group.hb", String::new());
        t.trace_shared(6, 3, &label, "group.hb", "{} {s} seq=1".to_owned());
        t.trace_shared(7, 3, &label, "group.hb", "seq=2".to_owned());
        let lines = [
            "5us n3 [type0@n3#1] group.hb ",
            "6us n3 [type0@n3#1] group.hb {} {s} seq=1",
            "7us n3 [type0@n3#1] group.hb seq=2",
        ];
        assert_eq!(t.last_events(3), lines);
        t.with_registry(|r| {
            let sites: Vec<&TraceSite> = r.trace_events().map(|e| e.site).collect();
            assert!(std::ptr::eq(sites[1], sites[2]) && !std::ptr::eq(sites[0], sites[1]));
            assert_eq!(r.strings.text.len(), 3, "the label and two details");
        });
        let hb = text_site("group.hb", true);
        assert!(!std::ptr::eq(hb, text_site("group.join", true)));
    }

    /// A record is plain data: copied into the ring whole, sendable to
    /// another thread, and no bigger than 40 bytes.
    #[test]
    fn a_trace_record_is_at_most_40_bytes_and_send() {
        fn send<T: Send + Copy>() {}
        send::<TraceEvent>();
        assert!(std::mem::size_of::<TraceEvent>() <= 40);
    }
}
