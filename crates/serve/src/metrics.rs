//! Thread-safe serving metrics.
//!
//! The in-sim `Telemetry` registry is `Rc`-based and single-threaded by
//! design; the server is not. This module keeps the hot counters in plain
//! atomics (incremented lock-free from any worker) and the latency
//! distributions in mutex-guarded [`LogLinearHistogram`]s; reports and
//! tests read the fields directly.
//!
//! ## Accounting invariant
//!
//! Every connection the acceptor admits ends in exactly one of: a reject
//! counter (`rejected_version`, `rejected_bad_hello`) or a terminal
//! counter (`closes_clean`, `idle_timeouts`, `slow_consumer_sheds`,
//! `protocol_errors`, `disconnects`, `server_closes`). Connections shed at
//! the door land in `rejected_overload`. So once all sessions have
//! drained:
//!
//! ```text
//! connects == rejected_overload + rejected_version + rejected_bad_hello
//!           + terminal_total
//! ```
//!
//! The adversarial battery pins this: no drop is ever silent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use envirotrack_telemetry::LogLinearHistogram;

/// Shared counters + histograms for one server instance.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// TCP connections observed by the acceptor.
    pub connects: AtomicU64,
    /// Sessions that completed HELLO→ACCEPT.
    pub accepted: AtomicU64,
    /// Connections refused at the door with REJECT(Overloaded).
    pub rejected_overload: AtomicU64,
    /// HELLOs refused with REJECT(VersionUnsupported).
    pub rejected_version: AtomicU64,
    /// HELLOs refused with REJECT(BadHello) (e.g. zero receive budget).
    pub rejected_bad_hello: AtomicU64,
    /// Sessions currently open (gauge).
    pub active_sessions: AtomicU64,
    /// High-water mark of `active_sessions`.
    pub peak_sessions: AtomicU64,

    /// Sessions killed for a framing/state violation (CLOSE(ProtocolError)).
    pub protocol_errors: AtomicU64,
    /// Frames dropped for CRC/codec corruption (subset cause of
    /// `protocol_errors`).
    pub corrupt_frames: AtomicU64,
    /// Frames dropped for an oversized length prefix (subset cause).
    pub oversized_frames: AtomicU64,
    /// Messages valid on the wire but illegal in the session state (subset
    /// cause).
    pub state_violations: AtomicU64,

    /// Sessions closed by the idle reaper (CLOSE(IdleTimeout)).
    pub idle_timeouts: AtomicU64,
    /// Sessions shed for not draining their event queue
    /// (CLOSE(SlowConsumer)).
    pub slow_consumer_sheds: AtomicU64,
    /// Sessions ended by a client CLOSE(Normal).
    pub closes_clean: AtomicU64,
    /// Sessions ended by EOF/reset without a CLOSE frame (half-open,
    /// mid-frame disconnect).
    pub disconnects: AtomicU64,
    /// Sessions ended by server shutdown (CLOSE(Shutdown)).
    pub server_closes: AtomicU64,

    /// Subscription requests received.
    pub subscribes: AtomicU64,
    /// Subscriptions denied by the hub (unknown scenario/type, capacity,
    /// missing capability).
    pub subs_denied: AtomicU64,
    /// Tracking events written to sockets.
    pub events_sent: AtomicU64,
    /// Tracking events dropped at a full per-session outbox (the shed
    /// trigger).
    pub events_dropped: AtomicU64,
    /// PING frames answered.
    pub pings: AtomicU64,
    /// Worker/hub threads that died panicking. Must stay zero.
    pub panics: AtomicU64,

    /// Hub ticks (those that advanced at least one world; their number is
    /// `hub_tick_work_us`'s count) that started more than one `tick_real`
    /// past their deadline. An unpaced hub, `tick_real` zero, has no
    /// deadline to miss.
    pub hub_ticks_late: AtomicU64,
    /// Socket writes that moved bytes.
    pub worker_writes: AtomicU64,
    /// Bytes those writes moved.
    pub worker_write_bytes: AtomicU64,
    /// Times a worker found nothing to do in a pass and blocked until a
    /// socket, its waker or a lifecycle deadline woke it.
    pub worker_waits: AtomicU64,
    /// Of those waits, the ones the worker's waker ended: a hand-off from
    /// the acceptor, a SUBACK, a tick's events or a shed from the hub, or
    /// shutdown.
    pub worker_wakes: AtomicU64,
    /// Failed `accept()` calls. The acceptor backs off briefly after one
    /// that ran out of descriptors or memory and retries any other at once.
    pub accept_errors: AtomicU64,
    /// The most bytes any session held between outbox and socket at the
    /// end of a worker pass: `MAX_PENDING_WRITE` plus a frame or two at
    /// most, whatever a peer does.
    pub pending_write_peak: AtomicU64,

    /// Latency from a SUBSCRIBE arriving off the socket to its SUBACK
    /// entering the session outbox, in microseconds.
    pub query_ack_us: Mutex<LogLinearHistogram>,
    /// Latency from a SUBSCRIBE arriving to the first tracking event for
    /// that query entering the outbox, in microseconds.
    pub first_event_us: Mutex<LogLinearHistogram>,
    /// Wall-clock work of one hub tick (advance every world and emit), in
    /// microseconds. While its upper quantiles sit under `tick_real` the
    /// hub holds its configured pace.
    pub hub_tick_work_us: Mutex<LogLinearHistogram>,
    /// Frames each hand-off put into its outbox: one record per world,
    /// session and sample — one outbox lock acquisition on the hub side
    /// each — summing to `events_sent`.
    pub batch_frames: Mutex<LogLinearHistogram>,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps the active-session gauge and its high-water mark.
    pub(crate) fn session_opened(&self) {
        let now = self.active_sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_sessions.fetch_max(now, Ordering::Relaxed);
    }

    /// Drops the active-session gauge.
    pub(crate) fn session_closed(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a SUBSCRIBE→SUBACK latency.
    pub(crate) fn observe_ack(&self, us: u64) {
        self.query_ack_us.lock().expect("metrics lock").record(us);
    }

    /// Records a SUBSCRIBE→first-event latency.
    pub(crate) fn observe_first_event(&self, us: u64) {
        self.first_event_us.lock().expect("metrics lock").record(us);
    }

    /// Records one hub tick: how long its work took and whether it started
    /// late.
    pub(crate) fn observe_tick(&self, work_us: u64, late: bool) {
        self.hub_ticks_late
            .fetch_add(u64::from(late), Ordering::Relaxed);
        self.hub_tick_work_us
            .lock()
            .expect("metrics lock")
            .record(work_us);
    }

    /// Records one hand-off of `fit` event frames, `refused` more dropped
    /// at a full outbox. `events_sent` moves under the histogram's lock,
    /// so a reader holding that lock sees the two agree exactly.
    pub(crate) fn observe_handoff(&self, fit: u64, refused: u64) {
        let mut batches = self.batch_frames.lock().expect("metrics lock");
        batches.record(fit);
        self.events_sent.fetch_add(fit, Ordering::Relaxed);
        drop(batches);
        if refused > 0 {
            self.events_dropped.fetch_add(refused, Ordering::Relaxed);
        }
    }

    /// Runs `f` on the query-ack latency histogram.
    pub fn with_ack_histogram<R>(&self, f: impl FnOnce(&LogLinearHistogram) -> R) -> R {
        f(&self.query_ack_us.lock().expect("metrics lock"))
    }

    /// Runs `f` on the subscribe→first-event latency histogram.
    pub fn with_first_event_histogram<R>(&self, f: impl FnOnce(&LogLinearHistogram) -> R) -> R {
        f(&self.first_event_us.lock().expect("metrics lock"))
    }

    /// Sum of all terminal session counters (how every accepted session
    /// eventually ends).
    #[must_use]
    pub fn terminal_total(&self) -> u64 {
        [
            &self.closes_clean,
            &self.idle_timeouts,
            &self.slow_consumer_sheds,
            &self.protocol_errors,
            &self.disconnects,
            &self.server_closes,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_peak() {
        let m = ServeMetrics::new();
        m.session_opened();
        m.session_opened();
        m.session_closed();
        m.session_opened();
        assert_eq!(m.active_sessions.load(Ordering::Relaxed), 2);
        assert_eq!(m.peak_sessions.load(Ordering::Relaxed), 2);
    }
}
