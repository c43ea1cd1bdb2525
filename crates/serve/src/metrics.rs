//! Thread-safe serving metrics.
//!
//! The in-sim [`Telemetry`] registry is `Rc`-based and single-threaded by
//! design; the server is not. This module keeps the hot counters in plain
//! atomics (incremented lock-free from any worker) and the latency
//! distributions in mutex-guarded [`LogLinearHistogram`]s, then *exports*
//! a point-in-time [`Telemetry`] snapshot so the rest of the stack (JSON
//! reports, verify stages) reads serving metrics through the exact same
//! interface as simulation metrics.
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

use envirotrack_telemetry::{LogLinearHistogram, Telemetry};

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
    pub fn session_opened(&self) {
        let now = self.active_sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_sessions.fetch_max(now, Ordering::Relaxed);
    }

    /// Drops the active-session gauge.
    pub fn session_closed(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a SUBSCRIBE→SUBACK latency.
    pub fn observe_ack(&self, us: u64) {
        self.query_ack_us.lock().expect("metrics lock").record(us);
    }

    /// Records a SUBSCRIBE→first-event latency.
    pub fn observe_first_event(&self, us: u64) {
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

    /// Exports a point-in-time [`Telemetry`] snapshot under `serve.*`
    /// names, so serving metrics flow through the same reporting surface
    /// as simulation metrics.
    #[must_use]
    pub fn snapshot(&self) -> Telemetry {
        let t = Telemetry::new();
        let pairs: [(&str, &AtomicU64); 25] = [
            ("serve.connects", &self.connects),
            ("serve.accepted", &self.accepted),
            ("serve.rejected_overload", &self.rejected_overload),
            ("serve.rejected_version", &self.rejected_version),
            ("serve.rejected_bad_hello", &self.rejected_bad_hello),
            ("serve.peak_sessions", &self.peak_sessions),
            ("serve.protocol_errors", &self.protocol_errors),
            ("serve.corrupt_frames", &self.corrupt_frames),
            ("serve.oversized_frames", &self.oversized_frames),
            ("serve.state_violations", &self.state_violations),
            ("serve.idle_timeouts", &self.idle_timeouts),
            ("serve.slow_consumer_sheds", &self.slow_consumer_sheds),
            ("serve.closes_clean", &self.closes_clean),
            ("serve.disconnects", &self.disconnects),
            ("serve.server_closes", &self.server_closes),
            ("serve.subscribes", &self.subscribes),
            ("serve.subs_denied", &self.subs_denied),
            ("serve.events_sent", &self.events_sent),
            ("serve.events_dropped", &self.events_dropped),
            ("serve.pings", &self.pings),
            ("serve.panics", &self.panics),
            ("serve.hub_ticks_late", &self.hub_ticks_late),
            ("serve.worker_writes", &self.worker_writes),
            ("serve.worker_write_bytes", &self.worker_write_bytes),
            ("serve.pending_write_peak", &self.pending_write_peak),
        ];
        for (name, cell) in pairs {
            t.add(name, cell.load(Ordering::Relaxed));
        }
        t.add("serve.terminal_total", self.terminal_total());
        #[allow(clippy::cast_precision_loss)]
        t.set_gauge(
            "serve.active_sessions",
            self.active_sessions.load(Ordering::Relaxed) as f64,
        );
        // The two hub-side histograms also export their counts: ticks taken
        // and hand-offs made.
        for (name, hist, count_as) in [
            ("serve.query_ack_us", &self.query_ack_us, None),
            ("serve.first_event_us", &self.first_event_us, None),
            (
                "serve.hub_tick_work_us",
                &self.hub_tick_work_us,
                Some("serve.hub_ticks"),
            ),
            (
                "serve.batch_frames",
                &self.batch_frames,
                Some("serve.outbox_handoffs"),
            ),
        ] {
            let hist = hist.lock().expect("metrics lock").clone();
            if let Some(counter) = count_as {
                t.add(counter, hist.count());
            }
            t.set_histogram(name, hist);
        }
        t
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

    #[test]
    fn snapshot_exports_counters_and_histograms() {
        let m = ServeMetrics::new();
        m.connects.fetch_add(3, Ordering::Relaxed);
        m.closes_clean.fetch_add(2, Ordering::Relaxed);
        m.disconnects.fetch_add(1, Ordering::Relaxed);
        m.observe_ack(100);
        m.observe_ack(100);
        m.observe_ack(10_000);
        let t = m.snapshot();
        assert_eq!(t.counter("serve.connects"), 3);
        assert_eq!(t.counter("serve.terminal_total"), 3);
        t.with_registry(|r| {
            let h = r.histogram("serve.query_ack_us").expect("histogram");
            assert_eq!(h.count(), 3);
            assert!(h.quantile(0.5) <= 100 && h.quantile(0.5) > 0);
            assert!(h.quantile(0.99) >= 1_000);
        });
    }
}
