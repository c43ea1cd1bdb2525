//! Traffic storm against the tracking-as-a-service session server.
//!
//! Drives hundreds of concurrent sessions over real TCP loopback against
//! an in-process [`Server`], in three phases:
//!
//! 1. **Ramp** — open `target_sessions` sessions, each sending HELLO and
//!    then SUBSCRIBE once its ACCEPT arrives, and wait until every one is
//!    streaming (measures sessions streaming per second and the hub's
//!    query-ack latency under a registration flood).
//! 2. **Steady** — hold the full population streaming for a fixed window,
//!    counting per-client event deliveries (fairness = Jain's index over
//!    those counts; every client subscribes to the same shared world, so
//!    a fair server delivers near-identical counts).
//! 3. **Storm** (flagship only) — a connect burst past `max_sessions`
//!    (every excess connect must see a synchronous REJECT(Overloaded)),
//!    corrupt-frame senders (any SUBACK/EVENT after a corrupted frame
//!    counts as `corrupt_accepted`, which must stay zero), and stalled
//!    never-reading subscribers that must be shed as slow consumers
//!    while the fast majority keeps streaming.
//!
//! Every client is a [`Conn`], and one thread drives them all: the swarm
//! is non-blocking and polled a pass every few milliseconds (the
//! benchmark machine may have one core, so client-side cost is kept that
//! low), and the storm's actors are a handful of short-lived blocking
//! probes.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::report::json::JsonObject;
use envirotrack_core::wire::session::{
    Close, CloseReason, Hello, RejectReason, SessionMsg, Subscribe, CAP_ALL, SESSION_VERSION,
};
use envirotrack_serve::client::{Closed, Conn, Phase};
use envirotrack_serve::worlds::SCENARIO_TESTBED;
use envirotrack_serve::{HubConfig, Server, ServerConfig};
use envirotrack_sim::time::SimDuration;

/// Load-generator knobs. `smoke` is the CI profile; `flagship` adds the
/// storm phase and a longer steady window.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// World seed every swarm client subscribes to.
    pub seed: u64,
    /// Sessions opened during ramp; also the server's `max_sessions`, so
    /// the flagship burst is guaranteed to hit the overload shedder.
    pub target_sessions: usize,
    /// `passed` requires at least this many concurrently active sessions
    /// at the end of the steady window.
    pub min_sustained: u64,
    /// Steady-phase duration (the fairness measurement window).
    pub steady: Duration,
    /// Whether to run the storm phase (overload burst, corrupt senders,
    /// stalled consumers).
    pub storm: bool,
    /// Storm connect-burst size past `max_sessions`.
    pub burst: usize,
    /// Storm clients that corrupt a frame after a valid handshake.
    pub corrupt_senders: usize,
    /// Storm clients that subscribe and then never read.
    pub stalled: usize,
    /// Subscriptions per stalled client. Multiplies their event rate:
    /// the kernel absorbs megabytes for a non-reading peer (tcp_wmem
    /// autotunes sndbuf up to ~4 MiB), so the per-client rate must be
    /// high enough to exhaust that slack — and reach the server's own
    /// outbox budget — within seconds.
    pub stall_subs: u32,
    /// Server socket worker threads.
    pub workers: usize,
    /// Server per-session send budget (frames).
    pub send_budget: u32,
    /// Hub wall-clock tick pacing; smaller = higher event rate.
    pub tick_real: Duration,
}

impl StormConfig {
    /// CI profile: ~5 s, no storm phase, counters stay clean.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            seed,
            target_sessions: 560,
            min_sustained: 500,
            steady: Duration::from_secs(3),
            storm: false,
            burst: 0,
            corrupt_senders: 0,
            stalled: 0,
            stall_subs: 0,
            workers: 2,
            send_budget: 1024,
            tick_real: Duration::from_millis(20),
        }
    }

    /// Full profile: larger population, longer steady window, storm phase.
    #[must_use]
    pub fn flagship(seed: u64) -> Self {
        StormConfig {
            target_sessions: 640,
            steady: Duration::from_secs(8),
            storm: true,
            burst: 40,
            corrupt_senders: 8,
            stalled: 2,
            stall_subs: 1024,
            ..StormConfig::smoke(seed)
        }
    }
}

/// Everything `BENCH_serve.json` reports.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// `"smoke"` or `"flagship"`.
    pub mode: String,
    /// World seed.
    pub seed: u64,
    /// Sessions the ramp aimed for.
    pub target_sessions: u64,
    /// Concurrency floor `passed` enforces at the end of steady.
    pub min_sustained: u64,
    /// Server-observed concurrent-session high-water mark.
    pub sessions_peak: u64,
    /// Active sessions at the end of the steady window.
    pub sessions_steady: u64,
    /// Total TCP connects the server saw.
    pub connects: u64,
    /// Ramp rate: sessions streaming per wall second.
    pub connects_per_s: f64,
    /// Wall seconds from first connect to full population streaming.
    pub ramp_s: f64,
    /// Steady-window length in wall seconds.
    pub steady_s: f64,
    /// Client-observed event deliveries across the whole run.
    pub events_total: u64,
    /// Client-observed steady-phase event rate.
    pub events_per_s: f64,
    /// SUBSCRIBE→SUBACK latency percentiles (hub-side, microseconds).
    pub query_ack_p50_us: u64,
    /// 95th percentile of the same.
    pub query_ack_p95_us: u64,
    /// 99th percentile of the same.
    pub query_ack_p99_us: u64,
    /// Median SUBSCRIBE→first-event latency (microseconds).
    pub first_event_p50_us: u64,
    /// Jain fairness index over per-client steady event counts (1.0 =
    /// perfectly even).
    pub fairness_jain: f64,
    /// Storm-phase connects that observed REJECT(Overloaded).
    pub client_rejects_observed: u64,
    /// SUBACK/EVENT frames a client received after sending a corrupted
    /// frame. Must be zero: CRC-invalid input never advances a session.
    pub corrupt_accepted: u64,
    /// Client-side framing errors / unexpected closes / sequence gaps.
    pub client_errors: u64,
    /// Server counter: connects shed at the door.
    pub rejected_overload: u64,
    /// Server counter: stalled sessions shed as slow consumers.
    pub slow_consumer_sheds: u64,
    /// Server counter: frames dropped on shed outboxes.
    pub events_dropped: u64,
    /// Server counter: sessions torn down for protocol violations.
    pub protocol_errors: u64,
    /// Server counter: worker/hub thread panics. Must be zero.
    pub panics: u64,
    /// Cores the run had; every wall-clock figure here depends on it.
    pub host_cpus: u64,
    /// Server counter: events handed to session outboxes.
    pub events_sent: u64,
    /// Hub ticks that advanced a world.
    pub hub_ticks: u64,
    /// Of those, ticks that started more than one `tick_real` late.
    pub hub_ticks_late: u64,
    /// Median wall-clock work of one hub tick (microseconds).
    pub hub_tick_work_p50_us: u64,
    /// 95th percentile of the same.
    pub hub_tick_work_p95_us: u64,
    /// Event batches handed to outboxes, one outbox lock each.
    pub outbox_handoffs: u64,
    /// Frames over all those batches; equals `events_sent` exactly.
    pub batch_frames_total: u64,
    /// Largest single batch, in frames.
    pub batch_frames_max: u64,
    /// Server counter: socket writes that moved bytes.
    pub worker_writes: u64,
    /// Server counter: bytes those writes moved.
    pub worker_write_bytes: u64,
    /// Server counter: waits a worker entered with nothing to do.
    pub worker_waits: u64,
    /// Server counter: of those, the waits its waker ended.
    pub worker_wakes: u64,
    /// Whether the storm run ran with the storm phase enabled.
    pub storm: bool,
}

impl StormReport {
    /// The acceptance gate `serve_storm` exits on.
    #[must_use]
    pub fn passed(&self) -> bool {
        let base = self.sessions_steady >= self.min_sustained
            && self.sessions_peak >= self.target_sessions
            && self.events_total > 0
            && self.corrupt_accepted == 0
            && self.client_errors == 0
            && self.fairness_jain >= 0.90
            && self.panics == 0
            && self.batch_frames_total == self.events_sent;
        if self.storm {
            base && self.client_rejects_observed >= 1 && self.slow_consumer_sheds >= 1
        } else {
            // Happy path: nothing may have tripped a protocol error.
            base && self.protocol_errors == 0
        }
    }

    /// Serializes the report as a single flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_str("bench", "serve")
            .field_str("mode", &self.mode)
            .field_u64("seed", self.seed)
            .field_bool("passed", self.passed())
            .field_u64("target_sessions", self.target_sessions)
            .field_u64("min_sustained", self.min_sustained)
            .field_u64("sessions_peak", self.sessions_peak)
            .field_u64("sessions_steady", self.sessions_steady)
            .field_u64("connects", self.connects)
            .field_f64("connects_per_s", self.connects_per_s)
            .field_f64("ramp_s", self.ramp_s)
            .field_f64("steady_s", self.steady_s)
            .field_u64("events_total", self.events_total)
            .field_f64("events_per_s", self.events_per_s)
            .field_u64("query_ack_p50_us", self.query_ack_p50_us)
            .field_u64("query_ack_p95_us", self.query_ack_p95_us)
            .field_u64("query_ack_p99_us", self.query_ack_p99_us)
            .field_u64("first_event_p50_us", self.first_event_p50_us)
            .field_f64("fairness_jain", self.fairness_jain)
            .field_u64("client_rejects_observed", self.client_rejects_observed)
            .field_u64("corrupt_accepted", self.corrupt_accepted)
            .field_u64("client_errors", self.client_errors)
            .field_u64("rejected_overload", self.rejected_overload)
            .field_u64("slow_consumer_sheds", self.slow_consumer_sheds)
            .field_u64("events_dropped", self.events_dropped)
            .field_u64("protocol_errors", self.protocol_errors)
            .field_u64("panics", self.panics)
            .field_u64("host_cpus", self.host_cpus)
            .field_u64("events_sent", self.events_sent)
            .field_u64("hub_ticks", self.hub_ticks)
            .field_u64("hub_ticks_late", self.hub_ticks_late)
            .field_u64("hub_tick_work_p50_us", self.hub_tick_work_p50_us)
            .field_u64("hub_tick_work_p95_us", self.hub_tick_work_p95_us)
            .field_u64("outbox_handoffs", self.outbox_handoffs)
            .field_u64("batch_frames_total", self.batch_frames_total)
            .field_u64("batch_frames_max", self.batch_frames_max)
            .field_u64("worker_writes", self.worker_writes)
            .field_u64("worker_write_bytes", self.worker_write_bytes)
            .field_u64("worker_waits", self.worker_waits)
            .field_u64("worker_wakes", self.worker_wakes)
            .finish()
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 when all equal.
#[must_use]
pub(crate) fn jain_index(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sq == 0.0 {
        return if sum == 0.0 { 1.0 } else { 0.0 };
    }
    (sum * sum) / (counts.len() as f64 * sq)
}

// ---------------------------------------------------------------------------
// The swarm: every steady client's non-blocking `Conn`, client `q`
// subscribed with query id `q`.
// ---------------------------------------------------------------------------

fn hello() -> SessionMsg {
    SessionMsg::Hello(Hello {
        version: SESSION_VERSION,
        caps: CAP_ALL,
        recv_budget: 1024,
    })
}

fn subscribe(query_id: u32, seed: u64) -> SessionMsg {
    SessionMsg::Subscribe(Subscribe {
        query_id,
        scenario: SCENARIO_TESTBED,
        seed,
        type_id: ContextTypeId(0),
    })
}

fn close() -> SessionMsg {
    SessionMsg::Close(Close {
        reason: CloseReason::Normal,
    })
}

/// Whether swarm client `c`, whose one subscription is `query_id`, is
/// streaming.
fn streaming(c: &Conn, query_id: u32) -> bool {
    matches!(c.phase(), Phase::Open(_)) && c.sub(query_id).is_some_and(|s| s.acked == Some(true))
}

/// Events swarm client `c` has received on its one subscription.
fn events(c: &Conn, query_id: u32) -> u64 {
    c.sub(query_id).map_or(0, |s| s.events)
}

/// One pass over every client: flush, read, and apply what arrived.
fn pump(swarm: &mut [Conn]) {
    for c in swarm {
        while c.poll().is_some() {}
    }
}

/// Pumps the swarm every 5 ms until `done` holds or `timeout` has passed.
fn pump_until(swarm: &mut [Conn], timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() && Instant::now() < deadline {
        pump(swarm);
        thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Storm actors: short-lived blocking probes. Each waits milliseconds, while
// the swarm's streams queue on the server well inside their budgets.
// ---------------------------------------------------------------------------

/// Connects while the server is full; returns 1 if REJECT(Overloaded) was
/// observed synchronously.
fn burst_probe(addr: SocketAddr) -> u64 {
    let Ok(mut c) = Conn::connect(addr, Some(Duration::from_secs(2))) else {
        return 0;
    };
    while c.poll().is_some() {}
    u64::from(*c.phase() == Phase::Closed(Closed::Rejected(RejectReason::Overloaded)))
}

/// Connects a blocking probe, sends HELLO and then `then` (held until
/// ACCEPT), and waits out the handshake; `None` unless the session opened.
fn open_probe(addr: SocketAddr, then: &[SessionMsg]) -> Option<Conn> {
    let mut c = Conn::connect(addr, Some(Duration::from_secs(3))).ok()?;
    c.send(&hello());
    for msg in then {
        c.send(msg);
    }
    while *c.phase() == Phase::HelloSent && c.poll().is_some() {}
    matches!(c.phase(), Phase::Open(_)).then_some(c)
}

/// Handshakes, then sends a Subscribe with one bit flipped in the body.
/// Returns the number of SUBACK/EVENT frames seen afterwards — every one
/// is a CRC-invalid frame treated as valid, which must never happen.
fn corrupt_probe(addr: SocketAddr, seed: u64) -> u64 {
    let Some(mut c) = open_probe(addr, &[]) else {
        return 0;
    };
    let mut bytes = subscribe(999_999, seed).encode().to_vec();
    bytes[2] ^= 0x10; // inside the body: the CRC trailer must catch it
    c.send_raw(&bytes);
    let mut accepted_after_corrupt = 0;
    while let Some(msg) = c.poll() {
        if matches!(msg, SessionMsg::SubAck(_) | SessionMsg::Event(_)) {
            accepted_after_corrupt += 1;
        }
    }
    accepted_after_corrupt
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// Runs the storm profile end to end and returns the report.
///
/// # Panics
///
/// Panics if the loopback listener cannot bind — an environment failure a
/// benchmark should surface loudly.
#[must_use]
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let server = Server::start(ServerConfig {
        workers: cfg.workers,
        max_sessions: cfg.target_sessions,
        send_budget: cfg.send_budget,
        idle_timeout: Duration::from_secs(30),
        hub: HubConfig {
            max_worlds: 2,
            tick_virtual: SimDuration::from_millis(200),
            tick_real: cfg.tick_real,
            sample_virtual: SimDuration::from_millis(200),
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let metrics = Arc::clone(server.metrics());
    let addr = server.addr();

    // Ramp.
    let t0 = Instant::now();
    let mut swarm: Vec<Conn> = Vec::with_capacity(cfg.target_sessions);
    let mut connect_failures = 0;
    for i in 0..cfg.target_sessions {
        match Conn::connect(addr, None) {
            Ok(mut c) => {
                c.send(&hello());
                c.send(&subscribe(swarm.len() as u32, cfg.seed));
                swarm.push(c);
            }
            Err(_) => connect_failures += 1,
        }
        // Interleave pumping: a SUBSCRIBE goes out when its ACCEPT is read,
        // and early clients' streams must never back up while later ones
        // are still connecting.
        if i % 32 == 31 {
            pump(&mut swarm);
        }
    }
    // The ramp completes when every surviving client is streaming.
    let ramp_deadline = Instant::now() + Duration::from_secs(60);
    let ramp_streaming = loop {
        pump(&mut swarm);
        let streaming = swarm
            .iter()
            .zip(0..)
            .filter(|&(c, q)| streaming(c, q))
            .count() as u64;
        let live = swarm
            .iter()
            .filter(|c| !matches!(c.phase(), Phase::Closed(_)))
            .count() as u64;
        if streaming == live || Instant::now() > ramp_deadline {
            break streaming;
        }
        thread::sleep(Duration::from_millis(2));
    };
    let ramp_s = t0.elapsed().as_secs_f64();

    // Steady.
    let before: Vec<u64> = swarm.iter().zip(0..).map(|(c, q)| events(c, q)).collect();
    let steady_t0 = Instant::now();
    pump_until(&mut swarm, cfg.steady, || false);
    let sessions_steady = metrics.active_sessions.load(Ordering::Relaxed);
    let steady_events: Vec<u64> = swarm
        .iter()
        .zip(0..)
        .zip(&before)
        .map(|((c, q), b)| events(c, q) - b)
        .collect();
    let steady_s = steady_t0.elapsed().as_secs_f64();

    // Storm.
    let mut client_rejects_observed = 0;
    let mut corrupt_accepted = 0;
    if cfg.storm {
        // Overload burst while the population still fills every slot.
        for _ in 0..cfg.burst {
            let seen = burst_probe(addr);
            client_rejects_observed += seen;
            if seen == 0 {
                // Not full any more (a client died); further probes would
                // each burn the recv timeout waiting for a REJECT that
                // cannot come.
                break;
            }
        }
        // Free slots for the corrupt and stalled actors.
        let free = cfg.corrupt_senders + cfg.stalled + 4;
        swarm
            .iter_mut()
            .enumerate()
            .rev()
            .filter(|(q, c)| streaming(c, *q as u32))
            .take(free)
            .for_each(|(_, c)| c.send(&close()));
        let room = (cfg.target_sessions - cfg.corrupt_senders - cfg.stalled) as u64;
        pump_until(&mut swarm, Duration::from_secs(10), || {
            metrics.active_sessions.load(Ordering::Relaxed) <= room
        });
        for _ in 0..cfg.corrupt_senders {
            corrupt_accepted += corrupt_probe(addr, cfg.seed);
        }
        // Sessions that subscribe `stall_subs` times and are never read
        // again: the server must shed them as slow consumers.
        let stalled: Vec<Conn> = (0..cfg.stalled as u32)
            .filter_map(|i| {
                let subs: Vec<SessionMsg> = (0..cfg.stall_subs)
                    .map(|j| subscribe(1_000_000 + i * cfg.stall_subs + j, cfg.seed))
                    .collect();
                open_probe(addr, &subs)
            })
            .collect();
        pump_until(&mut swarm, Duration::from_secs(30), || {
            metrics.slow_consumer_sheds.load(Ordering::Relaxed) > 0
        });
        drop(stalled);
    }

    // Teardown: close the swarm, then the server.
    let mut events_total = 0;
    let mut client_errors = connect_failures;
    for (mut c, q) in swarm.into_iter().zip(0..) {
        c.send(&close());
        let sub = c.sub(q).copied().expect("every swarm client subscribed");
        events_total += sub.events;
        // A denied subscription, a sequence gap, or a session that ended
        // other than by our CLOSE.
        client_errors += sub.gaps
            + u64::from(sub.acked == Some(false))
            + u64::from(*c.phase() != Phase::Closed(Closed::ByUs));
    }
    let (p50, p95, p99) =
        metrics.with_ack_histogram(|h| (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)));
    let first_event_p50_us = metrics.with_first_event_histogram(|h| h.quantile(0.50));
    // The hub is still running: `events_sent` is read under the lock every
    // hand-off moves it under, so it agrees with the histogram exactly.
    let (batches, events_sent) = {
        let h = metrics.batch_frames.lock().expect("metrics lock");
        (h.clone(), metrics.events_sent.load(Ordering::Relaxed))
    };
    let tick_work = metrics
        .hub_tick_work_us
        .lock()
        .expect("metrics lock")
        .clone();
    let steady_events_total: u64 = steady_events.iter().sum();
    let report = StormReport {
        mode: if cfg.storm { "flagship" } else { "smoke" }.into(),
        seed: cfg.seed,
        target_sessions: cfg.target_sessions as u64,
        min_sustained: cfg.min_sustained,
        sessions_peak: metrics.peak_sessions.load(Ordering::Relaxed),
        sessions_steady,
        connects: metrics.connects.load(Ordering::Relaxed),
        connects_per_s: if ramp_s > 0.0 {
            ramp_streaming as f64 / ramp_s
        } else {
            0.0
        },
        ramp_s,
        steady_s,
        events_total,
        events_per_s: if steady_s > 0.0 {
            steady_events_total as f64 / steady_s
        } else {
            0.0
        },
        query_ack_p50_us: p50,
        query_ack_p95_us: p95,
        query_ack_p99_us: p99,
        first_event_p50_us,
        fairness_jain: jain_index(&steady_events),
        client_rejects_observed,
        corrupt_accepted,
        client_errors,
        rejected_overload: metrics.rejected_overload.load(Ordering::Relaxed),
        slow_consumer_sheds: metrics.slow_consumer_sheds.load(Ordering::Relaxed),
        events_dropped: metrics.events_dropped.load(Ordering::Relaxed),
        protocol_errors: metrics.protocol_errors.load(Ordering::Relaxed),
        panics: metrics.panics.load(Ordering::Relaxed),
        host_cpus: crate::sweep::host_cpus() as u64,
        events_sent,
        hub_ticks: tick_work.count(),
        hub_ticks_late: metrics.hub_ticks_late.load(Ordering::Relaxed),
        hub_tick_work_p50_us: tick_work.quantile(0.50),
        hub_tick_work_p95_us: tick_work.quantile(0.95),
        outbox_handoffs: batches.count(),
        batch_frames_total: u64::try_from(batches.sum()).unwrap_or(u64::MAX),
        batch_frames_max: batches.max(),
        worker_writes: metrics.worker_writes.load(Ordering::Relaxed),
        worker_write_bytes: metrics.worker_write_bytes.load(Ordering::Relaxed),
        worker_waits: metrics.worker_waits.load(Ordering::Relaxed),
        worker_wakes: metrics.worker_wakes.load(Ordering::Relaxed),
        storm: cfg.storm,
    };
    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_is_one_for_equal_counts_and_low_for_skew() {
        assert!((jain_index(&[100, 100, 100]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0, 0]) - 1.0).abs() < 1e-12);
        // One hog among idle clients: index collapses toward 1/n.
        let skew = jain_index(&[1000, 0, 0, 0]);
        assert!(skew < 0.3, "skewed counts must score poorly, got {skew}");
    }

    #[test]
    fn mini_storm_passes_end_to_end() {
        // A scaled-down smoke profile so the unit test stays fast while
        // still exercising ramp, steady, and the report path over TCP.
        let report = run_storm(&StormConfig {
            target_sessions: 24,
            min_sustained: 24,
            steady: Duration::from_millis(800),
            ..StormConfig::smoke(3)
        });
        assert!(report.passed(), "mini smoke must pass: {}", report.to_json());
        assert_eq!(report.sessions_peak, 24);
        assert_eq!(report.sessions_steady, 24);
        assert_eq!(report.client_errors, 0);
        assert_eq!(report.corrupt_accepted, 0);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.panics, 0);
        assert!(report.events_total > 0);
        assert!(report.events_per_s > 0.0, "the steady window saw events");
        assert!(report.fairness_jain >= 0.90);
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"serve\""));
        assert!(json.contains("\"query_ack_p50_us\""));
    }
}

