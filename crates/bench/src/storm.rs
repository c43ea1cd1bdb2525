//! Traffic storm against the tracking-as-a-service session server.
//!
//! Drives hundreds of concurrent sessions over real TCP loopback against
//! an in-process [`Server`], in three phases:
//!
//! 1. **Ramp** — open `target_sessions` pipelined HELLO+SUBSCRIBE
//!    connections and wait until every one is streaming (measures
//!    connects/s and the hub's query-ack latency under a registration
//!    flood).
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
//! The swarm is a single thread multiplexing non-blocking sockets — the
//! benchmark machine may have one core, so client-side cost is kept to a
//! read pass every few milliseconds, and storm actors run as a handful of
//! short-lived blocking probes on the orchestrator thread.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::report::json::JsonObject;
use envirotrack_core::wire::session::{
    Close, CloseReason, Hello, RejectReason, SessionMsg, Subscribe, CAP_ALL, SESSION_VERSION,
};
use envirotrack_serve::client::{Client, Handshake};
use envirotrack_serve::worlds::SCENARIO_TESTBED;
use envirotrack_serve::{FrameReader, HubConfig, Server, ServerConfig};
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
// The swarm: one thread multiplexing every steady client, non-blocking.
// ---------------------------------------------------------------------------

enum Phase {
    /// HELLO+SUBSCRIBE written; waiting for the SUBACK.
    AwaitAck,
    /// Receiving events.
    Streaming,
    /// Closed (by us or by the server); no longer pumped.
    Done,
}

struct SwarmClient {
    stream: TcpStream,
    reader: FrameReader,
    pending: Vec<u8>,
    phase: Phase,
    query_id: u32,
    next_seq: u64,
    events: u64,
    steady_events: u64,
}

#[derive(Default)]
struct PumpStats {
    /// Framing errors, unexpected closes/EOFs, sequence gaps, denied acks.
    errors: u64,
    /// Connect/handshake-write failures during ramp.
    connect_failures: u64,
    events_total: u64,
    steady_events: Vec<u64>,
    ramp_s: f64,
}

/// Cross-thread orchestration: the pump owns the sockets; the
/// orchestrator flips phases through these.
#[derive(Default)]
struct PumpShared {
    /// Pump → orchestrator: ramp finished (population streaming or timed
    /// out).
    ramp_done: AtomicBool,
    /// Orchestrator → pump: count steady events.
    steady_on: AtomicBool,
    /// Orchestrator → pump: close this many streaming clients cleanly.
    close_n: AtomicUsize,
    /// Orchestrator → pump: close everything and return.
    stop: AtomicBool,
    /// Pump → orchestrator: clients currently streaming.
    streaming: AtomicU64,
}

fn open_swarm_client(addr: SocketAddr, query_id: u32, seed: u64) -> std::io::Result<SwarmClient> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Pipeline HELLO and SUBSCRIBE in one write: the server processes
    // frames in order, so the SUBACK races nothing.
    let mut payload = SessionMsg::Hello(Hello {
        version: SESSION_VERSION,
        caps: CAP_ALL,
        recv_budget: 1024,
    })
    .encode()
    .to_vec();
    payload.extend_from_slice(&SessionMsg::Subscribe(Subscribe {
        query_id,
        scenario: SCENARIO_TESTBED,
        seed,
        type_id: ContextTypeId(0),
    })
    .encode());
    let mut stream = stream;
    stream.write_all(&payload)?;
    stream.set_nonblocking(true)?;
    Ok(SwarmClient {
        stream,
        reader: FrameReader::new(),
        pending: Vec::new(),
        phase: Phase::AwaitAck,
        query_id,
        next_seq: 0,
        events: 0,
        steady_events: 0,
    })
}

fn handle_frame(c: &mut SwarmClient, msg: SessionMsg, steady: bool, stats: &mut PumpStats) {
    match msg {
        SessionMsg::Accept(_) | SessionMsg::Pong { .. } => {}
        SessionMsg::SubAck(a) if a.accepted && a.query_id == c.query_id => {
            c.phase = Phase::Streaming;
        }
        SessionMsg::SubAck(_) => {
            stats.errors += 1;
            c.phase = Phase::Done;
        }
        SessionMsg::Event(e) => {
            if e.query_id != c.query_id || e.seq != c.next_seq {
                stats.errors += 1;
            }
            c.next_seq = e.seq + 1;
            c.events += 1;
            if steady {
                c.steady_events += 1;
            }
        }
        // The server only CLOSEs us for cause; during the run that is
        // always unexpected (our own closes drop the socket instead).
        SessionMsg::Close(_) => {
            stats.errors += 1;
            c.phase = Phase::Done;
        }
        _ => {
            stats.errors += 1;
            c.phase = Phase::Done;
        }
    }
}

/// One non-blocking pass over every live client: flush pending writes,
/// drain the socket, decode frames.
fn pump_pass(clients: &mut [SwarmClient], steady: bool, stats: &mut PumpStats) {
    let mut buf = [0u8; 8192];
    for c in clients.iter_mut() {
        if matches!(c.phase, Phase::Done) {
            continue;
        }
        while !c.pending.is_empty() {
            match c.stream.write(&c.pending) {
                Ok(0) => {
                    stats.errors += 1;
                    c.phase = Phase::Done;
                    break;
                }
                Ok(n) => {
                    c.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    stats.errors += 1;
                    c.phase = Phase::Done;
                    break;
                }
            }
        }
        // Bounded read burst so one chatty socket cannot starve the rest.
        for _ in 0..4 {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    stats.errors += 1;
                    c.phase = Phase::Done;
                    break;
                }
                Ok(n) => c.reader.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    stats.errors += 1;
                    c.phase = Phase::Done;
                    break;
                }
            }
        }
        loop {
            match c.reader.next_frame() {
                Ok(Some(msg)) => handle_frame(c, msg, steady, stats),
                Ok(None) => break,
                Err(_) => {
                    stats.errors += 1;
                    c.phase = Phase::Done;
                    break;
                }
            }
            if matches!(c.phase, Phase::Done) {
                break;
            }
        }
    }
}

/// Closes one streaming client cleanly (CLOSE frame, then drop) and
/// collects its counts.
fn close_one(clients: &mut Vec<SwarmClient>, stats: &mut PumpStats) {
    let Some(idx) = clients
        .iter()
        .rposition(|c| matches!(c.phase, Phase::Streaming))
    else {
        return;
    };
    let mut c = clients.swap_remove(idx);
    let _ = c.stream.write(
        &SessionMsg::Close(Close {
            reason: CloseReason::Normal,
        })
        .encode(),
    );
    stats.events_total += c.events;
    stats.steady_events.push(c.steady_events);
}

fn count_streaming(clients: &[SwarmClient]) -> u64 {
    clients
        .iter()
        .filter(|c| matches!(c.phase, Phase::Streaming))
        .count() as u64
}

fn pump_thread(
    addr: SocketAddr,
    target: usize,
    seed: u64,
    shared: &Arc<PumpShared>,
) -> PumpStats {
    let mut stats = PumpStats::default();
    let t0 = Instant::now();
    let mut clients: Vec<SwarmClient> = Vec::with_capacity(target);
    for i in 0..target {
        match open_swarm_client(addr, i as u32, seed) {
            Ok(c) => clients.push(c),
            Err(_) => stats.connect_failures += 1,
        }
        // Interleave pumping so early clients' streams never back up
        // while later ones are still connecting.
        if i % 32 == 31 {
            pump_pass(&mut clients, false, &mut stats);
        }
    }
    // Ramp completes when every surviving client is streaming.
    let ramp_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        pump_pass(&mut clients, false, &mut stats);
        let streaming = count_streaming(&clients);
        shared.streaming.store(streaming, Ordering::Relaxed);
        let live = clients
            .iter()
            .filter(|c| !matches!(c.phase, Phase::Done))
            .count() as u64;
        if streaming == live || Instant::now() > ramp_deadline {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    stats.ramp_s = t0.elapsed().as_secs_f64();
    shared.ramp_done.store(true, Ordering::Release);

    // Main pumping loop: steady window, storm-phase close requests, stop.
    while !shared.stop.load(Ordering::Acquire) {
        let steady = shared.steady_on.load(Ordering::Relaxed);
        pump_pass(&mut clients, steady, &mut stats);
        shared
            .streaming
            .store(count_streaming(&clients), Ordering::Relaxed);
        let want = shared.close_n.swap(0, Ordering::Relaxed);
        for _ in 0..want {
            close_one(&mut clients, &mut stats);
        }
        thread::sleep(Duration::from_millis(5));
    }
    // Drain: close every remaining client and collect counts.
    while !clients.is_empty() {
        if matches!(clients.last().map(|c| &c.phase), Some(Phase::Streaming)) {
            close_one(&mut clients, &mut stats);
        } else {
            let c = clients.pop().expect("non-empty");
            stats.events_total += c.events;
            stats.steady_events.push(c.steady_events);
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Storm actors: short-lived blocking probes on the orchestrator thread.
// ---------------------------------------------------------------------------

/// Connects while the server is full; returns 1 if REJECT(Overloaded) was
/// observed synchronously.
fn burst_probe(addr: SocketAddr) -> u64 {
    let Ok(mut c) = Client::connect(addr, Some(Duration::from_secs(2))) else {
        return 0;
    };
    match c.recv() {
        Ok(SessionMsg::Reject(r)) if r.reason == RejectReason::Overloaded => 1,
        _ => 0,
    }
}

/// Handshakes, then sends a Subscribe with one bit flipped in the body.
/// Returns the number of SUBACK/EVENT frames seen afterwards — every one
/// is a CRC-invalid frame treated as valid, which must never happen.
fn corrupt_probe(addr: SocketAddr, seed: u64) -> u64 {
    let Ok(mut c) = Client::connect(addr, Some(Duration::from_secs(3))) else {
        return 0;
    };
    match c.hello(CAP_ALL, 64) {
        Ok(Handshake::Accepted(_)) => {}
        _ => return 0,
    }
    let mut bytes = SessionMsg::Subscribe(Subscribe {
        query_id: 999_999,
        scenario: SCENARIO_TESTBED,
        seed,
        type_id: ContextTypeId(0),
    })
    .encode()
    .to_vec();
    bytes[2] ^= 0x10; // inside the body: the CRC trailer must catch it
    if c.send_raw(&bytes).is_err() {
        return 0;
    }
    let mut accepted_after_corrupt = 0;
    loop {
        match c.recv() {
            Ok(SessionMsg::SubAck(_) | SessionMsg::Event(_)) => accepted_after_corrupt += 1,
            Ok(SessionMsg::Close(_)) | Err(_) => return accepted_after_corrupt,
            Ok(_) => {}
        }
    }
}

/// Opens a session that subscribes `subs` times and then never reads —
/// the server must shed it as a slow consumer.
fn open_stalled(
    addr: SocketAddr,
    seed: u64,
    base_query: u32,
    subs: u32,
) -> std::io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut payload = SessionMsg::Hello(Hello {
        version: SESSION_VERSION,
        caps: CAP_ALL,
        recv_budget: 1024,
    })
    .encode()
    .to_vec();
    for j in 0..subs {
        payload.extend_from_slice(&SessionMsg::Subscribe(Subscribe {
            query_id: base_query + j,
            scenario: SCENARIO_TESTBED,
            seed,
            type_id: ContextTypeId(0),
        })
        .encode());
    }
    s.write_all(&payload)?;
    Ok(s)
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// Runs the storm profile end to end and returns the report.
///
/// # Panics
///
/// Panics if the loopback listener cannot bind or the pump thread dies —
/// both are environment failures a benchmark should surface loudly.
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

    let shared = Arc::new(PumpShared::default());
    let pump = {
        let shared = Arc::clone(&shared);
        let target = cfg.target_sessions;
        let seed = cfg.seed;
        thread::spawn(move || pump_thread(addr, target, seed, &shared))
    };

    // Ramp.
    let ramp_deadline = Instant::now() + Duration::from_secs(90);
    while !shared.ramp_done.load(Ordering::Acquire) && Instant::now() < ramp_deadline {
        thread::sleep(Duration::from_millis(10));
    }

    // Steady.
    shared.steady_on.store(true, Ordering::Relaxed);
    let steady_t0 = Instant::now();
    thread::sleep(cfg.steady);
    let sessions_steady = metrics.active_sessions.load(Ordering::Relaxed);
    shared.steady_on.store(false, Ordering::Relaxed);
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
        shared.close_n.store(free, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.active_sessions.load(Ordering::Relaxed)
            > (cfg.target_sessions - cfg.corrupt_senders - cfg.stalled) as u64
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(10));
        }
        for _ in 0..cfg.corrupt_senders {
            corrupt_accepted += corrupt_probe(addr, cfg.seed);
        }
        let stalled: Vec<TcpStream> = (0..cfg.stalled)
            .filter_map(|i| {
                open_stalled(addr, cfg.seed, 1_000_000 + i as u32 * cfg.stall_subs, cfg.stall_subs)
                    .ok()
            })
            .collect();
        let shed_deadline = Instant::now() + Duration::from_secs(30);
        while metrics.slow_consumer_sheds.load(Ordering::Relaxed) == 0
            && Instant::now() < shed_deadline
        {
            thread::sleep(Duration::from_millis(20));
        }
        drop(stalled);
    }

    // Teardown: drain the swarm, then the server.
    shared.stop.store(true, Ordering::Release);
    let stats = pump.join().expect("pump thread");
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
    let steady_events_total: u64 = stats.steady_events.iter().sum();
    let report = StormReport {
        mode: if cfg.storm { "flagship" } else { "smoke" }.into(),
        seed: cfg.seed,
        target_sessions: cfg.target_sessions as u64,
        min_sustained: cfg.min_sustained,
        sessions_peak: metrics.peak_sessions.load(Ordering::Relaxed),
        sessions_steady,
        connects: metrics.connects.load(Ordering::Relaxed),
        connects_per_s: if stats.ramp_s > 0.0 {
            cfg.target_sessions as f64 / stats.ramp_s
        } else {
            0.0
        },
        ramp_s: stats.ramp_s,
        steady_s,
        events_total: stats.events_total,
        events_per_s: if steady_s > 0.0 {
            steady_events_total as f64 / steady_s
        } else {
            0.0
        },
        query_ack_p50_us: p50,
        query_ack_p95_us: p95,
        query_ack_p99_us: p99,
        first_event_p50_us,
        fairness_jain: jain_index(&stats.steady_events),
        client_rejects_observed,
        corrupt_accepted,
        client_errors: stats.errors + stats.connect_failures,
        rejected_overload: metrics.rejected_overload.load(Ordering::Relaxed),
        slow_consumer_sheds: metrics.slow_consumer_sheds.load(Ordering::Relaxed),
        events_dropped: metrics.events_dropped.load(Ordering::Relaxed),
        protocol_errors: metrics.protocol_errors.load(Ordering::Relaxed),
        panics: metrics.panics.load(Ordering::Relaxed),
        host_cpus: thread::available_parallelism().map_or(1, |n| n.get() as u64),
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
        assert!(report.fairness_jain >= 0.90);
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"serve\""));
        assert!(json.contains("\"query_ack_p50_us\""));
    }
}

