//! The TCP session server: acceptor + pooled socket workers.
//!
//! ## Threading model
//!
//! * **Acceptor** — one thread in blocking `accept()`. Its only decision
//!   is overload shedding: past `max_sessions` a connection is answered
//!   with REJECT(Overloaded) and closed *before* it costs a worker
//!   anything. Admitted sockets go non-blocking and round-robin onto a
//!   worker.
//! * **Workers** — `workers` threads, each multiplexing many sessions
//!   with a poll loop (read → frame → state machine → drain outbox →
//!   flush). No thread ever blocks on one client's socket, so thousands
//!   of sessions cost `workers` threads, not thousands.
//! * **Hub** — one thread owning every simulation (see
//!   [`crate::worlds`]).
//!
//! ## Backpressure policy
//!
//! Four bounded stages, each with a defined overflow behaviour:
//!
//! 1. **Outbox** (hub → session): at most `send_budget` frames, handed
//!    over a batch at a time; overflow marks the session shed →
//!    CLOSE(SlowConsumer).
//! 2. **Pending write** (session → socket): at most
//!    [`MAX_PENDING_WRITE`] bytes; while full, the outbox is not drained
//!    (pressure propagates backwards to stage 1 instead of growing an
//!    unbounded buffer). Replies to the peer's own requests (PONG, a
//!    denied SUBACK) share the bound: one that pushes the buffer past it
//!    is flushed at once, and if the socket will not take the bytes the
//!    peer asks faster than it reads → CLOSE(SlowConsumer).
//! 3. **Acceptor** (network → server): at most `max_sessions` concurrent
//!    sessions; overflow is shed with REJECT before admission.
//! 4. **Read** (socket → session): at most `MAX_READ_PER_PASS` bytes
//!    per worker pass; past it the session yields to the worker's other
//!    sessions and the rest waits in the kernel's socket buffer, where
//!    TCP flow control holds the sender back. Nothing is dropped.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::{
    Accept, Close, CloseReason, Reject, RejectReason, SessionMsg, SubAck, CAP_ALL,
    CAP_SCENARIO_RUN, SESSION_VERSION,
};
use envirotrack_core::wire::DecodeError;

use crate::frame::{FrameError, FrameReader};
use crate::metrics::ServeMetrics;
use crate::worlds::{HubCommand, HubConfig, Outbox, PanicCounter, SimHub, SubscribeReq};

/// Per-session cap on bytes buffered between outbox and socket. Kept
/// small so kernel-buffer slack cannot hide a stalled consumer: once the
/// socket stops draining, pressure reaches the outbox within one budget.
pub const MAX_PENDING_WRITE: usize = 16 * 1024;

/// Per-session cap on bytes read off the socket in one worker pass. A
/// peer that writes faster than that still gets every frame answered, one
/// pass's worth at a time, between the worker's other sessions.
const MAX_READ_PER_PASS: usize = 64 * 1024;

/// Grace period for flushing a final CLOSE before dropping a session.
const CLOSE_GRACE: Duration = Duration::from_millis(250);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub bind: SocketAddr,
    /// Socket worker threads.
    pub workers: usize,
    /// Concurrent session cap; excess connects get REJECT(Overloaded).
    pub max_sessions: usize,
    /// Frames the server will queue per session before shedding it.
    pub send_budget: u32,
    /// A session with no inbound traffic and no event flow for this long
    /// gets CLOSE(IdleTimeout).
    pub idle_timeout: Duration,
    /// Simulation hub knobs.
    pub hub: HubConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            max_sessions: 2048,
            send_budget: 256,
            idle_timeout: Duration::from_secs(10),
            hub: HubConfig::default(),
        }
    }
}

enum SessionState {
    /// Waiting for HELLO.
    AwaitHello,
    /// Negotiated and serving.
    Open,
    /// Final frames queued; flush then drop. Holds why, for accounting at
    /// actual teardown.
    Closing { deadline: Instant },
}

struct Session {
    stream: TcpStream,
    reader: FrameReader,
    state: SessionState,
    pending_write: Vec<u8>,
    outbox: Arc<Outbox>,
    caps: u32,
    last_activity: Instant,
    /// Set when this session was already counted in a terminal counter.
    accounted: bool,
    /// Whether HELLO→ACCEPT completed (drives the active-session gauge).
    accepted: bool,
}

impl Session {
    fn new(stream: TcpStream, budget: usize) -> Session {
        Session {
            stream,
            reader: FrameReader::new(),
            state: SessionState::AwaitHello,
            pending_write: Vec::new(),
            outbox: Arc::new(Outbox::new(budget)),
            caps: 0,
            last_activity: Instant::now(),
            accounted: false,
            accepted: false,
        }
    }

    fn queue(&mut self, msg: &SessionMsg) {
        msg.encode_into(&mut self.pending_write);
    }

    /// Queues a CLOSE and enters the flush-then-drop state.
    fn begin_close(&mut self, reason: CloseReason) {
        self.queue(&SessionMsg::Close(Close { reason }));
        self.outbox.close();
        self.state = SessionState::Closing {
            deadline: Instant::now() + CLOSE_GRACE,
        };
    }
}

/// A running server; dropping (or calling [`Server::shutdown`]) stops it.
pub struct Server {
    addr: SocketAddr,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    hub: Option<SimHub>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds, spawns the hub + workers + acceptor, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.bind)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let hub = SimHub::spawn(cfg.hub.clone(), Arc::clone(&metrics));

        let mut workers = Vec::new();
        let mut worker_txs: Vec<Sender<TcpStream>> = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            worker_txs.push(tx);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let hub_tx = hub.sender();
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        let guard = PanicCounter(Arc::clone(&metrics));
                        worker_loop(&cfg, &rx, &hub_tx, &metrics, &stop);
                        drop(guard);
                    })
                    .expect("spawn worker"),
            );
        }

        let acceptor = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || {
                    let guard = PanicCounter(Arc::clone(&metrics));
                    acceptor_loop(&listener, &worker_txs, &metrics, &stop, cfg.max_sessions);
                    drop(guard);
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            addr,
            metrics,
            stop,
            acceptor: Some(acceptor),
            workers,
            hub: Some(hub),
        })
    }

    /// The bound address (with the OS-assigned port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics block.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(h) = self.hub.take() {
            h.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_threads();
        }
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    workers: &[Sender<TcpStream>],
    metrics: &ServeMetrics,
    stop: &AtomicBool,
    max_sessions: usize,
) {
    let mut next = 0usize;
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        metrics.connects.fetch_add(1, Ordering::Relaxed);
        let active = metrics.active_sessions.load(Ordering::Relaxed);
        if active >= max_sessions as u64 {
            // Overload shedding at the door: a synchronous best-effort
            // REJECT, then drop. The write is tiny and the peer just
            // connected, so blocking here is bounded in practice.
            metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = stream.write_all(
                &SessionMsg::Reject(Reject {
                    reason: RejectReason::Overloaded,
                })
                .encode(),
            );
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            metrics.disconnects.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let _ = stream.set_nodelay(true);
        // Round-robin across workers.
        let w = next % workers.len();
        next += 1;
        if workers[w].send(stream).is_err() {
            return; // workers only die at shutdown
        }
    }
}

fn worker_loop(
    cfg: &ServerConfig,
    incoming: &Receiver<TcpStream>,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    stop: &AtomicBool,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let session_counter = AtomicU64::new(1);
    loop {
        if stop.load(Ordering::Acquire) {
            let bye = SessionMsg::Close(Close {
                reason: CloseReason::Shutdown,
            })
            .encode();
            for mut s in sessions.drain(..) {
                finish(&mut s, metrics, &metrics.server_closes);
                let _ = s.stream.write_all(&bye);
            }
            return;
        }

        let mut busy = false;
        while let Ok(stream) = incoming.try_recv() {
            sessions.push(Session::new(stream, cfg.send_budget as usize));
            busy = true;
        }

        let mut i = 0;
        while i < sessions.len() {
            let done = step_session(
                &mut sessions[i],
                cfg,
                hub_tx,
                metrics,
                &session_counter,
                &mut busy,
            );
            if done {
                let s = sessions.swap_remove(i);
                s.outbox.close();
            } else {
                i += 1;
            }
        }

        if !busy {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// Accounts a session's teardown exactly once.
fn finish(s: &mut Session, metrics: &ServeMetrics, counter: &AtomicU64) {
    if !s.accounted {
        s.accounted = true;
        counter.fetch_add(1, Ordering::Relaxed);
        if s.accepted {
            metrics.session_closed();
        }
    }
}

/// One poll-loop pass over one session. Returns `true` when the session
/// should be dropped.
fn step_session(
    s: &mut Session,
    cfg: &ServerConfig,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    session_counter: &AtomicU64,
    busy: &mut bool,
) -> bool {
    // 1. Read what arrived, up to the per-pass bound. EOF/reset is noted
    // but NOT acted on yet: bytes already buffered may hold a final CLOSE
    // frame that deserves clean-close accounting, so frames are processed
    // first.
    let mut eof = false;
    let mut chunk = [0u8; 4096];
    let mut read = 0;
    // A closing session answers nothing more: what its peer still sends
    // is read off the socket and dropped, not buffered.
    let closing = matches!(s.state, SessionState::Closing { .. });
    while read < MAX_READ_PER_PASS {
        match s.stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                if !closing {
                    s.reader.extend(&chunk[..n]);
                }
                read += n;
                *busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    if read > 0 {
        s.last_activity = Instant::now();
    }

    // 2. Carve frames and run the state machine (not while closing).
    if !matches!(s.state, SessionState::Closing { .. }) {
        loop {
            match s.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(msg)) => {
                    *busy = true;
                    if handle_message(s, msg, cfg, hub_tx, metrics, session_counter) {
                        break;
                    }
                    // A reply filled the stage-2 bound: make room now, or
                    // shed the peer that does not read what it asks for.
                    if s.pending_write.len() > MAX_PENDING_WRITE {
                        if flush(s, metrics, busy) {
                            return true;
                        }
                        if s.pending_write.len() > MAX_PENDING_WRITE {
                            shed(s, metrics);
                            break;
                        }
                    }
                }
                Err(err) => {
                    *busy = true;
                    match err {
                        FrameError::Oversized { .. } => {
                            metrics.oversized_frames.fetch_add(1, Ordering::Relaxed);
                        }
                        FrameError::Codec(DecodeError::UnknownTag { .. }) => {
                            // Unknown tags are a protocol error, not
                            // corruption: the CRC checked out.
                        }
                        FrameError::Codec(_) => {
                            metrics.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    finish(s, metrics, &metrics.protocol_errors);
                    s.begin_close(CloseReason::ProtocolError);
                    break;
                }
            }
        }
    }

    // 3. Drain the outbox into the pending-write buffer (stage-2 bound).
    if matches!(s.state, SessionState::Open) {
        if s.outbox.drain_into(&mut s.pending_write, MAX_PENDING_WRITE) > 0 {
            s.last_activity = Instant::now();
            *busy = true;
        }
        if s.outbox.is_shed() {
            shed(s, metrics);
        }
    }

    // 4. Flush.
    if flush(s, metrics, busy) {
        return true;
    }
    // A plain load on all but the handful of passes that set a record.
    let held = s.pending_write.len() as u64;
    if held > metrics.pending_write_peak.load(Ordering::Relaxed) {
        metrics.pending_write_peak.fetch_max(held, Ordering::Relaxed);
    }

    // 5. The peer is gone: account the teardown (a no-op if a processed
    // CLOSE or protocol error already did) and drop.
    if eof {
        finish(s, metrics, &metrics.disconnects);
        return true;
    }

    // 6. Lifecycle timers.
    match s.state {
        SessionState::Closing { deadline } => {
            s.pending_write.is_empty() || Instant::now() >= deadline
        }
        _ => {
            if s.last_activity.elapsed() > cfg.idle_timeout {
                finish(s, metrics, &metrics.idle_timeouts);
                s.begin_close(CloseReason::IdleTimeout);
            }
            false
        }
    }
}

/// Writes as much of the pending buffer as the socket takes; what it took
/// is dropped from the buffer once, after the last write. Returns `true`
/// when the peer is gone (accounted as a disconnect).
fn flush(s: &mut Session, metrics: &ServeMetrics, busy: &mut bool) -> bool {
    let mut sent = 0;
    while sent < s.pending_write.len() {
        match s.stream.write(&s.pending_write[sent..]) {
            Ok(0) => {
                finish(s, metrics, &metrics.disconnects);
                return true;
            }
            Ok(n) => {
                sent += n;
                metrics.worker_writes.fetch_add(1, Ordering::Relaxed);
                metrics
                    .worker_write_bytes
                    .fetch_add(n as u64, Ordering::Relaxed);
                *busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                finish(s, metrics, &metrics.disconnects);
                return true;
            }
        }
    }
    s.pending_write.drain(..sent);
    false
}

/// Sheds a session that does not drain what it is sent: counts it, and
/// queues CLOSE(SlowConsumer).
fn shed(s: &mut Session, metrics: &ServeMetrics) {
    metrics.slow_consumer_sheds.fetch_add(1, Ordering::Relaxed);
    finish_shed(s, metrics);
    s.begin_close(CloseReason::SlowConsumer);
}

/// Marks a shed session terminal (the shed counter itself was already
/// bumped by the caller; this wires the gauge + accounted flag).
fn finish_shed(s: &mut Session, metrics: &ServeMetrics) {
    if !s.accounted {
        s.accounted = true;
        if s.accepted {
            metrics.session_closed();
        }
    }
}

/// Applies one decoded message to the session state machine. Returns
/// `true` when the session entered `Closing`.
fn handle_message(
    s: &mut Session,
    msg: SessionMsg,
    cfg: &ServerConfig,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    session_counter: &AtomicU64,
) -> bool {
    let awaiting = matches!(s.state, SessionState::AwaitHello);
    match msg {
        SessionMsg::Hello(h) if awaiting => {
            if h.version != SESSION_VERSION {
                metrics.rejected_version.fetch_add(1, Ordering::Relaxed);
                s.queue(&SessionMsg::Reject(Reject {
                    reason: RejectReason::VersionUnsupported,
                }));
                finish_rejected(s);
                s.begin_close(CloseReason::Normal);
                return true;
            }
            if h.recv_budget == 0 {
                metrics.rejected_bad_hello.fetch_add(1, Ordering::Relaxed);
                s.queue(&SessionMsg::Reject(Reject {
                    reason: RejectReason::BadHello,
                }));
                finish_rejected(s);
                s.begin_close(CloseReason::Normal);
                return true;
            }
            let caps = h.caps & CAP_ALL;
            let budget = h.recv_budget.min(cfg.send_budget);
            s.caps = caps;
            s.outbox = Arc::new(Outbox::new(budget as usize));
            s.accepted = true;
            metrics.accepted.fetch_add(1, Ordering::Relaxed);
            metrics.session_opened();
            s.queue(&SessionMsg::Accept(Accept {
                session: session_counter.fetch_add(1, Ordering::Relaxed),
                version: SESSION_VERSION,
                caps,
                send_budget: budget,
            }));
            s.state = SessionState::Open;
            false
        }
        SessionMsg::Subscribe(sub) if !awaiting => {
            metrics.subscribes.fetch_add(1, Ordering::Relaxed);
            if sub.scenario != crate::worlds::SCENARIO_TESTBED && s.caps & CAP_SCENARIO_RUN == 0 {
                // Capability not negotiated: deny locally, same shape as a
                // hub denial.
                metrics.subs_denied.fetch_add(1, Ordering::Relaxed);
                s.queue(&SessionMsg::SubAck(SubAck {
                    query_id: sub.query_id,
                    accepted: false,
                }));
                return false;
            }
            let _ = hub_tx.send(HubCommand::Subscribe(SubscribeReq {
                query_id: sub.query_id,
                scenario: sub.scenario,
                seed: sub.seed,
                type_id: sub.type_id,
                outbox: Arc::clone(&s.outbox),
                received_at: Instant::now(),
            }));
            false
        }
        SessionMsg::Ping { nonce } if !awaiting => {
            metrics.pings.fetch_add(1, Ordering::Relaxed);
            s.queue(&SessionMsg::Pong { nonce });
            false
        }
        SessionMsg::Close(_) => {
            finish(s, metrics, &metrics.closes_clean);
            s.begin_close(CloseReason::Normal);
            true
        }
        // Everything else — HELLO twice, server-only messages from a
        // client, traffic before HELLO — is a state violation.
        _ => {
            metrics.state_violations.fetch_add(1, Ordering::Relaxed);
            finish(s, metrics, &metrics.protocol_errors);
            s.begin_close(CloseReason::ProtocolError);
            true
        }
    }
}

/// A REJECTed handshake never opened a session; it still ends in exactly
/// one terminal counter (the reject counters double as terminal for
/// never-accepted sessions), so mark accounted without a terminal bump.
fn finish_rejected(s: &mut Session) {
    s.accounted = true;
}
