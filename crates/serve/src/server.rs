//! The TCP session server: acceptor + pooled socket workers.
//!
//! ## Threading model
//!
//! * **Acceptor** — one thread in blocking `accept()`. Its only decision
//!   is overload shedding: past `max_sessions` a connection is answered
//!   with REJECT(Overloaded) and closed *before* it costs a worker
//!   anything. Admitted sockets go non-blocking and round-robin onto a
//!   worker.
//! * **Workers** — `workers` threads, each multiplexing many sessions:
//!   a pass reads, frames and answers every session, drains its outbox
//!   and flushes (read → frame → state machine → drain outbox → flush).
//!   A pass that found nothing to do blocks in `poll(2)` on every session
//!   socket (readable; writable too while it holds pending writes) and on
//!   the worker's `Waker`, until the nearest lifecycle deadline. No
//!   thread ever blocks on one client's socket, so thousands of sessions
//!   cost `workers` threads, not thousands.
//! * **Hub** — one thread owning every simulation (see
//!   [`crate::worlds`]).
//!
//! ## Who wakes a waiting worker
//!
//! What arrives on a session socket wakes it through `poll` itself. What
//! other threads hand it rings its `Waker`: the acceptor after each
//! hand-off, [`Server::shutdown`] for every worker, and the hub after a
//! SUBACK, when a push sheds an outbox, and once per tick for each worker
//! whose outboxes the tick filled — once per tick, not once per push, so a
//! tick costs a worker one wake-up whatever it fanned out. A ring sets an
//! "already rung" flag and writes one byte only when it found the flag
//! clear, so ringing a busy worker costs no system call. The worker reads
//! the waker dry and then clears the flag, both before it scans its
//! sessions: a ring before the clear is seen by the scan, and a ring after
//! it leaves its byte in the waker for the next `poll`. No wake is lost.
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

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::{
    Accept, Close, CloseReason, Reject, RejectReason, SessionMsg, SubAck, CAP_ALL,
    CAP_SCENARIO_RUN, SESSION_VERSION,
};
use envirotrack_core::wire::DecodeError;

use crate::frame::{FrameError, FrameReader, FramedSocket};
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

/// How long the acceptor waits after an `accept()` that failed for want of
/// descriptors or memory before it tries again. Such an error fails every
/// retry at once; without a pause the acceptor would spin a core on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Whether a failed `accept()` will fail again at once: the process or the
/// system is out of descriptors or buffer memory (`EMFILE`, `ENFILE`,
/// `ENOBUFS`, `ENOMEM`). Any other error belongs to the one connection
/// (reset before it was taken, a protocol error) or to the call
/// (`EINTR`), and `accept(2)` says to retry at once.
fn exhausted(e: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    matches!(e.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
}

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
    sock: FramedSocket,
    state: SessionState,
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
            sock: FramedSocket::new(stream),
            state: SessionState::AwaitHello,
            outbox: Arc::new(Outbox::new(budget)),
            caps: 0,
            last_activity: Instant::now(),
            accounted: false,
            accepted: false,
        }
    }

    fn queue(&mut self, msg: &SessionMsg) {
        msg.encode_into(&mut self.sock.pending);
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

/// Binds `addr` with room for `backlog` connections the acceptor has not
/// taken yet. `TcpListener::bind` listens with a backlog of 128, which a
/// connect storm overflows; the kernel then drops the SYN, and the client
/// waits out a one-second retransmit. Re-issuing `listen(2)` on the bound
/// socket resizes the queue; the kernel clamps it to `somaxconn`.
fn listen(addr: SocketAddr, backlog: usize) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    #[cfg(target_os = "linux")]
    {
        // `std` already links the C library; its `listen` is declared here
        // rather than pulled in through a crate.
        extern "C" {
            fn listen(fd: i32, backlog: i32) -> i32;
        }
        let backlog = i32::try_from(backlog).unwrap_or(i32::MAX);
        // SAFETY: `listen` reads two integers and no memory of ours, and the
        // descriptor is the listener's own bound socket, open for as long as
        // `listener` lives.
        if unsafe { listen(listener.as_raw_fd(), backlog) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = backlog;
    Ok(listener)
}

/// A socket worker's doorbell: the other threads ring it when they hand
/// the worker something its sockets will not announce.
#[derive(Debug)]
pub(crate) struct Waker {
    /// Set by the first ring since the worker last cleared it.
    rung: AtomicBool,
    /// The write end of the pair whose read end the worker polls.
    tx: UnixStream,
    /// Every ring, whether it wrote or not.
    #[cfg(test)]
    pub(crate) rings: AtomicU64,
}

impl Waker {
    /// Wakes the worker if it waits, or makes its next wait return at once.
    /// Only the ring that finds the flag clear writes, so a worker rung
    /// many times between two of its passes costs one system call. (A
    /// write the full socket refuses leaves unread bytes behind it, which
    /// wake the worker as well.)
    pub(crate) fn wake(&self) {
        #[cfg(test)]
        self.rings.fetch_add(1, Ordering::Relaxed);
        // Release: what the caller handed over before ringing is visible
        // to the worker's clearing swap that reads this ring.
        if !self.rung.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// One entry of `poll(2)`'s descriptor array (`struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Blocks until one of `fds` is ready for what it asks or `timeout` lapses
/// (`None`: no timeout), and sets each entry's `revents`. The one place a
/// thread of the server waits on time: on Linux through `poll(2)`; on
/// other Unix targets as a sleep, capped at a short nap when there are
/// descriptors to look at again.
fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    #[cfg(target_os = "linux")]
    {
        // `std` already links the C library; its `poll` is declared here
        // rather than pulled in through a crate.
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        }
        // Rounded up: a wait that ends before its deadline would only come
        // straight back.
        let ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        let len = std::ffi::c_ulong::try_from(fds.len()).unwrap_or(std::ffi::c_ulong::MAX);
        // SAFETY: `fds` is a live, exclusively borrowed array of `len`
        // `struct pollfd`-shaped entries, which `poll` reads and whose
        // `revents` it writes, and nothing else; a failure (EINTR) leaves
        // it as it was, and the caller looks again either way.
        unsafe { poll(fds.as_mut_ptr(), len, ms) };
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No readiness wait here: nap briefly and let the caller look. With
        // nothing to look at, the timeout is all there is to wait for.
        const NAP: Duration = Duration::from_micros(500);
        let nap = match timeout {
            Some(t) if fds.is_empty() => t,
            Some(t) => t.min(NAP),
            None => NAP,
        };
        std::thread::sleep(nap);
    }
}

/// A running server; dropping (or calling [`Server::shutdown`]) stops it.
pub struct Server {
    addr: SocketAddr,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// One per worker, in worker order.
    wakers: Vec<Arc<Waker>>,
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
    /// Propagates bind failures, and a failure to make a worker's waker.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = listen(cfg.bind, cfg.max_sessions)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let hub = SimHub::spawn(cfg.hub.clone(), Arc::clone(&metrics));

        let mut workers = Vec::new();
        let mut worker_txs: Vec<(Sender<TcpStream>, Arc<Waker>)> = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            let bell = Bell::new()?;
            worker_txs.push((tx, Arc::clone(&bell.waker)));
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let hub_tx = hub.sender();
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        let guard = PanicCounter(Arc::clone(&metrics));
                        worker_loop(&cfg, &rx, bell, &hub_tx, &metrics, &stop);
                        drop(guard);
                    })
                    .expect("spawn worker"),
            );
        }

        let wakers = worker_txs.iter().map(|(_, w)| Arc::clone(w)).collect();
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
            wakers,
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
        for waker in &self.wakers {
            waker.wake();
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
    workers: &[(Sender<TcpStream>, Arc<Waker>)],
    metrics: &ServeMetrics,
    stop: &AtomicBool,
    max_sessions: usize,
) {
    let mut next = 0usize;
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                if exhausted(&e) {
                    // The connection waits in the listen queue meanwhile.
                    wait(&mut [], Some(ACCEPT_BACKOFF));
                }
                continue;
            }
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
        let (tx, waker) = &workers[next % workers.len()];
        next += 1;
        if tx.send(stream).is_err() {
            return; // workers only die at shutdown
        }
        waker.wake();
    }
}

/// A worker's side of its waker: what it waits on besides its sessions.
pub(crate) struct Bell {
    pub(crate) waker: Arc<Waker>,
    /// The read end of the waker's pair.
    rx: UnixStream,
    /// The `poll` array, refilled for every wait: an idle wait allocates
    /// nothing once it has held the worker's most sessions.
    fds: Vec<PollFd>,
}

impl Bell {
    /// A bell and its waker, both ends of the pair non-blocking.
    pub(crate) fn new() -> std::io::Result<Bell> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let waker = Arc::new(Waker {
            rung: AtomicBool::new(false),
            tx,
            #[cfg(test)]
            rings: AtomicU64::new(0),
        });
        Ok(Bell {
            waker,
            rx,
            fds: Vec::new(),
        })
    }

    /// Before a pass scans its sessions: reads the waker dry, then clears
    /// its flag, in that order. A ring that lands between the two has its
    /// byte read but is itself seen by the scan, and a ring after the
    /// clear writes a byte no one has read yet, so the next wait returns
    /// at once. Clearing first would let a ring between the clear and the
    /// read leave the flag set with no byte behind it, and every later
    /// ring would then be swallowed.
    fn answer(&self) {
        let mut drained = [0u8; 64];
        while matches!((&self.rx).read(&mut drained), Ok(n) if n > 0) {}
        // Acquire: whatever a ring's thread did before ringing is visible
        // to the scan that follows.
        self.waker.rung.swap(false, Ordering::AcqRel);
    }

    /// Waits until a session socket is readable (or writable, while the
    /// session holds pending writes), the waker rings, or the nearest
    /// lifecycle deadline — a closing session's grace, an idle timeout —
    /// lapses. Returns whether the waker ended the wait.
    fn wait(&mut self, sessions: &[Session], idle_timeout: Duration) -> bool {
        self.fds.clear();
        self.fds.push(PollFd {
            fd: self.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let mut due: Option<Instant> = None;
        for s in sessions {
            let events = if s.sock.pending.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            self.fds.push(PollFd {
                fd: s.sock.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            let deadline = match s.state {
                SessionState::Closing { deadline } => deadline,
                _ => s.last_activity + idle_timeout,
            };
            due = Some(due.map_or(deadline, |d| d.min(deadline)));
        }
        let timeout = due.map(|d| d.saturating_duration_since(Instant::now()));
        wait(&mut self.fds, timeout);
        self.fds[0].revents & POLLIN != 0
    }
}

fn worker_loop(
    cfg: &ServerConfig,
    incoming: &Receiver<TcpStream>,
    mut bell: Bell,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    stop: &AtomicBool,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let session_counter = AtomicU64::new(1);
    loop {
        // Before anything a ring announces is looked at: the stop flag,
        // the acceptor's hand-offs, the outboxes.
        bell.answer();
        if stop.load(Ordering::Acquire) {
            let bye = SessionMsg::Close(Close {
                reason: CloseReason::Shutdown,
            })
            .encode();
            for mut s in sessions.drain(..) {
                finish(&mut s, metrics, &metrics.server_closes);
                let _ = s.sock.stream.write_all(&bye);
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
                &bell.waker,
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
            metrics.worker_waits.fetch_add(1, Ordering::Relaxed);
            if bell.wait(&sessions, cfg.idle_timeout) {
                metrics.worker_wakes.fetch_add(1, Ordering::Relaxed);
            }
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
    waker: &Arc<Waker>,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    session_counter: &AtomicU64,
    busy: &mut bool,
) -> bool {
    // 1. Read what arrived, up to the per-pass bound. EOF/reset is noted
    // but NOT acted on yet: bytes already buffered may hold a final CLOSE
    // frame that deserves clean-close accounting, so frames are processed
    // first.
    let (read, gone) = s.sock.read_pass(MAX_READ_PER_PASS);
    let eof = gone.is_some();
    if read > 0 {
        s.last_activity = Instant::now();
        *busy = true;
    }

    // 2. Carve frames and run the state machine. A closing session answers
    // nothing more: what its peer still sends is dropped, not kept.
    if matches!(s.state, SessionState::Closing { .. }) {
        s.sock.reader = FrameReader::default();
    } else {
        loop {
            match s.sock.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(msg)) => {
                    *busy = true;
                    if handle_message(s, msg, cfg, waker, hub_tx, metrics, session_counter) {
                        break;
                    }
                    // A reply filled the stage-2 bound: make room now, or
                    // shed the peer that does not read what it asks for.
                    if s.sock.pending.len() > MAX_PENDING_WRITE {
                        if flush(s, metrics, busy) {
                            return true;
                        }
                        if s.sock.pending.len() > MAX_PENDING_WRITE {
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
        if s.outbox.drain_into(&mut s.sock.pending, MAX_PENDING_WRITE) > 0 {
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
    let held = s.sock.pending.len() as u64;
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
            s.sock.pending.is_empty() || Instant::now() >= deadline
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

/// Flushes the session's pending writes, counting the writes that moved
/// bytes. Returns `true` when the peer is gone (accounted as a
/// disconnect).
fn flush(s: &mut Session, metrics: &ServeMetrics, busy: &mut bool) -> bool {
    let (writes, bytes, gone) = s.sock.flush();
    if writes > 0 {
        metrics.worker_writes.fetch_add(writes, Ordering::Relaxed);
        metrics
            .worker_write_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        *busy = true;
    }
    let gone = gone.is_some();
    if gone {
        finish(s, metrics, &metrics.disconnects);
    }
    gone
}

/// Sheds a session that does not drain what it is sent: counts it, and
/// queues CLOSE(SlowConsumer).
fn shed(s: &mut Session, metrics: &ServeMetrics) {
    finish(s, metrics, &metrics.slow_consumer_sheds);
    s.begin_close(CloseReason::SlowConsumer);
}

/// Applies one decoded message to the session state machine. Returns
/// `true` when the session entered `Closing`.
fn handle_message(
    s: &mut Session,
    msg: SessionMsg,
    cfg: &ServerConfig,
    waker: &Arc<Waker>,
    hub_tx: &Sender<HubCommand>,
    metrics: &ServeMetrics,
    session_counter: &AtomicU64,
) -> bool {
    let awaiting = matches!(s.state, SessionState::AwaitHello);
    match msg {
        SessionMsg::Hello(h) if awaiting => {
            // A REJECTed handshake never opened a session: its reject
            // counter is its terminal one.
            if h.version != SESSION_VERSION {
                finish(s, metrics, &metrics.rejected_version);
                s.queue(&SessionMsg::Reject(Reject {
                    reason: RejectReason::VersionUnsupported,
                }));
                s.begin_close(CloseReason::Normal);
                return true;
            }
            if h.recv_budget == 0 {
                finish(s, metrics, &metrics.rejected_bad_hello);
                s.queue(&SessionMsg::Reject(Reject {
                    reason: RejectReason::BadHello,
                }));
                s.begin_close(CloseReason::Normal);
                return true;
            }
            let caps = h.caps & CAP_ALL;
            let budget = h.recv_budget.min(cfg.send_budget);
            s.caps = caps;
            s.outbox = Arc::new(Outbox::waking(budget as usize, Arc::clone(waker)));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A connect storm against a listener nobody accepts on: every connect
    /// waits in the listen queue, and past its end the kernel drops the SYN
    /// and the connect times out. At the default backlog of 128 the 130th
    /// did.
    #[test]
    #[cfg(target_os = "linux")]
    fn the_listen_queue_holds_a_connect_storm() {
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("an address");
        let listener = listen(addr, ServerConfig::default().max_sessions).expect("bound");
        let addr = listener.local_addr().expect("bound");
        let mut held = Vec::new();
        for i in 0..300 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(stream) => held.push(stream),
                Err(e) => panic!("connect {i} of 300 failed with {} waiting: {e}", held.len()),
            }
        }
    }

    /// A pass answers its waker before it scans: every ring before the
    /// answer is read off the waker, so it wakes no later wait, and a ring
    /// after it finds the flag clear and writes the byte that wakes the
    /// next one. A pass that read the waker only after its scan would take
    /// a ring made during the scan off the waker with its flag still set,
    /// and every later ring would be swallowed.
    #[test]
    fn an_answer_reads_every_ring_before_it_and_none_after() {
        let bell = Bell::new().expect("a socket pair");
        let mut byte = [0u8; 1];
        bell.waker.wake();
        bell.waker.wake();
        bell.answer();
        let left = (&bell.rx).read(&mut byte);
        assert!(left.is_err(), "an answered ring left {left:?} on the waker");
        bell.waker.wake();
        let rung = (&bell.rx).read(&mut byte);
        assert!(matches!(rung, Ok(1)), "a ring after the answer wrote {rung:?}");
    }
}
