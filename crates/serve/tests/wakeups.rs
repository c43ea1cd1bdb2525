//! No wake of a waiting socket worker is lost.
//!
//! A worker with nothing to do blocks until a session socket stirs, its
//! waker rings, or the nearest lifecycle deadline. Every server here runs
//! one worker with a 30 s idle timeout, so that deadline is far: a wake
//! that went missing shows as a stall of seconds, not as a reply that came
//! a little late. Each source of work must be answered within [`PROMPT`]:
//! the acceptor's hand-off, a request on the socket, the hub's SUBACK, its
//! ticks' events and its shed, a socket that takes writes again, and
//! shutdown.

use std::io::Read;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::SessionMsg;
use envirotrack_serve::client::Conn;
use envirotrack_serve::{HubConfig, ServeMetrics, Server, ServerConfig, MAX_PENDING_WRITE};

// Its blocking helpers wait 30 s for a frame; these tests wait `READ_WAIT`.
#[allow(dead_code)]
#[path = "support/conn.rs"]
mod support;
use support::{hello, subscribe};

/// How long any wake may take to be answered.
const PROMPT: Duration = Duration::from_secs(1);
/// A conn's read timeout: past `PROMPT`, far short of the idle timeout.
const READ_WAIT: Duration = Duration::from_secs(3);
/// Long enough for the worker to have gone back to waiting.
const SETTLE: Duration = Duration::from_millis(50);

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn server(hub: HubConfig) -> Server {
    Server::start(ServerConfig {
        workers: 1,
        max_sessions: 256,
        send_budget: 1024,
        idle_timeout: Duration::from_secs(30),
        hub,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// The next frame and how long it took; panics past `READ_WAIT`.
fn timed_next(c: &mut Conn) -> (SessionMsg, Duration) {
    let t0 = Instant::now();
    let msg = c
        .poll()
        .unwrap_or_else(|| panic!("no frame within {READ_WAIT:?}: {:?}", c.phase()));
    (msg, t0.elapsed())
}

/// A session the server accepted.
fn accepted(addr: SocketAddr, recv_budget: u32) -> Conn {
    let mut c = Conn::connect(addr, Some(READ_WAIT)).expect("connect");
    c.send(&hello(recv_budget));
    let (msg, _) = timed_next(&mut c);
    assert!(matches!(msg, SessionMsg::Accept(_)), "{msg:?}");
    c
}

/// A session the server accepted, left alone until its worker waits.
fn open(addr: SocketAddr, recv_budget: u32) -> Conn {
    let c = accepted(addr, recv_budget);
    std::thread::sleep(SETTLE);
    c
}

/// Sends PINGs in batches whose PONGs fill under a third of
/// `MAX_PENDING_WRITE`, never reading, until the socket leaves replies in
/// the session's pending writes, and then `past_full` batches more: from
/// then on the worker waits for the socket to take them. Returns the bytes
/// of PONG sent for.
fn fill_socket(c: &mut Conn, metrics: &ServeMetrics, past_full: u64) -> u64 {
    let base = load(&metrics.worker_write_bytes);
    let pong_len = SessionMsg::Pong { nonce: 0 }.encode().len();
    let pings_per_batch = MAX_PENDING_WRITE / 3 / pong_len;
    let batch = SessionMsg::Ping { nonce: 0 }
        .encode()
        .repeat(pings_per_batch);
    let pings = load(&metrics.pings);
    let mut sent = 0;
    let mut more = past_full + 1;
    while more > 0 {
        assert!(sent < 10_000_000, "the socket never filled");
        c.send_raw(&batch);
        sent += pings_per_batch as u64;
        let deadline = Instant::now() + READ_WAIT;
        while load(&metrics.pings) - pings < sent {
            assert!(Instant::now() < deadline, "PINGs unanswered");
            std::thread::yield_now();
        }
        // The pass that answered the batch ends with its flush.
        std::thread::sleep(Duration::from_millis(5));
        if load(&metrics.pending_write_peak) > 0 {
            more -= 1;
        }
    }
    std::thread::sleep(SETTLE);
    let expected = sent * pong_len as u64;
    assert!(load(&metrics.worker_write_bytes) - base < expected);
    assert_eq!(load(&metrics.slow_consumer_sheds), 0);
    expected
}

#[test]
fn a_connect_is_accepted_promptly() {
    let server = server(HubConfig::default());
    // The worker has waited with no session since it started: only the
    // acceptor's hand-off can wake it.
    std::thread::sleep(SETTLE);
    let mut c = Conn::connect(server.addr(), Some(READ_WAIT)).expect("connect");
    let t0 = Instant::now();
    c.send(&hello(64));
    let (msg, _) = timed_next(&mut c);
    assert!(matches!(msg, SessionMsg::Accept(_)), "{msg:?}");
    assert!(t0.elapsed() <= PROMPT, "ACCEPT took {:?}", t0.elapsed());
    server.shutdown();
}

#[test]
fn a_ping_is_answered_promptly() {
    let server = server(HubConfig::default());
    let mut c = open(server.addr(), 64);
    c.send(&SessionMsg::Ping { nonce: 5 });
    let (msg, took) = timed_next(&mut c);
    assert_eq!(msg, SessionMsg::Pong { nonce: 5 });
    assert!(took <= PROMPT, "PONG took {took:?}");
    server.shutdown();
}

#[test]
fn a_subscribe_is_acked_promptly() {
    // No tick falls in the test: the hub's SUBACK is the only wake.
    let server = server(HubConfig {
        tick_real: Duration::from_secs(60),
        ..HubConfig::default()
    });
    let mut c = open(server.addr(), 64);
    c.send(&subscribe(3, 1));
    let (msg, took) = timed_next(&mut c);
    assert!(
        matches!(msg, SessionMsg::SubAck(ref a) if a.accepted && a.query_id == 3),
        "{msg:?}"
    );
    assert!(took <= PROMPT, "SUBACK took {took:?}");
    server.shutdown();
}

#[test]
fn events_follow_each_tick_promptly() {
    // A tick every 2 ms: the client only reads, so each batch reaches it
    // through the hub's once-a-tick wake alone. A hundred idle sessions
    // scanned after it make every pass long enough for the next tick's
    // wake to land during one: that wake must not be lost.
    let server = server(HubConfig::default());
    let mut c = accepted(server.addr(), 1024);
    c.send(&subscribe(4, 2));
    let (msg, _) = timed_next(&mut c);
    assert!(
        matches!(msg, SessionMsg::SubAck(ref a) if a.accepted),
        "{msg:?}"
    );
    let idle: Vec<Conn> = (0..100).map(|_| accepted(server.addr(), 64)).collect();
    let streaming = Instant::now();
    let mut events = 0;
    let mut slowest = Duration::ZERO;
    while streaming.elapsed() < Duration::from_millis(1500) {
        let (msg, took) = timed_next(&mut c);
        assert!(matches!(msg, SessionMsg::Event(_)), "{msg:?}");
        events += 1;
        slowest = slowest.max(took);
    }
    assert!(events > 100, "{events} events in 1.5 s");
    assert!(slowest <= PROMPT, "an event waited {slowest:?}");
    assert_eq!(c.sub(4).expect("subscribed").gaps, 0);
    drop(idle);
    server.shutdown();
}

#[test]
fn a_full_socket_drains_once_the_client_reads() {
    let server = server(HubConfig::default());
    let metrics = Arc::clone(server.metrics());
    let mut c = open(server.addr(), 64);
    let expected = fill_socket(&mut c, &metrics, 0);

    // Read everything: the socket takes the rest, and `poll` says so.
    let t0 = Instant::now();
    let mut got = 0;
    let mut buf = vec![0u8; 64 * 1024];
    while got < expected {
        let n = c
            .stream()
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("{got} of {expected} reply bytes, then {e}"));
        assert!(n > 0, "the server closed after {got} of {expected} bytes");
        got += n as u64;
    }
    assert_eq!(got, expected);
    assert!(t0.elapsed() <= PROMPT, "draining took {:?}", t0.elapsed());
    server.shutdown();
}

#[test]
fn an_overflowing_outbox_is_shed_promptly() {
    // A client that never reads: its socket is full and its pending
    // writes most of the way there, and then it subscribes. One sample a
    // tick is one hand-off of a frame per leader, which fill the pending
    // writes and then the 8-frame outbox while the worker waits for the
    // socket. Ticks lie 5 ms apart, time enough for each tick's wake to
    // be answered before the next: the hand-off that finds the outbox
    // full takes nothing, so the shed's own wake is the one that tells
    // the worker.
    let server = server(HubConfig {
        tick_real: Duration::from_millis(5),
        ..HubConfig::default()
    });
    let metrics = Arc::clone(server.metrics());
    let mut c = open(server.addr(), 8);
    fill_socket(&mut c, &metrics, 1);
    c.send(&subscribe(6, 3));

    let deadline = Instant::now() + Duration::from_secs(60);
    while load(&metrics.events_dropped) == 0 {
        assert!(Instant::now() < deadline, "the outbox never overflowed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let overflowed = Instant::now();
    while load(&metrics.slow_consumer_sheds) == 0 {
        assert!(
            overflowed.elapsed() <= PROMPT,
            "no shed {PROMPT:?} after the overflow"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(c);
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly() {
    let server = server(HubConfig::default());
    // An idle session: the worker's next deadline is 30 s away.
    let _c = open(server.addr(), 64);
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(PROMPT).is_ok(),
        "shutdown still running after {PROMPT:?}"
    );
}
