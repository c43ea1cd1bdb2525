//! Full session lifecycle over real TCP loopback.
//!
//! This is the tracking-as-a-service front door exercised end to end: a
//! real `TcpListener`, real worker threads, a real shared simulation —
//! HELLO→ACCEPT negotiation, a subscription, streamed tracking events in
//! timestamp order, PING/PONG keep-alive, and a clean CLOSE; plus the
//! refusal paths (version mismatch, overload at the door).

use std::net::SocketAddr;
use std::time::Duration;

use envirotrack::core::context::ContextTypeId;
use envirotrack::core::wire::session::{
    CloseReason, Hello, RejectReason, SessionMsg, Subscribe, CAP_ALL, CAP_TRACK_EVENTS,
    SESSION_VERSION,
};
use envirotrack::serve::client::{Closed, Conn, Phase};
use envirotrack::serve::worlds::SCENARIO_TESTBED;
use envirotrack::serve::{HubConfig, Server, ServerConfig};
use envirotrack::sim::time::SimDuration;

fn test_server(max_sessions: usize) -> Server {
    Server::start(ServerConfig {
        workers: 2,
        max_sessions,
        send_budget: 128,
        idle_timeout: Duration::from_secs(5),
        hub: HubConfig {
            max_worlds: 2,
            // ~500x real time so trackers activate within milliseconds.
            tick_virtual: SimDuration::from_millis(500),
            tick_real: Duration::from_millis(1),
            ..HubConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

const RECV_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

fn connect(addr: SocketAddr) -> Conn {
    Conn::connect(addr, RECV_TIMEOUT).expect("connect")
}

fn hello(c: &mut Conn, version: u16, caps: u32, recv_budget: u32) {
    c.send(&SessionMsg::Hello(Hello {
        version,
        caps,
        recv_budget,
    }));
}

/// The next frame, which must come before the read timeout or the end of
/// the stream.
fn next(c: &mut Conn) -> SessionMsg {
    c.poll()
        .unwrap_or_else(|| panic!("no frame arrived: {:?}", c.phase()))
}

#[test]
fn full_lifecycle_hello_subscribe_stream_ping_close() {
    let server = test_server(64);
    let mut c = connect(server.addr());

    // HELLO → ACCEPT with capability + version negotiation.
    hello(&mut c, SESSION_VERSION, CAP_ALL, 64);
    let accept = match next(&mut c) {
        SessionMsg::Accept(a) => a,
        other => panic!("expected ACCEPT, got {other:?}"),
    };
    assert_eq!(c.phase(), &Phase::Open(accept.clone()));
    assert_eq!(accept.version, SESSION_VERSION);
    assert_eq!(accept.caps, CAP_ALL, "all requested caps granted");
    assert!(accept.send_budget <= 64, "budget clamped to the client offer");

    // Subscription registration via DATA.
    c.send(&SessionMsg::Subscribe(Subscribe {
        query_id: 7,
        scenario: SCENARIO_TESTBED,
        seed: 2,
        type_id: ContextTypeId(0),
    }));
    match next(&mut c) {
        SessionMsg::SubAck(a) => assert!(a.accepted, "testbed scenario subscription is admitted"),
        other => panic!("expected SUBACK, got {other:?}"),
    }

    // Streamed tracking events: correct query, gapless sequence, and
    // non-decreasing virtual timestamps.
    let mut last_at = None;
    for _ in 0..5 {
        let e = match next(&mut c) {
            SessionMsg::Event(e) => e,
            other => panic!("expected EVENT, got {other:?}"),
        };
        assert_eq!(e.query_id, 7);
        if let Some(prev) = last_at {
            assert!(e.at >= prev, "events arrive in timestamp order");
        }
        last_at = Some(e.at);
        assert!(e.pos.x.is_finite() && e.pos.y.is_finite());
    }
    let sub = c.sub(7).expect("subscribed");
    assert_eq!((sub.events, sub.next_seq), (5, 5));
    assert_eq!(sub.gaps, 0, "event sequence has no gaps");

    // PING → PONG keep-alive (events may interleave).
    c.send(&SessionMsg::Ping { nonce: 0xDEAD_BEEF });
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match next(&mut c) {
            SessionMsg::Pong { nonce } => {
                assert_eq!(nonce, 0xDEAD_BEEF);
                break;
            }
            SessionMsg::Event(_) => assert!(
                std::time::Instant::now() < deadline,
                "pong arrived among events"
            ),
            other => panic!("unexpected frame awaiting pong: {other:?}"),
        }
    }
    assert!(c.rtt().is_some(), "the PONG timed its PING");

    // Clean CLOSE: the server acknowledges with its own CLOSE(Normal) and
    // accounts the session as a clean close.
    c.send(&SessionMsg::Close(envirotrack::core::wire::session::Close {
        reason: CloseReason::Normal,
    }));
    assert_eq!(c.phase(), &Phase::Closed(Closed::ByUs));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match next(&mut c) {
            SessionMsg::Close(cl) => {
                assert_eq!(cl.reason, CloseReason::Normal);
                break;
            }
            SessionMsg::Event(_) => {
                assert!(std::time::Instant::now() < deadline);
            }
            other => panic!("unexpected frame awaiting close: {other:?}"),
        }
    }

    let metrics = std::sync::Arc::clone(server.metrics());
    server.shutdown();
    assert_eq!(load(&metrics.accepted), 1);
    assert_eq!(load(&metrics.closes_clean), 1);
    assert_eq!(load(&metrics.protocol_errors), 0, "happy path is clean");
    assert_eq!(load(&metrics.panics), 0);
}

#[test]
fn version_mismatch_is_rejected_with_reason() {
    let server = test_server(64);
    let mut c = connect(server.addr());
    hello(&mut c, SESSION_VERSION + 1, CAP_TRACK_EVENTS, 32);
    next(&mut c);
    assert_eq!(
        c.phase(),
        &Phase::Closed(Closed::Rejected(RejectReason::VersionUnsupported)),
        "future protocol version must not be accepted"
    );
    let metrics = std::sync::Arc::clone(server.metrics());
    server.shutdown();
    assert_eq!(load(&metrics.rejected_version), 1);
    assert_eq!(load(&metrics.accepted), 0);
    assert_eq!(load(&metrics.panics), 0);
}

#[test]
fn overload_is_shed_at_the_door() {
    // Two session slots; fill them, then the third connect must be
    // REJECT(Overloaded) before any handshake.
    let server = test_server(2);
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut c = connect(server.addr());
        hello(&mut c, SESSION_VERSION, CAP_ALL, 64);
        next(&mut c);
        assert!(matches!(c.phase(), Phase::Open(_)), "{:?}", c.phase());
        held.push(c);
    }
    let mut c = connect(server.addr());
    next(&mut c);
    assert_eq!(
        c.phase(),
        &Phase::Closed(Closed::Rejected(RejectReason::Overloaded)),
        "REJECT at the door"
    );
    let metrics = std::sync::Arc::clone(server.metrics());
    server.shutdown();
    assert_eq!(load(&metrics.rejected_overload), 1);
    assert_eq!(load(&metrics.accepted), 2);
    assert_eq!(load(&metrics.panics), 0);
}

fn load(c: &std::sync::atomic::AtomicU64) -> u64 {
    c.load(std::sync::atomic::Ordering::Relaxed)
}
