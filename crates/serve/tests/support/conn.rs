//! Blocking-use helpers over [`Conn`] for the serve suites, which each
//! include this file as a module.

use std::net::SocketAddr;
use std::time::Duration;

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::wire::session::{
    Hello, SessionMsg, Subscribe, TrackEvent, CAP_ALL, SESSION_VERSION,
};
use envirotrack_serve::client::Conn;
use envirotrack_serve::worlds::SCENARIO_TESTBED;

pub const RECV_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

pub fn hello(recv_budget: u32) -> SessionMsg {
    SessionMsg::Hello(Hello {
        version: SESSION_VERSION,
        caps: CAP_ALL,
        recv_budget,
    })
}

pub fn subscribe(query_id: u32, seed: u64) -> SessionMsg {
    SessionMsg::Subscribe(Subscribe {
        query_id,
        scenario: SCENARIO_TESTBED,
        seed,
        type_id: ContextTypeId(0),
    })
}

/// The next frame, which must come before the read timeout or the end of
/// the stream.
pub fn next(c: &mut Conn) -> SessionMsg {
    c.poll()
        .unwrap_or_else(|| panic!("no frame arrived: {:?}", c.phase()))
}

/// A blocking session the server accepted.
pub fn open(addr: SocketAddr) -> Conn {
    let mut c = Conn::connect(addr, RECV_TIMEOUT).expect("connect");
    c.send(&hello(1024));
    match next(&mut c) {
        SessionMsg::Accept(_) => c,
        other => panic!("expected ACCEPT, got {other:?}"),
    }
}

/// An accepted session with one admitted subscription, `query_id` to the
/// testbed world of `seed`.
pub fn subscribed(addr: SocketAddr, query_id: u32, seed: u64) -> Conn {
    let mut c = open(addr);
    c.send(&subscribe(query_id, seed));
    match next(&mut c) {
        SessionMsg::SubAck(a) => assert!(a.accepted && a.query_id == query_id, "{a:?}"),
        other => panic!("expected SUBACK, got {other:?}"),
    }
    c
}

/// The next tracking event, skipping other frames.
pub fn next_event(c: &mut Conn) -> TrackEvent {
    loop {
        if let SessionMsg::Event(e) = next(c) {
            return e;
        }
    }
}
