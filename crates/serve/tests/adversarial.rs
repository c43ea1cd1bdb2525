//! Protocol conformance battery: hostile and broken clients.
//!
//! Every scenario here is a way real networks abuse servers — truncated
//! frames, flipped bits, absurd length prefixes, unknown tags, half-open
//! peers, mid-frame disconnects, slow-loris writers. The server must (a)
//! never panic, (b) never treat a corrupt frame as valid, and (c) account
//! for every dropped connection in exactly one counter — the metrics
//! accounting identity at the bottom is the "no silent drops" pin.
//!
//! Clients are [`Conn`]s, writing malformed bytes with `send_raw`; only
//! the half-open peer and the write-then-vanish storm, whose bytes are
//! absent or cut short, hold a bare `TcpStream`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::{Close, CloseReason, RejectReason, SessionMsg};
use envirotrack_serve::client::{Closed, Conn, Phase};
use envirotrack_serve::{HubConfig, Server, ServerConfig, MAX_PENDING_WRITE};
use envirotrack_sim::time::SimDuration;

#[path = "support/conn.rs"]
mod support;
use support::{hello, next, next_event, open, subscribe, subscribed, RECV_TIMEOUT};

fn battery_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        max_sessions: 128,
        send_budget: 64,
        // Short so half-open and slow-loris connections are reaped within
        // the test, long enough that honest-but-slow frames get through.
        idle_timeout: Duration::from_millis(1500),
        hub: HubConfig {
            max_worlds: 2,
            tick_virtual: SimDuration::from_millis(500),
            tick_real: Duration::from_millis(1),
            ..HubConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Expects the server to answer CLOSE(ProtocolError) and drop the
/// connection.
fn expect_protocol_error_close(c: &mut Conn) {
    while let Some(msg) = c.poll() {
        assert!(
            matches!(
                msg,
                SessionMsg::Close(_) | SessionMsg::Event(_) | SessionMsg::SubAck(_)
            ),
            "expected CLOSE(ProtocolError), got {msg:?}"
        );
    }
    // The grace window may expire before our read; EOF is also a valid
    // way to learn the session died.
    assert!(
        matches!(
            c.phase(),
            Phase::Closed(Closed::ByServer(CloseReason::ProtocolError) | Closed::Eof)
        ),
        "expected CLOSE(ProtocolError), got {:?}",
        c.phase()
    );
}

fn connect(addr: std::net::SocketAddr) -> Conn {
    Conn::connect(addr, RECV_TIMEOUT).expect("connect")
}

/// Spins until `probe` returns true or the deadline passes.
fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn conformance_battery_accounts_for_every_drop() {
    let server = battery_server();
    let metrics = Arc::clone(server.metrics());
    let addr = server.addr();

    // --- 1. Corrupt CRC: flip one bit in a valid HELLO frame. ----------
    {
        let mut bytes = hello(32).encode().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut c = connect(addr);
        c.send_raw(&bytes);
        expect_protocol_error_close(&mut c);
    }
    wait_for("corrupt frame accounted", || load(&metrics.corrupt_frames) >= 1);

    // --- 2. Oversized length prefix: claims a 1 GiB body. --------------
    {
        let mut prefix = bytes::BytesMut::new();
        envirotrack_core::wire::varint::put_uvarint(&mut prefix, 1 << 30);
        let mut c = connect(addr);
        c.send_raw(&prefix.freeze());
        expect_protocol_error_close(&mut c);
    }
    wait_for("oversized frame accounted", || {
        load(&metrics.oversized_frames) >= 1
    });

    // --- 3. Unknown tag inside a CRC-valid frame. -----------------------
    {
        // Hand-build frame(body=[0x70]) — tag 112 does not exist — with a
        // correct CRC so only tag validation can reject it.
        let mut raw = bytes::BytesMut::new();
        envirotrack_core::wire::varint::put_uvarint(&mut raw, 1);
        bytes::BufMut::put_u8(&mut raw, 0x70);
        let crc = envirotrack_core::wire::crc::crc32(&raw);
        bytes::BufMut::put_slice(&mut raw, &crc.to_le_bytes());
        let mut c = connect(addr);
        c.send_raw(&raw.freeze());
        expect_protocol_error_close(&mut c);
    }

    // --- 4. Truncated frame then disconnect (mid-frame disconnect). ----
    {
        let bytes = hello(32).encode();
        let mut c = connect(addr);
        c.send_raw(&bytes[..bytes.len() / 2]);
        drop(c); // FIN mid-frame: must be a plain disconnect, not a panic
    }
    wait_for("mid-frame disconnect accounted", || {
        load(&metrics.disconnects) >= 1
    });

    // --- 5. Half-open connection: connect, send nothing, never close. ---
    // (Keep the socket alive past the idle timeout; the reaper must CLOSE
    // it and count an idle timeout.)
    let half_open = TcpStream::connect(addr).expect("half-open connect");
    wait_for("half-open reaped", || load(&metrics.idle_timeouts) >= 1);
    drop(half_open);

    // --- 6. Slow loris: a valid PING written one byte per 100 ms. -------
    // The frame completes long before the idle timeout (each byte resets
    // activity), so slow-but-honest clients survive; the test pins that
    // byte-at-a-time arrival neither panics nor desyncs the framer.
    {
        let mut c = open(addr);
        let ping = SessionMsg::Ping { nonce: 42 }.encode();
        for b in ping.iter() {
            c.send_raw(std::slice::from_ref(b));
            std::thread::sleep(Duration::from_millis(100));
        }
        match next(&mut c) {
            SessionMsg::Pong { nonce } => assert_eq!(nonce, 42),
            other => panic!("expected PONG, got {other:?}"),
        }
        c.send(&SessionMsg::Close(Close {
            reason: CloseReason::Normal,
        }));
    }

    // --- 7. State violation: SUBSCRIBE before HELLO. ---------------------
    // Raw: a `Conn` holds a SUBSCRIBE until ACCEPT.
    {
        let mut c = connect(addr);
        c.send_raw(&subscribe(1, 2).encode());
        expect_protocol_error_close(&mut c);
    }
    wait_for("state violation accounted", || {
        load(&metrics.state_violations) >= 1
    });

    // --- 8. Garbage firehose: 4 KiB of random-ish bytes. -----------------
    {
        let mut c = Conn::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let garbage: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(197) >> 3) as u8).collect();
        c.send_raw(&garbage); // server may RST mid-write; both fine
        // Drain whatever the server says until it hangs up.
        while c.poll().is_some() {}
    }

    // --- 9. PING flood, never reads. -------------------------------------
    // Every PING is owed a PONG. Once the peer's receive window and the
    // server's send buffer are full the PONGs have nowhere to go, and a
    // server that kept queuing them grew without limit; the replies share
    // the pending-write bound, so the session is shed instead.
    {
        let c = open(addr);
        let mut burst = Vec::new();
        for nonce in 0..64 * 1024 {
            SessionMsg::Ping { nonce }.encode_into(&mut burst);
        }
        let mut tx = c.stream().try_clone().expect("clone");
        let deadline = Instant::now() + Duration::from_secs(60);
        while load(&metrics.slow_consumer_sheds) == 0 {
            assert!(
                Instant::now() < deadline,
                "the flooder was never shed; a session holds {} bytes for its socket",
                load(&metrics.pending_write_peak)
            );
            // The server may have hung up on the shed session already.
            if tx.write_all(&burst).is_err() {
                break;
            }
        }
    }
    wait_for("flooder shed", || load(&metrics.slow_consumer_sheds) == 1);
    let peak = load(&metrics.pending_write_peak);
    assert!(
        peak <= MAX_PENDING_WRITE as u64 + 1024,
        "a session buffered {peak} bytes for its socket"
    );

    // --- The accounting identity: nothing dropped silently. -------------
    wait_for("all sessions terminal", || {
        load(&metrics.active_sessions) == 0
            && load(&metrics.connects)
                == load(&metrics.rejected_overload)
                    + load(&metrics.rejected_version)
                    + load(&metrics.rejected_bad_hello)
                    + metrics.terminal_total()
    });

    assert!(load(&metrics.protocol_errors) >= 4, "cases 1,2,3,7,8");
    assert_eq!(load(&metrics.panics), 0, "no worker or hub thread panicked");
    server.shutdown();
    assert_eq!(load(&metrics.panics), 0, "shutdown panicked nothing");
}

#[test]
fn zero_recv_budget_hello_is_a_bad_hello() {
    let server = battery_server();
    let mut c = connect(server.addr());
    c.send(&hello(0));
    next(&mut c);
    assert_eq!(
        c.phase(),
        &Phase::Closed(Closed::Rejected(RejectReason::BadHello)),
        "a zero-budget session can never receive anything"
    );
    let metrics = Arc::clone(server.metrics());
    server.shutdown();
    assert_eq!(load(&metrics.rejected_bad_hello), 1);
    assert_eq!(load(&metrics.panics), 0);
}

#[test]
fn write_then_vanish_storm_never_panics() {
    // 32 connections that each write a random prefix of a valid frame and
    // vanish immediately — the nastiest sequencing for read/EOF races.
    let server = battery_server();
    let metrics = Arc::clone(server.metrics());
    let bytes = hello(32).encode();
    for i in 0..32usize {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let cut = i % (bytes.len() + 1);
        let _ = s.write_all(&bytes[..cut]);
        drop(s);
    }
    wait_for("all vanished sessions accounted", || {
        load(&metrics.connects) == 32
            && load(&metrics.active_sessions) == 0
            && load(&metrics.connects)
                == load(&metrics.rejected_overload)
                    + load(&metrics.rejected_version)
                    + load(&metrics.rejected_bad_hello)
                    + metrics.terminal_total()
    });
    server.shutdown();
    assert_eq!(load(&metrics.panics), 0);
}

#[test]
fn ping_firehose_does_not_freeze_the_worker_s_other_session() {
    // One worker, two sessions: a subscriber, and a peer that writes valid
    // PINGs as fast as loopback takes them. The worker reads a bounded
    // amount per pass and carves it in linear time, so the subscriber's
    // events keep coming; reading the firehose until the socket ran dry,
    // and carving each frame with a move of the whole backlog, froze them
    // for seconds.
    let server = Server::start(ServerConfig {
        workers: 1,
        max_sessions: 8,
        send_budget: 4096,
        idle_timeout: Duration::from_secs(30),
        hub: HubConfig {
            max_worlds: 1,
            tick_virtual: SimDuration::from_millis(500),
            tick_real: Duration::from_millis(2),
            ..HubConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let metrics = Arc::clone(server.metrics());

    let mut subscriber = subscribed(server.addr(), 1, 2);
    next_event(&mut subscriber);

    let hose = open(server.addr());
    const BURST_PINGS: u64 = 128 * 1024;
    const BURSTS: u64 = 8;
    let mut burst = Vec::new();
    for nonce in 0..BURST_PINGS {
        SessionMsg::Ping { nonce }.encode_into(&mut burst);
    }
    let pings = BURSTS * BURST_PINGS;
    let mut tx = hose.stream().try_clone().expect("clone");
    let mut rx = hose.stream().try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        for _ in 0..BURSTS {
            tx.write_all(&burst).expect("firehose write");
        }
    });
    // The PONGs are read and dropped, as fast as they come.
    let reader = std::thread::spawn(move || {
        let mut sink = [0u8; 64 * 1024];
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
    });

    let mut max_gap = Duration::ZERO;
    let mut events = 0u64;
    while !writer.is_finished() || load(&metrics.pings) < pings {
        let before = Instant::now();
        next_event(&mut subscriber);
        max_gap = max_gap.max(before.elapsed());
        events += 1;
    }
    writer.join().expect("writer");
    assert_eq!(load(&metrics.pings), pings, "every PING was answered");
    assert!(events >= 20, "only {events} events during the firehose");
    assert!(
        max_gap < Duration::from_secs(1),
        "the subscriber waited {max_gap:?} for an event behind the firehose"
    );
    assert_eq!(load(&metrics.slow_consumer_sheds), 0);
    assert_eq!(
        subscriber.sub(1).expect("subscribed").gaps,
        0,
        "the subscriber's stream skipped a sequence number"
    );

    // The reader's clone keeps the socket open: shut it down, not just drop.
    hose.stream()
        .shutdown(std::net::Shutdown::Both)
        .expect("shutdown");
    reader.join().expect("reader");
    drop(subscriber);
    wait_for("both sessions terminal", || {
        load(&metrics.active_sessions) == 0
            && load(&metrics.connects)
                == load(&metrics.rejected_overload)
                    + load(&metrics.rejected_version)
                    + load(&metrics.rejected_bad_hello)
                    + metrics.terminal_total()
    });
    server.shutdown();
    assert_eq!(load(&metrics.panics), 0);
}
