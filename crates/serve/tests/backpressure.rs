//! Backpressure under a stalled consumer.
//!
//! One client subscribes and then never reads its socket while N fast
//! clients stream normally. The pinned behaviour:
//!
//! * the stalled client is **shed** (outbox overflow → CLOSE(SlowConsumer)
//!   accounted in `slow_consumer_sheds`, drops in `events_dropped`),
//! * the fast clients keep receiving events with bounded gaps — the
//!   shared simulation never stops producing for them,
//! * the hub thread never blocks on the stalled session (pinned by the
//!   fast clients' continued progress *while* the staller is still
//!   connected, and by `panics == 0`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::wire::session::{Hello, SessionMsg, Subscribe, CAP_ALL, SESSION_VERSION};
use envirotrack_serve::worlds::SCENARIO_TESTBED;
use envirotrack_serve::{Client, HubConfig, Server, ServerConfig};
use envirotrack_sim::time::SimDuration;

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

#[test]
fn stalled_client_is_shed_while_fast_clients_stream() {
    let server = Server::start(ServerConfig {
        workers: 2,
        max_sessions: 64,
        // A generous budget every session can hold while its socket
        // drains: an actively-read connection never accumulates anywhere
        // near this, so only a genuinely stalled consumer overflows.
        send_budget: 1024,
        idle_timeout: Duration::from_secs(30),
        hub: HubConfig {
            max_worlds: 1,
            // High event rate: ~1000x real time with a 50 ms virtual
            // sampling interval → thousands of events per wall second,
            // enough to overrun the kernel's socket-buffer slack (a few
            // hundred KiB) plus the 1024-frame budget within seconds once
            // a consumer stops reading.
            tick_virtual: SimDuration::from_millis(1000),
            tick_real: Duration::from_millis(1),
            sample_virtual: SimDuration::from_millis(50),
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let metrics = Arc::clone(server.metrics());
    let timeout = Some(Duration::from_secs(30));

    // The staller: handshake, subscribe, then never read again.
    let mut staller = Client::connect(server.addr(), timeout).expect("staller connect");
    staller
        .send(&SessionMsg::Hello(Hello {
            version: SESSION_VERSION,
            caps: CAP_ALL,
            recv_budget: 1024,
        }))
        .expect("staller hello");
    match staller.recv().expect("staller accept") {
        SessionMsg::Accept(_) => {}
        other => panic!("expected ACCEPT, got {other:?}"),
    }
    let ack = staller
        .subscribe(Subscribe {
            query_id: 99,
            scenario: SCENARIO_TESTBED,
            seed: 7,
            type_id: ContextTypeId(0),
        })
        .expect("staller subscribe");
    assert!(ack.accepted);
    // From here on the staller's socket is never read: its 1024-frame
    // outbox plus MAX_PENDING_WRITE plus the kernel buffers are all the
    // slack it gets.

    // Three fast clients on the same world.
    let mut fast: Vec<Client> = (0..3)
        .map(|i| {
            let mut c = Client::open(server.addr(), timeout).expect("fast connect");
            let ack = c
                .subscribe(Subscribe {
                    query_id: i,
                    scenario: SCENARIO_TESTBED,
                    seed: 7,
                    type_id: ContextTypeId(0),
                })
                .expect("fast subscribe");
            assert!(ack.accepted);
            c
        })
        .collect();

    // Fast clients must keep streaming with bounded inter-event latency
    // WHILE the staller is connected-but-frozen, and the shed must fire.
    let mut per_client_events = [0u64; 3];
    let mut max_gap = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut shed_seen = false;
    'outer: loop {
        for (i, c) in fast.iter_mut().enumerate() {
            let before = Instant::now();
            let e = c.next_event().expect("fast client event stream");
            max_gap = max_gap.max(before.elapsed());
            assert_eq!(e.query_id, u32::try_from(i).expect("small index"));
            per_client_events[i] += 1;
        }
        if !shed_seen && load(&metrics.slow_consumer_sheds) >= 1 {
            shed_seen = true;
        }
        // Stop once everyone has a healthy stream AND the shed happened.
        if shed_seen && per_client_events.iter().all(|&n| n >= 20) {
            break 'outer;
        }
        assert!(
            Instant::now() < deadline,
            "timed out: events={per_client_events:?} shed={shed_seen}"
        );
    }

    // Latency bound: with a tick due every 1 ms of wall clock and twenty
    // event batches (one per 50 ms sample) in each, a fast client should
    // never wait anywhere near this long for its next event.
    // The generous bound keeps the test robust on loaded CI machines while
    // still catching a hub that blocks on the stalled socket (which would
    // freeze everyone for the full run).
    assert!(
        max_gap < Duration::from_secs(10),
        "fast client starved for {max_gap:?} — the stalled session is blocking the pipeline"
    );

    // The shed is pinned in the counters, not just observed behaviour.
    assert!(load(&metrics.slow_consumer_sheds) >= 1, "staller was shed");
    assert!(
        load(&metrics.events_dropped) >= 1,
        "the staller's overflow drops are accounted"
    );
    assert_eq!(load(&metrics.panics), 0, "hub and workers survived");

    // The fast majority saw real throughput.
    assert!(per_client_events.iter().all(|&n| n >= 20));

    drop(staller);
    drop(fast);
    server.shutdown();
    assert_eq!(load(&metrics.panics), 0);
}
