//! Micro-benchmarks for the protocol-level data structures: the operations
//! every node performs per message or per timer tick. These bound the
//! simulator's throughput and sanity-check that the hot paths stay
//! allocation-light.
//!
//! Plain `harness = false` binary over the in-tree timing loop
//! ([`envirotrack_bench::harness::measure`]); run with `cargo bench`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use envirotrack_bench::harness::{format_ns, measure};
use envirotrack_core::aggregate::{AggregateFn, ReadingValue, ReadingWindow};
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::{LeaderLoc, MtpState};
use envirotrack_core::wire::{Heartbeat, Message, Report};
use envirotrack_net::medium::{Medium, RadioConfig, Transmission};
use envirotrack_net::packet::Frame;
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::scenario::ScaleScenario;
use envirotrack_world::sensing::Coverage;

fn label() -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(0),
        creator: NodeId(7),
        seq: 3,
    }
}

fn heartbeat() -> Message {
    Message::Heartbeat(Heartbeat {
        label: label(),
        leader: NodeId(7),
        leader_pos: Point::new(3.5, 0.5),
        weight: 41,
        hb_seq: 1000,
        ttl: 1,
        state: None,
    })
}

fn report() -> Message {
    Message::Report(Report {
        label: label(),
        member: NodeId(9),
        taken_at: Timestamp::from_secs(12),
        values: vec![
            (0, ReadingValue::Position(Point::new(3.0, 0.5))),
            (1, ReadingValue::Scalar(199.5)),
        ],
    })
}

fn bench_wire(out: &mut Vec<String>) {
    let hb = heartbeat();
    let rp = report();
    out.push(measure("wire/encode_heartbeat", || black_box(&hb).encode()).report());
    out.push(measure("wire/encode_report", || black_box(&rp).encode()).report());
    let hb_bytes = hb.encode();
    let rp_bytes = rp.encode();
    out.push(
        measure("wire/decode_heartbeat", || {
            Message::decode(black_box(&hb_bytes)).unwrap()
        })
        .report(),
    );
    out.push(
        measure("wire/decode_report", || {
            Message::decode(black_box(&rp_bytes)).unwrap()
        })
        .report(),
    );
}

fn bench_window(out: &mut Vec<String>) {
    out.push(
        measure("aggregate_window/insert_evaluate_8_members", || {
            let mut w = ReadingWindow::new();
            for i in 0..8u32 {
                w.insert(
                    NodeId(i),
                    Timestamp::from_millis(900 + u64::from(i)),
                    ReadingValue::Position(Point::new(f64::from(i), 0.5)),
                );
            }
            w.evaluate(
                &AggregateFn::CenterOfGravity,
                Timestamp::from_secs(1),
                SimDuration::from_secs(1),
                2,
            )
        })
        .report(),
    );
}

fn bench_lru(out: &mut Vec<String>) {
    let mut mtp = MtpState::default();
    let labels: Vec<ContextLabel> = (0..16u32)
        .map(|i| ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(i),
            seq: 0,
        })
        .collect();
    let mut i = 0usize;
    out.push(
        measure("mtp_lru/insert_get_cycle", || {
            let l = labels[i % labels.len()];
            mtp.learn(
                l,
                LeaderLoc {
                    node: l.creator,
                    pos: Point::ORIGIN,
                },
            );
            let got = mtp.lookup(labels[(i / 2) % labels.len()]);
            i += 1;
            black_box(got)
        })
        .report(),
    );
}

fn bench_queue(out: &mut Vec<String>) {
    out.push(
        measure("event_queue/push_pop_1k", || {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(Timestamp::from_micros((i * 7919) % 5000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
        .report(),
    );
    // The hold model a sensing loop is: `depth` events spread over one
    // period; pop the earliest and push it back one period later. `heap`
    // sifts it through the binary heap, `recurring` appends it to the lane.
    const PERIOD: SimDuration = SimDuration::from_millis(200);
    for (name, depth) in [("1k", 1_000u64), ("20k", 20_000), ("100k", 100_000)] {
        for (path, push) in [
            (
                "heap",
                EventQueue::push as fn(&mut EventQueue<u64>, Timestamp, u64),
            ),
            ("recurring", EventQueue::push_recurring),
        ] {
            let mut q = EventQueue::new();
            for i in 0..depth {
                push(
                    &mut q,
                    Timestamp::from_micros(i * PERIOD.as_micros() / depth),
                    i,
                );
            }
            out.push(
                measure(&format!("event_queue/hold_{name}/{path}"), || {
                    let (at, id) = q.pop().expect("the queue stays at depth");
                    push(&mut q, at + PERIOD, id);
                    id
                })
                .report(),
            );
        }
    }
}

fn bench_routing(out: &mut Vec<String>) {
    let field = Deployment::grid(20, 20, 1.0);
    let router = GeoRouter::new(&field, 1.5);
    out.push(
        measure("geo_routing/route_corner_to_corner_20x20", || {
            router
                .route(black_box(NodeId(0)), Point::new(19.0, 19.0))
                .unwrap()
        })
        .report(),
    );
    out.push(
        measure("geo_routing/next_hop", || {
            router.next_hop(black_box(NodeId(0)), Point::new(19.0, 19.0))
        })
        .report(),
    );
}

/// One 20-neighbour broadcast on a channel that has just carried `backlog`
/// other frames: the transmit call and the receiver walk, timed separately.
/// Every sample builds its own medium (untimed), so the state under the
/// clock is the same each time: a warm-up broadcast from the same sender,
/// then `backlog` frames spread evenly over 1.2 s, every one finished and
/// walked before the probe goes out at 1.25 s. The backlog comes from 32
/// nodes far from the probe and from each other, so it defers nobody and
/// collides with nothing. What it costs is what the medium still holds.
fn bench_medium_backlog(out: &mut Vec<String>) {
    const SAMPLES: usize = 200;
    // A 5x5 cluster whose centre (node 12) hears 20 nodes within 2.3, then
    // the far nodes 10 apart.
    let cluster = (0..25).map(|i| Point::new(f64::from(i % 5), f64::from(i / 5)));
    let far = (0..32).map(|j| Point::new(100.0 + 10.0 * f64::from(j), 100.0));
    let field = Deployment::from_positions(cluster.chain(far).collect());
    let cfg = RadioConfig::default().with_comm_radius(2.3);
    let (kind, payload) = (heartbeat().kind(), heartbeat().encode());
    let frame = |src: u32| Frame::broadcast(NodeId(src), kind, payload.clone());
    for backlog in [0u64, 64, 512, 4096] {
        let (mut tx_ns, mut rx_ns) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            let mut medium = Medium::new(&field, cfg.clone(), &SimRng::seed_from(1));
            let mut pending: VecDeque<Transmission> = VecDeque::new();
            let walk_due = |medium: &mut Medium, pending: &mut VecDeque<Transmission>, now| {
                while pending.front().is_some_and(|tx| tx.completes_at <= now) {
                    let report = medium.deliveries(pending.pop_front().expect("checked").id);
                    medium.recycle(report);
                }
            };
            pending.push_back(medium.transmit(Timestamp::ZERO, frame(12)).expect("idle"));
            for i in 0..backlog {
                let now = Timestamp::from_micros(10_000 + i * 1_200_000 / backlog);
                walk_due(&mut medium, &mut pending, now);
                let src = 25 + (i % 32) as u32;
                pending.push_back(medium.transmit(now, frame(src)).expect("no one in range"));
            }
            let now = Timestamp::from_millis(1_250);
            walk_due(&mut medium, &mut pending, now);
            assert!(
                pending.is_empty(),
                "the backlog must be finished before the probe"
            );
            let probe = black_box(frame(12));
            let t0 = Instant::now();
            let tx = medium.transmit(now, probe);
            let t1 = Instant::now();
            let report = medium.deliveries(tx.expect("idle").id);
            let t2 = Instant::now();
            assert_eq!(report.outcomes.len(), 20);
            black_box(report);
            tx_ns.push((t1 - t0).as_nanos() as f64);
            rx_ns.push((t2 - t1).as_nanos() as f64);
        }
        for (what, mut ns) in [("transmit", tx_ns), ("deliveries", rx_ns)] {
            ns.sort_by(f64::total_cmp);
            out.push(format!(
                "{:<44} {} /call   (median of {SAMPLES} states, min {}, max {})",
                format!("medium/{what}_backlog_{backlog}"),
                format_ns(ns[SAMPLES / 2]),
                format_ns(ns[0]).trim_start(),
                format_ns(ns[SAMPLES - 1]).trim_start(),
            ));
        }
    }
}

/// The sample an idle sensing tick takes, on `field_sparse`'s field: 20k
/// nodes, 4 or 12 disk targets crossing at one hop a second, the whole
/// field sampled once per 200 ms sensing period in a scattered order.
/// `walk` is `sample_noisy`, which asks every target where it is;
/// `covered` is the entry the tick calls, which asks the coverage first.
fn bench_idle_tick(out: &mut Vec<String>) {
    const PERIOD: SimDuration = SimDuration::from_millis(200);
    for targets in [4u32, 12] {
        let scenario = ScaleScenario {
            nodes: 20_000,
            targets,
            speed_hops_per_s: 1.0,
            ..ScaleScenario::default()
        }
        .build();
        let (env, field) = (scenario.environment, scenario.deployment);
        let positions = field.positions();
        // Round `i / n` of the field, at node `7919 i mod n`; 100 s a lap.
        let tick = |i: u64| {
            let n = positions.len() as u64;
            let t = Timestamp::ZERO + PERIOD * (i / n % 500);
            ((i * 7919 % n) as usize, t)
        };
        let mut rng = SimRng::seed_from(1);
        let mut i = 0u64;
        out.push(
            measure(&format!("sensing/idle_tick_t{targets}/walk"), || {
                let (node, t) = tick(i);
                i += 1;
                env.sample_noisy(positions[node], t, &mut rng)
            })
            .report(),
        );
        let mut coverage = Coverage::new(field.bounds(), field.len(), PERIOD);
        // Each node's cell, as its hot record keeps it.
        let cells: Vec<u32> = positions.iter().map(|&p| coverage.cell_index(p)).collect();
        let mut i = 0u64;
        out.push(
            measure(&format!("sensing/idle_tick_t{targets}/covered"), || {
                let (node, t) = tick(i);
                i += 1;
                env.sample_covered(&mut coverage, cells[node], positions[node], t, &mut rng)
            })
            .report(),
        );
        let mut work = Work::default();
        coverage.work(&mut work);
        out.push(format!(
            "{:<44} {} answered, {} walked, {} rebuilds",
            format!("sensing/idle_tick_t{targets}/covered work"),
            work.get("samples_covered"),
            work.get("samples_walked"),
            work.get("coverage_rebuilds")
        ));
    }
}

fn bench_payload_sizes(out: &mut Vec<String>) {
    // Not a speed benchmark: documents frame costs stay stable.
    let cfg = envirotrack_net::medium::RadioConfig::default();
    let frame = envirotrack_net::packet::Frame::broadcast(
        NodeId(0),
        heartbeat().kind(),
        heartbeat().encode(),
    );
    out.push(
        measure("frame_airtime/tx_time_heartbeat", || {
            cfg.tx_time(black_box(&frame))
        })
        .report(),
    );
}

fn main() {
    let mut out = Vec::new();
    bench_wire(&mut out);
    bench_window(&mut out);
    bench_lru(&mut out);
    bench_queue(&mut out);
    bench_routing(&mut out);
    bench_medium_backlog(&mut out);
    bench_idle_tick(&mut out);
    bench_payload_sizes(&mut out);
    println!("protocol micro-benchmarks");
    println!("-------------------------");
    for line in out {
        println!("{line}");
    }
}
