//! Layer probes: each drives one layer's public API in isolation and
//! reports its unit cost. Inputs are shaped by the workload being traced —
//! its deployment, its target count, its frame mix weighted by the
//! per-kind transmit counts of the traced rep — so a probe prices the
//! operation as that workload performs it.
//!
//! Every probe measures from outside. The few that time single calls with
//! `Instant` include the clock's own ~25 ns per reading; that is stated
//! here rather than subtracted.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::api::Program;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::wire::session::{SessionMsg, TrackEvent};
use envirotrack_core::wire::{
    crc, kinds, BaseReport, DirRegister, GeoForward, Heartbeat, Message, MtpAck, Relinquish, Report,
};
use envirotrack_lang::compile::compile_source;
use envirotrack_net::medium::{ChannelScheduler, Medium, NetStats};
use envirotrack_net::packet::Frame;
use envirotrack_net::routing::GeoRouter;
use envirotrack_serve::worlds::{
    HubCommand, HubConfig, Outbox, SimHub, SubscribeReq, SCENARIO_TESTBED,
};
use envirotrack_serve::{FrameReader, ServeMetrics};
use envirotrack_sim::engine::{Engine, Kernel};
use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::{neighbor_lists_with, NeighborStrategy};
use envirotrack_world::scenario::ScaleScenario;
use envirotrack_world::sensing::Environment;

use crate::output::Metrics;
use crate::spec::Sizes;
use crate::stats::{median, ns_per_call};
use crate::trace::Tracer;

/// The paper's Figure-2 tracking program, as source text for `lang`.
pub const FIGURE_2: &str = r#"
    begin context tracker
      activation: magnetic_sensor_reading()
      location : avg(position) confidence=2, freshness=1s
      begin object reporter
        invocation: TIMER(5s)
        report_function() {
          MySend(pursuer, self:label, location);
        }
      end
    end context
"#;

/// Compiles [`FIGURE_2`]; every workload runs this program.
pub fn figure_2_program() -> Arc<Program> {
    Arc::new(compile_source(FIGURE_2).expect("the Figure-2 source compiles"))
}

/// What the traced workload's finished world hands the probes.
struct ProbeInputs<'a> {
    deployment: &'a Deployment,
    environment: &'a Environment,
    config: &'a NetworkConfig,
    program: &'a Arc<Program>,
    /// Channel statistics of the traced rep: the frame mix.
    net_stats: &'a NetStats,
    seed: u64,
}

fn label(creator: u32) -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(0),
        creator: NodeId(creator),
        seq: 1,
    }
}

fn heartbeat(leader: NodeId, pos: Point, hb_seq: u32) -> Message {
    Message::Heartbeat(Heartbeat {
        label: label(leader.0),
        leader,
        leader_pos: pos,
        weight: 17,
        hb_seq,
        // No flood forwarding: the probe prices one hop's handler.
        ttl: 0,
        state: None,
    })
}

/// One representative message per frame kind the middleware transmits.
fn message_of_kind(kind: u8, node: NodeId, pos: Point) -> Option<Message> {
    let base = || {
        Message::Base(BaseReport {
            label: label(node.0),
            generated_at: Timestamp::from_secs(5),
            payload: envirotrack_core::object::payload::position(pos),
        })
    };
    Some(match envirotrack_net::packet::FrameKind(kind) {
        kinds::HEARTBEAT => heartbeat(node, pos, 42),
        kinds::REPORT => Message::Report(Report {
            label: label(node.0),
            member: node,
            taken_at: Timestamp::from_secs(5),
            values: vec![(0, ReadingValue::Position(pos))],
        }),
        kinds::RELINQUISH => Message::Relinquish(Relinquish {
            label: label(node.0),
            from: node,
            weight: 17,
            successor: Some(NodeId(node.0 + 1)),
            state: None,
        }),
        kinds::DIRECTORY => Message::DirRegister(DirRegister {
            label: label(node.0),
            location: pos,
        }),
        kinds::BASE_REPORT => base(),
        kinds::GEO_FORWARD => Message::Geo(GeoForward {
            dest: Point::new(0.0, 0.0),
            deliver_to: Some(NodeId(0)),
            inner: Box::new(base()),
        }),
        kinds::MTP_ACK => Message::MtpAckMsg(MtpAck {
            dst_label: label(node.0),
            src_node: node,
            seq: 7,
            acker: node,
            acker_pos: pos,
        }),
        // Link acks carry a raw sequence number, no `Message`; MTP and
        // directory sync do not occur in the tracking program's traffic.
        _ => return None,
    })
}

/// A 64-message corpus whose kind shares follow the workload's per-kind
/// transmit counts (all heartbeats when the traced rep sent nothing).
fn message_corpus(inputs: &ProbeInputs<'_>) -> Vec<Message> {
    const CORPUS: usize = 64;
    let positions = inputs.deployment.positions();
    let at = |i: usize| {
        let idx = (i * 7919) % positions.len();
        (NodeId(idx as u32), positions[idx])
    };
    let weighted: Vec<(u8, u64)> = inputs
        .net_stats
        .per_kind
        .iter()
        .filter(|(k, s)| {
            s.tx > 0 && message_of_kind(**k, NodeId(0), Point::new(0.0, 0.0)).is_some()
        })
        .map(|(k, s)| (*k, s.tx))
        .collect();
    let total: u64 = weighted.iter().map(|(_, tx)| tx).sum();
    let mut corpus = Vec::with_capacity(CORPUS);
    for (kind, tx) in &weighted {
        let share = ((*tx as f64 / total as f64) * CORPUS as f64).round() as usize;
        for _ in 0..share.max(1) {
            let (node, pos) = at(corpus.len());
            corpus.extend(message_of_kind(*kind, node, pos));
        }
    }
    while corpus.len() < CORPUS {
        let (node, pos) = at(corpus.len());
        corpus.push(heartbeat(node, pos, corpus.len() as u32));
    }
    corpus
}

/// The EVENT frame a served subscription receives.
fn track_event() -> SessionMsg {
    SessionMsg::Event(TrackEvent {
        query_id: 1_000,
        seq: 123_456,
        at: Timestamp::from_micros(17_200_000),
        label: label(9),
        pos: Point::new(4.0, 1.0),
    })
}

fn frame_of(msg: &Message, src: NodeId) -> Frame {
    Frame::broadcast(src, msg.kind(), msg.encode())
}

fn budget(sizes: &Sizes) -> Duration {
    Duration::from_millis(sizes.probe_ms)
}

// ---------------------------------------------------------------- sim

/// Hold-model cost of one pop + push on an [`EventQueue`] resident at
/// `depth` items.
fn queue_push_pop_ns(depth: usize, sizes: &Sizes) -> f64 {
    let mut rng = SimRng::seed_from(depth as u64);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        q.push(Timestamp::from_micros(rng.below(200_000)), i as u64);
    }
    ns_per_call(4096, budget(sizes), || {
        let (at, item) = q.pop().expect("the queue stays at depth");
        q.push(at + SimDuration::from_micros(1 + rng.below(200_000)), item);
    })
}

fn queue_cancel_ns(sizes: &Sizes) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..2_500u64 {
        q.push(Timestamp::from_micros(i * 80), i);
    }
    let mut n = 0u64;
    ns_per_call(4096, budget(sizes), || {
        n += 1;
        let key = q.push_keyed(Timestamp::from_micros(n % 200_000), n);
        std::hint::black_box(q.cancel(key));
    })
}

const TICK: SimDuration = SimDuration::from_millis(200);

fn tick(world: &mut u64, k: &mut Kernel<u64>, id: u32) {
    *world += u64::from(id & 1);
    k.schedule_in(TICK, move |w: &mut u64, k: &mut Kernel<u64>| tick(w, k, id));
}

/// One `Engine::step` over a unit world holding `depth` self-rescheduling
/// closures (each captures a node id, like the real sense ticks).
fn engine_dispatch_ns(depth: usize, sizes: &Sizes) -> f64 {
    let mut engine = Engine::new(0u64, 1);
    let mut rng = SimRng::seed_from(7);
    for id in 0..depth as u32 {
        let at = Timestamp::from_micros(rng.below(200_000));
        engine
            .kernel_mut()
            .schedule_at(at, move |w: &mut u64, k: &mut Kernel<u64>| tick(w, k, id));
    }
    ns_per_call(4096, budget(sizes), || {
        std::hint::black_box(engine.step());
    })
}

// -------------------------------------------------------------- world

fn grid_build_ms(inputs: &ProbeInputs<'_>) -> f64 {
    let radius = inputs.config.radio.comm_radius;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(neighbor_lists_with(
                inputs.deployment,
                radius,
                NeighborStrategy::Grid,
            ));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `Environment::sample` at the workload's node positions with `targets`
/// targets crossing (it is O(targets) per sense tick).
fn sensing_sample_ns(inputs: &ProbeInputs<'_>, targets: u32, sizes: &Sizes) -> f64 {
    let sensing_radius = inputs
        .environment
        .targets()
        .first()
        .and_then(|t| t.detection_radius(envirotrack_world::target::Channel::Magnetic, 0.5))
        .unwrap_or(1.0);
    let env = ScaleScenario {
        nodes: inputs.deployment.len() as u32,
        targets,
        speed_hops_per_s: 1.0,
        sensing_radius,
        seed: inputs.seed,
        ..ScaleScenario::default()
    }
    .build()
    .environment;
    let positions = inputs.deployment.positions();
    let mut i = 0usize;
    ns_per_call(4096, budget(sizes), || {
        i = (i + 7919) % positions.len();
        let t = Timestamp::from_micros((i as u64 % 50) * 200_000);
        std::hint::black_box(env.sample(positions[i], t));
    })
}

// ---------------------------------------------------------------- net

/// Virtual spacing between probe transmissions: far beyond any airtime,
/// so every frame finds an idle channel (no CSMA deferral is priced in).
const TX_SPACING: SimDuration = SimDuration::from_millis(50);

struct MediumCosts {
    transmit_ns: f64,
    deliveries_ns: f64,
    deliveries_ns_per_rx: f64,
    outcome_buffer_allocs: f64,
}

fn medium_costs(inputs: &ProbeInputs<'_>, frames: &[Frame], sizes: &Sizes) -> MediumCosts {
    let rng = SimRng::seed_from(inputs.seed);
    let mut medium = Medium::new(inputs.deployment, inputs.config.radio.clone(), &rng);
    let deadline = Instant::now() + budget(sizes) * 2;
    let mut now = Timestamp::ZERO;
    let (mut tx_ns, mut rx_ns) = (Vec::new(), Vec::new());
    let mut outcomes = 0u64;
    let mut i = 0usize;
    while tx_ns.len() < 64 || Instant::now() < deadline {
        let frame = frames[i % frames.len()].clone();
        i += 1;
        now += TX_SPACING;
        let t0 = Instant::now();
        let tx = medium.transmit(now, frame);
        let t1 = Instant::now();
        let tx = tx.expect("an idle channel admits every probe frame");
        let t2 = Instant::now();
        let report = medium.deliveries(tx.id);
        let t3 = Instant::now();
        outcomes += report.outcomes.len() as u64;
        medium.recycle(report);
        tx_ns.push((t1 - t0).as_nanos() as f64);
        rx_ns.push((t3 - t2).as_nanos() as f64);
    }
    let deliveries_total: f64 = rx_ns.iter().sum();
    MediumCosts {
        transmit_ns: median(&tx_ns),
        deliveries_ns: median(&rx_ns),
        deliveries_ns_per_rx: deliveries_total / outcomes.max(1) as f64,
        outcome_buffer_allocs: medium.outcome_buffer_allocs() as f64,
    }
}

/// `(resolve_ns, exec_deliveries_ns)`: the sharded channel path —
/// `ChannelScheduler::resolve`, then `ingest_resolved` + `exec_deliveries`
/// on an executor-mode medium that owns every node.
fn sharded_medium_costs(inputs: &ProbeInputs<'_>, frames: &[Frame], sizes: &Sizes) -> (f64, f64) {
    let rng = SimRng::seed_from(inputs.seed);
    let mut scheduler = ChannelScheduler::new(
        inputs.deployment,
        inputs.config.radio.clone(),
        &rng.fork("shard-scheduler"),
    );
    let mut medium = Medium::new(inputs.deployment, inputs.config.radio.clone(), &rng);
    medium.enable_shard_exec(vec![true; inputs.deployment.len()]);
    let deadline = Instant::now() + budget(sizes) * 2;
    let mut now = Timestamp::ZERO;
    let (mut resolve_ns, mut exec_ns) = (Vec::new(), Vec::new());
    let mut delivered: HashSet<(u32, u64)> = HashSet::new();
    let mut seq = 0u64;
    while resolve_ns.len() < 64 || Instant::now() < deadline {
        let frame = frames[seq as usize % frames.len()].clone();
        seq += 1;
        now += TX_SPACING;
        let t0 = Instant::now();
        let rtx = scheduler.resolve(now, seq, frame);
        let t1 = Instant::now();
        let rtx = rtx.expect("an idle channel admits every probe frame");
        let t2 = Instant::now();
        let (local, _) = medium.ingest_resolved(rtx);
        let report = medium.exec_deliveries(local);
        let t3 = Instant::now();
        medium.recycle(report);
        resolve_ns.push((t1 - t0).as_nanos() as f64);
        exec_ns.push((t3 - t2).as_nanos() as f64);
        if seq.is_multiple_of(256) {
            // Keep the scheduler's pending-loss list and the executor's
            // delivered-key buffer bounded, as every epoch barrier does.
            delivered.extend(medium.drain_delivered_keys());
            for key in scheduler.finalize_lost(now, &delivered) {
                delivered.remove(&key);
            }
        }
    }
    (median(&resolve_ns), median(&exec_ns))
}

fn next_hop_ns(inputs: &ProbeInputs<'_>, sizes: &Sizes) -> f64 {
    let router = GeoRouter::new(inputs.deployment, inputs.config.radio.comm_radius);
    let positions = inputs.deployment.positions();
    let mut i = 0usize;
    ns_per_call(1024, budget(sizes), || {
        i = (i + 7919) % positions.len();
        let dest = positions[(i * 31) % positions.len()];
        std::hint::black_box(router.next_hop(NodeId(i as u32), dest));
    })
}

// ---------------------------------------------------------- core.wire

fn wire_costs(corpus: &[Message], sizes: &Sizes, out: &mut Metrics) {
    let mut i = 0usize;
    out.set(
        "core.wire.encode_ns",
        ns_per_call(1024, budget(sizes), || {
            i = (i + 1) % corpus.len();
            std::hint::black_box(corpus[i].encode());
        }),
    );
    let encoded: Vec<Bytes> = corpus.iter().map(Message::encode).collect();
    out.set(
        "core.wire.decode_ns",
        ns_per_call(1024, budget(sizes), || {
            i = (i + 1) % encoded.len();
            std::hint::black_box(Message::decode(&encoded[i]).expect("own encoding decodes"));
        }),
    );
    let corpus_bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let pass_ns = ns_per_call(64, budget(sizes), || {
        for frame in &encoded {
            std::hint::black_box(crc::crc32(frame));
        }
    });
    // bytes per ns x 1000 = MB/s.
    out.set(
        "core.wire.crc_mb_per_s",
        corpus_bytes as f64 / pass_ns * 1e3,
    );

    let event = track_event();
    out.set(
        "core.wire.session.event_encode_ns",
        ns_per_call(1024, budget(sizes), || {
            std::hint::black_box(event.encode());
        }),
    );
    let bytes = event.encode();
    out.set(
        "core.wire.session.event_decode_ns",
        ns_per_call(1024, budget(sizes), || {
            std::hint::black_box(SessionMsg::decode(&bytes).expect("own encoding decodes"));
        }),
    );
}

// ------------------------------------------------------- core.network

fn network_build_ms(inputs: &ProbeInputs<'_>) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (program, deployment, environment, config) = (
                Arc::clone(inputs.program),
                inputs.deployment.clone(),
                inputs.environment.clone(),
                inputs.config.clone(),
            );
            let t0 = Instant::now();
            let engine =
                SensorNetwork::build_engine(program, deployment, environment, config, inputs.seed);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(engine);
            ms
        })
        .collect();
    median(&samples)
}

/// `inject_frame` of a heartbeat into a built (but never bootstrapped)
/// world, then `step`: CPU admission + CRC verify + decode + the group
/// handler, plus one kernel dispatch.
fn rx_dispatch_ns(inputs: &ProbeInputs<'_>, sizes: &Sizes) -> f64 {
    let world = SensorNetwork::new(
        Arc::clone(inputs.program),
        inputs.deployment.clone(),
        inputs.environment.clone(),
        inputs.config.clone(),
        inputs.seed,
    );
    let mut engine = Engine::new(world, inputs.seed);
    let positions = inputs.deployment.positions().to_vec();
    let n = positions.len();
    let mut i = 0usize;
    let mut at = Timestamp::ZERO;
    ns_per_call(256, budget(sizes), || {
        i = (i + 7919) % n;
        // A neighbouring leader's heartbeat; spacing the injections keeps
        // every receiver's mote CPU admitting.
        let leader = NodeId(((i + 1) % n) as u32);
        let frame = frame_of(
            &heartbeat(leader, positions[leader.index()], i as u32),
            leader,
        );
        let node = NodeId(i as u32);
        at += SimDuration::from_millis(5);
        engine
            .kernel_mut()
            .schedule_at(at, move |w: &mut SensorNetwork, k| {
                w.inject_frame(k, node, frame)
            });
        std::hint::black_box(engine.step());
    })
}

// ---------------------------------------------------------- telemetry

fn telemetry_costs(sizes: &Sizes, out: &mut Metrics) {
    let t = Telemetry::new();
    let handle = t.counter_handle("kernel.events");
    out.set(
        "telemetry.counter_incr_ns",
        // Through `black_box`, or the optimiser folds a batch of
        // increments of one cell into a single add.
        ns_per_call(8192, budget(sizes), || std::hint::black_box(&handle).incr()),
    );
    let mut v = 0u64;
    out.set(
        "telemetry.observe_ns",
        ns_per_call(4096, budget(sizes), || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            t.observe("agg.contributors", v >> 50);
        }),
    );
    // Steady state of a busy run: the ring is full, so each trace also
    // evicts (and counts) the oldest event.
    let label: std::rc::Rc<str> = std::rc::Rc::from("tracker@n3#1");
    for _ in 0..envirotrack_telemetry::DEFAULT_TRACE_CAPACITY {
        t.trace_shared(0, 0, &label, "group.hb", String::new());
    }
    let mut at = 0u64;
    out.set(
        "telemetry.trace_ns",
        ns_per_call(4096, budget(sizes), || {
            at += 1;
            t.trace_shared(at, 3, &label, "group.hb", String::new());
        }),
    );
}

// -------------------------------------------------------------- serve

fn serve_costs(seed: u64, sizes: &Sizes, out: &mut Metrics) {
    let frame = track_event().encode();
    // The client feeds its reader 4 KiB at a time, as `serve::Client` does.
    let per_chunk = 4096 / frame.len();
    let chunk: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(per_chunk * frame.len())
        .collect();
    let mut reader = FrameReader::new();
    let chunk_ns = ns_per_call(8, budget(sizes), || {
        reader.extend(&chunk);
        while let Some(msg) = reader.next_frame().expect("well-formed frames") {
            std::hint::black_box(msg);
        }
    });
    out.set("serve.frame.next_frame_ns", chunk_ns / per_chunk as f64);

    let outbox = Outbox::new(65_536);
    out.set(
        "serve.outbox.push_pop_ns",
        ns_per_call(4096, budget(sizes), || {
            outbox.push(frame.clone());
            std::hint::black_box(outbox.pop());
        }),
    );
    out.set(
        "serve.hub.inproc_events_per_s",
        hub_inproc_events_per_s(seed, sizes),
    );
}

/// Hub capacity with no sockets: an unpaced `SimHub` (`tick_real` 0)
/// fanning 4 worlds out to in-process outboxes that this thread drains.
fn hub_inproc_events_per_s(seed: u64, sizes: &Sizes) -> f64 {
    let metrics = Arc::new(ServeMetrics::new());
    let hub = SimHub::spawn(
        HubConfig {
            max_worlds: 8,
            tick_virtual: SimDuration::from_millis(200),
            tick_real: Duration::ZERO,
            sample_virtual: SimDuration::from_millis(200),
        },
        Arc::clone(&metrics),
    );
    let subs = sizes.serve_subs_per_conn * 2;
    let outboxes: Vec<Arc<Outbox>> = (0..subs).map(|_| Arc::new(Outbox::new(65_536))).collect();
    for (q, outbox) in outboxes.iter().enumerate() {
        hub.sender()
            .send(HubCommand::Subscribe(SubscribeReq {
                query_id: q as u32,
                scenario: SCENARIO_TESTBED,
                seed: seed + (q as u64 % 4),
                type_id: ContextTypeId(0),
                outbox: Arc::clone(outbox),
                received_at: Instant::now(),
            }))
            .expect("the hub is alive");
    }
    let drain = |count: bool| -> u64 {
        let mut events = 0u64;
        for outbox in &outboxes {
            while let Some(frame) = outbox.pop() {
                // An EVENT frame is longer than a SUBACK's 7 bytes.
                events += u64::from(count && frame.len() > 12);
            }
        }
        events
    };
    // Warm: every world built, every subscription acknowledged.
    let warm_until = Instant::now() + Duration::from_millis(sizes.probe_ms * 4);
    while Instant::now() < warm_until {
        drain(false);
    }
    let window = Duration::from_millis(sizes.probe_ms * 10);
    let t0 = Instant::now();
    let mut events = 0u64;
    while t0.elapsed() < window {
        events += drain(true);
    }
    let rate = events as f64 / t0.elapsed().as_secs_f64();
    for outbox in &outboxes {
        outbox.close();
    }
    hub.shutdown();
    rate
}

/// Exact counts read off a finished monolithic world through its public
/// accessors.
fn world_counts(world: &SensorNetwork, out: &mut Metrics) {
    let stats = world.net_stats();
    // The record's seed and elapsed fields are labels only; the counts
    // and the loss ratio come from the world.
    let record = world.run_record(0, SimDuration::ZERO, 0);
    out.set("core.group.labels_created", record.labels_created as f64);
    out.set("core.group.handovers", record.handovers as f64);
    out.set("net.medium.pair_loss_ratio", record.pair_loss);
    let events = world.telemetry().counter("kernel.events");
    out.set("sim.engine.events", events as f64);
    let (admitted, dropped) = world.cpu_totals();
    out.set("node.cpu.tasks_admitted", admitted as f64);
    out.set("node.cpu.tasks_dropped", dropped as f64);
    out.set("net.medium.tx", stats.total_tx as f64);
    out.set("net.medium.bytes_on_air", stats.bytes_on_air() as f64);
    out.set(
        "net.medium.mac_dropped",
        stats.sum(|k| k.mac_dropped) as f64,
    );
    out.set("core.group.hb_tx", stats.kind(kinds::HEARTBEAT).tx as f64);
    out.set("core.group.report_tx", stats.kind(kinds::REPORT).tx as f64);
    world.telemetry().with_registry(|r| {
        out.set("telemetry.trace_len", r.trace_events().count() as f64);
        out.set("telemetry.trace_dropped", r.trace_dropped() as f64);
    });
}

// ---------------------------------------------------------------- all

/// Everything a finished world contributes to the per-layer set: its exact
/// counts, the rates they give over `run_s` (the wall seconds the world
/// took to run), and every probe, shaped by the world's deployment,
/// environment, radio and frame mix.
pub fn world_layers(
    world: &SensorNetwork,
    run_s: f64,
    program: &Arc<Program>,
    seed: u64,
    sizes: &Sizes,
    tr: &mut Tracer,
    out: &mut Metrics,
) {
    world_counts(world, out);
    let events = out.get("sim.engine.events");
    out.set("sim.engine.events_per_s", events / run_s);
    out.set("sim.engine.ns_per_event", run_s * 1e9 / events.max(1.0));
    out.set(
        "core.wire.bytes_per_frame",
        out.get("net.medium.bytes_on_air") / out.get("net.medium.tx").max(1.0),
    );
    let probing = tr.open("probes");
    run_all(
        &ProbeInputs {
            deployment: world.deployment(),
            environment: world.environment(),
            config: world.config(),
            program,
            net_stats: world.net_stats(),
            seed,
        },
        sizes,
        out,
    );
    tr.close(probing);
}

/// Runs every probe against `inputs` and writes the results into `out`.
fn run_all(inputs: &ProbeInputs<'_>, sizes: &Sizes, out: &mut Metrics) {
    out.set(
        "sim.queue.push_pop_ns.d20k",
        queue_push_pop_ns(20_000, sizes),
    );
    out.set(
        "sim.queue.push_pop_ns.d2k5",
        queue_push_pop_ns(2_500, sizes),
    );
    out.set("sim.queue.cancel_ns", queue_cancel_ns(sizes));
    out.set(
        "sim.engine.dispatch_ns",
        engine_dispatch_ns(inputs.deployment.len(), sizes),
    );

    out.set("world.grid.build_ms", grid_build_ms(inputs));
    out.set(
        "world.sensing.sample_ns.t4",
        sensing_sample_ns(inputs, 4, sizes),
    );
    out.set(
        "world.sensing.sample_ns.t12",
        sensing_sample_ns(inputs, 12, sizes),
    );

    let corpus = message_corpus(inputs);
    let frames: Vec<Frame> = corpus
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let src = (i * 7919) % inputs.deployment.len();
            frame_of(m, NodeId(src as u32))
        })
        .collect();
    let medium = medium_costs(inputs, &frames, sizes);
    out.set("net.medium.transmit_ns", medium.transmit_ns);
    out.set("net.medium.deliveries_ns", medium.deliveries_ns);
    out.set(
        "net.medium.deliveries_ns_per_rx",
        medium.deliveries_ns_per_rx,
    );
    out.set(
        "net.medium.outcome_buffer_allocs",
        medium.outcome_buffer_allocs,
    );
    let (resolve_ns, exec_ns) = sharded_medium_costs(inputs, &frames, sizes);
    out.set("net.medium.resolve_ns", resolve_ns);
    out.set("net.medium.exec_deliveries_ns", exec_ns);
    out.set("net.routing.next_hop_ns", next_hop_ns(inputs, sizes));

    wire_costs(&corpus, sizes, out);
    out.set("core.network.build_ms", network_build_ms(inputs));
    out.set("core.network.rx_dispatch_ns", rx_dispatch_ns(inputs, sizes));
    telemetry_costs(sizes, out);
    out.set(
        "lang.compile_us",
        ns_per_call(16, budget(sizes), || {
            std::hint::black_box(compile_source(FIGURE_2).expect("Figure 2 compiles"));
        }) / 1e3,
    );
    serve_costs(inputs.seed, sizes, out);
}
