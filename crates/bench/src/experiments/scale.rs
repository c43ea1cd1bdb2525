//! Scale trajectory (`BENCH_scale.json`): wall-clock and event throughput
//! as the field grows to 10k+ nodes.
//!
//! Not a paper figure — an engineering benchmark that pins the scaling
//! work: the spatial-grid medium (O(n·deg) neighbor construction instead
//! of the all-pairs scan) and the shared-payload broadcast walk (one
//! decode per transmission instead of one per receiver). Each point runs
//! the Figure-2 tracking program on a [`ScaleScenario`] field for a fixed
//! virtual horizon and reports kernel events per wall-second, so node
//! counts are directly comparable.

use std::time::Instant;

use envirotrack_core::events::SystemEvent;
use envirotrack_core::network::{NetworkConfig, SensingWork, SensorNetwork, TimerWork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::shard::{run_sharded, MediumMode};
use envirotrack_sim::engine::EventWork;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::TraceWork;
use envirotrack_world::scenario::{ScaleScenario, Scenario};

use crate::harness::{tracker_program, TRACKER};

/// One configured scale point: a `nodes`-strong field driven for a fixed
/// virtual horizon.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Field size in nodes.
    pub nodes: u32,
    /// Concurrent targets crossing on parallel lanes.
    pub targets: u32,
    /// Target speed in hops/s. The default is far above the paper's road
    /// speeds on purpose: a fast target keeps heartbeats, reports and
    /// handovers churning for the whole (short) horizon, so the benchmark
    /// exercises the broadcast path rather than an idle field.
    pub speed_hops_per_s: f64,
    /// Radio communication radius in grid units. Kept small relative to
    /// the field so the network stays genuinely multi-hop at every size.
    pub comm_radius: f64,
    /// Virtual time to simulate. Fixed across node counts so events/sec
    /// compares apples to apples.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScaleRun {
    /// 1000 nodes, 4 targets, comm radius 2.5, 10 virtual seconds.
    fn default() -> Self {
        ScaleRun {
            nodes: 1000,
            targets: 4,
            speed_hops_per_s: 1.0,
            comm_radius: 2.5,
            horizon: SimDuration::from_secs(10),
            seed: 1,
        }
    }
}

/// The measured outcome of one scale point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Field size in nodes.
    pub nodes: u32,
    /// Wall seconds to build the network (medium, routing, node state).
    pub build_wall_s: f64,
    /// Allocations (reallocations included) the build made, and the heap
    /// bytes it left live: the built world's size. Both exact, from the
    /// caller's allocation counter; zero without one.
    pub build_allocs: u64,
    /// See `build_allocs`.
    pub build_heap_bytes: u64,
    /// Wall seconds the event loop ran.
    pub run_wall_s: f64,
    /// Kernel events executed over the horizon.
    pub events: u64,
    /// Events per wall-second of event-loop time.
    pub events_per_sec: f64,
    /// Context labels minted for the tracked targets.
    pub labels_created: u64,
    /// Leadership handovers observed.
    pub handovers: u64,
    /// Bytes serialised on air over the horizon (preamble + header +
    /// payload, summed across frame kinds).
    pub bytes_on_air: u64,
    /// The virtual horizon, in seconds.
    pub sim_horizon_s: f64,
    /// How the sensing driver did its part: ticks fired and admitted,
    /// strides between hot records, idle samples the coverage answered or
    /// walked, coverage rebuilds, answered samples the ambient verdict
    /// settled without building them.
    /// Exact and host-independent, but no part of the simulation's output.
    pub sensing: SensingWork,
    /// How the kernel's event list did its part: pops off the recurring
    /// lane and out of the heap, one-shot events scheduled inline and
    /// boxed. As exact, and as little part of the output.
    pub event_list: EventWork,
    /// How the group timers that fired were handled: live, stale and
    /// retried firings per timer key. As exact, and as little part of the
    /// output.
    pub timers: TimerWork,
    /// Nodes that hold protocol-layer state at the horizon: those that used
    /// a layer, which created their record. How the run was stored, not
    /// what it did; as little part of the output.
    pub cold_engaged: usize,
    /// How the telemetry trace ring did its part: records appended and
    /// dropped, and the heap bytes of its slots at the horizon. As exact,
    /// and as little part of the output.
    pub trace: TraceWork,
}

/// The field and network configuration every flavour of a scale point
/// runs on.
fn field(cfg: &ScaleRun) -> (Scenario, NetworkConfig) {
    let scenario = ScaleScenario {
        nodes: cfg.nodes,
        targets: cfg.targets,
        speed_hops_per_s: cfg.speed_hops_per_s,
        seed: cfg.seed,
        ..ScaleScenario::default()
    }
    .build();
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(cfg.comm_radius);
    // Same footprint coupling as the tracking harness: cross-label
    // proximity only matters within one stimulus's reach.
    net_cfg.middleware.proximity_radius = 3.0;
    (scenario, net_cfg)
}

/// Runs one scale point and audits it. `heap` reads the calling thread's
/// allocation counter — allocations so far and heap bytes live — around
/// the build; a caller that counts nothing passes `|| (0, 0)`.
#[must_use]
pub fn run_scale(cfg: &ScaleRun, heap: impl Fn() -> (u64, i64)) -> ScalePoint {
    let (scenario, net_cfg) = field(cfg);
    let program = tracker_program();

    let before = heap();
    let build_start = Instant::now();
    let mut engine = SensorNetwork::build_engine(
        program,
        scenario.deployment,
        scenario.environment,
        net_cfg,
        cfg.seed,
    );
    let build_wall_s = build_start.elapsed().as_secs_f64();
    let after = heap();

    let run_start = Instant::now();
    engine.run_until(Timestamp::ZERO + cfg.horizon);
    let run_wall_s = run_start.elapsed().as_secs_f64();

    let world = engine.world();
    let events = world.telemetry().counter("kernel.events");
    let labels_created = world.events().labels_created(TRACKER).len() as u64;
    let handovers = world
        .events()
        .count(|e| matches!(e, SystemEvent::LeaderHandover { .. })) as u64;
    ScalePoint {
        nodes: cfg.nodes,
        build_wall_s,
        build_allocs: after.0 - before.0,
        build_heap_bytes: u64::try_from(after.1 - before.1).expect("the world is live"),
        run_wall_s,
        events,
        events_per_sec: if run_wall_s > 0.0 {
            events as f64 / run_wall_s
        } else {
            0.0
        },
        labels_created,
        handovers,
        bytes_on_air: world.net_stats().bytes_on_air(),
        sim_horizon_s: cfg.horizon.as_secs_f64(),
        sensing: world.sensing_work(),
        event_list: engine.kernel().event_work(),
        timers: world.timer_work(),
        cold_engaged: world.cold_engaged(),
        trace: world.telemetry().trace_work(),
    }
}

/// Runs one scale point and returns its full observable output — the
/// telemetry JSONL stream, the run-record JSON line, and the bytes on
/// air. Two commits' dumps of one point are compared byte for byte when a
/// change must not move the monolithic run.
#[must_use]
pub fn crosscheck_dump(cfg: &ScaleRun) -> (String, String, u64) {
    let (scenario, net_cfg) = field(cfg);
    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        cfg.seed,
    );
    engine.run_until(Timestamp::ZERO + cfg.horizon);
    let world = engine.world();
    let telemetry = telemetry_to_jsonl(world.telemetry());
    let record = world.run_record(cfg.seed, cfg.horizon, 0).to_json();
    (telemetry, record, world.net_stats().bytes_on_air())
}

/// One sharded scale point: the same tracking field advanced by `shards`
/// lock-step shard threads (see [`envirotrack_core::shard`]).
#[derive(Debug, Clone)]
pub struct ShardScalePoint {
    /// Field size in nodes.
    pub nodes: u32,
    /// Shard (thread) count.
    pub shards: usize,
    /// How resolved transmissions were routed to shards.
    pub medium: MediumMode,
    /// Wall seconds for the whole sharded run: per-shard world builds,
    /// every epoch barrier, and the final merge.
    pub run_wall_s: f64,
    /// Kernel events summed over the shards. Diagnostic only: each routed
    /// transmission is one ingestion event per interested shard, so this
    /// varies with shard count and medium mode and is excluded from the
    /// byte-compared output.
    pub events: u64,
    /// `events / run_wall_s`.
    pub events_per_sec: f64,
    /// Context labels minted (merged run record).
    pub labels_created: u64,
    /// Leadership handovers (merged run record).
    pub handovers: u64,
    /// Intents collected across all epoch barriers (the merged batches).
    pub merged_intents: u64,
    /// Total shard replay deliveries (`routed + broadcast`): the channel
    /// work the partitioned medium reduces below `shards × resolved`.
    pub replayed_intents: u64,
    /// The full observable output — the run-record JSON line followed by
    /// the merged telemetry JSONL — what must be byte-identical across
    /// shard counts *and* medium modes.
    pub dump: String,
}

/// Runs one scale point under the sharded kernel and returns the merged
/// audit. Sharded runs are their own golden family (every frame carries
/// the uniform epoch pipeline latency), so `dump` compares across shard
/// counts and medium modes, not against [`crosscheck_dump`].
#[must_use]
pub fn run_scale_sharded(cfg: &ScaleRun, shards: usize, medium: MediumMode) -> ShardScalePoint {
    let (scenario, net_cfg) = field(cfg);

    let run_start = Instant::now();
    let run = run_sharded(
        &tracker_program(),
        &scenario.deployment,
        &scenario.environment,
        &net_cfg,
        cfg.seed,
        shards,
        Timestamp::ZERO + cfg.horizon,
        &[],
        medium,
    );
    let run_wall_s = run_start.elapsed().as_secs_f64();
    ShardScalePoint {
        nodes: cfg.nodes,
        shards,
        medium,
        run_wall_s,
        events: run.events_processed,
        events_per_sec: if run_wall_s > 0.0 {
            run.events_processed as f64 / run_wall_s
        } else {
            0.0
        },
        labels_created: run.record.labels_created,
        handovers: run.record.handovers,
        merged_intents: run.intents.merged,
        replayed_intents: run.intents.replayed(),
        dump: format!("{}\n{}", run.record.to_json(), run.telemetry_jsonl),
    }
}

/// Prints the trajectory as an aligned table.
pub fn print(points: &[ScalePoint]) {
    println!(
        "BENCH scale — {} targets, {:.1} comm radius, grid medium",
        ScaleRun::default().targets,
        ScaleRun::default().comm_radius
    );
    println!(
        "  {:>7}  {:>9}  {:>9}  {:>10}  {:>12}  {:>6}  {:>9}  {:>12}",
        "nodes", "build s", "run s", "events", "events/s", "labels", "handovers", "bytes on air"
    );
    for p in points {
        println!(
            "  {:>7}  {:>9.3}  {:>9.3}  {:>10}  {:>12.0}  {:>6}  {:>9}  {:>12}",
            p.nodes,
            p.build_wall_s,
            p.run_wall_s,
            p.events,
            p.events_per_sec,
            p.labels_created,
            p.handovers,
            p.bytes_on_air
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleRun {
        // 5 virtual seconds: the targets start 1.5 hops outside the field
        // (1 hop/s), so shorter horizons end before any group forms.
        ScaleRun {
            nodes: 200,
            targets: 2,
            horizon: SimDuration::from_secs(5),
            ..ScaleRun::default()
        }
    }

    #[test]
    fn scale_points_are_deterministic_and_busy() {
        let a = run_scale(&small(), || (0, 0));
        let b = run_scale(&small(), || (0, 0));
        assert_eq!(a.events, b.events);
        assert_eq!(a.labels_created, b.labels_created);
        assert_eq!(a.handovers, b.handovers);
        assert_eq!(a.sensing, b.sensing);
        let idle = a.sensing.coverage.answered + a.sensing.coverage.walked;
        assert!(idle > 0 && idle <= a.sensing.admitted && a.sensing.admitted <= a.sensing.ticks);
        assert_eq!(a.event_list, b.event_list);
        assert_eq!(a.timers, b.timers);
        assert_eq!(a.trace, b.trace);
        let traced = a.trace.records > 0 && a.trace.ring_bytes > 0;
        assert!(traced, "{:?}", a.trace);
        let fired: u64 = a.timers.live.iter().chain(&a.timers.stale).sum();
        let leaders_beat = fired > 0 && a.timers.live[0] > 0;
        assert!(leaders_beat, "{:?}", a.timers);
        let list = a.event_list;
        assert_eq!(list.lane_pops + list.heap_pops, a.events);
        assert!(list.heap_pops <= list.inline_scheduled + list.boxed_scheduled);
        assert!(a.events > 0, "a 200-node field must execute events");
        assert!(a.labels_created >= 1, "targets should be detected: {a:?}");
    }

    #[test]
    fn shard_count_does_not_change_the_sharded_audit() {
        let one = run_scale_sharded(&small(), 1, MediumMode::Replicated);
        let two = run_scale_sharded(&small(), 2, MediumMode::Partitioned);
        assert!(
            one.labels_created >= 1,
            "the sharded run must still track targets: {one:?}"
        );
        assert_eq!(
            one.dump, two.dump,
            "shard count or medium mode leaked into the output"
        );
        // The pin must cover live protocol traffic, not an idle field.
        // (Trace events are excluded from the merged stream by design, so
        // look at a frame counter, not `group.hb` traces.)
        assert!(one.dump.contains("net.k1.tx"));
    }

    #[test]
    fn partitioned_medium_reduces_replay_work() {
        let shards = 4;
        let replicated = run_scale_sharded(&small(), shards, MediumMode::Replicated);
        let partitioned = run_scale_sharded(&small(), shards, MediumMode::Partitioned);
        assert_eq!(
            replicated.dump, partitioned.dump,
            "routing must not change the observable output"
        );
        assert!(
            partitioned.replayed_intents > 0,
            "a busy field must route intents: {partitioned:?}"
        );
        // The acceptance bound: strictly fewer shard deliveries than the
        // full N-fold replay of the merged batches.
        assert!(
            partitioned.replayed_intents < shards as u64 * partitioned.merged_intents,
            "interest routing saved nothing: {} replayed vs {} merged × {} shards",
            partitioned.replayed_intents,
            partitioned.merged_intents,
            shards
        );
        assert!(
            partitioned.replayed_intents < replicated.replayed_intents,
            "partitioned must replay strictly less than replicated"
        );
    }
}
