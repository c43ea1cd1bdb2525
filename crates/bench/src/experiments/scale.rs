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
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::shard::{run_sharded, MediumMode};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
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
    /// The same for the field's scenario ([`ScaleScenario::build`]):
    /// deployment, grid of positions and targets, made before the build.
    pub scenario_allocs: u64,
    /// See `scenario_allocs`.
    pub scenario_heap_bytes: u64,
    /// Wall seconds of the first run call, to 1 µs: the bootstrap event
    /// at time zero, which draws the phases, lays the records out and
    /// parks the idle loops. Advisory, like every wall-clock column.
    pub bootstrap_wall_s: f64,
    /// Wall seconds the event loop ran, the first run call included.
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
    /// How the run did its work and how it was stored, by name: the
    /// kernel's counts ([`Kernel::work`]) and the world's
    /// ([`SensorNetwork::work`]), then `heap_live` — the heap bytes the
    /// field, the engine and its world hold at the horizon, from the
    /// caller's allocation counter, zero without one — and the same as
    /// each layer works it out from its own state
    /// ([`SensorNetwork::heap_bytes`]). Exact and host-independent, but no
    /// part of the simulation's output.
    ///
    /// [`Kernel::work`]: envirotrack_sim::engine::Kernel::work
    pub work: Work,
}

/// The field and network configuration every flavour of a scale point
/// runs on.
fn field(cfg: &ScaleRun) -> (Scenario, NetworkConfig) {
    (scenario(cfg), net_config(cfg))
}

/// The field of a scale point.
fn scenario(cfg: &ScaleRun) -> Scenario {
    ScaleScenario {
        nodes: cfg.nodes,
        targets: cfg.targets,
        speed_hops_per_s: cfg.speed_hops_per_s,
        seed: cfg.seed,
        ..ScaleScenario::default()
    }
    .build()
}

/// The network configuration of a scale point.
fn net_config(cfg: &ScaleRun) -> NetworkConfig {
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(cfg.comm_radius);
    // Same footprint coupling as the tracking harness: cross-label
    // proximity only matters within one stimulus's reach.
    net_cfg.middleware.proximity_radius = 3.0;
    net_cfg
}

/// Runs one scale point and audits it. `heap` reads the calling thread's
/// allocation counter — allocations so far and heap bytes live — around
/// the scenario and the build; a caller that counts nothing passes
/// `|| (0, 0)`.
#[must_use]
pub fn run_scale(cfg: &ScaleRun, heap: impl Fn() -> (u64, i64)) -> ScalePoint {
    let program = tracker_program();
    let start = heap();
    let scenario = scenario(cfg);
    let built = heap();
    let net_cfg = net_config(cfg);

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
    engine.run_until(Timestamp::from_micros(1));
    let bootstrap_wall_s = run_start.elapsed().as_secs_f64();
    engine.run_until(Timestamp::ZERO + cfg.horizon);
    let run_wall_s = run_start.elapsed().as_secs_f64();

    let live_heap_bytes = u64::try_from(heap().1 - start.1).expect("the world is live");
    let (kernel, world) = (engine.kernel(), engine.world());
    let mut work = Work::default();
    kernel.work(&mut work);
    world.work(&mut work);
    work.add("heap_live", live_heap_bytes);
    world.heap_bytes(kernel, &mut work);
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
        scenario_allocs: built.0 - start.0,
        scenario_heap_bytes: u64::try_from(built.1 - start.1).expect("the field is live"),
        bootstrap_wall_s,
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
        work,
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
    /// Wall seconds for the whole sharded run: per-shard world builds,
    /// every epoch barrier, and the final merge.
    pub run_wall_s: f64,
    /// Kernel events summed over the shards. Diagnostic only: each routed
    /// transmission is one ingestion event per interested shard, so this
    /// varies with shard count and is excluded from the byte-compared
    /// output.
    pub events: u64,
    /// `events / run_wall_s`.
    pub events_per_sec: f64,
    /// Context labels minted (merged run record).
    pub labels_created: u64,
    /// Leadership handovers (merged run record).
    pub handovers: u64,
    /// Intents collected across all epoch barriers (the merged batches).
    pub merged_intents: u64,
    /// Shard deliveries by interest routing: the merged intents that
    /// survived MAC admission at 1 shard, more where traffic crosses a
    /// stripe boundary.
    pub routed_intents: u64,
    /// The full observable output — the run-record JSON line followed by
    /// the merged telemetry JSONL — what must be byte-identical across
    /// shard counts.
    pub dump: String,
}

/// Runs one scale point under the sharded kernel and returns the merged
/// audit. Sharded runs are their own golden family (every frame carries
/// the uniform epoch pipeline latency), so `dump` compares across shard
/// counts, not against [`crosscheck_dump`].
#[must_use]
pub fn run_scale_sharded(cfg: &ScaleRun, shards: usize) -> ShardScalePoint {
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
        MediumMode::Partitioned,
    );
    let run_wall_s = run_start.elapsed().as_secs_f64();
    ShardScalePoint {
        nodes: cfg.nodes,
        shards,
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
        routed_intents: run.intents.routed,
        dump: format!("{}\n{}", run.record.to_json(), run.telemetry_jsonl),
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
        assert_eq!(a.work, b.work);
        let w = &a.work;
        let idle = w.get("samples_covered") + w.get("samples_walked");
        let (ticks, admitted) = (w.get("sense_ticks"), w.get("sense_ticks_admitted"));
        assert!(idle > 0 && idle <= admitted && admitted <= ticks);
        let traced = w.get("trace_records") > 0 && w.get("trace_ring_bytes") > 0;
        assert!(traced, "{w:?}");
        let fired = w.get("timer_live") + w.get("timer_stale");
        let leaders_beat = fired > 0 && w.get("timer_live_heartbeat") > 0;
        assert!(leaders_beat, "{w:?}");
        let (lane_pops, heap_pops) = (w.get("lane_pops"), w.get("heap_pops"));
        assert_eq!(lane_pops + heap_pops + w.get("sense_settled"), a.events);
        // Off the heap come the inline and boxed events, and the ticks and
        // wake events of parking: at most one re-arm and one wake a parking.
        let parking = 2 * w.get("sense_parked");
        assert!(heap_pops <= w.get("inline_events") + w.get("boxed_events") + parking);
        assert!(a.events > 0, "a 200-node field must execute events");
        assert!(a.labels_created >= 1, "targets should be detected: {a:?}");
    }

    #[test]
    fn shard_count_does_not_change_the_sharded_audit() {
        let one = run_scale_sharded(&small(), 1);
        let two = run_scale_sharded(&small(), 2);
        assert!(
            one.labels_created >= 1,
            "the sharded run must still track targets: {one:?}"
        );
        assert_eq!(one.dump, two.dump, "shard count leaked into the output");
        // The pin must cover live protocol traffic, not an idle field.
        // (Trace events are excluded from the merged stream by design, so
        // look at a frame counter, not `group.hb` traces.)
        assert!(one.dump.contains("net.k1.tx"));
    }
}
