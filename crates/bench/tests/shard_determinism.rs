//! Shard-count determinism: a sharded run's merged output is a pure
//! function of the scenario — the shard count, thread scheduling, barrier
//! batching, and interest routing must never show through. This extends
//! the byte-identical contract of `sweep_determinism.rs` (worker count) to
//! the lock-step sharded kernel in `envirotrack_core::shard`, including
//! under a chaos plan that partitions the field, injects link faults and
//! burst loss, and crashes a node mid-run. The 1-shard run, where every
//! resolved transmission reaches the one shard, is the full-replay
//! reference; 2/4/8 shards must match it byte-for-byte. The comparison
//! only tests routing if frames cross a stripe boundary, so the field's
//! targets move fast enough to carry their groups' traffic across one,
//! and every comparison asserts that some transmission was routed to more
//! than one shard.
//!
//! The last test relates the sharded family to the monolithic engine. Both
//! run the one channel pipeline of `envirotrack_net::medium` — the
//! monolithic engine inline with zero added latency, a sharded run through
//! the central scheduler at `request + L` — so their bytes legitimately
//! differ; what the `+L` must not move is pinned there.

use std::sync::{mpsc, Arc};

use envirotrack_bench::harness::tracker_program;
use envirotrack_core::api::Program;
use envirotrack_core::context::SensePredicate;
use envirotrack_core::network::{FaultEvent, NetworkConfig, SensorNetwork};
use envirotrack_core::report::telemetry_to_jsonl;
use envirotrack_core::shard::{run_sharded, IntentStats, MediumMode, ShardedRun};
use envirotrack_core::wire::kinds;
use envirotrack_net::medium::{GilbertElliott, KindStats, LinkFaults};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::grid::shard_assignment;
use envirotrack_world::scenario::{ScaleScenario, Scenario, TankScenario};
use envirotrack_world::target::Channel;

/// Bounded horizon: the pin runs in the debug profile under `cargo test`,
/// so keep the event count modest while still crossing group formation,
/// heartbeats and member reports (same envelope as `scale_determinism`).
const HORIZON: SimDuration = SimDuration::from_secs(3);
const SEED: u64 = 7;
const NODES: u32 = 2_000;

fn at(ms: u64) -> Timestamp {
    Timestamp::ZERO + SimDuration::from_millis(ms)
}

/// The radio range of the fixed-seed field.
const RADIUS: f64 = 2.5;

/// The fixed-seed 2k-node tracking field. At 10 hops/s the targets travel
/// 30 grid spacings in the horizon, past stripe boundaries at 2, 4 and 8
/// shards, so their groups' traffic crosses them. At 1 hop/s no frame
/// reached a second shard, so a routing bug that drops a stripe's
/// receivers would go unseen.
fn field() -> Scenario {
    ScaleScenario {
        nodes: NODES,
        targets: 2,
        speed_hops_per_s: 10.0,
        seed: SEED,
        ..ScaleScenario::default()
    }
    .build()
}

/// Runs the fixed-seed 2k-node tracking field under `shards` shard
/// threads.
fn sharded(shards: usize, faults: &[(Timestamp, FaultEvent)]) -> ShardedRun {
    let scenario = field();
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(RADIUS);
    run_sharded(
        &tracker_program(),
        &scenario.deployment,
        &scenario.environment,
        &net_cfg,
        SEED,
        shards,
        Timestamp::ZERO + HORIZON,
        faults,
        MediumMode::Partitioned,
    )
}

/// [`sharded`]'s full observable output — merged telemetry JSONL plus the
/// run-record JSON line — and the replay-work accounting.
fn run(shards: usize, faults: &[(Timestamp, FaultEvent)]) -> (String, String, IntentStats) {
    let out = sharded(shards, faults);
    (out.telemetry_jsonl, out.record.to_json(), out.intents)
}

/// A byte comparison at `shards` tests interest routing only if some
/// resolved transmission went to more than one shard.
fn assert_crosses_stripes(shards: usize, stats: &IntentStats) {
    assert!(
        stats.routed > stats.resolved,
        "no transmission crossed a stripe at {shards} shards: {} routed for {} resolved",
        stats.routed,
        stats.resolved
    );
}

/// Partitions the field in half, garbles the link layer, switches on
/// Gilbert–Elliott burst loss, and crashes a node mid-run — every fault
/// class `run_sharded` quantizes to barriers: channel faults (installed on
/// the central scheduler and every shard's executor) and node faults
/// (applied on the owning shard only). Burst loss in particular exercises
/// the per-receiver chain streams that keep partitioned routing honest.
fn chaos_plan() -> Vec<(Timestamp, FaultEvent)> {
    let halves: Vec<u8> = (0..NODES).map(|i| u8::from(i >= NODES / 2)).collect();
    // The short horizon carries only a few dozen frames, so the fault
    // rates are cranked far above the soak profile — a plan that bites
    // nothing would make the cross-shard comparison vacuous (and the
    // `assert_ne` against the clean run fail).
    let harsh = LinkFaults {
        flip_per_byte: 0.02,
        truncate: 0.2,
        duplicate: 0.3,
        reorder: 0.3,
        reorder_max_delay: SimDuration::from_millis(30),
    };
    vec![
        (at(100), FaultEvent::LinkFaultsOn(harsh)),
        (at(400), FaultEvent::Partition(halves)),
        (at(600), FaultEvent::BurstLossOn(GilbertElliott::default())),
        (at(800), FaultEvent::Crash(NodeId(40))),
        (at(1_800), FaultEvent::BurstLossOff),
        (at(2_000), FaultEvent::Reboot(NodeId(40))),
        (at(2_400), FaultEvent::Heal),
        (at(2_600), FaultEvent::LinkFaultsOff),
    ]
}

#[test]
fn fixed_seed_2k_node_run_is_byte_identical_at_1_2_4_and_8_shards() {
    let (one_tel, one_rec, one) = run(1, &[]);
    assert!(
        one_tel.contains("net.k1.tx"),
        "the pin must cover live protocol traffic, not an idle field"
    );
    assert!(
        one_tel.contains("shard.intents.tail_dropped"),
        "the tail accounting must be part of the compared bytes"
    );
    assert_eq!(one.routed, one.resolved, "one shard ingests each transmission once");
    for shards in [2usize, 4, 8] {
        let (tel, rec, stats) = run(shards, &[]);
        assert_eq!(one_tel, tel, "telemetry JSONL diverged between 1 and {shards} shards");
        assert_eq!(one_rec, rec, "run record diverged between 1 and {shards} shards");
        assert_crosses_stripes(shards, &stats);
    }
}

#[test]
fn chaos_plan_stays_byte_identical_across_shards() {
    let plan = chaos_plan();
    let (one_tel, one_rec, _) = run(1, &plan);
    for shards in [2usize, 4, 8] {
        let (tel, rec, stats) = run(shards, &plan);
        assert_eq!(one_tel, tel, "chaos telemetry diverged between 1 and {shards} shards");
        assert_eq!(one_rec, rec, "chaos run record diverged between 1 and {shards} shards");
        assert_crosses_stripes(shards, &stats);
    }
    // The plan must actually bite: a faulted run cannot match the clean
    // stream, or the quantized faults silently never fired.
    let (clean_tel, _, _) = run(1, &[]);
    assert_ne!(one_tel, clean_tel, "the chaos plan left no trace");
}

/// A replica creates protocol-layer state only for the nodes it drives:
/// under the chaos plan at 2 shards — a crash and a reboot, which only the
/// owner applies, and traffic across the stripe boundary, which only the
/// receiver's owner takes in — every node a replica engaged is one it
/// owns, and together they engaged exactly the nodes the one replica of a
/// 1-shard run did. A replica holds its own share, not a copy of
/// everyone's.
#[test]
fn a_replica_engages_only_the_nodes_it_owns() {
    let plan = chaos_plan();
    let one = sharded(1, &plan).engaged;
    assert!(one[0].len() > 10, "the run engaged {} nodes", one[0].len());
    let two = sharded(2, &plan).engaged;
    let owners = shard_assignment(&field().deployment, RADIUS, 2);
    for (shard, engaged) in two.iter().enumerate() {
        for node in engaged {
            let owner = owners[node.index()];
            assert_eq!(
                owner, shard,
                "shard {shard} engaged {node}, which shard {owner} owns"
            );
        }
    }
    let mut together = two.concat();
    together.sort_unstable();
    assert_eq!(together, one[0]);
}

#[test]
fn interest_routing_stays_below_full_replay_and_reuses_buffers() {
    let shards = 4usize;
    let (_, _, stats) = run(shards, &[]);
    assert!(stats.merged > 0, "a busy field must produce intents");
    assert!(stats.resolved <= stats.merged, "{stats:?}");
    // The acceptance bound: strictly fewer shard deliveries than the
    // N-fold replay of the resolved transmissions.
    assert!(
        stats.routed < shards as u64 * stats.resolved,
        "interest routing saved nothing: {} routed vs {} resolved × {shards}",
        stats.routed,
        stats.resolved
    );
    // Buffer-reuse pins: the merged batch, the per-shard outboxes, and the
    // resolved route buffers are recycled, not reallocated per epoch.
    assert!(stats.batch_allocs <= 1, "merged batch must be reused: {stats:?}");
    assert!(
        stats.outbox_allocs <= shards as u64,
        "outbox buffers must be reused: {stats:?}"
    );
    assert!(
        stats.resolved_buf_allocs <= 2 * shards as u64,
        "route buffers must be reused: {stats:?}"
    );
}

/// Reads one counter out of a `telemetry_to_jsonl`-format stream (0 when
/// the counter never fired).
fn counter(jsonl: &str, name: &str) -> u64 {
    let prefix = format!("{{\"t\":\"counter\",\"name\":\"{name}\",\"value\":");
    jsonl
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .map_or(0, |rest| {
            rest.trim_end_matches('}')
                .parse()
                .expect("counter value is an integer")
        })
}

/// (transmission, in-range receiver) pairs a kind's loss ratio is over.
fn pairs(ks: &KindStats) -> u64 {
    ks.rx + ks.faded + ks.collided + ks.half_duplex + ks.burst_faded + ks.partition_dropped
}

/// The monolithic engine is the zero-latency case of the pipeline a
/// sharded run drives at `request + L` (`epoch_latency`, 6 ms here), so the
/// two are different sample paths of the same protocol over the same
/// channel process. On the 2k-node field (2 targets at 1 hop/s, 20 s) the
/// paper-level metrics must agree within these bounds, each derived from
/// the model rather than fitted to the runs:
///
/// * **`labels_created`** — one label per target, plus one per formation
///   race; every race ends with the lighter label suppressed
///   (`tests/tracking_coherence.rs`), so a run mints `targets +
///   labels_suppressed` labels and two runs differ by at most the sum of
///   their `labels_suppressed`.
/// * **`handovers`** — nominally one per target per hop travelled, the
///   same in both runs up to one handover per target in flight at the
///   horizon. The count leaves the nominal only where a relinquish fails
///   and the leader dissolves: the receive timer (2.1 × the 0.5 s heartbeat
///   period, plus ≤ 50 ms takeover jitter ≈ 1.1 s) then lets the target
///   advance ≤ 1.1 hops, so the takeover replaces at most two nominal
///   handovers — one short per `group.dissolve`. Hence `|Δ| ≤ targets +
///   dissolves(mono) + dissolves(sharded)`.
/// * **per-kind `pair_loss_ratio`** — each pair is lost with some
///   probability `p`; the test asserts `p ≤ 0.2` (5 % fade plus the
///   collisions of a two-target field), which caps the per-pair variance
///   at 0.16, so the difference of the two ratios over `Na` and `Nb` pairs
///   has σ ≤ sqrt(0.16·(1/Na + 1/Nb)). The bound is 4σ (≈ 0.045 for the
///   ~2.5k heartbeat pairs of a run; 12 comparisons ⇒ a false alarm under
///   1 in 1000), applied to every kind with ≥ 200 pairs on both sides —
///   heartbeats and reports must be among them. Collisions lose a
///   transmission's pairs together rather than independently; the cap
///   leaves room for that (observed loss is ≈ 0.05, variance ≈ 0.05).
#[test]
fn monolithic_and_one_shard_runs_agree_on_paper_level_metrics() {
    const TARGETS: u32 = 2;
    let horizon = SimDuration::from_secs(20);
    for seed in [7u64, 8, 9, 10] {
        let scenario = ScaleScenario {
            nodes: NODES,
            targets: TARGETS,
            speed_hops_per_s: 1.0,
            seed,
            ..ScaleScenario::default()
        }
        .build();
        let mut net_cfg = NetworkConfig::default();
        net_cfg.radio = net_cfg.radio.with_comm_radius(2.5);

        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment.clone(),
            scenario.environment.clone(),
            net_cfg.clone(),
            seed,
        );
        engine.run_until(Timestamp::ZERO + horizon);
        let mono = engine.world();
        let mono_rec = mono.run_record(seed, horizon, 0);
        let mono_tel = telemetry_to_jsonl(mono.telemetry());
        let sharded = run_sharded(
            &tracker_program(),
            &scenario.deployment,
            &scenario.environment,
            &net_cfg,
            seed,
            1,
            Timestamp::ZERO + horizon,
            &[],
            MediumMode::Partitioned,
        );

        let label_tol = mono_rec.labels_suppressed + sharded.record.labels_suppressed;
        assert!(
            mono_rec.labels_created.abs_diff(sharded.record.labels_created) <= label_tol,
            "seed {seed}: labels {} (monolithic) vs {} (sharded), tolerance {label_tol}",
            mono_rec.labels_created,
            sharded.record.labels_created
        );
        assert!(
            mono_rec.labels_created >= u64::from(TARGETS),
            "seed {seed}: both targets must be tracked"
        );

        let handover_tol = u64::from(TARGETS)
            + counter(&mono_tel, "group.dissolve")
            + counter(&sharded.telemetry_jsonl, "group.dissolve");
        assert!(
            mono_rec.handovers.abs_diff(sharded.record.handovers) <= handover_tol,
            "seed {seed}: handovers {} (monolithic) vs {} (sharded), tolerance {handover_tol}",
            mono_rec.handovers,
            sharded.record.handovers
        );
        assert!(
            mono_rec.handovers.min(sharded.record.handovers) > 2 * handover_tol,
            "seed {seed}: too few handovers for the tolerance to mean anything"
        );

        let mut checked = Vec::new();
        for (&kind, a) in &mono.net_stats().per_kind {
            let b = sharded.net.per_kind.get(&kind).copied().unwrap_or_default();
            let (na, nb) = (pairs(a), pairs(&b));
            if na.min(nb) < 200 {
                continue;
            }
            let (pa, pb) = (a.pair_loss_ratio(), b.pair_loss_ratio());
            assert!(pa <= 0.2 && pb <= 0.2, "seed {seed} kind {kind}: loss {pa} / {pb}");
            let bound = 4.0 * (0.16 * (1.0 / na as f64 + 1.0 / nb as f64)).sqrt();
            assert!(
                (pa - pb).abs() <= bound,
                "seed {seed} kind {kind}: pair loss {pa:.4} over {na} pairs (monolithic) vs \
                 {pb:.4} over {nb} (sharded), bound {bound:.4}"
            );
            checked.push(kind);
        }
        assert!(
            checked.contains(&kinds::HEARTBEAT.0) && checked.contains(&kinds::REPORT.0),
            "seed {seed}: heartbeats and reports must carry enough pairs, checked {checked:?}"
        );
    }
}

/// A shard thread that dies must fail the run, at any shard count. With
/// two or more shards it used to hang it: the survivors, parked on their
/// command channels, kept the response channel open, so the orchestrator
/// waited forever for the dead shard's answer.
#[test]
fn a_dying_shard_panics_the_run_instead_of_hanging_it() {
    let program = Program::builder()
        .context("tracker", |c| {
            c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                .object("bomb", |o| {
                    o.on_timer("boom", SimDuration::from_secs(2), |_| panic!("handler bug"))
                })
        })
        .build()
        .unwrap();
    let program = Arc::new(program);
    // The helper thread drops `done_tx` when `run_sharded` returns, however
    // it returns; a hang is the one outcome that times out instead.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let helper = std::thread::spawn(move || {
        let _done_tx = done_tx;
        let scenario = TankScenario::default().build();
        let _ = run_sharded(
            &program,
            &scenario.deployment,
            &scenario.environment,
            &NetworkConfig::default(),
            SEED,
            2,
            Timestamp::from_secs(30),
            &[],
            MediumMode::Partitioned,
        );
    });
    assert_eq!(
        done_rx.recv_timeout(std::time::Duration::from_secs(30)),
        Err(mpsc::RecvTimeoutError::Disconnected),
        "run_sharded hangs when one of two shards dies"
    );
    let died = helper.join().expect_err("the handler panicked");
    let message = died.downcast_ref::<String>().expect("a formatted panic");
    assert_eq!(message, "shard 0 died mid-run");
}
