//! Sharded execution: one simulation advanced by several OS threads in
//! lock-step epochs — conservative time-window synchronisation with a
//! partitioned medium.
//!
//! ## Model
//!
//! The field is partitioned into node shards along the spatial grid
//! (`envirotrack_world::grid::shard_assignment`). Every shard thread owns a
//! *complete* replica of the world — full deployment, full radio medium —
//! but only *drives* its owned nodes: bootstrap ticks, timers, and receive
//! dispatch are filtered to owned nodes, so each node's protocol state
//! machine runs on exactly one shard.
//!
//! The only coupling between shards is the radio channel, whose two-stage
//! pipeline (see `envirotrack_net::medium`'s module docs) is deployed
//! split in two:
//!
//! * **Transmit side, centralised.** During an epoch no shard touches the
//!   channel: every transmit request an owned node makes is captured as an
//!   `OutIntent` in the shard's outbox. At each epoch barrier the
//!   orchestrator merges all outboxes into one batch sorted by
//!   `(time, src, seq)` — a total order, since `seq` is a per-source
//!   counter — and resolves it exactly once on its own
//!   [`ChannelScheduler`]: CSMA deferral and backoff, MAC drops, link-fault
//!   garbling/duplication/reorder, and the transmit-side statistics. Each
//!   intent is resolved at `request_time + L`, where `L` is the epoch
//!   length ([`envirotrack_net::medium::RadioConfig::epoch_latency`]): the
//!   minimum frame airtime plus the receive processing delay, a lower
//!   bound on how soon *any* frame could reach *any* receiver's handler.
//! * **Receiver side, partitioned.** Each shard's medium has dropped its
//!   inline transmit side: it ingests the [`ResolvedTx`]es the
//!   orchestrator routes to it and resolves outcomes for its **owned**
//!   receivers only, using keyed
//!   per-pair fade draws and per-receiver burst streams so that skipping a
//!   receiver — or never ingesting an irrelevant transmission — consumes
//!   zero randomness.
//!
//! ## Interest routing ([`MediumMode::Partitioned`])
//!
//! A transmission from node `s` can only be heard within `comm_radius` of
//! `s`, so only shards owning a grid cell inside that footprint need to
//! ingest it. `envirotrack_world::grid::shard_interest_ranges` precomputes,
//! per source node, the contiguous shard range `[lo, hi]` covering its
//! footprint columns (cell side ≥ radius, so the footprint is confined to
//! the sender's column ± 1; column-monotone shard striping makes the
//! interested set a contiguous range that always contains the sender's own
//! shard). Soundness — every shard owning *any* in-range receiver is in
//! the range — is what keeps a routed subset byte-identical to the full
//! replay: an un-routed transmission could only have produced an empty
//! outcome set on that shard anyway, and skipping it draws nothing.
//! [`MediumMode::Replicated`] runs the identical pipeline with every
//! transmission routed to every shard; the two modes differ *only* in
//! routing, which the `bench/tests/shard_determinism.rs` battery pins
//! byte-for-byte at 1/2/4/8 shards, clean and under chaos.
//!
//! ## Why the result is shard-count invariant
//!
//! Pick any two events on one shard. Their relative order equals their
//! order in the single-shard run by induction over barriers: bootstrap
//! iterates nodes in id order (skipping non-owned nodes, whose RNG streams
//! are per-node forks and therefore undisturbed), barrier injections ingest
//! a routed subsequence of one globally-resolved batch (same relative
//! order), and handlers are deterministic functions of per-node state plus
//! the delivered frame. No handler reads another node's runtime state, so
//! interleaving *across* shards within an epoch cannot be observed. All
//! channel randomness is either resolved once centrally or keyed per
//! `(transmission, receiver)` pair, so no shard's draws depend on what the
//! others were routed.
//!
//! ## One registry per run
//!
//! Telemetry counters and histograms are commutative sums over per-node
//! activity partitioned by ownership. Each shard ships its counters and
//! histograms; the orchestrator adds them into one fresh registry (a
//! histogram absorbs another bucket by bucket), adds the channel counters
//! derived from the combined scheduler + shard statistics, and exports
//! that registry with `telemetry_to_jsonl` and reads its run record from
//! it (`RunRecord::from_registry`), as a monolithic world does with its
//! own. `kernel.events` is left out (event counts are not
//! partition-additive), and gauges and trace events are not shipped.
//!
//! A sharded run is byte-identical across shard counts and medium modes.
//! The monolithic (`build_engine`) engine runs the same channel pipeline
//! inline with zero added latency, so its bytes differ by the uniform
//! `+L`; `bench/tests/shard_determinism.rs` pins what the `+L` must not
//! move (labels, handovers, per-kind loss ratios).

use std::collections::HashSet;
use std::sync::{mpsc, Arc};

use envirotrack_net::medium::{ChannelScheduler, NetStats, ResolvedTx, TxKey};
use envirotrack_net::packet::Frame;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{LogLinearHistogram, Telemetry};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::grid::{shard_assignment, shard_interest_ranges, Topology};
use envirotrack_world::sensing::Environment;

use crate::api::Program;
use crate::network::{FaultEvent, NetworkConfig, SensorNetwork};
use crate::report::{telemetry_to_jsonl, RunRecord};

/// One captured transmit request, exchanged across shards at epoch
/// barriers. `(at, src, seq)` is a total order over all intents of a run:
/// `seq` counts each source's requests, so two intents can never tie.
#[derive(Debug, Clone)]
pub(crate) struct OutIntent {
    /// When the owning node requested the transmission.
    pub(crate) at: Timestamp,
    /// The transmitting node.
    pub(crate) src: NodeId,
    /// Per-source request counter (breaks `(at, src)` ties).
    pub(crate) seq: u64,
    /// The frame to put on the channel.
    pub(crate) frame: Frame,
}

impl OutIntent {
    /// The global merge key: `(time, source id, per-source seq)`.
    pub(crate) fn key(&self) -> (Timestamp, u32, u64) {
        (self.at, self.src.0, self.seq)
    }
}

/// How resolved transmissions are routed to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumMode {
    /// Every resolved transmission goes to every shard (the full-replay
    /// baseline: N× channel work, kept as the differential reference).
    Replicated,
    /// Each resolved transmission goes only to the shards whose owned
    /// cells its radio footprint can reach (plus the sender's owner).
    Partitioned,
}

impl MediumMode {
    /// Parses the CLI spelling (`replicated` / `partitioned`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "replicated" => Some(MediumMode::Replicated),
            "partitioned" => Some(MediumMode::Partitioned),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MediumMode::Replicated => "replicated",
            MediumMode::Partitioned => "partitioned",
        }
    }
}

impl std::fmt::Display for MediumMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Replay-work and buffer-reuse accounting for one sharded run. These are
/// *diagnostics across the sharding machinery* — `routed`/`skipped`/
/// `broadcast` depend on the shard count and medium mode by construction,
/// so they live here and in BENCH output, never in the byte-compared
/// merged telemetry. (`tail_dropped` *is* invariant and is also surfaced
/// as the `shard.intents.tail_dropped` counter.)
#[derive(Debug, Clone, Copy, Default)]
pub struct IntentStats {
    /// Intents collected across all barriers (the merged batch total).
    pub merged: u64,
    /// Intents that survived MAC admission on the central scheduler.
    pub resolved: u64,
    /// Shard deliveries routed by interest (partitioned mode).
    pub routed: u64,
    /// Shard deliveries skipped as out-of-footprint (partitioned mode).
    pub skipped: u64,
    /// Shard deliveries sent to every shard (replicated mode).
    pub broadcast: u64,
    /// Intents requested after the last barrier and never exchanged (the
    /// final partial epoch; counted, asserted fresh, and shard-count
    /// invariant).
    pub tail_dropped: u64,
    /// Times the orchestrator's merged batch buffer grew from nothing
    /// (buffer-reuse pin: 1 in steady state).
    pub batch_allocs: u64,
    /// Per-shard outbox buffer allocations summed over shards
    /// (buffer-reuse pin: ≤ shards in steady state).
    pub outbox_allocs: u64,
    /// Route-buffer allocations for resolved batches (buffer-reuse pin:
    /// ≤ 2 × shards; shards, in steady state).
    pub resolved_buf_allocs: u64,
}

impl IntentStats {
    /// Total shard replay deliveries (`routed + broadcast`): the work the
    /// tentpole reduces. Partitioned mode must keep this strictly below
    /// `shards × merged`.
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.routed + self.broadcast
    }
}

/// Per-world sharding state, attached to each `SensorNetwork` replica
/// [`run_sharded`] builds.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// `owned[node]`: whether this shard drives the node.
    owned: Vec<bool>,
    outbox: Vec<OutIntent>,
    next_seq: Vec<u64>,
    /// Emptied resolved-batch buffers waiting to ride back to the
    /// orchestrator for reuse.
    resolved_pool: Vec<Vec<ResolvedTx>>,
    outbox_allocs: u64,
}

impl ShardState {
    /// Fresh state for one shard of a run.
    pub(crate) fn new(owned: Vec<bool>) -> Self {
        let n = owned.len();
        ShardState {
            owned,
            outbox: Vec::new(),
            next_seq: vec![0; n],
            resolved_pool: Vec::new(),
            outbox_allocs: 0,
        }
    }

    /// Whether this shard drives `node`.
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.owned[node.index()]
    }

    /// Captures one transmit request into the outbox, stamping the next
    /// per-source sequence number.
    pub(crate) fn push(&mut self, at: Timestamp, src: NodeId, frame: Frame) {
        if self.outbox.capacity() == 0 {
            self.outbox_allocs += 1;
        }
        let seq = self.next_seq[src.index()];
        self.next_seq[src.index()] += 1;
        self.outbox.push(OutIntent {
            at,
            src,
            seq,
            frame,
        });
    }

    /// Takes the accumulated intents (the outbox is left empty).
    pub(crate) fn drain(&mut self) -> Vec<OutIntent> {
        std::mem::take(&mut self.outbox)
    }

    /// Hands a drained outbox buffer back so the next epoch's pushes reuse
    /// its capacity instead of growing from nothing.
    pub(crate) fn restore(&mut self, buf: Vec<OutIntent>) {
        debug_assert!(buf.is_empty(), "restored outbox must be drained");
        debug_assert!(self.outbox.is_empty(), "no pushes between drain and restore");
        if buf.capacity() > self.outbox.capacity() {
            self.outbox = buf;
        }
    }

    /// Stashes an emptied resolved-batch buffer for the ride back.
    pub(crate) fn stash_resolved(&mut self, buf: Vec<ResolvedTx>) {
        debug_assert!(buf.is_empty(), "stashed resolved buffer must be drained");
        self.resolved_pool.push(buf);
    }

    /// Pops one stashed resolved-batch buffer, if any.
    pub(crate) fn take_spare_resolved(&mut self) -> Option<Vec<ResolvedTx>> {
        self.resolved_pool.pop()
    }

    /// Outbox buffer allocations so far (the reuse pin).
    pub(crate) fn outbox_allocs(&self) -> u64 {
        self.outbox_allocs
    }
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Run record read from the merged registry, with its channel fields
    /// from the combined scheduler + shard statistics.
    pub record: RunRecord,
    /// The merged registry through `telemetry_to_jsonl`: counters then
    /// histograms, name-sorted; `kernel.events` stripped, no gauges or
    /// traces, channel counters derived from the combined statistics.
    pub telemetry_jsonl: String,
    /// Kernel events processed, summed over shards (diagnostic only — not
    /// part of the byte-compared output, since the ingested-transmission
    /// count varies with routing).
    pub events_processed: u64,
    /// Replay-work and buffer-reuse accounting (not byte-compared; the
    /// perf story of the partitioned medium).
    pub intents: IntentStats,
    /// The whole-run channel statistics the record and the `net.k*`
    /// counters were derived from: the scheduler's transmit side plus
    /// every shard's receiver side.
    pub net: NetStats,
    /// Per shard, the nodes whose protocol-layer state its replica created
    /// (`SensorNetwork::cold_engaged`), in id order: how the run was
    /// stored, not what it did, so no part of the compared output.
    pub engaged: Vec<Vec<NodeId>>,
}

/// One shard's contribution to the merge: its registry's counters and
/// histograms, and what the run record reads besides them.
struct ShardOutput {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, LogLinearHistogram)>,
    base_reports: u64,
    events: u64,
    net: NetStats,
    delivered: Vec<TxKey>,
    tail_dropped: u64,
    outbox_allocs: u64,
    engaged: Vec<NodeId>,
}

enum Cmd {
    /// Run to the barrier (inclusive) and send the epoch response back.
    Advance(Timestamp),
    /// Schedule the barrier injection: faults first, then ingestion of the
    /// routed resolved batch. `outbox` returns this shard's drained buffer
    /// for reuse.
    Inject {
        barrier: Timestamp,
        resolved: Vec<ResolvedTx>,
        faults: Vec<FaultEvent>,
        outbox: Vec<OutIntent>,
    },
    /// Run to the horizon and send the final output back. `last_barrier`
    /// lets the shard assert that every tail intent genuinely postdates
    /// the final exchange (the off-by-one guard).
    Finish {
        horizon: Timestamp,
        last_barrier: Option<Timestamp>,
    },
}

enum Resp {
    Epoch {
        idx: usize,
        outbox: Vec<OutIntent>,
        delivered: Vec<TxKey>,
        spare: Option<Vec<ResolvedTx>>,
    },
    Done(usize, Box<ShardOutput>),
    /// The shard's thread is unwinding from a panic.
    Died(usize),
}

/// Reports a shard thread that unwinds. The live shards, parked on their
/// command channels, hold response senders too, so without this message
/// the orchestrator's `recv` would neither return nor fail.
struct DeathNotice(usize, mpsc::Sender<Resp>);

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.1.send(Resp::Died(self.0));
        }
    }
}

/// Runs one simulation split over `shards` threads in lock-step epochs and
/// merges the result. With identical inputs the output is byte-identical
/// for every `shards >= 1` and for either [`MediumMode`]; `faults` are
/// quantized to the first barrier at or after their nominal time (faults
/// at or past `horizon` never fire).
///
/// # Panics
///
/// Panics if `shards` is zero, or — naming the shard — when a shard thread
/// dies mid-run.
#[must_use]
#[allow(clippy::too_many_arguments)] // one call site family; a params struct would just rename them
pub fn run_sharded(
    program: &Arc<Program>,
    deployment: &Deployment,
    environment: &Environment,
    config: &NetworkConfig,
    seed: u64,
    shards: usize,
    horizon: Timestamp,
    faults: &[(Timestamp, FaultEvent)],
    mode: MediumMode,
) -> ShardedRun {
    assert!(shards >= 1, "at least one shard is required");
    let epoch = config.radio.epoch_latency();
    let mut schedule: Vec<(Timestamp, FaultEvent)> = faults.to_vec();
    schedule.sort_by_key(|(t, _)| *t);

    // Who hears whom, and which shard drives which node, worked out once
    // for the scheduler and every replica.
    let radius = config.radio.comm_radius;
    let topology = Arc::new(Topology::new(deployment, radius));
    let owners = shard_assignment(deployment, radius, shards);
    // The central transmit side: one scheduler resolving every merged
    // intent exactly once, and — in partitioned mode — the per-source
    // interest ranges that bound each transmission's audience.
    let sched_rng = SimRng::seed_from(seed).fork("shard-scheduler");
    let radio = config.radio.clone();
    let mut scheduler = ChannelScheduler::with_topology(topology.clone(), radio, &sched_rng);
    let interest = match mode {
        MediumMode::Partitioned => Some(shard_interest_ranges(deployment, radius, shards)),
        MediumMode::Replicated => None,
    };

    std::thread::scope(|scope| {
        let (resp_tx, resp_rx) = mpsc::channel::<Resp>();
        let mut cmd_txs = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(cmd_tx);
            let resp = resp_tx.clone();
            let program = Arc::clone(program);
            let deployment = deployment.clone();
            let environment = environment.clone();
            let config = config.clone();
            let topology = Arc::clone(&topology);
            let owners = &owners;
            scope.spawn(move || {
                let _notice = DeathNotice(idx, resp.clone());
                let owned = owners.iter().map(|&s| s == idx).collect();
                let mut engine = SensorNetwork::build_engine_sharded(
                    program,
                    deployment,
                    environment,
                    config,
                    seed,
                    topology,
                    owned,
                );
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Advance(barrier) => {
                            engine.run_until(barrier);
                            let world = engine.world_mut();
                            let outbox = world.shard_mut().drain();
                            let delivered = world.drain_shard_delivered();
                            let spare = world.shard_mut().take_spare_resolved();
                            resp.send(Resp::Epoch {
                                idx,
                                outbox,
                                delivered,
                                spare,
                            })
                            .expect("the orchestrator outlives its shards");
                        }
                        Cmd::Inject {
                            barrier,
                            resolved,
                            faults,
                            outbox,
                        } => {
                            engine.world_mut().shard_mut().restore(outbox);
                            // `run_until(barrier)` already consumed every
                            // event at or before the barrier, so this event
                            // is strictly the next to execute: the faults
                            // and the ingestion happen at a fixed point in
                            // the event order, independent of shard count.
                            engine.kernel_mut().schedule_at(
                                barrier,
                                move |w: &mut SensorNetwork, k| {
                                    for f in &faults {
                                        w.apply_fault(k.now(), f);
                                    }
                                    w.inject_shard_resolved(k, resolved);
                                },
                            );
                        }
                        Cmd::Finish {
                            horizon,
                            last_barrier,
                        } => {
                            engine.run_until(horizon);
                            // Intents from the final partial epoch never
                            // reach the channel — identically at every
                            // shard count. Count them, and assert each one
                            // genuinely postdates the last exchange so a
                            // barrier off-by-one cannot silently eat sends.
                            let tail = engine.world_mut().shard_mut().drain();
                            if let Some(lb) = last_barrier {
                                for intent in &tail {
                                    assert!(
                                        intent.at > lb,
                                        "intent at {} from {} missed the {} barrier",
                                        intent.at,
                                        intent.src,
                                        lb
                                    );
                                }
                            }
                            let delivered = engine.world_mut().drain_shard_delivered();
                            let outbox_allocs = engine.world_mut().shard_mut().outbox_allocs();
                            let world = engine.world();
                            let (counters, hists) = world.telemetry().with_registry(|r| {
                                let counters = r.counters().map(|(n, v)| (n.to_owned(), v));
                                let hists = r.histograms().map(|(n, h)| (n.to_owned(), h.clone()));
                                (counters.collect(), hists.collect())
                            });
                            let out = ShardOutput {
                                counters,
                                hists,
                                base_reports: world.base_log().len() as u64,
                                events: engine.kernel().events_processed(),
                                net: world.net_stats().clone(),
                                delivered,
                                tail_dropped: tail.len() as u64,
                                outbox_allocs,
                                engaged: world.engaged_nodes().collect(),
                            };
                            resp.send(Resp::Done(idx, Box::new(out)))
                                .expect("the orchestrator outlives its shards");
                            break;
                        }
                    }
                }
            });
        }
        drop(resp_tx);

        let mut intents = IntentStats::default();
        let mut batch: Vec<OutIntent> = Vec::new();
        let mut outboxes: Vec<Vec<OutIntent>> = (0..shards).map(|_| Vec::new()).collect();
        let mut routes: Vec<Vec<ResolvedTx>> = (0..shards).map(|_| Vec::new()).collect();
        let mut route_pool: Vec<Vec<ResolvedTx>> = Vec::new();
        let mut delivered: HashSet<TxKey> = HashSet::new();
        let mut next_fault = 0usize;
        let mut last_barrier: Option<Timestamp> = None;
        let mut barrier = Timestamp::ZERO + epoch;
        while barrier < horizon {
            for tx in &cmd_txs {
                tx.send(Cmd::Advance(barrier)).expect("shard thread alive");
            }
            batch.clear();
            for _ in 0..shards {
                match resp_rx.recv().expect("shard thread alive") {
                    Resp::Epoch {
                        idx,
                        outbox,
                        delivered: keys,
                        spare,
                    } => {
                        if batch.capacity() == 0 && !outbox.is_empty() {
                            intents.batch_allocs += 1;
                        }
                        let mut outbox = outbox;
                        batch.append(&mut outbox);
                        outboxes[idx] = outbox;
                        delivered.extend(keys);
                        if let Some(buf) = spare {
                            route_pool.push(buf);
                        }
                    }
                    Resp::Done(..) => unreachable!("no shard finishes mid-run"),
                    Resp::Died(idx) => panic!("shard {idx} died mid-run"),
                }
            }
            // (time, src, seq) is a total order: the merged batch is the
            // same regardless of which shard's outbox arrived first.
            batch.sort_by_key(OutIntent::key);
            intents.merged += batch.len() as u64;
            // Everything completing by this barrier has had its deliveries
            // reported; settle the "heard by nobody" verdicts.
            for key in scheduler.finalize_lost(barrier, &delivered) {
                delivered.remove(&key);
            }
            let mut due = Vec::new();
            while next_fault < schedule.len() && schedule[next_fault].0 <= barrier {
                due.push(schedule[next_fault].1.clone());
                next_fault += 1;
            }
            // Channel faults bite the transmit side here (carrier sensing,
            // garbling), at the same quantized barrier the shards apply
            // them to the receiver side (delivery masking, burst chains).
            for f in &due {
                match f {
                    FaultEvent::Partition(groups) => scheduler.set_partition(Some(groups.clone())),
                    FaultEvent::Heal => scheduler.set_partition(None),
                    FaultEvent::LinkFaultsOn(lf) => scheduler.set_link_faults(Some(*lf)),
                    FaultEvent::LinkFaultsOff => scheduler.set_link_faults(None),
                    _ => {}
                }
            }
            for buf in &mut routes {
                if buf.capacity() == 0 {
                    *buf = route_pool.pop().unwrap_or_else(|| {
                        intents.resolved_buf_allocs += 1;
                        Vec::new()
                    });
                }
            }
            // Resolve the merged batch centrally, in merged order, and
            // route each resolved transmission to its interested shards.
            for intent in batch.drain(..) {
                let at = intent.at + epoch;
                let src_idx = intent.src.index();
                let Some(rtx) = scheduler.resolve(at, intent.seq, intent.frame) else {
                    continue; // MAC drop, decided once for everyone
                };
                intents.resolved += 1;
                match &interest {
                    None => {
                        intents.broadcast += shards as u64;
                        for buf in &mut routes {
                            buf.push(rtx.clone());
                        }
                    }
                    Some(ranges) => {
                        let (lo, hi) = ranges[src_idx];
                        intents.routed += (hi - lo + 1) as u64;
                        intents.skipped += (shards - (hi - lo + 1)) as u64;
                        for buf in &mut routes[lo..=hi] {
                            buf.push(rtx.clone());
                        }
                    }
                }
            }
            for (idx, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Inject {
                    barrier,
                    resolved: std::mem::take(&mut routes[idx]),
                    faults: due.clone(),
                    outbox: std::mem::take(&mut outboxes[idx]),
                })
                .expect("shard thread alive");
            }
            last_barrier = Some(barrier);
            barrier += epoch;
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Finish {
                horizon,
                last_barrier,
            })
            .expect("shard thread alive");
        }
        let mut outputs: Vec<Option<Box<ShardOutput>>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            match resp_rx.recv().expect("shard thread alive") {
                Resp::Done(idx, out) => outputs[idx] = Some(out),
                Resp::Epoch { .. } => unreachable!("every shard got Finish"),
                Resp::Died(idx) => panic!("shard {idx} died mid-run"),
            }
        }
        let outputs: Vec<ShardOutput> = outputs
            .into_iter()
            .map(|o| *o.expect("every shard reported"))
            .collect();
        // Final loss verdicts: everything completing by the horizon, with
        // the tail deliveries the shards reported at Finish.
        for out in &outputs {
            delivered.extend(out.delivered.iter().copied());
        }
        let _ = scheduler.finalize_lost(horizon, &delivered);
        // The whole-run channel view: transmit side from the scheduler,
        // receiver side summed over shards (ownership partitions every
        // (transmission, receiver) pair onto exactly one shard).
        let mut net = scheduler.stats().clone();
        for out in &outputs {
            net.absorb(&out.net);
            intents.tail_dropped += out.tail_dropped;
            intents.outbox_allocs += out.outbox_allocs;
        }
        merge_outputs(outputs, net, intents, seed, horizon - Timestamp::ZERO)
    })
}

/// Folds per-shard outputs into one registry — counters and histograms
/// add up (ownership partitions node activity), and the channel counters
/// are derived from the combined scheduler + shard statistics — and exports
/// it, and the run record, the way a monolithic world does its own.
fn merge_outputs(
    outputs: Vec<ShardOutput>,
    net: NetStats,
    intents: IntentStats,
    seed: u64,
    elapsed: SimDuration,
) -> ShardedRun {
    let merged = Telemetry::new();
    let (mut events, mut base_reports) = (0, 0);
    for out in &outputs {
        events += out.events;
        base_reports += out.base_reports;
        for (name, v) in &out.counters {
            // Kernel event counts vary with routing (each ingested
            // transmission is one event); they are diagnostic, not output.
            if name != "kernel.events" {
                merged.add(name, *v);
            }
        }
        for (name, h) in &out.hists {
            merged.absorb_histogram(name, h);
        }
    }
    // Channel counters, derived from the combined statistics exactly where
    // a monolithic medium would have recorded them. Presence matches that
    // medium's lazy registration: a kind appears once it transmits or
    // MAC-drops.
    for (kind, ks) in &net.per_kind {
        merged.add(&format!("net.k{kind}.tx"), ks.tx);
        merged.add(&format!("net.k{kind}.lost"), ks.tx_lost);
        merged.add(&format!("net.k{kind}.mac_drop"), ks.mac_dropped);
        merged.add(&format!("net.k{kind}.bytes"), ks.bytes_on_air);
    }
    // Invariant across shard counts and medium modes (every tail intent is
    // captured by exactly one owner), so it belongs in the compared bytes.
    merged.add("shard.intents.tail_dropped", intents.tail_dropped);
    ShardedRun {
        record: RunRecord::from_registry(seed, elapsed, &merged, &net, base_reports, 0),
        telemetry_jsonl: telemetry_to_jsonl(&merged),
        events_processed: events,
        intents,
        net,
        engaged: outputs.into_iter().map(|out| out.engaged).collect(),
    }
}
