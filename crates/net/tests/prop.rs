//! Property-based tests for the radio medium and geographic routing.

use std::collections::HashSet;

use bytes::Bytes;
use envirotrack_net::medium::{
    ChannelScheduler, DeliveryOutcome, GilbertElliott, KindStats, LinkFaults, Medium, NetStats,
    RadioConfig, TxKey, BACKOFF_MAX, PROC_DELAY,
};
use envirotrack_net::packet::{Frame, FrameKind};
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::{neighbor_lists_with, NeighborStrategy};
use testkit::prelude::*;

/// The delivery-range and statistics invariants, checked for one concrete
/// configuration. Shared between the property below and the saved
/// regression case.
fn check_delivery_invariants(
    cols: u32,
    rows: u32,
    comm_radius: f64,
    loss: f64,
    sends: &[(u32, u64)],
    seed: u64,
) {
    let field = Deployment::grid(cols, rows, 1.0);
    let n = field.len() as u32;
    let cfg = RadioConfig::default()
        .with_comm_radius(comm_radius)
        .with_base_loss(loss);
    let mut medium = Medium::new(&field, cfg, &SimRng::seed_from(seed));
    let mut now = Timestamp::ZERO;
    let mut pending = Vec::new();
    for &(src, gap_ms) in sends {
        now += SimDuration::from_millis(gap_ms);
        let frame = Frame::broadcast(NodeId(src % n), FrameKind(1), Bytes::from_static(&[0; 8]));
        if let Ok(tx) = medium.transmit(now, frame) {
            pending.push((tx, NodeId(src % n)));
        }
    }
    // Resolve in completion order.
    pending.sort_by_key(|(tx, _)| tx.completes_at);
    let mut rx_pairs = 0u64;
    let mut lost_pairs = 0u64;
    for (tx, src) in pending {
        let report = medium.deliveries(tx.id);
        for (receiver, outcome) in &report.outcomes {
            let d = field.position(src).distance_to(field.position(*receiver));
            prop_assert!(d <= comm_radius + 1e-9, "delivered beyond the radio range");
            prop_assert_ne!(*receiver, src, "no self-delivery");
            match outcome {
                DeliveryOutcome::Delivered => rx_pairs += 1,
                _ => lost_pairs += 1,
            }
        }
    }
    let ks = medium.stats().kind(FrameKind(1));
    prop_assert_eq!(ks.rx, rx_pairs);
    prop_assert_eq!(ks.collided + ks.faded + ks.half_duplex, lost_pairs);
    prop_assert!(ks.tx_lost <= ks.tx);
    let ratio = ks.pair_loss_ratio();
    prop_assert!((0.0..=1.0).contains(&ratio));
}

/// What one completed transmission looked like from outside.
type Completion = (Timestamp, Vec<(NodeId, DeliveryOutcome)>, Vec<u8>, bool);

/// The surface [`drive`] feeds a schedule through: the channel pipeline in
/// any deployment, or the brute-force [`Oracle`].
trait Channel {
    fn set_partition(&mut self, groups: Option<Vec<u8>>);
    fn set_burst_loss(&mut self, model: Option<GilbertElliott>);
    fn set_link_faults(&mut self, faults: Option<LinkFaults>);
    /// Requests a transmission; `None` is a MAC drop.
    fn send(&mut self, now: Timestamp, frame: Frame) -> Option<(u64, Timestamp)>;
    fn complete(&mut self, id: u64, at: Timestamp) -> Completion;
    /// The whole-run statistics, rendered for comparison.
    fn stats(&mut self) -> String;
}

/// One deployment of the channel pipeline.
struct Pipeline {
    /// `None`: `media` is one inline [`Medium`] owning every node. `Some`:
    /// a stand-alone scheduler feeding executor media whose ownership
    /// masks partition the nodes (node `i` belongs to executor `i % k`).
    scheduler: Option<ChannelScheduler>,
    media: Vec<Medium>,
    /// Per-source intent numbering for the stand-alone scheduler.
    next_seq: Vec<u64>,
}

impl Pipeline {
    fn new(field: &Deployment, cfg: &RadioConfig, seed: u64, split: Option<usize>) -> Self {
        let rng = SimRng::seed_from(seed);
        let k = split.unwrap_or(1);
        let media = (0..k)
            .map(|j| {
                let mut m = Medium::new(field, cfg.clone(), &rng);
                if split.is_some() {
                    m.enable_shard_exec((0..field.len()).map(|i| i % k == j).collect());
                }
                m
            })
            .collect();
        Pipeline {
            scheduler: split.map(|_| ChannelScheduler::new(field, cfg.clone(), &rng)),
            media,
            next_seq: vec![0; field.len()],
        }
    }
}

impl Channel for Pipeline {
    fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        if let Some(scheduler) = &mut self.scheduler {
            scheduler.set_partition(groups.clone());
        }
        for m in &mut self.media {
            m.set_partition(groups.clone());
        }
    }

    fn set_burst_loss(&mut self, model: Option<GilbertElliott>) {
        for m in &mut self.media {
            m.set_burst_loss(model);
        }
    }

    fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        match &mut self.scheduler {
            Some(scheduler) => scheduler.set_link_faults(faults),
            None => self.media[0].set_link_faults(faults),
        }
    }

    fn send(&mut self, now: Timestamp, frame: Frame) -> Option<(u64, Timestamp)> {
        let Some(scheduler) = &mut self.scheduler else {
            let tx = self.media[0].transmit(now, frame).ok()?;
            return Some((tx.id.0, tx.completes_at));
        };
        let seq = &mut self.next_seq[frame.src.index()];
        let rtx = scheduler.resolve(now, *seq, frame);
        *seq += 1;
        // Every executor ingests everything, so their local handles
        // advance in step.
        let rtx = rtx?;
        self.media
            .iter_mut()
            .map(|m| m.ingest_resolved(rtx.clone()))
            .last()
    }

    fn complete(&mut self, id: u64, at: Timestamp) -> Completion {
        let mut outcomes = Vec::new();
        let mut seen = None;
        for m in &mut self.media {
            let report = m.exec_deliveries(id);
            outcomes.extend_from_slice(&report.outcomes);
            seen = Some((report.frame.payload.to_vec(), report.duplicated));
            m.recycle(report);
        }
        outcomes.sort_by_key(|(n, _)| *n);
        let (payload, duplicated) = seen.expect("at least one medium");
        (at, outcomes, payload, duplicated)
    }

    fn stats(&mut self) -> String {
        let Some(scheduler) = &mut self.scheduler else {
            return format!("{:?}", self.media[0].stats());
        };
        let delivered: HashSet<TxKey> = self
            .media
            .iter_mut()
            .flat_map(Medium::drain_delivered_keys)
            .collect();
        let _ = scheduler.finalize_lost(Timestamp::MAX, &delivered);
        let mut all = scheduler.stats().clone();
        for m in &self.media {
            all.absorb(m.stats());
        }
        format!("{all:?}")
    }
}

/// A model of the whole channel that keeps every window ever sent and scans
/// all of them, per sender for carrier sensing and per receiver for
/// collisions: the loop the medium ran before it bounded its windows in
/// time, kept here as the reference the bounded one must agree with. It
/// follows the pinned draw discipline (stream labels, draw order, keyed
/// fades) that fixed-seed run digests already depend on.
struct Oracle {
    cfg: RadioConfig,
    neighbors: Vec<Vec<NodeId>>,
    partition: Option<Vec<u8>>,
    faults: Option<LinkFaults>,
    backoff_rng: SimRng,
    fault_rng: SimRng,
    fade_pairs: SimRng,
    burst_base: SimRng,
    /// The installed burst model with per-receiver `(bad, chain)` state.
    burst: Option<(GilbertElliott, Vec<(bool, SimRng)>)>,
    next_seq: Vec<u64>,
    /// `(key, start, end, frame as sent, duplicated)`, never pruned.
    windows: Vec<(TxKey, Timestamp, Timestamp, Frame, bool)>,
    stats: NetStats,
    /// Windows looked at by the receiver walks.
    visits: u64,
}

impl Oracle {
    fn new(field: &Deployment, cfg: &RadioConfig, seed: u64) -> Self {
        let rng = SimRng::seed_from(seed);
        let exec = rng.fork("shard-exec");
        Oracle {
            cfg: cfg.clone(),
            neighbors: neighbor_lists_with(field, cfg.comm_radius, NeighborStrategy::BruteForce),
            partition: None,
            faults: None,
            backoff_rng: rng.fork("radio-medium"),
            fault_rng: rng.fork("link-faults"),
            fade_pairs: exec.fork("fade").fork("pair"),
            burst_base: exec.fork("burst"),
            burst: None,
            next_seq: vec![0; field.len()],
            windows: Vec::new(),
            stats: NetStats::default(),
            visits: 0,
        }
    }

    /// In range and not cut off by the partition.
    fn audible(&self, a: NodeId, b: NodeId) -> bool {
        let cut = self
            .partition
            .as_ref()
            .is_some_and(|g| g[a.index()] != g[b.index()]);
        self.neighbors[a.index()].contains(&b) && !cut
    }

    fn kind(&mut self, kind: FrameKind) -> &mut KindStats {
        self.stats.per_kind.entry(kind.0).or_default()
    }
}

impl Channel for Oracle {
    fn set_partition(&mut self, groups: Option<Vec<u8>>) {
        self.partition = groups;
    }

    fn set_burst_loss(&mut self, model: Option<GilbertElliott>) {
        let chains = (0..self.neighbors.len() as u64)
            .map(|v| (false, self.burst_base.fork_indexed("rx", v)))
            .collect();
        self.burst = model.map(|m| (m, chains));
    }

    fn set_link_faults(&mut self, faults: Option<LinkFaults>) {
        self.faults = faults;
    }

    fn send(&mut self, now: Timestamp, mut frame: Frame) -> Option<(u64, Timestamp)> {
        let src = frame.src;
        let seq = self.next_seq[src.index()];
        self.next_seq[src.index()] += 1;
        let mut start = now;
        if self.cfg.csma {
            let busy_until = self
                .windows
                .iter()
                .filter(|(key, ..)| key.0 == src.0 || self.audible(NodeId(key.0), src))
                .fold(now, |t, &(_, _, end, ..)| t.max(end));
            if busy_until > now {
                let backoff = self.backoff_rng.below(BACKOFF_MAX.as_micros());
                start = busy_until + SimDuration::from_micros(backoff);
            }
            if start.saturating_since(now) > self.cfg.max_defer {
                self.kind(frame.kind).mac_dropped += 1;
                return None;
            }
        }
        let tx_time = self.cfg.tx_time(&frame);
        let end = start + tx_time;
        self.stats.total_tx += 1;
        self.stats.total_bits += frame.on_air_bits();
        self.stats.busy_time += tx_time;
        let mut tally = KindStats {
            tx: 1,
            bytes_on_air: frame.on_air_bits() / 8,
            ..KindStats::default()
        };
        // Fault draws: reorder slip, truncation, per-byte flips, duplication.
        let mut slip = SimDuration::ZERO;
        if let Some(f) = self.faults {
            let rng = &mut self.fault_rng;
            if f.reorder > 0.0 && rng.chance(f.reorder) {
                slip = SimDuration::from_micros(rng.below(f.reorder_max_delay.as_micros().max(1)));
                tally.reordered = 1;
            }
            let mut bytes = frame.payload.to_vec();
            if f.truncate > 0.0 && !bytes.is_empty() && rng.chance(f.truncate) {
                bytes.truncate(rng.below(bytes.len() as u64) as usize);
                tally.corrupted = 1;
            }
            if f.flip_per_byte > 0.0 {
                for byte in &mut bytes {
                    if rng.chance(f.flip_per_byte) {
                        *byte ^= 1 << rng.below(8);
                        tally.corrupted = 1;
                    }
                }
            }
            frame.payload = Bytes::from(bytes);
            if f.duplicate > 0.0 && rng.chance(f.duplicate) {
                tally.duplicated = 1;
            }
        }
        self.kind(frame.kind).absorb(&tally);
        self.windows
            .push(((src.0, seq), start, end, frame, tally.duplicated == 1));
        let id = self.windows.len() as u64 - 1;
        Some((id, end + PROC_DELAY + slip))
    }

    fn complete(&mut self, id: u64, at: Timestamp) -> Completion {
        let (key, start, end, frame, duplicated) = self.windows[id as usize].clone();
        let src = frame.src;
        let mut tally = KindStats::default();
        let mut outcomes = Vec::new();
        for v in self.neighbors[src.index()].clone() {
            let mut outcome = DeliveryOutcome::Delivered;
            if !self.audible(src, v) {
                outcome = DeliveryOutcome::PartitionDrop;
            } else {
                for (okey, ostart, oend, ..) in &self.windows {
                    self.visits += 1;
                    let osrc = NodeId(okey.0);
                    if osrc == src || !(*ostart < end && start < *oend) {
                        continue;
                    }
                    if osrc == v {
                        outcome = DeliveryOutcome::HalfDuplex;
                        break;
                    }
                    if self.audible(osrc, v) {
                        outcome = DeliveryOutcome::Collided;
                        break;
                    }
                }
            }
            if outcome == DeliveryOutcome::Delivered && self.cfg.base_loss > 0.0 {
                let mut s = (u64::from(key.0) << 32) ^ u64::from(v.0);
                let mut s2 = splitmix64(&mut s) ^ key.1;
                let pair = splitmix64(&mut s2);
                if self.fade_pairs.indexed(pair).chance(self.cfg.base_loss) {
                    outcome = DeliveryOutcome::Faded;
                }
            }
            if let Some((model, chains)) = &mut self.burst {
                if outcome != DeliveryOutcome::PartitionDrop {
                    let (bad, chain) = &mut chains[v.index()];
                    let flip = if *bad {
                        model.p_bad_to_good
                    } else {
                        model.p_good_to_bad
                    };
                    if chain.chance(flip) {
                        *bad = !*bad;
                    }
                    let loss = if *bad {
                        model.loss_bad
                    } else {
                        model.loss_good
                    };
                    if outcome == DeliveryOutcome::Delivered && chain.chance(loss) {
                        outcome = DeliveryOutcome::BurstFaded;
                    }
                }
            }
            match outcome {
                DeliveryOutcome::Delivered => tally.rx += 1,
                DeliveryOutcome::Collided => tally.collided += 1,
                DeliveryOutcome::HalfDuplex => tally.half_duplex += 1,
                DeliveryOutcome::Faded => tally.faded += 1,
                DeliveryOutcome::BurstFaded => tally.burst_faded += 1,
                DeliveryOutcome::PartitionDrop => tally.partition_dropped += 1,
            }
            outcomes.push((v, outcome));
        }
        tally.tx_lost = u64::from(tally.rx == 0);
        self.kind(frame.kind).absorb(&tally);
        (at, outcomes, frame.payload.to_vec(), duplicated)
    }

    fn stats(&mut self) -> String {
        format!("{:?}", self.stats)
    }
}

/// Feeds one `(gap, src, payload length, toggle)` schedule through a
/// channel, collecting deliveries as they fall due, and returns everything
/// observable: per-op MAC verdicts, completions in order, final statistics.
/// `slip` bounds the reorder delay of the link faults the schedule installs.
fn drive(
    pipe: &mut impl Channel,
    n: usize,
    ops: &[(u64, u32, usize, u8)],
    slip: SimDuration,
) -> (Vec<bool>, Vec<Completion>, String) {
    let mut now = Timestamp::ZERO;
    let mut admitted = Vec::new();
    let mut pending: Vec<(Timestamp, u64)> = Vec::new();
    let mut completions = Vec::new();
    for &(gap_ms, src, len, toggle) in ops {
        now += SimDuration::from_millis(gap_ms);
        pending.sort();
        let due = pending.partition_point(|(at, _)| *at <= now);
        for (at, id) in pending.drain(..due) {
            completions.push(pipe.complete(id, at));
        }
        match toggle {
            0 => pipe.set_partition(Some((0..n).map(|i| u8::from(i >= n / 2)).collect())),
            1 => pipe.set_partition(None),
            2 => pipe.set_burst_loss(Some(GilbertElliott {
                p_good_to_bad: 0.3,
                ..GilbertElliott::default()
            })),
            3 => pipe.set_burst_loss(None),
            4 => pipe.set_link_faults(Some(LinkFaults {
                flip_per_byte: 0.05,
                truncate: 0.2,
                duplicate: 0.3,
                reorder: 0.3,
                reorder_max_delay: slip,
            })),
            5 => pipe.set_link_faults(None),
            _ => {}
        }
        let frame = Frame::broadcast(
            NodeId(src % n as u32),
            FrameKind(1 + (src % 2) as u8),
            Bytes::from(vec![0xa5; len]),
        );
        let sent = pipe.send(now, frame);
        admitted.push(sent.is_some());
        pending.extend(sent.map(|(id, at)| (at, id)));
    }
    pending.sort();
    for (at, id) in pending {
        completions.push(pipe.complete(id, at));
    }
    (admitted, completions, pipe.stats())
}

/// The failing case proptest once saved to `prop.proptest-regressions`
/// for `deliveries_stay_in_range_and_stats_balance`, preserved verbatim
/// as an explicit regression test across the testkit port.
#[test]
fn saved_regression_two_by_two_grid_short_radius() {
    check_delivery_invariants(2, 2, 0.5, 0.0, &[(0, 0), (0, 856), (0, 402)], 0);
}

/// A reorder slip may hold a transmission's receiver walk back for longer
/// than any fixed horizon (`LinkFaults::validate` does not bound
/// `reorder_max_delay`). The window it collided with must still be there
/// when the walk finally happens: both ends of a collision report it.
#[test]
fn slipped_transmission_still_sees_its_collision() {
    // 0 --- 1 --- 2, hidden terminals: 0 and 2 both reach 1, not each other.
    let field = Deployment::grid(3, 1, 1.0);
    let cfg = RadioConfig::default()
        .with_comm_radius(1.5)
        .with_base_loss(0.0);
    let mut medium = Medium::new(&field, cfg, &SimRng::seed_from(8));
    let send = |medium: &mut Medium, at: Timestamp, src: u32| {
        let frame = Frame::broadcast(NodeId(src), FrameKind(1), Bytes::from_static(&[0; 20]));
        medium.transmit(at, frame).expect("channel idle")
    };
    medium.set_link_faults(Some(LinkFaults {
        flip_per_byte: 0.0,
        truncate: 0.0,
        duplicate: 0.0,
        reorder: 1.0,
        reorder_max_delay: SimDuration::from_secs(5),
    }));
    let slipped = send(&mut medium, Timestamp::ZERO, 0);
    medium.set_link_faults(None);
    let peer = send(&mut medium, Timestamp::from_millis(1), 2);
    let collided = vec![(NodeId(1), DeliveryOutcome::Collided)];
    assert_eq!(medium.deliveries(peer.id).outcomes, collided);
    // Traffic two seconds on, while the slipped walk is still pending.
    let later = Timestamp::from_secs(2);
    assert!(
        slipped.completes_at > later,
        "the slip must outlast the gap"
    );
    let _ = send(&mut medium, later, 1);
    assert_eq!(medium.deliveries(slipped.id).outcomes, collided);
}

prop_test! {
    /// Deliveries only ever reach nodes within the communication radius,
    /// and the per-kind statistics add up.
    #[test]
    fn deliveries_stay_in_range_and_stats_balance(
        cols in 2u32..6,
        rows in 2u32..6,
        comm_radius in 0.5..4.0f64,
        loss in 0.0..0.5f64,
        sends in prop::collection::vec((0u32..36, 0u64..1000u64), 1..30),
        seed: u64,
    ) {
        check_delivery_invariants(cols, rows, comm_radius, loss, &sends, seed);
    }

    /// The channel is one pipeline: an inline [`Medium`] and a stand-alone
    /// [`ChannelScheduler`] feeding executor media that split the nodes
    /// 1, 2 or 4 ways see the same schedule identically — MAC verdicts,
    /// completion instants, per-receiver outcomes, garbled payload bytes,
    /// duplication flags and the combined statistics — with a partition
    /// mask, a burst model and link faults toggled mid-stream.
    #[test]
    fn inline_medium_equals_scheduler_plus_executors(
        cols in 2u32..6,
        rows in 2u32..5,
        comm_radius in 0.8..3.0f64,
        loss in 0.0..0.5f64,
        csma: bool,
        ops in prop::collection::vec((0u64..12, 0u32..30, 0usize..24, 0u8..14), 1..60),
        seed: u64,
    ) {
        let field = Deployment::grid(cols, rows, 1.0);
        let mut cfg = RadioConfig::default()
            .with_comm_radius(comm_radius)
            .with_base_loss(loss);
        cfg.csma = csma;
        // Tight enough that a busy stretch of the schedule MAC-drops.
        cfg.max_defer = SimDuration::from_millis(20);
        let slip = SimDuration::from_millis(30);
        let run = |split| drive(&mut Pipeline::new(&field, &cfg, seed, split), field.len(), &ops, slip);
        let inline = run(None);
        for k in [1usize, 2, 4] {
            let split = run(Some(k));
            prop_assert_eq!(&inline.0, &split.0, "MAC verdicts diverged at {} executors", k);
            prop_assert_eq!(&inline.1, &split.1, "completions diverged at {} executors", k);
            prop_assert_eq!(&inline.2, &split.2, "statistics diverged at {} executors", k);
        }
    }

    /// Bounding the channel windows in time changes nothing observable:
    /// over schedules long enough to prune — 200+ sends in bursts a few
    /// milliseconds apart, a pause of one to two seconds after every 40th,
    /// deliveries collected as they fall due, reorder slips of up to three
    /// seconds, partition / burst / link-fault toggles mid-stream — the
    /// inline medium and 1, 2 and 4 executors agree with the brute-force
    /// [`Oracle`] on MAC verdicts, completion instants, per-receiver
    /// outcomes, garbled bytes and the combined statistics.
    #[test]
    fn bounded_windows_equal_the_full_backlog_oracle(
        cols in 2u32..6,
        rows in 2u32..5,
        comm_radius in 0.8..3.0f64,
        loss in 0.0..0.5f64,
        csma: bool,
        raw in prop::collection::vec((0u64..2000, 0u32..30, 0usize..24, 0u8..40), 200..260),
        seed: u64,
    ) {
        let field = Deployment::grid(cols, rows, 1.0);
        let mut cfg = RadioConfig::default()
            .with_comm_radius(comm_radius)
            .with_base_loss(loss);
        cfg.csma = csma;
        cfg.max_defer = SimDuration::from_millis(20);
        let ops: Vec<_> = raw
            .iter()
            .enumerate()
            .map(|(i, &(gap, src, len, toggle))| {
                let gap_ms = if i % 40 == 39 { 1000 + gap / 2 } else { gap % 12 };
                (gap_ms, src, len, toggle)
            })
            .collect();
        let slip = SimDuration::from_secs(3);
        let mut oracle = Oracle::new(&field, &cfg, seed);
        let expected = drive(&mut oracle, field.len(), &ops, slip);
        for split in [None, Some(1usize), Some(2), Some(4)] {
            let mut pipe = Pipeline::new(&field, &cfg, seed, split);
            let got = drive(&mut pipe, field.len(), &ops, slip);
            prop_assert_eq!(&expected.0, &got.0, "MAC verdicts diverged, split {:?}", split);
            prop_assert_eq!(&expected.1, &got.1, "completions diverged, split {:?}", split);
            prop_assert_eq!(&expected.2, &got.2, "statistics diverged, split {:?}", split);
            // And the walks ran on pruned windows, not on the backlog.
            let visits = pipe.media[0].window_visits();
            prop_assert!(
                oracle.visits == 0 || visits * 4 < oracle.visits,
                "{} window visits against the oracle's {}", visits, oracle.visits
            );
        }
    }

    /// With zero loss and serialized (non-overlapping) transmissions,
    /// every in-range receiver gets every frame.
    #[test]
    fn quiet_lossless_channel_delivers_everything(
        sends in prop::collection::vec(0u32..9, 1..20),
        seed: u64,
    ) {
        let field = Deployment::grid(3, 3, 1.0);
        let cfg = RadioConfig::default().with_comm_radius(5.0).with_base_loss(0.0);
        let mut medium = Medium::new(&field, cfg, &SimRng::seed_from(seed));
        let mut now = Timestamp::ZERO;
        for &src in &sends {
            let frame = Frame::broadcast(NodeId(src), FrameKind(2), Bytes::from_static(&[0; 4]));
            let tx = medium.transmit(now, frame).expect("channel idle");
            // Wait until well past completion before resolving and sending
            // the next one.
            now = tx.completes_at + SimDuration::from_millis(50);
            let report = medium.deliveries(tx.id);
            prop_assert_eq!(report.outcomes.len(), 8);
            prop_assert!(report
                .outcomes
                .iter()
                .all(|(_, o)| *o == DeliveryOutcome::Delivered));
        }
        prop_assert_eq!(medium.stats().kind(FrameKind(2)).tx_lost, 0);
    }

    /// Greedy routing: every hop strictly decreases the distance to the
    /// destination, and the path ends at a node no neighbour beats.
    #[test]
    fn greedy_routes_decrease_distance_monotonically(
        cols in 2u32..10,
        rows in 2u32..10,
        start in 0u32..100,
        dx in -20.0..20.0f64,
        dy in -20.0..20.0f64,
        comm_radius in 1.0..3.0f64,
    ) {
        let field = Deployment::grid(cols, rows, 1.0);
        let start = NodeId(start % field.len() as u32);
        let dest = Point::new(dx, dy);
        let router = GeoRouter::new(&field, comm_radius);
        let path = router.route(start, dest).expect("grids have no voids under greedy");
        prop_assert_eq!(path[0], start);
        for w in path.windows(2) {
            let d0 = router.position(w[0]).distance_to(dest);
            let d1 = router.position(w[1]).distance_to(dest);
            prop_assert!(d1 < d0, "hop did not approach the destination");
            prop_assert!(
                router.position(w[0]).distance_to(router.position(w[1])) <= comm_radius + 1e-9,
                "hop exceeds the radio range"
            );
        }
        let last = *path.last().unwrap();
        prop_assert!(router.is_home(last, dest));
    }

    /// Frame airtime scales linearly with payload size.
    #[test]
    fn airtime_is_linear_in_size(extra in 0usize..64) {
        let cfg = RadioConfig::default();
        let small = Frame::broadcast(NodeId(0), FrameKind(0), Bytes::from(vec![0u8; 1]));
        let big = Frame::broadcast(NodeId(0), FrameKind(0), Bytes::from(vec![0u8; 1 + extra]));
        let dt = cfg.tx_time(&big).as_micros() as i64 - cfg.tx_time(&small).as_micros() as i64;
        let expected = (extra as i64) * 8 * 1_000_000 / 50_000;
        prop_assert!((dt - expected).abs() <= 1, "airtime delta {dt} vs {expected}");
    }
}
