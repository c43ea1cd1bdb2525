//! Property-based tests for the radio medium and geographic routing.

use std::collections::HashSet;

use bytes::Bytes;
use envirotrack_net::medium::{
    ChannelScheduler, DeliveryOutcome, GilbertElliott, LinkFaults, Medium, RadioConfig, TxKey,
};
use envirotrack_net::packet::{Frame, FrameKind};
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
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

/// One deployment of the channel pipeline, driven through a common
/// surface so the identity property can feed both the same schedule.
struct Pipeline {
    /// `None`: `media` is one inline [`Medium`] owning every node. `Some`:
    /// a stand-alone scheduler feeding executor media whose ownership
    /// masks partition the nodes (node `i` belongs to executor `i % k`).
    scheduler: Option<ChannelScheduler>,
    media: Vec<Medium>,
    /// Per-source intent numbering for the stand-alone scheduler.
    next_seq: Vec<u64>,
}

/// What one completed transmission looked like from outside.
type Completion = (Timestamp, Vec<(NodeId, DeliveryOutcome)>, Vec<u8>, bool);

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

    /// Requests a transmission; `None` is a MAC drop.
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

    /// The whole-run statistics, rendered for comparison.
    fn stats(mut self) -> String {
        let Some(mut scheduler) = self.scheduler else {
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

/// Feeds one `(gap, src, payload length, toggle)` schedule through a
/// pipeline, collecting deliveries as they fall due, and returns everything
/// observable: per-op MAC verdicts, completions in order, final statistics.
fn drive(
    mut pipe: Pipeline,
    n: usize,
    ops: &[(u64, u32, usize, u8)],
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
                reorder_max_delay: SimDuration::from_millis(30),
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
    assert!(slipped.completes_at > later, "the slip must outlast the gap");
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
        let inline = drive(Pipeline::new(&field, &cfg, seed, None), field.len(), &ops);
        for k in [1usize, 2, 4] {
            let split = drive(Pipeline::new(&field, &cfg, seed, Some(k)), field.len(), &ops);
            prop_assert_eq!(&inline.0, &split.0, "MAC verdicts diverged at {} executors", k);
            prop_assert_eq!(&inline.1, &split.1, "completions diverged at {} executors", k);
            prop_assert_eq!(&inline.2, &split.2, "statistics diverged at {} executors", k);
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
