//! The simulation hub: one thread owning every shared `SensorNetwork` run.
//!
//! The simulation stack is deliberately single-threaded (`Rc` handles,
//! deterministic event order), so it cannot be touched from the socket
//! workers. Instead *all* worlds live on one hub thread; workers talk to
//! it through an mpsc command queue and receive events through per-session
//! [`Outbox`]es — lock-guarded frame queues the hub only ever *try*-pushes
//! into. A slow consumer therefore fills its own outbox and gets shed; it
//! can never block the hub, and the shared simulation advances at full
//! speed for everyone else. This is the determinism boundary: virtual sim
//! time is produced on the hub clock, wall-clock pacing and delivery
//! happen outside it.
//!
//! The hub pays per *session*, not per event: a world keeps its
//! subscriptions grouped by session, encodes one sample's frames for a
//! session back to back into one buffer and hands them to that session's
//! outbox under one lock; the worker takes them out again under one lock
//! per pass. The hub ticks at a fixed rate — every `tick_real`, whatever
//! the tick's own work took.
//!
//! Worlds are keyed by `(scenario, seed)` and shared: a thousand clients
//! subscribing to the same scenario+seed cost one simulation, not a
//! thousand. Each world wraps around when its tank finishes crossing — the
//! engine is rebuilt with the same seed and an epoch offset keeps event
//! timestamps monotone per query.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_core::aggregate::{AggValue, AggregateFn, AggregateInput};
use envirotrack_core::api::Program;
use envirotrack_core::context::{ContextTypeId, SensePredicate};
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::object::payload;
use envirotrack_core::wire::session::{SessionMsg, SubAck, TrackEvent};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;
use envirotrack_world::target::Channel;

use crate::metrics::ServeMetrics;
pub use crate::outbox::Outbox;

/// Scenario 0: the paper's 10×2 testbed grid.
pub const SCENARIO_TESTBED: u8 = 0;
/// Scenario 1: a wider, faster 20×3 field (requires `CAP_SCENARIO_RUN`).
pub(crate) const SCENARIO_WIDE: u8 = 1;

/// A validated-at-the-hub subscription request.
pub struct SubscribeReq {
    /// Client-chosen query id, echoed in events.
    pub query_id: u32,
    /// Scenario catalog entry.
    pub scenario: u8,
    /// World RNG seed.
    pub seed: u64,
    /// Context type to stream leader positions for.
    pub type_id: ContextTypeId,
    /// Where acks and events for this session go.
    pub outbox: Arc<Outbox>,
    /// When the worker pulled the SUBSCRIBE off the socket, for the
    /// query-latency histograms.
    pub received_at: Instant,
}

/// A worker→hub request.
pub enum HubCommand {
    /// Register a streaming query on a (possibly new) world.
    Subscribe(SubscribeReq),
    /// Stop the hub thread.
    Shutdown,
}

/// Hub tuning knobs.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Maximum concurrently simulated worlds; further `(scenario, seed)`
    /// keys are denied.
    pub max_worlds: usize,
    /// Virtual time each hub tick advances every world by.
    pub tick_virtual: SimDuration,
    /// Wall-clock period of the hub ticks: tick starts lie `tick_real`
    /// apart whatever a tick's own work took, so the virtual:real speedup
    /// is `tick_virtual / tick_real` for as long as that work fits in the
    /// period. A tick that cannot start on time starts as soon as it can
    /// and the schedule restarts from there — lateness is counted
    /// (`ServeMetrics::hub_ticks_late`), never made up by a burst. Zero
    /// means unpaced: tick after tick with no wait.
    pub tick_real: Duration,
    /// Virtual interval between leader snapshots *within* a tick: a tick
    /// emits `tick_virtual / sample_virtual` event batches. Equal to
    /// `tick_virtual` → one batch per tick.
    pub sample_virtual: SimDuration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            max_worlds: 8,
            tick_virtual: SimDuration::from_millis(200),
            tick_real: Duration::from_millis(2),
            sample_virtual: SimDuration::from_millis(200),
        }
    }
}

struct Subscription {
    query_id: u32,
    seq: u64,
    subscribed_at: Instant,
    first_event_recorded: bool,
}

/// One session's subscriptions on one world, in the order they arrived:
/// what one hand-off to its outbox covers.
struct SessionSubs {
    outbox: Arc<Outbox>,
    subs: Vec<Subscription>,
}

/// One session's frames of one sample, back to back; the hub reuses one.
#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    /// Where each frame ends in `bytes`.
    ends: Vec<usize>,
}

struct World {
    engine: Engine<SensorNetwork>,
    program: Arc<Program>,
    scenario: u8,
    seed: u64,
    type_id: ContextTypeId,
    /// Virtual duration of one crossing; the engine is rebuilt past this.
    horizon: SimDuration,
    /// Accumulated virtual time of completed crossings, keeping event
    /// timestamps monotone across engine rebuilds.
    epoch: SimDuration,
    sessions: Vec<SessionSubs>,
}

/// The figure-2 tracking program every served world runs.
fn serve_program() -> Arc<Program> {
    Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
                    .aggregate(
                        "location",
                        AggregateFn::CenterOfGravity,
                        AggregateInput::Position,
                        SimDuration::from_secs(1),
                        2,
                    )
                    .object("reporter", |o| {
                        o.on_timer("report", SimDuration::from_secs(5), |ctx| {
                            if let Ok(AggValue::Point(p)) = ctx.read("location") {
                                ctx.send_to_base(payload::position(p));
                            }
                        })
                    })
            })
            .build()
            .expect("the serve tracking program is valid"),
    )
}

fn scenario_spec(scenario: u8) -> Option<TankScenario> {
    match scenario {
        SCENARIO_TESTBED => Some(TankScenario {
            cols: 10,
            rows: 2,
            speed_hops_per_s: 0.5,
            sensing_radius: 1.0,
            lane_y: 0.5,
            approach: 1.5,
        }),
        SCENARIO_WIDE => Some(TankScenario {
            cols: 20,
            rows: 3,
            speed_hops_per_s: 1.0,
            sensing_radius: 1.5,
            lane_y: 1.0,
            approach: 2.0,
        }),
        _ => None,
    }
}

fn build_world(
    program: Arc<Program>,
    scenario: u8,
    seed: u64,
    type_id: ContextTypeId,
) -> Option<World> {
    let spec = scenario_spec(scenario)?;
    let built = spec.build();
    let tank = built.environment.target(built.primary_target)?.clone();
    let crossing = tank.trajectory().duration()?;
    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg.radio.with_comm_radius(6.0).with_base_loss(0.05);
    let engine = SensorNetwork::build_engine(
        Arc::clone(&program),
        built.deployment,
        built.environment,
        net_cfg,
        seed,
    );
    Some(World {
        engine,
        program,
        scenario,
        seed,
        type_id,
        horizon: crossing + SimDuration::from_secs(5),
        epoch: SimDuration::ZERO,
        sessions: Vec::new(),
    })
}

impl World {
    /// Advances virtual time by `slice` in sub-steps of `sample`,
    /// emitting a leader snapshot after each sub-step. A finer `sample`
    /// raises the event rate without changing the virtual:real speedup.
    fn tick(
        &mut self,
        slice: SimDuration,
        sample: SimDuration,
        batch: &mut Batch,
        metrics: &ServeMetrics,
    ) {
        let mut remaining = slice;
        while !remaining.is_zero() {
            let step = remaining.min(sample);
            remaining = remaining.saturating_sub(step);
            self.advance(step);
            self.emit(batch, metrics);
        }
    }

    /// Advances virtual time by `slice`, wrapping (rebuild, same seed) at
    /// the crossing horizon.
    fn advance(&mut self, slice: SimDuration) {
        let target = self.engine.kernel().now().saturating_add(slice);
        if target.saturating_since(Timestamp::ZERO) > self.horizon {
            // Crossing complete: restart the same world, advancing the
            // epoch so per-query timestamps keep increasing.
            self.epoch += self.engine.kernel().now().saturating_since(Timestamp::ZERO);
            let program = Arc::clone(&self.program);
            if let Some(fresh) = build_world(program, self.scenario, self.seed, self.type_id) {
                self.engine = fresh.engine;
            }
            self.engine.run_until(Timestamp::ZERO.saturating_add(slice));
        } else {
            self.engine.run_until(target);
        }
    }

    /// Fans the current leader positions out to every live session: one
    /// encode pass and one outbox hand-off per session.
    fn emit(&mut self, batch: &mut Batch, metrics: &ServeMetrics) {
        self.sessions.retain(|s| !s.outbox.is_closed());
        if self.sessions.is_empty() {
            return;
        }
        let now = self.engine.kernel().now().saturating_since(Timestamp::ZERO);
        let at = Timestamp::ZERO.saturating_add(self.epoch + now);
        let world = self.engine.world();
        let leaders: Vec<_> = world
            .leaders_of_type(self.type_id)
            .iter()
            .map(|(n, label)| (*label, world.deployment().position(*n)))
            .collect();
        if leaders.is_empty() {
            return;
        }
        for session in &mut self.sessions {
            if session.outbox.is_shed() {
                continue; // stop wasting encode work on a doomed session
            }
            // Subscription-major, the order pushing frame by frame gave
            // them. What lies past the budget would be refused whatever
            // the outbox holds, so it is counted without being encoded.
            let wanted = session.subs.len() * leaders.len();
            let encoded = wanted.min(session.outbox.budget());
            batch.bytes.clear();
            batch.ends.clear();
            let frames = session.subs.iter().flat_map(|sub| {
                let seqs = sub.seq..;
                seqs.zip(&leaders)
                    .map(|(seq, leader)| (sub.query_id, seq, leader))
            });
            for (query_id, seq, &(label, pos)) in frames.take(encoded) {
                let event = TrackEvent {
                    query_id,
                    seq,
                    at,
                    label,
                    pos,
                };
                SessionMsg::Event(event).encode_into(&mut batch.bytes);
                batch.ends.push(batch.bytes.len());
            }
            let fit = session.outbox.push_batch(&batch.bytes, &batch.ends);
            if wanted > encoded {
                session.outbox.refuse(wanted - encoded);
            }
            metrics.observe_handoff(fit as u64, (wanted - fit) as u64);
            // The frames that fit are the first subscriptions': only
            // their sequence numbers were used.
            let mut left = fit;
            for sub in &mut session.subs {
                if left == 0 {
                    break;
                }
                let took = left.min(leaders.len());
                left -= took;
                sub.seq += took as u64;
                if !sub.first_event_recorded {
                    sub.first_event_recorded = true;
                    let us =
                        u64::try_from(sub.subscribed_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                    metrics.observe_first_event(us);
                }
            }
        }
    }
}

/// Handle to the hub thread.
pub struct SimHub {
    tx: Sender<HubCommand>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SimHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHub").finish_non_exhaustive()
    }
}

impl SimHub {
    /// Spawns the hub thread.
    #[must_use]
    pub fn spawn(cfg: HubConfig, metrics: Arc<ServeMetrics>) -> SimHub {
        let (tx, rx) = std::sync::mpsc::channel();
        let join = std::thread::Builder::new()
            .name("serve-hub".into())
            .spawn(move || {
                let guard = PanicCounter(Arc::clone(&metrics));
                hub_loop(&cfg, &rx, &metrics);
                drop(guard);
            })
            .expect("spawn hub thread");
        SimHub {
            tx,
            join: Some(join),
        }
    }

    /// A sender for worker threads.
    #[must_use]
    pub fn sender(&self) -> Sender<HubCommand> {
        self.tx.clone()
    }

    /// Stops the hub and joins it.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(HubCommand::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for SimHub {
    fn drop(&mut self) {
        let _ = self.tx.send(HubCommand::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Counts a panicking unwind on drop, so the acceptance criterion
/// "zero server panics" is a checkable counter rather than a hope.
pub(crate) struct PanicCounter(pub(crate) Arc<ServeMetrics>);

impl Drop for PanicCounter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// When the tick after the one due at `deadline` is due, given that this
/// one's work ended at `now`: one `period` on, so that tick starts do not
/// drift with the work; but never in the past — a tick that overran banks
/// no debt, the schedule restarts from `now`. A zero period is unpaced.
fn next_deadline(deadline: Instant, now: Instant, period: Duration) -> Instant {
    (deadline + period).max(now)
}

/// Everything the hub thread owns.
struct Hub<'a> {
    cfg: &'a HubConfig,
    metrics: &'a ServeMetrics,
    /// Built once: every world, and every rebuild at a horizon wrap, runs
    /// this same program.
    program: Arc<Program>,
    worlds: BTreeMap<(u8, u64), World>,
    batch: Batch,
}

impl<'a> Hub<'a> {
    fn new(cfg: &'a HubConfig, metrics: &'a ServeMetrics) -> Self {
        Hub {
            cfg,
            metrics,
            program: serve_program(),
            worlds: BTreeMap::new(),
            batch: Batch::default(),
        }
    }

    /// Advances every world by `tick_virtual` and forgets the worlds
    /// nobody listens to any more.
    fn tick(&mut self) {
        let sample = self.cfg.sample_virtual.max(SimDuration::from_micros(1));
        for world in self.worlds.values_mut() {
            world.tick(self.cfg.tick_virtual, sample, &mut self.batch, self.metrics);
        }
        // Worlds with no subscribers left cost sim time for nobody.
        self.worlds.retain(|_, w| !w.sessions.is_empty());
    }

    /// Validates a subscription request, registers it on its (possibly
    /// new) world, and pushes the SUBACK into the session outbox.
    fn subscribe(&mut self, req: SubscribeReq) {
        let accepted = self.admit(&req);
        if !accepted {
            self.metrics.subs_denied.fetch_add(1, Ordering::Relaxed);
        }
        let ack = SessionMsg::SubAck(SubAck {
            query_id: req.query_id,
            accepted,
        })
        .encode();
        let us = u64::try_from(req.received_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe_ack(us);
        let _ = req.outbox.push(ack);
    }

    fn admit(&mut self, req: &SubscribeReq) -> bool {
        // Only the tracker type exists in the served program.
        if req.type_id != ContextTypeId(0) {
            return false;
        }
        let key = (req.scenario, req.seed);
        if !self.worlds.contains_key(&key) {
            if self.worlds.len() >= self.cfg.max_worlds {
                return false;
            }
            let program = Arc::clone(&self.program);
            let Some(world) = build_world(program, req.scenario, req.seed, req.type_id) else {
                return false;
            };
            self.worlds.insert(key, world);
        }
        let world = self.worlds.get_mut(&key).expect("world just ensured");
        let sub = Subscription {
            query_id: req.query_id,
            seq: 0,
            subscribed_at: req.received_at,
            first_event_recorded: false,
        };
        // A session's subscriptions arrive in bursts, so its group is
        // usually the newest.
        let known = world
            .sessions
            .iter_mut()
            .rev()
            .find(|s| Arc::ptr_eq(&s.outbox, &req.outbox));
        match known {
            Some(session) => session.subs.push(sub),
            None => world.sessions.push(SessionSubs {
                outbox: Arc::clone(&req.outbox),
                subs: vec![sub],
            }),
        }
        true
    }
}

fn hub_loop(cfg: &HubConfig, rx: &Receiver<HubCommand>, metrics: &ServeMetrics) {
    let mut hub = Hub::new(cfg, metrics);
    let mut deadline = Instant::now();
    loop {
        // Serve commands until the tick is due — a SUBSCRIBE is answered
        // at once but does not start a tick early — and then whatever is
        // still queued (a zero wait still takes a queued command):
        // subscription acks must not wait behind a sim tick.
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(HubCommand::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Ok(HubCommand::Subscribe(sub)) => hub.subscribe(sub),
                Err(RecvTimeoutError::Timeout) => break,
            }
        }

        let started = Instant::now();
        let ticking = !hub.worlds.is_empty();
        hub.tick();
        let done = Instant::now();
        if ticking {
            let late = !cfg.tick_real.is_zero()
                && started.saturating_duration_since(deadline) > cfg.tick_real;
            let work_us = u64::try_from((done - started).as_micros()).unwrap_or(u64::MAX);
            metrics.observe_tick(work_us, late);
        }
        deadline = next_deadline(deadline, done, cfg.tick_real);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tick_schedule_keeps_its_period_and_banks_no_debt() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // On time, whatever the work took: the next tick is one period
        // after the last deadline, not after the end of the work.
        assert_eq!(next_deadline(t0, t0 + ms(1), ms(4)), t0 + ms(4));
        assert_eq!(next_deadline(t0, t0 + ms(4), ms(4)), t0 + ms(4));
        // A thousand on-time ticks later the schedule has not drifted.
        let mut deadline = t0;
        for _ in 0..1000 {
            deadline = next_deadline(deadline, deadline + ms(3), ms(4));
        }
        assert_eq!(deadline, t0 + ms(4000));
        // Late: the next tick is due at once and the schedule restarts
        // there — no burst of ticks makes up for the periods missed.
        let late = next_deadline(t0, t0 + ms(30), ms(4));
        assert_eq!(late, t0 + ms(30));
        assert_eq!(next_deadline(late, late + ms(1), ms(4)), t0 + ms(34));
        // Unpaced: due as soon as the work is done.
        assert_eq!(next_deadline(t0, t0 + ms(7), Duration::ZERO), t0 + ms(7));
    }

    /// What pushing one sample's frames one by one makes of them — the
    /// rule `emit`'s batches must reproduce: subscription-major, a frame
    /// past the budget dropped, the outbox shed from then on, and a
    /// sequence number used only by a frame that fit.
    struct OneByOne {
        /// `(query id, next seq)` in subscription order.
        subs: Vec<(u32, u64)>,
        budget: usize,
        queued: Vec<bytes::Bytes>,
        shed: bool,
        dropped: u64,
        sent: u64,
    }

    impl OneByOne {
        fn sample(&mut self, world: &World) {
            if self.shed {
                return;
            }
            let now = world
                .engine
                .kernel()
                .now()
                .saturating_since(Timestamp::ZERO);
            let at = Timestamp::ZERO.saturating_add(world.epoch + now);
            let net = world.engine.world();
            for (query_id, seq) in &mut self.subs {
                for (node, label) in net.leaders_of_type(world.type_id) {
                    if self.queued.len() >= self.budget {
                        self.shed = true;
                        self.dropped += 1;
                        continue;
                    }
                    self.queued.push(
                        SessionMsg::Event(TrackEvent {
                            query_id: *query_id,
                            seq: *seq,
                            at,
                            label,
                            pos: net.deployment().position(node),
                        })
                        .encode(),
                    );
                    *seq += 1;
                    self.sent += 1;
                }
            }
        }

        /// Everything queued, as the socket would see it.
        fn take(&mut self) -> Vec<u8> {
            self.queued.drain(..).flat_map(|f| f.to_vec()).collect()
        }
    }

    #[test]
    fn a_session_sees_the_bytes_frame_by_frame_pushes_gave_it() {
        let cfg = HubConfig {
            max_worlds: 1,
            tick_virtual: SimDuration::from_millis(500),
            tick_real: Duration::ZERO,
            sample_virtual: SimDuration::from_millis(250),
        };
        let metrics = ServeMetrics::new();
        let mut hub = Hub::new(&cfg, &metrics);
        let budget = 64;
        let outbox = Arc::new(Outbox::new(budget));
        // Query ids of every varint width, so frame lengths differ.
        let queries = [7u32, 300, 2_000_000, u32::MAX, 0];
        for query_id in queries {
            hub.subscribe(SubscribeReq {
                query_id,
                scenario: SCENARIO_TESTBED,
                seed: 2,
                type_id: ContextTypeId(0),
                outbox: Arc::clone(&outbox),
                received_at: Instant::now(),
            });
        }
        let mut acks = Vec::new();
        assert_eq!(outbox.drain_into(&mut acks, usize::MAX), queries.len());

        // The same world, stepped in lockstep and sampled frame by frame.
        let mut twin = build_world(serve_program(), SCENARIO_TESTBED, 2, ContextTypeId(0))
            .expect("the testbed scenario exists");
        let mut model = OneByOne {
            subs: queries.iter().map(|&q| (q, 0)).collect(),
            budget,
            queued: Vec::new(),
            shed: false,
            dropped: 0,
            sent: 0,
        };
        let horizon = twin.horizon;
        let mut tick = |hub: &mut Hub, model: &mut OneByOne| {
            hub.tick();
            for _ in 0..2 {
                twin.advance(cfg.sample_virtual);
                model.sample(&twin);
            }
            twin.epoch
        };

        // Drained after every tick, across two horizon wraps.
        let mut wraps = SimDuration::ZERO;
        let mut ticks = 0;
        while wraps < horizon * 2 {
            wraps = tick(&mut hub, &mut model);
            let mut got = Vec::new();
            outbox.drain_into(&mut got, usize::MAX);
            assert_eq!(got, model.take(), "tick {ticks}");
            ticks += 1;
            assert!(ticks < 1000, "the world never wrapped");
        }
        assert!(
            model.sent > 100,
            "the stream carried events: {}",
            model.sent
        );
        assert!(!outbox.is_shed());

        // Left undrained, the budget cuts a batch part-way: five queries'
        // frames never add up to 64.
        while !model.shed {
            tick(&mut hub, &mut model);
        }
        assert!(outbox.is_shed());
        assert_eq!(outbox.dropped(), model.dropped);
        let mut got = Vec::new();
        assert_eq!(outbox.drain_into(&mut got, usize::MAX), budget);
        assert_eq!(got, model.take());
        // Shed is terminal: room in the outbox brings nothing more.
        tick(&mut hub, &mut model);
        assert_eq!(outbox.drain_into(&mut got, usize::MAX), 0);

        // Every frame is accounted, and the hand-off histogram adds up to
        // the events sent, exactly.
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(load(&metrics.events_sent), model.sent);
        assert_eq!(load(&metrics.events_dropped), model.dropped);
        let batches = metrics.batch_frames.lock().expect("metrics lock").clone();
        assert_eq!(batches.sum(), u128::from(model.sent));
    }

    #[test]
    fn hub_acks_and_streams_then_shuts_down() {
        let metrics = Arc::new(ServeMetrics::new());
        let hub = SimHub::spawn(
            HubConfig {
                max_worlds: 2,
                tick_virtual: SimDuration::from_millis(500),
                tick_real: Duration::from_millis(1),
                sample_virtual: SimDuration::from_millis(500),
            },
            Arc::clone(&metrics),
        );
        let outbox = Arc::new(Outbox::new(64));
        hub.sender()
            .send(HubCommand::Subscribe(SubscribeReq {
                query_id: 9,
                scenario: SCENARIO_TESTBED,
                seed: 2,
                type_id: ContextTypeId(0),
                outbox: Arc::clone(&outbox),
                received_at: Instant::now(),
            }))
            .expect("hub alive");
        // First frame out must be the ack; events follow once the tank
        // activates trackers.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got_ack = false;
        let mut got_event = false;
        while Instant::now() < deadline && !(got_ack && got_event) {
            match outbox.pop() {
                Some(frame) => match SessionMsg::decode(&frame).expect("hub frames are valid") {
                    SessionMsg::SubAck(a) => {
                        assert!(a.accepted);
                        assert_eq!(a.query_id, 9);
                        assert!(!got_ack, "exactly one ack");
                        got_ack = true;
                    }
                    SessionMsg::Event(e) => {
                        assert!(got_ack, "ack precedes events");
                        assert_eq!(e.query_id, 9);
                        got_event = true;
                    }
                    other => panic!("unexpected hub frame: {other:?}"),
                },
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        assert!(got_ack && got_event, "hub streamed an ack and an event");

        // Unknown scenario and unknown type are denied, not ignored.
        let denied = Arc::new(Outbox::new(4));
        hub.sender()
            .send(HubCommand::Subscribe(SubscribeReq {
                query_id: 10,
                scenario: 99,
                seed: 2,
                type_id: ContextTypeId(0),
                outbox: Arc::clone(&denied),
                received_at: Instant::now(),
            }))
            .expect("hub alive");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(frame) = denied.pop() {
                match SessionMsg::decode(&frame).expect("valid") {
                    SessionMsg::SubAck(a) => {
                        assert!(!a.accepted);
                        break;
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            assert!(Instant::now() < deadline, "denial ack arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(metrics.subs_denied.load(Ordering::Relaxed), 1);
        hub.shutdown();
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 0);
    }
}
