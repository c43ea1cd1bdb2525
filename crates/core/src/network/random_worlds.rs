//! Random worlds against every execution mode: each `cfg(test)` hook of
//! the world changes how a run is executed, never what it does, and these
//! properties hold it to that on worlds drawn by the shared generator
//! (`world/tests/support/random_world.rs`) — targets that enter, leave and
//! appear mid-run, noise on and off, crashes, reboots and clock skew —
//! rather than on one hand-picked field.
//!
//! A run is compared by what it put out (`kernel.events`, the event log and
//! the telemetry JSONL) and by what readers saw while it ran: a probe that
//! reads one node's energy every sensing period, starting on one of that
//! node's ticks so that every reading ties with a tick, and at each pause
//! the counters, CPU totals and energy totals. Faults are scheduled on
//! nodes' tick instants as often as between them. On a mismatch the first
//! diverging record is printed, not two digests.

use std::cell::RefCell;
use std::rc::Rc;

use envirotrack_telemetry::Work;
use envirotrack_sim::engine::Engine;
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
use testkit::prelude::*;

use super::tests::work_of;
use super::*;
use crate::context::SensePredicate;
use crate::report::telemetry_to_jsonl;

#[path = "../../../world/tests/support/random_world.rs"]
mod random_world;
use random_world::{arb_world, Fault, When, WorldDraw};

/// At a pause: `kernel.events`, sensing ticks and admissions, CPU totals,
/// and the bits of the fleet's energy.
type Pause = (u64, u64, u64, (u64, u64), u64);

/// Everything a run put out and everything its readers saw.
#[derive(Debug, PartialEq)]
struct Seen {
    pauses: Vec<Pause>,
    /// Per probe firing: the instant, and the bits of the node's energy.
    probes: Vec<(u64, u64)>,
    log: String,
    jsonl: String,
}

fn tracker() -> Arc<Program> {
    let magnetic = SensePredicate::threshold(Channel::Magnetic, 0.5);
    let program = Program::builder().context("tracker", |c| c.activation(magnetic));
    Arc::new(program.build().expect("a valid program"))
}

/// The instant of `node`'s `tick`-th sensing tick on a nominal clock.
fn tick_instant(world: &SensorNetwork, node: NodeId, tick: u64) -> Timestamp {
    let period = world.config.middleware.sense_period;
    let first = world.first_tick(node).as_micros();
    Timestamp::from_micros(first - first % world.phase_quantum.max(1)) + period * tick
}

/// Runs `draw` with `hook` set, pausing at three instants on the way.
fn run(draw: &WorldDraw, hook: fn(&mut SensorNetwork)) -> Seen {
    run_with_work(draw, hook).0
}

/// [`run`], and how the world did its work.
fn run_with_work(draw: &WorldDraw, hook: fn(&mut SensorNetwork)) -> (Seen, Work) {
    let world = draw.build();
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(world.radius);
    let (field, env) = (world.deployment, world.environment);
    let n = field.len() as u64;
    let mut engine = SensorNetwork::build_engine(tracker(), field, env, config, draw.seed);
    // Half the worlds round their phases to 10 ms, so that ticks of many
    // nodes share their instants.
    if draw.seed.is_multiple_of(2) {
        engine.world_mut().phase_quantum = 10_000;
    }
    hook(engine.world_mut());
    for (when, fault) in world.faults {
        let at = match when {
            When::Ms(ms) => Timestamp::from_millis(ms),
            When::OnTick { node, tick } => tick_instant(engine.world(), node, tick),
        };
        let fault = match fault {
            Fault::Crash(node) => FaultEvent::Crash(node),
            Fault::Reboot(node) => FaultEvent::Reboot(node),
            Fault::Rate(node, rate) => FaultEvent::ClockRate { node, rate },
        };
        engine
            .kernel_mut()
            .schedule_at(at, move |w: &mut SensorNetwork, k| {
                w.apply_fault(k.now(), &fault)
            });
    }
    if let Some((at, target)) = world.late {
        engine
            .kernel_mut()
            .schedule_at(at, move |w: &mut SensorNetwork, _| w.add_target(target));
    }
    // A reader with the sensing period itself, armed on a tick of the node
    // it reads, so each of its readings ties with one of that node's ticks.
    let probes = Rc::new(RefCell::new(Vec::new()));
    let node = NodeId((draw.seed % n) as u32);
    fn probe(w: &mut SensorNetwork, k: &mut K, node: NodeId, log: Rc<RefCell<Vec<(u64, u64)>>>) {
        let energy = w.energy_at(node).total_millijoules().to_bits();
        log.borrow_mut().push((k.now().as_micros(), energy));
        let period = w.config.middleware.sense_period;
        k.schedule_in(period, move |w, k| probe(w, k, node, log));
    }
    let first = tick_instant(engine.world(), node, 1);
    let log = Rc::clone(&probes);
    engine
        .kernel_mut()
        .schedule_at(first, move |w, k| probe(w, k, node, log));
    let mut pauses = Vec::new();
    for part in 1..=3 {
        let at = Timestamp::from_micros(world.horizon.as_micros() * part / 3);
        engine.run_until(at);
        let w = engine.world();
        let work = work_of(w);
        pauses.push((
            w.telemetry().counter("kernel.events"),
            work.get("sense_ticks"),
            work.get("sense_ticks_admitted"),
            w.cpu_totals(),
            w.energy_totals().total_millijoules().to_bits(),
        ));
    }
    let w = engine.world();
    let probes = probes.borrow().clone();
    let seen = Seen {
        pauses,
        probes,
        log: format!("{:#?}", w.events().entries()),
        jsonl: telemetry_to_jsonl(w.telemetry()),
    };
    (seen, work_of(w))
}

/// The first place two runs part, as text.
fn first_difference(a: &Seen, b: &Seen) -> String {
    let lines = |what: &str, x: &str, y: &str| {
        let i = x.lines().zip(y.lines()).position(|(l, r)| l != r);
        let i = i.unwrap_or(x.lines().count().min(y.lines().count()));
        format!(
            "{what} line {i}: {:?} against {:?}",
            x.lines().nth(i),
            y.lines().nth(i)
        )
    };
    if a.pauses != b.pauses {
        return format!("pauses: {:?} against {:?}", a.pauses, b.pauses);
    }
    if a.probes != b.probes {
        let i = a.probes.iter().zip(&b.probes).position(|(l, r)| l != r);
        let i = i.unwrap_or(a.probes.len().min(b.probes.len()));
        return format!(
            "probe {i}: {:?} against {:?}",
            a.probes.get(i),
            b.probes.get(i)
        );
    }
    if a.log != b.log {
        return lines("event log", &a.log, &b.log);
    }
    lines("telemetry", &a.jsonl, &b.jsonl)
}

/// A test hook of the world, by name.
type Hook = (&'static str, fn(&mut SensorNetwork));

/// Every hook of the world, each on its own.
const HOOKS: [Hook; 5] = [
    ("ticks_every_period", |w| w.ticks_every_period = true),
    ("sense_loops_on_heap", |w| w.sense_loops_on_heap = true),
    ("ticks_enter_machines", |w| w.ticks_enter_machines = true),
    ("records_in_id_order", |w| w.records_in_id_order = true),
    ("cold_records_up_front", |w| w.cold_records_up_front = true),
];

prop_test! {
    #![config(Config::with_cases(96))]

    /// Every hook on against every hook off: the same bytes out, the same
    /// readings at every probe and every pause.
    #[test]
    fn every_hook_leaves_a_random_world_as_it_was(draw in arb_world()) {
        let plain = run(&draw, |_| {});
        for (name, hook) in HOOKS {
            let hooked = run(&draw, hook);
            prop_assert!(
                plain == hooked,
                "{name} on {draw:?}: {}",
                first_difference(&plain, &hooked)
            );
        }
    }
}

/// The comparison means something only if the worlds park: over a fixed
/// set of noiseless worlds with targets and faults, nodes park, ticks are
/// settled in closed form, and parked nodes are reached: cells proven
/// quiet again at their wake keep their nodes parked, the other wakes and
/// receptions unpark nodes, and events leave some of the nodes they
/// touched parked.
#[test]
fn random_worlds_park_and_settle() {
    let (mut settled, mut ticks) = (0, 0);
    let mut reached = [0; 4];
    let names = ["park_kept", "park_woken", "park_received", "park_stayed"];
    for seed in 0..24 {
        let draw = WorldDraw {
            nodes: 20 + seed as u32 * 5,
            targets: 1 + seed as u32 % 4,
            late: seed % 2 == 0,
            noisy: false,
            faults: 4,
            horizon_ms: 3_000,
            seed,
        };
        let (_, work) = run_with_work(&draw, |_| {});
        settled += work.get("sense_settled");
        ticks += work.get("sense_ticks");
        for (count, name) in reached.iter_mut().zip(names) {
            *count += work.get(name);
        }
    }
    // Small fields under fast targets: nodes park often, for a few ticks.
    assert!(settled * 20 > ticks, "{settled} of {ticks} ticks settled");
    assert!(reached.iter().all(|&n| n > 0), "{names:?}: {reached:?}");
}

/// What a run of `env` over a 10 × 10 grid put out by `until`, with
/// `hook` set and `arm` run on the engine first: `kernel.events`, CPU
/// totals, the fleet's energy bits and the event log; and how the world
/// did its work.
fn grid_run(
    env: Environment,
    until: Timestamp,
    hook: fn(&mut SensorNetwork),
    arm: impl FnOnce(&mut Engine<SensorNetwork>),
) -> ((u64, (u64, u64), u64, String), Work) {
    let field = Deployment::grid(10, 10, 1.0);
    let mut engine = SensorNetwork::build_engine(tracker(), field, env, NetworkConfig::default(), 3);
    hook(engine.world_mut());
    arm(&mut engine);
    engine.run_until(until);
    let w = engine.world();
    let energy = w.energy_totals().total_millijoules().to_bits();
    let log = format!("{:#?}", w.events().entries());
    let seen = (w.telemetry().counter("kernel.events"), w.cpu_totals(), energy, log);
    (seen, work_of(w))
}

/// A node parked from the start that something reaches just after its own
/// tick at that instant gets a record that holds that tick: the tick that
/// follows is armed at the nominal period before the fault skews the
/// clock. The random worlds arm their faults before the bootstrap, so a
/// first touch at a tick instant comes before the tick there; this one is
/// armed mid-run, under a period ahead, and so after.
#[test]
fn a_record_made_after_its_tick_holds_it() {
    let node = NodeId(37);
    let period = NetworkConfig::default().middleware.sense_period;
    let at = |w: &SensorNetwork| tick_instant(w, node, 5);
    let arm = |engine: &mut Engine<SensorNetwork>| {
        let at = at(engine.world());
        let half = Timestamp::from_micros(at.as_micros() - period.as_micros() / 2);
        engine.kernel_mut().schedule_at(half, move |_, k| {
            let skew = FaultEvent::ClockRate { node, rate: 2.0 };
            k.schedule_at(at, move |w, k| w.apply_fault(k.now(), &skew));
        });
    };
    let until = Timestamp::from_secs(3);
    let (parked, work) = grid_run(Environment::new(), until, |_| {}, arm);
    let (every, _) = grid_run(Environment::new(), until, |w| w.ticks_every_period = true, arm);
    assert_eq!(work.get("hot_made"), 1, "the node touched is the one record made");
    assert_eq!(parked, every);
}

/// A frame reaches a parked node of a field no target nears. The first
/// comes early in a period: the node's CPU drains before its next tick,
/// which would park it again, so it stays parked. The second comes within
/// `RX_HANDLE` of a tick, which finds the CPU busy and runs for real. Both
/// against every tick run.
#[test]
fn a_reception_leaves_a_node_parked_only_if_its_cpu_drains_by_its_tick() {
    let node = NodeId(37);
    let arm = |engine: &mut Engine<SensorNetwork>| {
        for (tick, early) in [(5, 150), (9, 5)] {
            let at = tick_instant(engine.world(), node, tick) - SimDuration::from_millis(early);
            let frame = Frame::broadcast(NodeId(36), kinds::HEARTBEAT, Bytes::from(vec![0xFF; 8]));
            engine
                .kernel_mut()
                .schedule_at(at, move |w: &mut SensorNetwork, k| w.inject_frame(k, node, frame));
        }
    };
    let until = Timestamp::from_secs(3);
    let (parked, work) = grid_run(Environment::new(), until, |_| {}, arm);
    let (every, _) = grid_run(Environment::new(), until, |w| w.ticks_every_period = true, arm);
    assert_eq!(parked, every);
    let reached = [work.get("park_received"), work.get("park_stayed")];
    assert_eq!(reached, [2, 1], "two receptions at a parked node, one left it parked");
}

/// A target present only in the last period of an aligned window, near
/// nodes whose first ticks come before it: the window's lists name their
/// cell, so those nodes are not parked from the start, and sense it.
#[test]
fn a_target_in_a_windows_last_period_is_seen() {
    let env = || {
        let (from, until) = (Timestamp::from_millis(200), Timestamp::from_millis(400));
        let disk = Falloff::Disk { radius: 2.5 };
        let emission = Emission { channel: Channel::Magnetic, strength: 1.0, falloff: disk };
        let trajectory = Trajectory::stationary(Point::new(4.5, 4.5));
        let target = Target::new(TargetId(0), trajectory, vec![emission]);
        let mut env = Environment::new();
        env.add_target(target.active_between(from, until));
        env
    };
    let until = Timestamp::from_secs(2);
    let (parked, _) = grid_run(env(), until, |_| {}, |_| {});
    let (every, _) = grid_run(env(), until, |w| w.ticks_every_period = true, |_| {});
    assert!(every.3.contains("LabelCreated"), "the target was never sensed");
    assert_eq!(parked, every);
}

/// A shard's replica proves and wakes the cells of the whole grid, and a
/// woken cell's nodes include some the replica does not drive: touching
/// one of those, which has a record but no rank, leaves every parked node
/// as it was.
#[test]
fn a_replica_wakes_no_node_it_does_not_drive() {
    let field = Deployment::grid(10, 10, 1.0);
    let config = NetworkConfig::default();
    let topology = Arc::new(Topology::new(&field, config.radio.comm_radius));
    let owned: Vec<bool> = field.iter().map(|(_, p)| p.x < 5.0).collect();
    let disk = Falloff::Disk { radius: 1.5 };
    let emission = Emission { channel: Channel::Magnetic, strength: 1.0, falloff: disk };
    let target = Target::new(TargetId(0), Trajectory::stationary(Point::new(7.5, 4.5)), vec![emission]);
    let mut env = Environment::new();
    env.add_target(target.active_between(Timestamp::from_millis(400), Timestamp::from_millis(600)));
    let mut engine =
        SensorNetwork::build_engine_sharded(tracker(), field, env, config, 3, topology, owned);
    engine.run_until(Timestamp::from_secs(1));
    let work = work_of(engine.world());
    assert!(work.get("sense_parked") > 0, "nothing parked");
    assert_eq!(work.get("sense_ticks"), 50 * 5, "the driven nodes' ticks, every one");
}

/// The first world the random comparison shrank a failure to. A node with a
/// formation timer pending reboots; its next formation jitter used to take
/// that old timer's token, so the old firing ended the new jitter early —
/// on the plain run, where quiescent ticks leave the machine alone, and not
/// on the hooked one, whose every tick cancels the idle machine's formation
/// slot and so moves the token on. A rebooted machine now keeps the slot's
/// arming count (`GroupMachine::rebooted`).
#[test]
fn a_rebooted_node_does_not_end_its_jitter_on_an_old_token() {
    let draw = WorldDraw {
        nodes: 4,
        targets: 4,
        late: true,
        noisy: true,
        faults: 2,
        horizon_ms: 3_957,
        seed: 16_349_479_290_556_416_176,
    };
    let plain = run(&draw, |_| {});
    let hooked = run(&draw, |w| w.ticks_enter_machines = true);
    assert!(plain == hooked, "{}", first_difference(&plain, &hooked));
}
