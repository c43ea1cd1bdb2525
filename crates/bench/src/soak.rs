//! Long-horizon chaos soak: the whole stack under layered faults.
//!
//! One soak run drives a multi-target field — a moving tank tracked by
//! one context type, plus a stationary watcher/beacon service pair that
//! exercises the replicated directory and MTP end to end — through a
//! scripted storm of link-level corruption, Gilbert–Elliott burst loss,
//! partition/heal cycles, and node crash/reboots, with the invariant
//! monitor sampling throughout. The claims a green soak certifies:
//!
//! - **zero invariant violations** (leader uniqueness, aggregate quorum,
//!   partition isolation, clock monotonicity, corruption rejection);
//! - **zero corrupted frames accepted** — every garbled frame fails CRC
//!   verification and is dropped (the shadow-hash audit stays at zero);
//! - **post-heal convergence** — after the last partition heals, every
//!   directory replica set agrees on its live registrations;
//! - **deterministic replay** — the identical config yields a
//!   byte-identical [`SoakReport`] JSON, so any red run reproduces from
//!   the seed alone.
//!
//! The fault schedule is a pure function of the config (fractions of the
//! horizon, nodes picked by grid position): no RNG draw is spent building
//! it, so the plan prints exactly as it runs.

use std::sync::Arc;

use envirotrack_chaos::harness;
use envirotrack_chaos::plan::{FaultEvent, FaultPlan};
use envirotrack_core::api::Program;
use envirotrack_core::context::{ContextTypeId, SensePredicate};
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::json::JsonObject;
use envirotrack_core::report::RunRecord;
use envirotrack_core::transport::Port;
use envirotrack_net::medium::{GilbertElliott, LinkFaults};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::Deployment;
use envirotrack_world::geometry::Point;
use envirotrack_world::sensing::Environment;
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};

const PING: Port = Port(10);
const PONG: Port = Port(11);
const TRACKER: ContextTypeId = ContextTypeId(0);
const WATCHER: ContextTypeId = ContextTypeId(1);
const BEACON: ContextTypeId = ContextTypeId(2);
/// Directory replication factor (≥ 2 so anti-entropy has peers).
const REPLICAS: usize = 2;
/// Anti-entropy gossip period.
const GOSSIP_PERIOD: SimDuration = SimDuration::from_secs(5);

/// One soak run specification. Everything downstream — world, fault
/// schedule, oracles — derives deterministically from these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Virtual time to simulate.
    pub horizon: SimDuration,
    /// Simulation seed (radio fading, backoff, jitter — the fault plan
    /// itself is seed-free).
    pub seed: u64,
    /// Partition/heal cycles (the partition splits the grid into left and
    /// right halves).
    pub partition_cycles: u32,
    /// Crash/reboot pairs on nodes spread across the grid.
    pub crash_reboots: u32,
}

impl SoakConfig {
    /// The flagship profile: 10 minutes of compressed time on a 12×5
    /// grid, per-byte corruption at 10⁻³, one burst-loss interval, two
    /// partition/heal cycles, three crash/reboots.
    #[must_use]
    pub fn flagship(seed: u64) -> Self {
        SoakConfig {
            cols: 12,
            rows: 5,
            horizon: SimDuration::from_secs(600),
            seed,
            partition_cycles: 2,
            crash_reboots: 3,
        }
    }

    /// A CI-sized profile: same fault layering, 60 s horizon, one
    /// partition cycle, one crash/reboot.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        SoakConfig {
            cols: 9,
            rows: 3,
            horizon: SimDuration::from_secs(60),
            seed,
            partition_cycles: 1,
            crash_reboots: 1,
        }
    }

    fn frac(&self, percent: u64) -> Timestamp {
        Timestamp::from_micros(self.horizon.as_micros() * percent / 100)
    }
}

/// What a finished soak certifies, all fields derived from simulation
/// state only (no wall-clock anywhere), so the JSON is byte-identical
/// across replays of the same config.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// The seed the run (and any replay) uses.
    pub seed: u64,
    /// Simulated horizon in seconds.
    pub horizon_s: f64,
    /// Invariant violations observed by the chaos monitor. Must be 0.
    pub violations: u64,
    /// Corrupted frames accepted past CRC (shadow-hash audit). Must be 0.
    pub corrupt_accepted: u64,
    /// Corrupted frames caught and dropped by CRC verification, summed
    /// over every frame kind.
    pub corrupt_dropped: u64,
    /// Anti-entropy pushes and replies sent.
    pub gossip_tx: u64,
    /// Directory entries repaired by anti-entropy merges.
    pub gossip_repairs: u64,
    /// Whether every replica set agreed on its live registrations at the
    /// end of the run. Must be true.
    pub replicas_agree: bool,
    /// End-to-end service probes answered (watcher→beacon→watcher round
    /// trips through directory + MTP).
    pub pongs: u64,
    /// Fault events applied, as scheduled by the plan.
    pub fault_events: u64,
    /// Telemetry counters registered — bounded by the protocol's keyspace,
    /// not by run length.
    pub telemetry_counters: u64,
    /// Trace events retained — bounded by the trace ring, not run length.
    pub telemetry_trace_len: u64,
    /// The standard whole-run record (loss causes, protocol totals).
    pub record: RunRecord,
}

impl SoakReport {
    /// Whether the run met every soak acceptance claim.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations == 0 && self.corrupt_accepted == 0 && self.replicas_agree
    }

    /// One flat JSON object (with trailing newline), deterministic across
    /// replays of the same config.
    #[must_use]
    pub fn to_json(&self) -> String {
        let head = JsonObject::new()
            .field_str("bench", "soak")
            .field_u64("seed", self.seed)
            .field_f64("sim_horizon_s", self.horizon_s)
            .field_bool("passed", self.passed())
            .field_u64("violations", self.violations)
            .field_u64("corrupt_accepted", self.corrupt_accepted)
            .field_u64("corrupt_dropped", self.corrupt_dropped)
            .field_u64("gossip_tx", self.gossip_tx)
            .field_u64("gossip_repairs", self.gossip_repairs)
            .field_bool("replicas_agree", self.replicas_agree)
            .field_u64("pongs", self.pongs)
            .field_u64("fault_events", self.fault_events)
            .field_u64("telemetry_counters", self.telemetry_counters)
            .field_u64("telemetry_trace_len", self.telemetry_trace_len)
            .finish();
        format!(
            "{},\"record\":{}}}\n",
            &head[..head.len() - 1],
            self.record.to_json()
        )
    }
}

/// The soak world: a tank crossing the middle lane (tracked by type 0),
/// a stationary watcher (type 1, lit corner) probing a stationary beacon
/// (type 2, opposite corner) through the replicated directory and MTP.
fn build_world(cfg: &SoakConfig) -> (Arc<Program>, Deployment, Environment, NetworkConfig) {
    let program = Arc::new(
        Program::builder()
            .context("tracker", |c| {
                c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
            })
            .context("watcher", |c| {
                c.activation(SensePredicate::threshold(Channel::Light, 0.5))
                    .subscribe("beacon")
                    .object("prober", |o| {
                        o.on_timer("probe", SimDuration::from_secs(6), |ctx| {
                            for (label, _) in ctx.labels_of_type(BEACON) {
                                ctx.send(label, PING, &b"ping"[..]);
                            }
                        })
                        .on_message("answer", PONG, |ctx| {
                            ctx.log("pong received".to_owned());
                        })
                    })
            })
            .context("beacon", |c| {
                c.activation(SensePredicate::threshold(Channel::Acoustic, 0.5))
                    .object("responder", |o| {
                        o.on_message("ping", PING, |ctx| {
                            let from = ctx.incoming().expect("message-triggered").src_label;
                            ctx.send(from, PONG, &b"pong"[..]);
                        })
                    })
            })
            .build()
            .expect("valid soak program"),
    );

    let deployment = Deployment::grid(cfg.cols, cfg.rows, 1.0);
    let right = f64::from(cfg.cols - 1);
    let lane = f64::from(cfg.rows / 2);
    let mut environment = Environment::new();
    // The tank crosses the lane once over ~80 % of the horizon.
    let speed = right / (cfg.horizon.as_secs_f64() * 0.8);
    environment.add_target(Target::new(
        TargetId(0),
        Trajectory::line(Point::new(0.0, lane), Point::new(right, lane), speed),
        vec![Emission {
            channel: Channel::Magnetic,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));
    environment.add_target(Target::new(
        TargetId(1),
        Trajectory::stationary(Point::new(1.0, 0.0)),
        vec![Emission {
            channel: Channel::Light,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));
    environment.add_target(Target::new(
        TargetId(2),
        Trajectory::stationary(Point::new(right - 1.0, f64::from(cfg.rows - 1))),
        vec![Emission {
            channel: Channel::Acoustic,
            strength: 1.0,
            falloff: Falloff::Disk { radius: 1.2 },
        }],
    ));

    let mut config = NetworkConfig::default();
    config.middleware = config
        .middleware
        .with_directory(true)
        .with_directory_replicas(REPLICAS)
        .with_directory_gossip(true)
        .with_directory_gossip_period(GOSSIP_PERIOD);
    config.middleware.directory_update_period = SimDuration::from_secs(4);
    (program, deployment, environment, config)
}

/// The scripted fault storm, as percentages of the horizon:
///
/// - link faults on from 2 % to 90 % (the last tenth is clean so the
///   convergence oracle is not judging frames still in flight);
/// - burst loss layered on top from 15 % to 30 %;
/// - crash/reboot pairs starting at 10 %, one every 18 %, each node down
///   for 8 % of the run, picked at evenly spaced grid indices;
/// - partition/heal cycles from 35 % on, one every 22 %, each split
///   lasting 12 %, dividing the grid into left and right halves.
fn build_plan(cfg: &SoakConfig, deployment: &Deployment) -> FaultPlan {
    let n = deployment.len();
    let mut plan = FaultPlan::new()
        .at(cfg.frac(2), FaultEvent::LinkFaultsOn(LinkFaults::default()))
        .at(cfg.frac(15), FaultEvent::BurstLossOn(GilbertElliott::default()))
        .at(cfg.frac(30), FaultEvent::BurstLossOff)
        .at(cfg.frac(90), FaultEvent::LinkFaultsOff);
    for i in 0..cfg.crash_reboots {
        // Interior nodes spread across the field; never the base station.
        let idx = ((i as usize + 1) * n / (cfg.crash_reboots as usize + 1)).max(1);
        let node = deployment
            .ids()
            .nth(idx.min(n - 1))
            .expect("index within deployment");
        let down = cfg.frac(10 + 18 * u64::from(i));
        let up = down + cfg.horizon.mul_f64(0.08);
        plan = plan
            .at(down, FaultEvent::Crash(node))
            .at(up, FaultEvent::Reboot(node));
    }
    let mid = f64::from(cfg.cols - 1) / 2.0;
    let groups: Vec<u8> = deployment
        .ids()
        .map(|id| u8::from(deployment.position(id).x > mid))
        .collect();
    for i in 0..cfg.partition_cycles {
        let start = cfg.frac(35 + 22 * u64::from(i));
        let end = start + cfg.horizon.mul_f64(0.12);
        plan = plan
            .at(start, FaultEvent::Partition(groups.clone()))
            .at(end, FaultEvent::Heal);
    }
    plan
}

/// Executes one soak run to completion and scores it against the
/// acceptance oracles. Pure in the config: the same `cfg` always returns
/// the identical report.
#[must_use]
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let (program, deployment, environment, net) = build_world(cfg);
    let mut engine =
        SensorNetwork::build_engine(program, deployment, environment, net, cfg.seed);
    let plan = build_plan(cfg, engine.world().deployment());
    let fault_events = plan.len() as u64;
    let monitor = harness::install(&mut engine, plan, cfg.seed);
    let end = Timestamp::ZERO + cfg.horizon;
    engine.run_until(end);

    let world = engine.world();
    let telemetry = world.telemetry();
    let corrupt_dropped = telemetry.with_registry(|r| {
        r.counters()
            .filter(|(name, _)| name.starts_with("net.k") && name.ends_with(".corrupt"))
            .map(|(_, v)| v)
            .sum()
    });
    let telemetry_counters = telemetry.with_registry(|r| r.counters().count() as u64);
    let replicas_agree = [TRACKER, WATCHER, BEACON]
        .iter()
        .all(|&tid| world.directory_replicas_agree(tid, end));
    let pongs = world
        .app_log()
        .iter()
        .filter(|(_, _, l)| l.contains("pong received"))
        .count() as u64;
    let mon = monitor.borrow();
    let record = harness::summarize(world, cfg.seed, end, &mon);
    SoakReport {
        seed: cfg.seed,
        horizon_s: cfg.horizon.as_secs_f64(),
        violations: mon.violations().len() as u64,
        corrupt_accepted: telemetry.counter("net.corrupt_accepted"),
        corrupt_dropped,
        gossip_tx: telemetry.counter("dir.gossip.tx"),
        gossip_repairs: telemetry.counter("dir.gossip.repair"),
        replicas_agree,
        pongs,
        fault_events,
        telemetry_counters,
        telemetry_trace_len: telemetry.trace_len() as u64,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_passes_and_replays_byte_identically() {
        let cfg = SoakConfig::smoke(11);
        let a = run_soak(&cfg);
        assert_eq!(a.violations, 0, "invariants: {:?}", a);
        assert_eq!(a.corrupt_accepted, 0, "corrupt frame accepted");
        assert!(a.replicas_agree, "replicas diverged at end of run");
        assert!(
            a.corrupt_dropped > 0,
            "link faults must actually corrupt frames for the run to mean anything"
        );
        let b = run_soak(&cfg);
        assert_eq!(a.to_json(), b.to_json(), "soak replay diverged");
    }
}
