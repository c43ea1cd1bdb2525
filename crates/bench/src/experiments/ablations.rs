//! Ablations of the design choices DESIGN.md calls out.
//!
//! The paper motivates several mechanisms qualitatively; these experiments
//! quantify what each one buys on the standard tank crossing:
//!
//! * **relinquish** — explicit handover versus timeout-only takeover;
//! * **wait timer multiple** — the paper's 4.2× versus shorter memories;
//! * **link reliability** — per-hop ACK/retransmit for unicast routing
//!   versus fire-and-forget (affects base-report delivery, not coherence).

use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;

use crate::harness::{run_tracking, tracker_program, TrackingRun, COOLDOWN, TRACKER};
use crate::sweep::{host_cpus, parallel_map};

/// One ablation row: a named variant and its metrics.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub name: String,
    /// Mean handovers per run.
    pub handovers: f64,
    /// Mean spurious labels per run.
    pub spurious: f64,
    /// Mean pursuer reports per run.
    pub reports: f64,
    /// Fraction of runs that stayed coherent.
    pub coherent_fraction: f64,
}

/// The full ablation table.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// All rows.
    pub rows: Vec<AblationRow>,
}

/// A named run-template factory for the sweep table.
type Variant = (&'static str, Box<dyn Fn(u64) -> TrackingRun + Sync + Send>);

fn measure(name: &str, seeds: u64, make: impl Fn(u64) -> TrackingRun) -> AblationRow {
    let mut handovers = 0.0;
    let mut spurious = 0.0;
    let mut reports = 0.0;
    let mut coherent = 0u32;
    for seed in 0..seeds {
        let out = run_tracking(&make(seed));
        handovers += out.handovers as f64;
        spurious += out.failed_handovers() as f64;
        reports += out.track.len() as f64;
        coherent += u32::from(out.coherent());
    }
    let n = seeds as f64;
    AblationRow {
        name: name.to_owned(),
        handovers: handovers / n,
        spurious: spurious / n,
        reports: reports / n,
        coherent_fraction: f64::from(coherent) / n,
    }
}

/// A moderately challenging baseline: testbed radio range, a target slow
/// enough that leader tenure exceeds the 5 s reporter period (so the
/// pursuer actually hears reports), lossy indoor radio.
fn base(seed: u64) -> TrackingRun {
    TrackingRun {
        cols: 14,
        rows: 3,
        lane_y: 1.0,
        speed_hops_per_s: 0.2,
        comm_radius: 1.6,
        base_loss: 0.1,
        seed: seed * 13 + 3,
        ..TrackingRun::default()
    }
}

/// Runs every ablation with `seeds` runs per variant.
#[must_use]
pub fn run(seeds: u64) -> Ablations {
    let variants: Vec<Variant> = vec![
        ("baseline (all mechanisms on)", Box::new(base)),
        (
            "no relinquish (takeover only)",
            Box::new(|s| TrackingRun {
                relinquish: false,
                ..base(s)
            }),
        ),
        (
            "no relinquish, fast target (0.5 hops/s)",
            Box::new(|s| TrackingRun {
                relinquish: false,
                speed_hops_per_s: 0.5,
                ..base(s)
            }),
        ),
        (
            "relinquish, fast target (0.5 hops/s)",
            Box::new(|s| TrackingRun {
                speed_hops_per_s: 0.5,
                ..base(s)
            }),
        ),
        (
            "no heartbeat flood (h = 0)",
            Box::new(|s| TrackingRun {
                heartbeat_ttl: 0,
                ..base(s)
            }),
        ),
    ];
    let mut rows = parallel_map(&variants, host_cpus(), |(name, make)| measure(name, seeds, make));
    rows.push(wait_timer_row(seeds));
    rows.push(link_reliability_row(seeds));
    Ablations { rows }
}

/// Wait-timer ablation: shrink the non-member memory to one heartbeat
/// period (below the receive timer — the configuration the paper warns
/// against) and count the spurious labels it spawns.
fn wait_timer_row(seeds: u64) -> AblationRow {
    let mut handovers = 0.0;
    let mut spurious = 0.0;
    let mut reports = 0.0;
    let mut coherent = 0u32;
    for seed in 0..seeds {
        // Takeover mode, where the wait/receive interplay matters: during
        // a takeover the group goes silent for a full receive timeout, and
        // short-memoried bystanders mint spurious labels.
        let cfg = TrackingRun {
            relinquish: false,
            speed_hops_per_s: 0.4,
            ..base(seed)
        };
        let out = run_with(&cfg, |nc| {
            // Keep validation happy but make memory barely longer than the
            // takeover timeout (paper default: twice it).
            nc.middleware.receive_timer_factor = 2.1;
            nc.middleware.wait_timer_factor = 2.2;
        });
        handovers += out.handovers as f64;
        spurious += out.failed_handovers() as f64;
        reports += out.track.len() as f64;
        coherent += u32::from(out.coherent());
    }
    let n = seeds as f64;
    AblationRow {
        name: "short wait timer (2.2x instead of 4.2x)".into(),
        handovers: handovers / n,
        spurious: spurious / n,
        reports: reports / n,
        coherent_fraction: f64::from(coherent) / n,
    }
}

/// Link-reliability ablation: disable per-hop ACKs and watch multi-hop
/// base reports evaporate while coherence (broadcast-only) is unaffected.
fn link_reliability_row(seeds: u64) -> AblationRow {
    let mut handovers = 0.0;
    let mut spurious = 0.0;
    let mut reports = 0.0;
    let mut coherent = 0u32;
    for seed in 0..seeds {
        let cfg = base(seed);
        let out = run_with(&cfg, |nc| {
            nc.link.enabled = false;
        });
        handovers += out.handovers as f64;
        spurious += out.failed_handovers() as f64;
        reports += out.track.len() as f64;
        coherent += u32::from(out.coherent());
    }
    let n = seeds as f64;
    AblationRow {
        name: "no link-layer ACKs on unicast hops".into(),
        handovers: handovers / n,
        spurious: spurious / n,
        reports: reports / n,
        coherent_fraction: f64::from(coherent) / n,
    }
}

/// Like [`run_tracking`] but with a hook to adjust the network config
/// (for knobs the [`TrackingRun`] template does not expose).
fn run_with(
    cfg: &TrackingRun,
    adjust: impl FnOnce(&mut NetworkConfig),
) -> crate::harness::TrackingOutcome {
    // Mirror run_tracking, with the extra adjustment hook.
    let scenario = TankScenario {
        cols: cfg.cols,
        rows: cfg.rows,
        speed_hops_per_s: cfg.speed_hops_per_s,
        sensing_radius: cfg.sensing_radius,
        lane_y: cfg.lane_y,
        approach: cfg.sensing_radius.max(1.0) + 0.5,
    }
    .build();
    let tank = scenario
        .environment
        .target(scenario.primary_target)
        .expect("tank")
        .clone();
    let crossing = tank.trajectory().duration().expect("finite path");

    let mut net_cfg = NetworkConfig::default();
    net_cfg.radio = net_cfg
        .radio
        .with_comm_radius(cfg.comm_radius)
        .with_base_loss(cfg.base_loss);
    net_cfg.middleware = net_cfg
        .middleware
        .with_heartbeat_period(cfg.heartbeat_period)
        .with_heartbeat_ttl(cfg.heartbeat_ttl)
        .with_relinquish(cfg.relinquish);
    net_cfg.middleware.proximity_radius = (2.5 * cfg.sensing_radius).max(3.0);
    if let Some(p) = cfg.sense_period {
        net_cfg.middleware.sense_period = p;
    }
    adjust(&mut net_cfg);

    let mut engine = SensorNetwork::build_engine(
        tracker_program(),
        scenario.deployment,
        scenario.environment,
        net_cfg,
        cfg.seed,
    );
    let horizon = Timestamp::ZERO + crossing + COOLDOWN;
    let field_max_x = f64::from(cfg.cols - 1);
    let mut in_field = 0u32;
    let mut tracked = 0u32;
    let mut t = Timestamp::ZERO;
    while t < horizon {
        t = (t + SimDuration::from_secs_f64((0.5 / cfg.speed_hops_per_s).clamp(0.05, 1.0)))
            .min(horizon);
        engine.run_until(t);
        let pos = tank.position_at(t);
        if pos.x >= 0.0 && pos.x <= field_max_x {
            in_field += 1;
            let world = engine.world();
            let near = world.leaders_of_type(TRACKER).iter().any(|(n, _)| {
                world.deployment().position(*n).distance_to(pos) <= cfg.sensing_radius + 1.0
            });
            if near {
                tracked += 1;
            }
        }
    }
    let world = engine.world();
    let events = world.events();
    let labels_created = events.labels_created(TRACKER).len();
    let mut track = Vec::new();
    let mut truth = Vec::new();
    let mut err = 0.0;
    for (_, label_track) in world.base_log().tracks_of_type(TRACKER) {
        for (gt, p) in label_track {
            let actual = tank.position_at(gt);
            err += p.distance_to(actual);
            track.push((gt, p));
            truth.push((gt, actual));
        }
    }
    let stats = world.net_stats();
    let hb = stats.kind(envirotrack_core::wire::kinds::HEARTBEAT);
    let rpt = stats.kind(envirotrack_core::wire::kinds::REPORT);
    crate::harness::TrackingOutcome {
        labels_created,
        labels_suppressed: events.suppressed(TRACKER).len(),
        handovers: events.count(|e| {
            matches!(
                e,
                envirotrack_core::events::SystemEvent::LeaderHandover { .. }
            )
        }),
        tracked_fraction: if in_field == 0 {
            0.0
        } else {
            f64::from(tracked) / f64::from(in_field)
        },
        mean_error: if track.is_empty() {
            f64::NAN
        } else {
            err / track.len() as f64
        },
        track,
        truth,
        hb_tx: hb.tx,
        hb_loss: hb.pair_loss_ratio(),
        report_tx: rpt.tx,
        report_loss: rpt.pair_loss_ratio(),
        link_utilization: stats.link_utilization(horizon - Timestamp::ZERO),
        cpu: world.cpu_totals(),
        elapsed: horizon - Timestamp::ZERO,
    }
}

/// Prints the ablation table.
pub fn print(a: &Ablations) {
    println!("Ablations — mean per run over the standard crossing");
    println!(
        "{:>42} {:>10} {:>9} {:>9} {:>10}",
        "variant", "handovers", "spurious", "reports", "coherent"
    );
    for r in &a.rows {
        println!(
            "{:>42} {:>10.1} {:>9.1} {:>9.1} {:>9.0}%",
            r.name,
            r.handovers,
            r.spurious,
            r.reports,
            100.0 * r.coherent_fraction
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_coherent_and_reliability_matters_for_reports() {
        let a = run(3);
        let get = |name: &str| {
            a.rows
                .iter()
                .find(|r| r.name.starts_with(name))
                .unwrap_or_else(|| panic!("row {name} missing"))
        };
        let baseline = get("baseline");
        assert!(baseline.coherent_fraction >= 0.99, "{baseline:?}");
        // Without per-hop ACKs, fewer reports survive the multi-hop route
        // to the pursuer; coherence (broadcast-driven) is unaffected.
        let no_ack = get("no link-layer");
        assert!(
            no_ack.reports <= baseline.reports,
            "ACK-less routing cannot deliver more: {} vs {}",
            no_ack.reports,
            baseline.reports
        );
        assert!(
            no_ack.coherent_fraction >= 0.5,
            "coherence should not depend on ACKs"
        );
    }
}
