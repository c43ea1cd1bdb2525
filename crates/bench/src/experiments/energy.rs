//! Energy extension: what does tracking responsiveness cost in battery?
//!
//! Not a figure in the paper — the paper notes only that "heartbeats are
//! bandwidth-consuming messages". On MICA motes, they are also
//! energy-consuming, and the heartbeat period is the knob that trades
//! tracking responsiveness (Fig. 5) against network lifetime. This
//! experiment sweeps the period on the standard crossing and reports the
//! fleet's marginal protocol energy, separating radio from CPU.

use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_node::energy::EnergyMeter;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;

use crate::harness::tracker_program;
use crate::sweep::{host_cpus, parallel_map};

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Heartbeat period in seconds.
    pub heartbeat_secs: f64,
    /// Fleet energy over the run, in millijoules.
    pub total_mj: f64,
    /// Radio share (tx + rx) in millijoules.
    pub radio_mj: f64,
    /// CPU share in millijoules.
    pub cpu_mj: f64,
    /// Energy of the hungriest single node, in millijoules.
    pub max_node_mj: f64,
}

/// The regenerated sweep.
#[derive(Debug, Clone)]
pub struct EnergySweep {
    /// Rows in ascending heartbeat period.
    pub rows: Vec<EnergyRow>,
    /// Virtual run length in seconds (same for every row).
    pub run_secs: f64,
}

/// Runs the sweep on the testbed crossing at the emulated 33 km/h.
#[must_use]
pub fn run() -> EnergySweep {
    let periods = [0.125, 0.25, 0.5, 1.0, 2.0];
    let horizon = Timestamp::from_secs(180);
    let rows = parallel_map(&periods, host_cpus(), |&p| {
        let scenario = TankScenario::default().with_speed_kmh(33.0).build();
        let mut cfg = NetworkConfig::default();
        cfg.middleware = cfg
            .middleware
            .with_heartbeat_period(SimDuration::from_secs_f64(p));
        let mut engine = SensorNetwork::build_engine(
            tracker_program(),
            scenario.deployment.clone(),
            scenario.environment,
            cfg,
            77,
        );
        engine.run_until(horizon);
        let world = engine.world();
        let total: EnergyMeter = world.energy_totals();
        let max_node_mj = scenario
            .deployment
            .ids()
            .map(|id| world.energy_at(id).total_millijoules())
            .fold(0.0, f64::max);
        EnergyRow {
            heartbeat_secs: p,
            total_mj: total.total_millijoules(),
            radio_mj: total.tx_millijoules() + total.rx_millijoules(),
            cpu_mj: total.cpu_millijoules(),
            max_node_mj,
        }
    });
    EnergySweep {
        rows,
        run_secs: 180.0,
    }
}

/// Prints the sweep.
pub fn print(sweep: &EnergySweep) {
    println!(
        "Energy extension — fleet marginal energy over a {}s crossing (20 motes)",
        sweep.run_secs
    );
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>14}",
        "HB period (s)", "total (mJ)", "radio (mJ)", "CPU (mJ)", "max node (mJ)"
    );
    for r in &sweep.rows {
        println!(
            "{:>14} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
            r.heartbeat_secs, r.total_mj, r.radio_mj, r.cpu_mj, r.max_node_mj
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_heartbeats_cost_more_energy() {
        let sweep = run();
        assert_eq!(sweep.rows.len(), 5);
        // Energy decreases monotonically as the heartbeat period grows.
        for w in sweep.rows.windows(2) {
            assert!(
                w[0].total_mj > w[1].total_mj,
                "period {} ({} mJ) should cost more than {} ({} mJ)",
                w[0].heartbeat_secs,
                w[0].total_mj,
                w[1].heartbeat_secs,
                w[1].total_mj
            );
        }
        // Shares are positive and account for the total.
        for r in &sweep.rows {
            assert!(r.radio_mj > 0.0 && r.cpu_mj > 0.0);
            assert!((r.radio_mj + r.cpu_mj - r.total_mj).abs() < 1e-6);
            assert!(r.max_node_mj <= r.total_mj);
        }
    }
}
