//! Self-contained chaos runs, packaged as sweepable cells.
//!
//! A [`ChaosCell`] names everything one run needs — grid shape, fault
//! horizon, seed — so a sweep engine can fan cells out across worker
//! threads and any worker reproduces the identical run from the spec
//! alone. Determinism rests on per-cell RNG isolation: every random
//! stream inside the run (radio fading, burst chains, backoff, the fault
//! plan itself) is forked from the cell's own seed, so neither worker
//! count nor execution order can leak into the outcome.

use std::sync::Arc;

use envirotrack_core::api::Program;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_core::report::RunRecord;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;

use crate::harness;
use crate::plan::FaultPlan;

/// One chaos run specification: a seeded random fault plan over a tank
/// crossing on a `cols`×`rows` grid, judged for `horizon` of virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCell {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Virtual time to simulate; also bounds the fault plan.
    pub horizon: SimDuration,
    /// Seed for the run *and* the random fault plan.
    pub seed: u64,
}

/// Executes one chaos cell to completion: builds the scenario, installs a
/// seed-random [`FaultPlan`] plus the invariant monitor, runs to the
/// horizon and returns the summary record (violations included).
#[must_use]
pub fn run_cell(cell: &ChaosCell, program: Arc<Program>) -> RunRecord {
    let scenario = TankScenario::default()
        .with_grid(cell.cols, cell.rows)
        .build();
    let mut engine = SensorNetwork::build_engine(
        program,
        scenario.deployment,
        scenario.environment,
        NetworkConfig::default(),
        cell.seed,
    );
    let plan = FaultPlan::random(cell.seed, engine.world().deployment().len(), cell.horizon);
    let monitor = harness::install(&mut engine, plan, cell.seed);
    let end = Timestamp::ZERO + cell.horizon;
    engine.run_until(end);
    let mon = monitor.borrow();
    harness::summarize(engine.world(), cell.seed, end, &mon)
}
