//! `paper_sweep`: how the paper's own figures get made — thousands of tiny
//! worlds fanned out over a worker pool.
//!
//! The cell list alternates the section-6 tracking run (10x2 testbed,
//! 0.2 hops/s; the `TrackingRun` defaults, re-stated here so harness edits
//! cannot move the benchmark) with `chaos::cell::run_cell` on a 6x2 grid
//! for 20 s under a seed-random fault plan. Cell `i` runs at seed
//! `seed + i`. Two workers claim cells through an atomic index and wrap
//! around the list until the window closes; a cell seen twice must
//! reproduce its first digest. One operation is one cell.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use envirotrack_chaos::cell::{run_cell, ChaosCell};
use envirotrack_chaos::plan::FaultPlan;
use envirotrack_core::api::Program;
use envirotrack_core::events::SystemEvent;
use envirotrack_core::network::{NetworkConfig, SensorNetwork};
use envirotrack_sim::engine::Engine;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::scenario::TankScenario;

use crate::heap::peak_heap_mb;
use crate::output::{Metrics, RunOutput};
use crate::probes;
use crate::spec::{self, Sizes};
use crate::stats::{
    digest, median, peak_rss_mb, process_cpu_s, quantile, sample_setups, thread_cpu_s,
};
use crate::trace::Tracer;

/// Worker threads: one per core of the reference host.
const WORKERS: usize = 2;

/// Set-up samples per run (at least, at most) and the time they may take;
/// the reported `setup_s` is their median. A sweep's set-up is a fraction
/// of a millisecond, so it gets many samples.
const SETUP_SAMPLES: (usize, usize) = (9, 201);
const SETUP_BUDGET: Duration = Duration::from_millis(200);

const CHAOS_COLS: u32 = 6;
const CHAOS_ROWS: u32 = 2;
const CHAOS_HORIZON: SimDuration = SimDuration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Tracking,
    Chaos,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: CellKind,
    seed: u64,
    /// Events in the cell's fault plan (0 for a tracking cell).
    fault_events: usize,
}

/// Lays the sweep out: kinds, seeds, and each chaos cell's fault plan
/// drawn once so the list records how much chaos it holds. (`run_cell`
/// draws the same plan again from the same seed when the cell runs.)
fn cell_list(seed: u64, cells: usize) -> Vec<Cell> {
    let chaos_nodes = (CHAOS_COLS * CHAOS_ROWS) as usize;
    (0..cells)
        .map(|i| {
            let seed = seed + i as u64;
            if i % 2 == 0 {
                Cell {
                    kind: CellKind::Tracking,
                    seed,
                    fault_events: 0,
                }
            } else {
                let plan = FaultPlan::random(seed, chaos_nodes, CHAOS_HORIZON);
                plan.validate(chaos_nodes)
                    .expect("a random plan fits its own grid");
                Cell {
                    kind: CellKind::Chaos,
                    seed,
                    fault_events: plan.len(),
                }
            }
        })
        .collect()
}

/// Tank speed of the tracking cells, in hops/s.
const TRACKING_SPEED: f64 = 0.2;

/// Builds the paper's 10x2 testbed with a tank crossing at
/// `speed_hops_per_s` and runs it to the end of the crossing plus a 5 s
/// cool-down; returns the finished engine. Everything but the speed is
/// `TrackingRun::default()`'s value, re-stated.
pub fn testbed_world(
    program: Arc<Program>,
    seed: u64,
    speed_hops_per_s: f64,
) -> Engine<SensorNetwork> {
    let sensing_radius = 1.0_f64;
    let scenario = TankScenario {
        cols: 10,
        rows: 2,
        speed_hops_per_s,
        sensing_radius,
        lane_y: 0.5,
        approach: sensing_radius.max(1.0) + 0.5,
    }
    .build();
    let crossing = scenario
        .environment
        .target(scenario.primary_target)
        .and_then(|tank| tank.trajectory().duration())
        .expect("the tank path is finite");
    let mut config = NetworkConfig::default();
    config.radio = config.radio.with_comm_radius(6.0).with_base_loss(0.05);
    config.middleware = config
        .middleware
        .with_heartbeat_period(SimDuration::from_millis(500))
        .with_heartbeat_ttl(1)
        .with_relinquish(true);
    config.middleware.proximity_radius = (2.5 * sensing_radius).max(3.0);
    let mut engine = SensorNetwork::build_engine(
        program,
        scenario.deployment,
        scenario.environment,
        config,
        seed,
    );
    engine.run_until(Timestamp::ZERO + crossing + SimDuration::from_secs(5));
    engine
}

/// What one executed cell reports back.
#[derive(Debug, Clone, Copy)]
struct CellRun {
    index: usize,
    kind: CellKind,
    start: Instant,
    end: Instant,
    /// On-CPU seconds of the worker thread over the cell.
    cpu_s: f64,
    failed: bool,
    violations: u64,
    /// Wall time and size of the cell's report encoding (`core::report`).
    report: Duration,
    report_bytes: usize,
}

impl CellRun {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn run_one(
    index: usize,
    cell: Cell,
    program: &Arc<Program>,
    first_digest: &[AtomicU64],
) -> CellRun {
    let start = Instant::now();
    let cpu0 = thread_cpu_s();
    let (cell_digest, ok, violations, report, report_bytes) = match cell.kind {
        CellKind::Tracking => {
            let engine = testbed_world(Arc::clone(program), cell.seed, TRACKING_SPEED);
            let world = engine.world();
            let t0 = Instant::now();
            let elapsed = engine.kernel().now() - Timestamp::ZERO;
            let record = world.run_record(cell.seed, elapsed, 0).to_json();
            let base = world.base_log().to_jsonl();
            let report = t0.elapsed();
            let labels = world
                .events()
                .count(|e| matches!(e, SystemEvent::LabelCreated { .. }));
            (
                digest(&[record.as_bytes(), base.as_bytes()]),
                labels > 0,
                0,
                report,
                record.len() + base.len(),
            )
        }
        CellKind::Chaos => {
            let record = run_cell(
                &ChaosCell {
                    cols: CHAOS_COLS,
                    rows: CHAOS_ROWS,
                    horizon: CHAOS_HORIZON,
                    seed: cell.seed,
                },
                Arc::clone(program),
            );
            let t0 = Instant::now();
            let json = record.to_json();
            let report = t0.elapsed();
            (
                digest(&[json.as_bytes()]),
                record.violations == 0,
                record.violations,
                report,
                json.len(),
            )
        }
    };
    // The first execution of a cell sets its digest; a later one (the
    // list wraps) must reproduce it. 0 marks "not yet run".
    let cell_digest = cell_digest.max(1);
    let reproduced = match first_digest[index].compare_exchange(
        0,
        cell_digest,
        Ordering::SeqCst,
        Ordering::SeqCst,
    ) {
        Ok(_) => true,
        Err(first) => first == cell_digest,
    };
    CellRun {
        index,
        kind: cell.kind,
        start,
        end: Instant::now(),
        cpu_s: thread_cpu_s() - cpu0,
        failed: !(ok && reproduced),
        violations,
        report,
        report_bytes,
    }
}

/// What a pool run adds up to. Folded as cells finish, so an untraced
/// window keeps a few kilobytes, not a record per cell — the benchmark's
/// own bookkeeping must not be what `peak_heap_mb` measures.
struct Tally {
    from: Instant,
    executed: u64,
    failed: u64,
    violations: u64,
    /// Cheapest wall and CPU seconds seen per cell of the list.
    best_wall_s: Vec<f64>,
    best_cpu_s: Vec<f64>,
    /// Cells completed in each whole second after `from`.
    per_second: Vec<f64>,
    report_s: f64,
    report_bytes: usize,
    /// Every cell, kept only by a traced run (for the quantiles).
    runs: Vec<CellRun>,
}

impl Tally {
    fn new(cells: usize, from: Instant, seconds: usize) -> Tally {
        Tally {
            from,
            executed: 0,
            failed: 0,
            violations: 0,
            best_wall_s: vec![f64::INFINITY; cells],
            best_cpu_s: vec![f64::INFINITY; cells],
            per_second: vec![0.0; seconds],
            report_s: 0.0,
            report_bytes: 0,
            runs: Vec::new(),
        }
    }

    fn add(&mut self, run: CellRun, keep: bool) {
        self.executed += 1;
        self.failed += u64::from(run.failed);
        self.violations += run.violations;
        let i = run.index;
        self.best_wall_s[i] = self.best_wall_s[i].min(run.wall_s());
        self.best_cpu_s[i] = self.best_cpu_s[i].min(run.cpu_s);
        let second = run.end.saturating_duration_since(self.from).as_secs() as usize;
        if let Some(count) = self.per_second.get_mut(second) {
            *count += 1.0;
        }
        self.report_s += run.report.as_secs_f64();
        self.report_bytes += run.report_bytes;
        if keep {
            self.runs.push(run);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.executed += other.executed;
        self.failed += other.failed;
        self.violations += other.violations;
        for (mine, theirs) in [
            (&mut self.best_wall_s, &other.best_wall_s),
            (&mut self.best_cpu_s, &other.best_cpu_s),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.min(*b);
            }
        }
        for (a, b) in self.per_second.iter_mut().zip(&other.per_second) {
            *a += b;
        }
        self.report_s += other.report_s;
        self.report_bytes += other.report_bytes;
        self.runs.extend(other.runs);
    }

    /// The quiet-host estimate of one pass over the list. The list wraps,
    /// so every cell runs several times in a window; it repeats exactly,
    /// and interference on a shared host only ever adds time, so a cell's
    /// cheapest execution is what it costs undisturbed. Returns the summed
    /// per-cell minima and how many distinct cells ran.
    fn quiet_host_pass(best: &[f64]) -> (f64, usize) {
        let seen = best.iter().filter(|b| b.is_finite());
        (seen.clone().sum(), seen.count())
    }
}

/// When a pool stops claiming cells.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    AfterCells(usize),
}

struct Pool {
    cells: Vec<Cell>,
    program: Arc<Program>,
    first_digest: Vec<AtomicU64>,
}

impl Pool {
    /// Compile, cell list, digest table: the set-up a sweep pays once.
    fn new(seed: u64, cells: usize) -> Pool {
        Pool {
            cells: cell_list(seed, cells),
            program: probes::figure_2_program(),
            first_digest: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Runs cells on [`WORKERS`] threads until `stop`; returns the tally
    /// and, when `traced`, one tracer per worker.
    fn run(&self, stop: Stop, traced: bool, origin: Instant) -> (Tally, Vec<Tracer>) {
        let next = AtomicUsize::new(0);
        let from = Instant::now();
        let seconds = match stop {
            Stop::At(deadline) => deadline.saturating_duration_since(from).as_secs() as usize,
            Stop::AfterCells(_) => 0,
        };
        let mut total = Tally::new(self.cells.len(), from, seconds);
        let mut tracers = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut tr = Tracer::new(traced, spec::PAPER_SWEEP, origin, w as u32 + 1);
                        tr.set_rep(1);
                        let worker = tr.open("sweep.worker");
                        let mut mine = Tally::new(self.cells.len(), from, seconds);
                        loop {
                            let claimed = next.fetch_add(1, Ordering::Relaxed);
                            let done = match stop {
                                Stop::At(deadline) => Instant::now() >= deadline,
                                Stop::AfterCells(n) => claimed >= n,
                            };
                            if done {
                                break;
                            }
                            let index = claimed % self.cells.len();
                            let run = run_one(
                                index,
                                self.cells[index],
                                &self.program,
                                &self.first_digest,
                            );
                            tr.leaf(
                                "sweep.cell",
                                run.start,
                                run.end,
                                &[
                                    ("index", index as f64),
                                    ("chaos", f64::from(u8::from(run.kind == CellKind::Chaos))),
                                ],
                            );
                            mine.add(run, traced);
                        }
                        tr.close(worker);
                        crate::heap::flush_thread();
                        (mine, tr)
                    })
                })
                .collect();
            for h in handles {
                let (mine, tr) = h.join().expect("a sweep worker panicked");
                total.merge(mine);
                tracers.push(tr);
            }
        });
        (total, tracers)
    }
}

/// One timed set-up: compile + cell list + digest table + a pool spawned
/// and joined with nothing to run.
fn setup_once(seed: u64, cells: usize) -> (Pool, f64) {
    let t0 = Instant::now();
    let pool = Pool::new(seed, cells);
    let _ = pool.run(Stop::AfterCells(0), false, t0);
    let s = t0.elapsed().as_secs_f64();
    (pool, s)
}

fn run_end_to_end(seed: u64, seconds: u64, sizes: &Sizes) -> RunOutput {
    let mut setups = Vec::new();
    let mut pool = None;
    sample_setups(&mut setups, SETUP_SAMPLES, SETUP_BUDGET, || {
        let (p, s) = setup_once(seed, sizes.sweep_cells);
        pool = Some(p);
        s
    });
    let pool = pool.expect("at least one set-up");

    // Warm-up: one short pass, untimed; it also sets the first digests.
    let origin = Instant::now();
    let (warm, _) = pool.run(Stop::AfterCells(sizes.sweep_cells.min(64)), false, origin);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (tally, _) = pool.run(Stop::At(deadline), false, origin);

    // Workers run cells back to back (`sweep.worker_busy_share` is the
    // check), so the pool completes WORKERS cells per mean cell time.
    let (wall_s, distinct) = Tally::quiet_host_pass(&tally.best_wall_s);
    let (cpu_s, _) = Tally::quiet_host_pass(&tally.best_cpu_s);
    let mut metrics = Metrics::end_to_end();
    metrics.set(spec::OPS_PER_S, WORKERS as f64 * distinct as f64 / wall_s);
    metrics.set(spec::SETUP_S, median(&setups));
    metrics.set(spec::PEAK_HEAP_MB, peak_heap_mb());
    RunOutput {
        attempted: warm.executed + tally.executed,
        failed: warm.failed + tally.failed,
        invalid: None,
        metrics,
        notes: vec![
            format!(
                "paper_sweep: {} cells in the list, {} executed on {WORKERS} workers in {seconds} s ({:.1} times each), {} set-up samples",
                sizes.sweep_cells,
                tally.executed,
                tally.executed as f64 / sizes.sweep_cells as f64,
                setups.len()
            ),
            format!(
                "as observed, runs_per_s (cells / wall s) per 1 s window: median {:.0} of {:?}",
                median(&tally.per_second),
                tally.per_second
            ),
            format!("quiet-host cpu_s_per_op {:.6} s", cpu_s / distinct as f64),
        ],
    }
}

fn cell_ms(runs: &[CellRun], kind: Option<CellKind>) -> Vec<f64> {
    runs.iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(|r| r.wall_s() * 1e3)
        .collect()
}

fn run_traced(seed: u64, seconds: u64, sizes: &Sizes, tracers: &mut Vec<Tracer>) -> RunOutput {
    let origin = Instant::now();
    let mut tr = Tracer::new(true, spec::PAPER_SWEEP, origin, 0);
    tr.set_rep(1);
    let setup = tr.open("workload.setup");
    let (pool, _) = setup_once(seed, sizes.sweep_cells);
    tr.close(setup);

    // Half the window untraced, half traced: the same pool, the same list.
    let half = Duration::from_secs(seconds).mul_f64(0.5);
    let t0 = Instant::now();
    let (plain, _) = pool.run(Stop::At(t0 + half), false, origin);
    let plain_rate = plain.executed as f64 / t0.elapsed().as_secs_f64();
    let run = tr.open("workload.run");
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let (tally, workers) = pool.run(Stop::At(t1 + half), true, origin);
    let window = t1.elapsed().as_secs_f64();
    let cpu_share = (process_cpu_s() - cpu0) / window;
    tr.close(run);
    let traced_rate = tally.executed as f64 / window;
    let runs = &tally.runs;

    let mut out = Metrics::per_layer();
    out.set(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
    );
    out.set(
        "chaos.cell_ms_p50",
        median(&cell_ms(runs, Some(CellKind::Chaos))),
    );
    out.set(
        "sweep.tracking_cell_ms_p50",
        median(&cell_ms(runs, Some(CellKind::Tracking))),
    );
    out.set("sweep.cell_ms_p95", quantile(&cell_ms(runs, None), 0.95));
    let busy: f64 = runs.iter().map(CellRun::wall_s).sum();
    out.set("sweep.worker_busy_share", busy / (WORKERS as f64 * window));
    out.set("chaos.violations", tally.violations as f64);
    // Fault events of the distinct chaos cells the traced window ran.
    let mut seen = vec![false; pool.cells.len()];
    let mut fault_events = 0usize;
    for r in runs {
        if !std::mem::replace(&mut seen[r.index], true) {
            fault_events += pool.cells[r.index].fault_events;
        }
    }
    out.set("chaos.fault_events", fault_events as f64);
    out.set("core.report.jsonl_ms", tally.report_s * 1e3);
    out.set("core.report.jsonl_bytes", tally.report_bytes as f64);
    out.set("proc.cpu_share", cpu_share);
    out.set(
        "proc.cpu_s_per_op",
        cpu_share * window / tally.executed.max(1) as f64,
    );
    out.set("proc.peak_rss_mb", peak_rss_mb());

    // Counts and probe inputs come from cell 0's world, run once more here.
    let s = tr.open("workload.cell0_reference");
    let t2 = Instant::now();
    let engine = testbed_world(
        Arc::clone(&pool.program),
        pool.cells[0].seed,
        TRACKING_SPEED,
    );
    let cell0_s = t2.elapsed().as_secs_f64();
    tr.close(s);
    probes::world_layers(
        engine.world(),
        cell0_s,
        &pool.program,
        seed,
        sizes,
        &mut tr,
        &mut out,
    );

    let spans: usize = tr.len() + workers.iter().map(Tracer::len).sum::<usize>();
    out.set("trace.spans", spans as f64);
    tracers.push(tr);
    tracers.extend(workers);
    RunOutput {
        attempted: plain.executed + tally.executed,
        failed: plain.failed + tally.failed,
        invalid: None,
        metrics: out,
        notes: vec![format!(
            "paper_sweep: untraced {plain_rate:.1} cells/s, traced {traced_rate:.1} cells/s over {window:.2} s"
        )],
    }
}

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    sizes: &Sizes,
    tracers: &mut Vec<Tracer>,
) -> RunOutput {
    if traced {
        run_traced(seed, seconds, sizes, tracers)
    } else {
        run_end_to_end(seed, seconds, sizes)
    }
}
