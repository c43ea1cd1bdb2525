//! Installing a fault plan and monitor into an engine.
//!
//! [`install`] turns a [`FaultPlan`] into ordinary kernel events on an
//! existing [`Engine<SensorNetwork>`] and starts the recurring invariant
//! tick, returning the shared [`InvariantMonitor`]. The harness owns no
//! event loop of its own: everything rides the simulation kernel, so fault
//! timing composes deterministically with protocol traffic under a single
//! seed.

use std::cell::RefCell;
use std::rc::Rc;

use envirotrack_core::network::SensorNetwork;
use envirotrack_core::report::RunRecord;
use envirotrack_sim::engine::{Engine, Kernel};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;

use crate::monitor::{InvariantMonitor, TICK};
use crate::plan::{describe, FaultEvent, FaultPlan};

/// Shared monitor handle: kernel events and the caller both sample it.
pub type MonitorHandle = Rc<RefCell<InvariantMonitor>>;

/// Battery budgets activated so far: `(node, millijoules)`.
type Budgets = Rc<RefCell<Vec<(NodeId, f64)>>>;

/// Schedules every event of `plan` on the engine's kernel, enables the
/// medium's delivery audit log, and starts the invariant tick. Returns the
/// monitor to inspect after the run.
///
/// # Panics
///
/// Panics when the plan fails [`FaultPlan::validate`] against the engine's
/// deployment — a malformed plan is a harness bug, not a run outcome.
pub fn install(engine: &mut Engine<SensorNetwork>, plan: FaultPlan, seed: u64) -> MonitorHandle {
    plan.validate(engine.world().deployment().len())
        .expect("fault plan must match the deployment");
    let monitor = InvariantMonitor::new(seed, engine.world());
    let monitor: MonitorHandle = Rc::new(RefCell::new(monitor));
    let budgets: Budgets = Rc::new(RefCell::new(Vec::new()));
    engine.world_mut().set_delivery_log(true);

    let k = engine.kernel_mut();
    for (at, event) in plan.events().iter().cloned() {
        let mon = Rc::clone(&monitor);
        k.schedule_at(at.max(k.now()), move |w: &mut SensorNetwork, k| {
            apply_fault(w, k, &mon, &event);
        });
    }
    for (at, node, millijoules) in plan.budgets().iter().copied() {
        let mon = Rc::clone(&monitor);
        let bud = Rc::clone(&budgets);
        k.schedule_at(at.max(k.now()), move |_, k| {
            let note = format!("battery budget node {} = {millijoules:.2} mJ", node.0);
            mon.borrow_mut().note_fault(k.now(), note);
            bud.borrow_mut().push((node, millijoules));
        });
    }
    let mon = Rc::clone(&monitor);
    let bud = Rc::clone(&budgets);
    k.schedule_at(k.now() + TICK, move |w: &mut SensorNetwork, k| {
        monitor_tick(w, k, mon, bud);
    });
    monitor
}

/// One run summary for JSON-lines emission: the world's counters plus the
/// monitor's violation count.
#[must_use]
pub fn summarize(
    world: &SensorNetwork,
    seed: u64,
    now: Timestamp,
    monitor: &InvariantMonitor,
) -> RunRecord {
    world.run_record(
        seed,
        now.saturating_since(Timestamp::ZERO),
        monitor.violations().len() as u64,
    )
}

/// Applies one scripted fault to the world, around the monitor's own
/// bookkeeping of it.
fn apply_fault(
    w: &mut SensorNetwork,
    k: &mut Kernel<SensorNetwork>,
    monitor: &MonitorHandle,
    event: &FaultEvent,
) {
    monitor.borrow_mut().note_fault(k.now(), describe(event));
    if matches!(event, FaultEvent::Partition(_) | FaultEvent::Heal) {
        // Judge the delivery log by the outgoing mask before switching.
        monitor.borrow_mut().check_deliveries(w, k.now());
    }
    w.apply_fault(k.now(), event);
    if *event == FaultEvent::Heal {
        // Replicated directories diverge during the split; one
        // anti-entropy round per live replica starts repair now instead
        // of waiting out the gossip period.
        w.kick_directory_gossip(k);
    }
}

fn monitor_tick(
    w: &mut SensorNetwork,
    k: &mut Kernel<SensorNetwork>,
    monitor: MonitorHandle,
    budgets: Budgets,
) {
    // Reschedule first so a panicking check still leaves a live loop when
    // tests catch and continue.
    let mon = Rc::clone(&monitor);
    let bud = Rc::clone(&budgets);
    k.schedule_at(k.now() + TICK, move |w: &mut SensorNetwork, k| {
        monitor_tick(w, k, mon, bud);
    });
    // Battery death: a budgeted node dies for good once its cumulative
    // protocol energy crosses the line.
    for (node, limit) in budgets.borrow().iter() {
        if w.is_alive(*node) && w.energy_at(*node).total_millijoules() > *limit {
            monitor
                .borrow_mut()
                .note_fault(k.now(), format!("battery died on node {}", node.0));
            w.kill_node(*node);
        }
    }
    monitor.borrow_mut().check(w, k.now());
}
