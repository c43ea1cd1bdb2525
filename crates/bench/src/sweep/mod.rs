//! Parameter sweeps: the one order-keeping executor, the scenario sweep
//! engine on top of it, and max-trackable-speed search.
//!
//! `parallel_map` runs a function over its inputs on a given number of
//! workers fed by an atomic cursor and returns the outputs in input order;
//! the figure experiments give it the host's CPU count. The sweep engine
//! ([`run_sweep`]) runs `(scenario, seed)` cells on it and merges their
//! JSON lines by cell id, so the merged bytes are the same at any worker
//! count (see DESIGN.md §10).

mod cells;
mod engine;

pub use cells::{default_cells, scale_cells, CellSpec, SweepCell};
pub use engine::{run_sweep, scale_workers, SweepReport};

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::harness::{run_tracking, TrackingRun};

/// The host's CPU count: the worker count of the figure experiments and
/// the `host_cpus` of every BENCH report. 1 when the host does not say, so
/// a report never claims CPUs that may not be there.
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over `inputs` on at most `workers` scoped threads, each taking
/// the next input off a shared cursor, and returns the outputs in input
/// order.
///
/// # Panics
///
/// Panics when `workers == 0` or when `f` panics.
pub(crate) fn parallel_map<I, O, F>(inputs: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(workers > 0, "a sweep needs at least one worker");
    let next = AtomicUsize::new(0);
    // A worker's step: claim the next input and map it. The cursor
    // publishes no data (outputs come back through `join`): `Relaxed`.
    let step = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        inputs.get(i).map(|input| (i, f(input)))
    };
    let mut done: Vec<(usize, O)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(inputs.len()))
            .map(|_| s.spawn(|| std::iter::from_fn(step).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, o)| o).collect()
}

/// Finds the maximum trackable speed (in hops/s) for a run template by
/// exponential bracketing followed by bisection.
///
/// `coherent_at(speed)` must be monotone-ish (true at low speeds); protocol
/// noise can make it ragged, so a speed is accepted only if a majority of
/// `votes` seeds agree.
#[must_use]
pub fn max_trackable_speed(template: &TrackingRun, votes: u32, resolution: f64) -> f64 {
    let coherent_at = |speed: f64| -> bool {
        let mut ok = 0;
        for v in 0..votes {
            let cfg = TrackingRun {
                speed_hops_per_s: speed,
                seed: template
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(v) + 1),
                ..template.clone()
            };
            if run_tracking(&cfg).coherent() {
                ok += 1;
            }
        }
        2 * ok > votes
    };

    let mut lo = 0.05;
    if !coherent_at(lo) {
        return 0.0;
    }
    // Exponential bracket.
    let mut hi = lo * 2.0;
    while coherent_at(hi) {
        lo = hi;
        hi *= 2.0;
        if hi > 16.0 {
            return hi / 2.0;
        }
    }
    // Bisect.
    while hi - lo > resolution {
        let mid = (lo + hi) / 2.0;
        if coherent_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use testkit::prelude::*;

    use super::*;

    prop_test! {
        /// The executor returns the sequential map's output at any input
        /// length and worker count, and runs on no more threads than it
        /// was given.
        #[test]
        fn parallel_map_is_the_sequential_map(
            inputs in prop::collection::vec(any::<u32>(), 0..201),
            workers in 1usize..9,
        ) {
            let square = |x: &u32| u64::from(*x) * u64::from(*x);
            let out = parallel_map(&inputs, workers, |x| (square(x), std::thread::current().id()));
            let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
            prop_assert_eq!(values, inputs.iter().map(square).collect::<Vec<_>>());
            let threads: HashSet<_> = out.iter().map(|&(_, t)| t).collect();
            prop_assert!(threads.len() <= workers, "{} threads for {workers} workers", threads.len());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        assert!(parallel_map(&[] as &[u32], 3, |x| *x).is_empty());
    }

    #[test]
    fn max_speed_search_finds_a_positive_speed_for_sane_configs() {
        let template = TrackingRun {
            cols: 14,
            rows: 3,
            lane_y: 1.0,
            ..TrackingRun::default()
        };
        let v = max_trackable_speed(&template, 1, 0.5);
        assert!(v > 0.0, "the default config must track something");
    }
}
