//! Parameter sweeps: parallel execution, the scenario sweep engine, and
//! max-trackable-speed search.
//!
//! `parallel_map` is the light primitive the figure experiments use;
//! [`engine`] is the full sweep engine — a work-stealing pool of
//! `(scenario, seed)` [`cells`] whose merged JSON-lines output is
//! byte-identical at any worker count (see DESIGN.md §10).

pub mod cells;
pub mod engine;

pub use cells::SweepCell;
pub use engine::run_sweep;

use crate::harness::{run_tracking, TrackingRun};

/// Runs `f` over `inputs` in parallel (a worker pool bounded by available
/// parallelism, fed by an atomic cursor), preserving input order in the
/// output. Pure `std`: scoped threads + an mpsc channel for results.
pub(crate) fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(4, |w| w.get())
        .min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    let inputs_ref = &inputs;
    let f_ref = &f;
    let next_ref = &next;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f_ref(&inputs_ref[i]);
                tx.send((i, out)).expect("result channel open");
            });
        }
    });
    drop(tx);
    let mut indexed: Vec<(usize, O)> = rx.into_iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, o)| o).collect()
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
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), |x: &i32| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| *x);
        assert!(out.is_empty());
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
