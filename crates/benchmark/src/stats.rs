//! Small numeric helpers: order statistics, the run digest, and the
//! process accounting read from `/proc`.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3)` of `values` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), which is what the driver's acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Run-to-run spread as the driver computes it: the distance between the
/// first and third quartile as a share of the median. Below four values
/// the exclusive quartiles extrapolate past the data (two values give 1.5
/// times their distance), so the full range stands in.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (low, med, high) = if values.len() < 4 {
        let s = sorted(values);
        (s[0], quantile_sorted(&s, 0.5), s[s.len() - 1])
    } else {
        quartiles(values)
    };
    if med == 0.0 {
        0.0
    } else {
        (high - low) / med.abs()
    }
}

/// FNV-1a over several byte strings, as one stream.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// `std` has no CPU-time clock, and `/proc` only offers the kernel's tick
// counters (10 ms in `stat`, 4 ms in `schedstat`), too coarse for a
// millisecond cell. `std` already links the C library, so its
// `clock_gettime` is declared here rather than pulled in through a crate.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the 64-bit
    // Linux C library expects, and both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds (user + system) of the whole process so far, exited
/// threads included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread alone.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds set-up durations from `one` to `samples` until there are `min` of
/// them, then keeps going while `budget` lasts, up to `max`: cheap set-ups
/// get the many samples their small medians need, dear ones stay bounded.
pub fn sample_setups(
    samples: &mut Vec<f64>,
    (min, max): (usize, usize),
    budget: Duration,
    mut one: impl FnMut() -> f64,
) {
    let deadline = Instant::now() + budget;
    while samples.len() < min || (samples.len() < max && Instant::now() < deadline) {
        samples.push(one());
    }
}

/// Times `op` in batches of `batch` calls for about `budget`, and returns
/// the median batch cost in nanoseconds per call. A batch median shrugs
/// off the preemptions a shared host injects into single batches.
pub fn ns_per_call(batch: u32, budget: Duration, mut op: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || (Instant::now() < deadline && samples.len() < 10_000) {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, med, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, med, q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = relative_spread(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        assert!((s - 0.15).abs() < 1e-12, "{s}");
        let two = relative_spread(&[100.0, 110.0]);
        assert!((two - 10.0 / 105.0).abs() < 1e-12, "{two}");
    }

    #[test]
    fn digest_is_order_sensitive_and_streamed() {
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"abc"]));
        assert_ne!(digest(&[b"abc"]), digest(&[b"acb"]));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        let (t0, p0) = (thread_cpu_s(), process_cpu_s());
        let mut x = 1u64;
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let burned = thread_cpu_s() - t0;
        assert!((0.03..0.2).contains(&burned), "thread cpu {burned}");
        assert!(process_cpu_s() - p0 >= burned - 0.001);
    }
}
