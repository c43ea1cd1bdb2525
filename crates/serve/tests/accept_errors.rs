//! The acceptor out of descriptors.
//!
//! With the process's descriptor table full, `accept()` fails at once on
//! every call (EMFILE) while the connection waits in the listen queue. The
//! acceptor counts each failure and backs off between retries instead of
//! spinning a core the hub and the workers need; once descriptors are
//! free again, the waiting connection is accepted.
//!
//! It lowers the process's own `RLIMIT_NOFILE`, so it is the only test in
//! its binary.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::fs::File;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use envirotrack_core::wire::session::SessionMsg;
use envirotrack_serve::client::Conn;
use envirotrack_serve::{Server, ServerConfig};

// This suite needs only the handshake of it.
#[allow(dead_code)]
#[path = "support/conn.rs"]
mod support;
use support::{hello, open};

/// `struct rlimit` where `rlim_t` is 64 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

/// `struct timespec` where `time_t` and `long` are 64 bits.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RLIMIT_NOFILE: i32 = 7;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// `std` already links the C library; these are declared here rather than
// pulled in through a crate.
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn nofile() -> Rlimit {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `getrlimit` writes one `struct rlimit` into `lim`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile(lim: Rlimit) {
    // SAFETY: `setrlimit` reads one `struct rlimit` from `lim`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
}

/// CPU time every thread of this process has used.
fn process_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` into `ts`.
    assert_eq!(
        unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) },
        0
    );
    Duration::new(
        u64::try_from(ts.sec).expect("non-negative"),
        u32::try_from(ts.nsec).expect("under a second"),
    )
}

#[test]
fn the_acceptor_backs_off_while_out_of_descriptors() {
    let server = Server::start(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let metrics = server.metrics();
    let errors = || metrics.accept_errors.load(Ordering::Relaxed);

    // Fill the descriptor table under a lowered limit, then free one slot
    // for the client's socket: the acceptor has none left for its end.
    let saved = nofile();
    let open_now = std::fs::read_dir("/proc/self/fd")
        .expect("fd table")
        .count() as u64;
    set_nofile(Rlimit {
        cur: (open_now + 16).min(saved.max),
        ..saved
    });
    let mut fillers = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        fillers.push(f);
    }
    fillers.pop();
    let mut waiting = Conn::connect(server.addr(), Some(Duration::from_secs(3))).expect("connect");
    assert!(File::open("/dev/null").is_err(), "the table is full");

    let deadline = Instant::now() + Duration::from_secs(5);
    while errors() == 0 {
        assert!(Instant::now() < deadline, "accept() never failed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (errors0, cpu0, t0) = (errors(), process_cpu(), Instant::now());
    std::thread::sleep(Duration::from_millis(200));
    let (cpu, wall) = (process_cpu() - cpu0, t0.elapsed());
    assert!(errors() > errors0, "the acceptor stopped retrying");
    assert!(
        cpu.as_secs_f64() < 0.2 * wall.as_secs_f64(),
        "{cpu:?} of CPU in {wall:?} while accept() failed {} times",
        errors() - errors0
    );

    // Descriptors back: the connection that waited is accepted, and so is
    // the next.
    drop(fillers);
    set_nofile(saved);
    waiting.send(&hello(64));
    let accepted = waiting.poll();
    assert!(
        matches!(accepted, Some(SessionMsg::Accept(_))),
        "{accepted:?}: {:?}",
        waiting.phase()
    );
    drop(open(server.addr()));
    assert_eq!(metrics.panics.load(Ordering::Relaxed), 0);
    server.shutdown();
}
