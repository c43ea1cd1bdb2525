//! `serve_fanout`: the serving stack end to end, with its own load
//! generator.
//!
//! An in-process `serve::Server` (1 worker, send budget 65 536, hub tick
//! 2 ms real / 200 ms virtual) streams 4 shared worlds to 2 x 1 024
//! subscriptions held by one generator thread on 2 non-blocking loopback
//! connections. The loop is **open**: the hub paces itself on wall-clock
//! ticks and clients only read, so a slower server delivers fewer events
//! per second rather than receiving less load. Each connection also sends
//! one PING every 10 ms with at most one outstanding — the one
//! request/response path a client can time without in-program stamps.
//! One operation is 1 000 EVENT frames parsed by the client.
//!
//! The generator checks itself: it runs on one thread and two
//! connections (no more than the reference host's cores), reports its own
//! CPU share and how late its pings left, and marks the run **invalid**
//! when it, not the server, was the bottleneck.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::wire::session::{Hello, SessionMsg, Subscribe, CAP_ALL, SESSION_VERSION};
use envirotrack_serve::{FrameReader, Server, ServerConfig, SCENARIO_TESTBED};

use crate::heap::take_peak_heap_mb;
use crate::output::{Metrics, RunOutput};
use crate::probes;
use crate::spec::{self, Sizes};
use crate::stats::{median, peak_rss_mb, process_cpu_s, quantile, sample_setups, thread_cpu_s};
use crate::trace::Tracer;

/// Cores of the reference host the workload is sized for.
const REFERENCE_NPROC: usize = 2;
const CONNECTIONS: usize = 2;
const GENERATOR_THREADS: usize = 1;
const _: () = assert!(CONNECTIONS <= REFERENCE_NPROC && GENERATOR_THREADS <= REFERENCE_NPROC);

/// Shared worlds the subscriptions spread over (`seed..seed + WORLDS`).
const WORLDS: u64 = 4;
const SEND_BUDGET: u32 = 65_536;
const PING_PERIOD: Duration = Duration::from_millis(10);
const PONG_TIMEOUT: Duration = Duration::from_secs(1);
const WARM: Duration = Duration::from_secs(1);
/// Above this share of one core the generator counts as the bottleneck.
const MAX_BUSY_SHARE: f64 = 0.5;
/// Set-ups per untraced run (at least, at most) and the time they may
/// take; the reported `setup_s` is their median.
const SETUP_SAMPLES: (usize, usize) = (3, 31);
const SETUP_BUDGET: Duration = Duration::from_millis(400);
/// Bytes handed to the `FrameReader` at a time, as `serve::Client` does.
const FEED: usize = 4096;

struct Ping {
    nonce: u64,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Bytes still to write (the pipelined SUBSCRIBE burst, then pings).
    pending: Vec<u8>,
    outstanding: Option<Ping>,
    next_ping_due: Instant,
    closed: bool,
}

/// What the generator has seen so far; windows are cut by resetting it.
#[derive(Default)]
struct Seen {
    events: u64,
    bytes: u64,
    per_second: Vec<f64>,
    rtt_us: Vec<f64>,
    ping_late_us: Vec<f64>,
    pings_sent: u64,
    pings_lost: u64,
    /// Gaps between successive read passes that delivered bytes.
    pass_gap_us: Vec<f64>,
    last_pass: Option<Instant>,
    /// First and last EVENT of query 0: virtual time against arrival time.
    pace_first: Option<(u64, Instant)>,
    pace_last: Option<(u64, Instant)>,
}

struct Generator {
    conns: Vec<Conn>,
    subs_per_conn: u32,
    /// Next expected EVENT sequence per query id.
    expected_seq: Vec<u64>,
    acked: Vec<bool>,
    failed_sub: Vec<bool>,
    suback_us: Vec<f64>,
    burst_started: Instant,
    seen: Seen,
    window_started: Instant,
    pinging: bool,
    record_passes: bool,
    buf: Vec<u8>,
    next_nonce: u64,
}

impl Generator {
    fn subs(&self) -> usize {
        self.expected_seq.len()
    }

    fn fail_conn(&mut self, c: usize) {
        self.conns[c].closed = true;
        let per = self.subs_per_conn as usize;
        for q in c * per..(c + 1) * per {
            self.failed_sub[q] = true;
        }
    }

    fn on_frame(&mut self, c: usize, msg: SessionMsg, now: Instant, tr: &mut Tracer) {
        match msg {
            SessionMsg::Event(e) => {
                let q = e.query_id as usize;
                if q >= self.subs() {
                    self.fail_conn(c);
                    return;
                }
                if e.seq != self.expected_seq[q] {
                    // A per-query gap (or replay): the stream lost events.
                    self.failed_sub[q] = true;
                }
                self.expected_seq[q] = e.seq + 1;
                self.seen.events += 1;
                let second = now.saturating_duration_since(self.window_started).as_secs() as usize;
                if let Some(count) = self.seen.per_second.get_mut(second) {
                    *count += 1.0;
                }
                if q == 0 {
                    let stamp = (e.at.as_micros(), now);
                    self.seen.pace_first.get_or_insert(stamp);
                    self.seen.pace_last = Some(stamp);
                }
            }
            SessionMsg::SubAck(a) => {
                let q = a.query_id as usize;
                if q >= self.subs() || self.acked[q] {
                    self.fail_conn(c);
                    return;
                }
                self.acked[q] = true;
                self.failed_sub[q] |= !a.accepted;
                self.suback_us.push(
                    now.saturating_duration_since(self.burst_started)
                        .as_secs_f64()
                        * 1e6,
                );
            }
            SessionMsg::Pong { nonce } => {
                if let Some(p) = self.conns[c].outstanding.take() {
                    if p.nonce == nonce {
                        self.seen.rtt_us.push((now - p.sent).as_secs_f64() * 1e6);
                        tr.leaf("serve.ping_pong", p.sent, now, &[("conn", c as f64)]);
                    } else {
                        self.seen.pings_lost += 1;
                    }
                }
            }
            // CLOSE (shed, idle, protocol error) or anything unexpected
            // ends every subscription on the connection.
            _ => self.fail_conn(c),
        }
    }

    /// One pass over every connection: flush pending writes, read what
    /// arrived, parse it, keep the ping schedule. Returns whether any
    /// byte moved.
    fn pump(&mut self, tr: &mut Tracer) -> bool {
        let mut progress = false;
        for c in 0..self.conns.len() {
            if self.conns[c].closed {
                continue;
            }
            // Writes.
            let now = Instant::now();
            if self.pinging {
                let conn = &mut self.conns[c];
                if let Some(p) = &conn.outstanding {
                    if now.saturating_duration_since(p.sent) > PONG_TIMEOUT {
                        conn.outstanding = None;
                        self.seen.pings_lost += 1;
                    }
                }
                if conn.outstanding.is_none()
                    && conn.pending.is_empty()
                    && now >= conn.next_ping_due
                {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    conn.pending
                        .extend_from_slice(&SessionMsg::Ping { nonce }.encode());
                    self.seen
                        .ping_late_us
                        .push((now - conn.next_ping_due).as_secs_f64() * 1e6);
                    // The schedule is a fixed 10 ms grid; a ping held back
                    // by its predecessor leaves late and says so.
                    while conn.next_ping_due <= now {
                        conn.next_ping_due += PING_PERIOD;
                    }
                    conn.outstanding = Some(Ping { nonce, sent: now });
                    self.seen.pings_sent += 1;
                }
            }
            while !self.conns[c].pending.is_empty() {
                let conn = &mut self.conns[c];
                match conn.stream.write(&conn.pending) {
                    Ok(0) => {
                        self.fail_conn(c);
                        break;
                    }
                    Ok(n) => {
                        conn.pending.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.fail_conn(c);
                        break;
                    }
                }
            }
            // Reads: one buffer's worth per pass, so connections alternate.
            let pass_start = Instant::now();
            let mut buf = std::mem::take(&mut self.buf);
            let read = match self.conns[c].stream.read(&mut buf) {
                Ok(0) => {
                    self.fail_conn(c);
                    0
                }
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
                Err(_) => {
                    self.fail_conn(c);
                    0
                }
            };
            let mut frames = 0u64;
            for chunk in buf[..read].chunks(FEED) {
                self.conns[c].reader.extend(chunk);
                loop {
                    match self.conns[c].reader.next_frame() {
                        Ok(Some(msg)) => {
                            frames += 1;
                            self.on_frame(c, msg, Instant::now(), tr);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            self.fail_conn(c);
                            break;
                        }
                    }
                }
            }
            self.buf = buf;
            if read > 0 {
                progress = true;
                self.seen.bytes += read as u64;
                let end = Instant::now();
                if self.record_passes {
                    if let Some(last) = self.seen.last_pass.replace(end) {
                        self.seen.pass_gap_us.push((end - last).as_secs_f64() * 1e6);
                    }
                    tr.leaf(
                        "serve.read_pass",
                        pass_start,
                        end,
                        &[
                            ("conn", c as f64),
                            ("bytes", read as f64),
                            ("frames", frames as f64),
                        ],
                    );
                }
            }
        }
        progress
    }

    /// Pumps until `until`, sleeping briefly whenever nothing moved.
    fn pump_until(&mut self, until: Instant, tr: &mut Tracer) {
        while Instant::now() < until {
            if !self.pump(tr) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Starts a measuring window of `seconds` whole seconds.
    fn open_window(&mut self, seconds: u64) {
        self.seen = Seen {
            per_second: vec![0.0; seconds as usize],
            ..Seen::default()
        };
        self.window_started = Instant::now();
    }
}

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig {
        workers: 1,
        send_budget: SEND_BUDGET,
        ..ServerConfig::default()
    };
    // The hub defaults are the workload's: 2 ms real per 200 ms virtual
    // tick, one sample per tick. Restated so a default change shows up as
    // a compile-visible decision here, not as a silent workload change.
    cfg.hub.tick_real = Duration::from_millis(2);
    cfg.hub.tick_virtual = envirotrack_sim::time::SimDuration::from_millis(200);
    cfg.hub.sample_virtual = envirotrack_sim::time::SimDuration::from_millis(200);
    cfg
}

/// `Server::start` through the last SUBACK: connect, HELLO/ACCEPT, the
/// pipelined SUBSCRIBE burst, and the 4 cold world builds it triggers.
fn setup(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Result<(Server, Generator, f64), String> {
    let t0 = Instant::now();
    let span = tr.open("workload.setup");
    let s = tr.open("serve.server_start");
    let server = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
    tr.close(s);

    let subs_per_conn = sizes.serve_subs_per_conn;
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let s = tr.open("serve.connect");
        let mut stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        tr.close(s);

        let s = tr.open("serve.hello_accept");
        stream
            .write_all(
                &SessionMsg::Hello(Hello {
                    version: SESSION_VERSION,
                    caps: CAP_ALL,
                    recv_budget: SEND_BUDGET,
                })
                .encode(),
            )
            .map_err(|e| format!("hello: {e}"))?;
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 256];
        let accepted = loop {
            match reader.next_frame() {
                Ok(Some(SessionMsg::Accept(a))) => break a,
                Ok(Some(other)) => return Err(format!("expected ACCEPT, got {other:?}")),
                Ok(None) => {}
                Err(e) => return Err(format!("handshake framing: {e}")),
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err("server closed during handshake".into()),
                Ok(n) => reader.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("handshake read: {e}")),
            }
        };
        if accepted.send_budget != SEND_BUDGET {
            return Err(format!("granted budget {}", accepted.send_budget));
        }
        tr.close(s);
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;

        let mut pending = Vec::new();
        for k in 0..subs_per_conn {
            pending.extend_from_slice(
                &SessionMsg::Subscribe(Subscribe {
                    query_id: c as u32 * subs_per_conn + k,
                    scenario: SCENARIO_TESTBED,
                    seed: seed + u64::from(k) % WORLDS,
                    type_id: ContextTypeId(0),
                })
                .encode(),
            );
        }
        conns.push(Conn {
            stream,
            reader,
            pending,
            outstanding: None,
            next_ping_due: Instant::now(),
            closed: false,
        });
    }

    let total = CONNECTIONS * subs_per_conn as usize;
    let mut gen = Generator {
        conns,
        subs_per_conn,
        expected_seq: vec![0; total],
        acked: vec![false; total],
        failed_sub: vec![false; total],
        suback_us: Vec::with_capacity(total),
        burst_started: Instant::now(),
        seen: Seen::default(),
        window_started: Instant::now(),
        pinging: false,
        record_passes: false,
        buf: vec![0u8; 64 * 1024],
        next_nonce: 1,
    };
    let s = tr.open("serve.subscribe_suback");
    let give_up = Instant::now() + Duration::from_secs(30);
    while gen.suback_us.len() < total {
        if Instant::now() > give_up || gen.conns.iter().any(|c| c.closed) {
            return Err(format!(
                "only {} of {total} SUBACKs arrived",
                gen.suback_us.len()
            ));
        }
        if !gen.pump(tr) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    tr.attr("subscriptions", total as f64);
    tr.close(s);
    tr.close(span);
    Ok((server, gen, t0.elapsed().as_secs_f64()))
}

/// Client-observed numbers of one closed window.
struct Window {
    seconds: f64,
    events: u64,
    per_second: Vec<f64>,
    /// CPU seconds of the server's threads (the process minus the
    /// generator's own thread) in each whole second of the window.
    server_cpu_per_second: Vec<f64>,
    /// Peak live heap, in MiB, within each whole second of the window.
    heap_peak_per_second: Vec<f64>,
    rtt_us: Vec<f64>,
    ping_late_us: Vec<f64>,
    pings_sent: u64,
    pings_lost: u64,
    pass_gap_us: Vec<f64>,
    bytes: u64,
    pace_x: f64,
    process_cpu_s: f64,
    generator_busy_share: f64,
}

impl Window {
    /// Server CPU seconds per 1 000 delivered events, per whole second.
    fn cpu_s_per_kilo_event(&self) -> Vec<f64> {
        self.server_cpu_per_second
            .iter()
            .zip(&self.per_second)
            .filter(|(_, events)| **events > 0.0)
            .map(|(cpu, events)| cpu / (events / 1e3))
            .collect()
    }
}

fn measure(gen: &mut Generator, seconds: f64, tr: &mut Tracer) -> Window {
    gen.open_window(seconds.ceil() as u64);
    // (process, this generator thread): the difference is the server's.
    let cpu_marks = || (process_cpu_s(), thread_cpu_s());
    let mut marks = vec![cpu_marks()];
    let mut heap_peaks = Vec::new();
    take_peak_heap_mb();
    let until = gen.window_started + Duration::from_secs_f64(seconds);
    for second in 1..=seconds.floor() as u64 {
        gen.pump_until(gen.window_started + Duration::from_secs(second), tr);
        marks.push(cpu_marks());
        heap_peaks.push(take_peak_heap_mb());
    }
    gen.pump_until(until, tr);
    let last = cpu_marks();
    let elapsed = gen.window_started.elapsed().as_secs_f64();
    let (cpu, own_cpu) = (last.0 - marks[0].0, last.1 - marks[0].1);
    let seen = std::mem::take(&mut gen.seen);
    let pace_x = match (seen.pace_first, seen.pace_last) {
        (Some((v0, w0)), Some((v1, w1))) if w1 > w0 => {
            (v1 - v0) as f64 / 1e6 / (w1 - w0).as_secs_f64()
        }
        _ => 0.0,
    };
    Window {
        seconds: elapsed,
        events: seen.events,
        per_second: seen.per_second,
        server_cpu_per_second: marks
            .windows(2)
            .map(|m| ((m[1].0 - m[0].0) - (m[1].1 - m[0].1)).max(0.0))
            .collect(),
        heap_peak_per_second: heap_peaks,
        rtt_us: seen.rtt_us,
        ping_late_us: seen.ping_late_us,
        pings_sent: seen.pings_sent,
        pings_lost: seen.pings_lost,
        pass_gap_us: seen.pass_gap_us,
        bytes: seen.bytes,
        pace_x,
        process_cpu_s: cpu,
        generator_busy_share: own_cpu / elapsed,
    }
}

/// Operations and failures: every subscription and every PING.
fn tally(gen: &Generator, server: &Server, windows: &[&Window]) -> (u64, u64, Vec<String>) {
    let m = server.metrics();
    let pings: u64 = windows.iter().map(|w| w.pings_sent).sum();
    let lost: u64 = windows.iter().map(|w| w.pings_lost).sum();
    let attempted = gen.subs() as u64 + pings;
    let mut failed = gen.failed_sub.iter().filter(|f| **f).count() as u64 + lost;
    let (panics, sheds, dropped) = (
        m.panics.load(Ordering::Relaxed),
        m.slow_consumer_sheds.load(Ordering::Relaxed),
        m.events_dropped.load(Ordering::Relaxed),
    );
    if panics > 0 {
        failed = attempted;
    }
    let notes = vec![format!(
        "server: events_sent {} events_dropped {dropped} sheds {sheds} protocol_errors {} panics {panics}",
        m.events_sent.load(Ordering::Relaxed),
        m.protocol_errors.load(Ordering::Relaxed),
    )];
    (attempted, failed, notes)
}

fn generator_verdict(w: &Window) -> Option<String> {
    (w.generator_busy_share >= MAX_BUSY_SHARE).then(|| {
        format!(
            "the load generator used {:.0} % of a core (limit {:.0} %): it, not the server, bounded the run",
            w.generator_busy_share * 100.0,
            MAX_BUSY_SHARE * 100.0
        )
    })
}

fn host_note() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "generator: {GENERATOR_THREADS} thread, {CONNECTIONS} connections; host has {nproc} cores (sized for {REFERENCE_NPROC}){}",
        if nproc < REFERENCE_NPROC { " -- FEWER THAN THE WORKLOAD IS SIZED FOR" } else { "" }
    )
}

fn run_end_to_end(seed: u64, seconds: u64, sizes: &Sizes) -> Result<RunOutput, String> {
    let mut tr = Tracer::new(false, spec::SERVE_FANOUT, Instant::now(), 0);
    let mut setups = Vec::new();
    let mut last: Option<(Server, Generator)> = None;
    let mut error = None;
    sample_setups(&mut setups, SETUP_SAMPLES, SETUP_BUDGET, || {
        // The previous server is shut down (threads joined) before the
        // next set-up starts.
        if let Some((server, gen)) = last.take() {
            drop(gen);
            server.shutdown();
        }
        match setup(seed, sizes, &mut tr) {
            Ok((server, gen, s)) => {
                last = Some((server, gen));
                s
            }
            Err(e) => {
                error = Some(e);
                0.0
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let (server, mut gen) = last.expect("at least one set-up");

    gen.pinging = true;
    let warm = measure(&mut gen, WARM.as_secs_f64().min(seconds as f64), &mut tr);
    let w = measure(&mut gen, seconds as f64, &mut tr);
    let (attempted, failed, mut notes) = tally(&gen, &server, &[&warm, &w]);
    server.shutdown();

    let rate = median(&w.per_second);
    let mut metrics = Metrics::end_to_end();
    metrics.set(spec::OPS_PER_S, rate / 1e3);
    metrics.set(spec::SETUP_S, median(&setups));
    // The steady stream's heap: an open-loop server's all-time peak is
    // whatever backlog its worst stall left in the outboxes, and a stall
    // only ever adds, so the smallest per-second peak is reported.
    metrics.set(
        spec::PEAK_HEAP_MB,
        w.heap_peak_per_second
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    notes.push(format!(
        "server cpu s per 1000 events per 1 s window: median {:.6} of {:.6?}",
        median(&w.cpu_s_per_kilo_event()),
        w.cpu_s_per_kilo_event()
    ));
    notes.push(format!(
        "heap peak MiB per 1 s window: {:.2?}",
        w.heap_peak_per_second
    ));
    notes.insert(0, host_note());
    notes.push(format!(
        "delivered_events_per_s per 1 s window: {:?}",
        w.per_second
    ));
    notes.push(format!(
        "ping rtt under load: p50 {:.0} us, p99 {:.0} us over {} samples; late p99 {:.0} us; generator busy {:.2}",
        quantile(&w.rtt_us, 0.5),
        quantile(&w.rtt_us, 0.99),
        w.rtt_us.len(),
        quantile(&w.ping_late_us, 0.99),
        w.generator_busy_share
    ));
    Ok(RunOutput {
        attempted,
        failed,
        invalid: generator_verdict(&w),
        metrics,
        notes,
    })
}

fn run_traced(
    seed: u64,
    seconds: u64,
    sizes: &Sizes,
    tracers: &mut Vec<Tracer>,
) -> Result<RunOutput, String> {
    let mut tr = Tracer::new(true, spec::SERVE_FANOUT, Instant::now(), 0);
    tr.set_rep(1);
    let (server, mut gen, _) = setup(seed, sizes, &mut tr)?;
    gen.pinging = true;
    let half = seconds as f64 / 2.0;
    let warm = measure(&mut gen, WARM.as_secs_f64().min(half), &mut tr);
    // Half the window with read passes unrecorded, half with a span each.
    let plain = measure(&mut gen, half, &mut tr);
    let run = tr.open("workload.run");
    gen.record_passes = true;
    let w = measure(&mut gen, half, &mut tr);
    gen.record_passes = false;
    tr.close(run);
    let (attempted, failed, mut notes) = tally(&gen, &server, &[&warm, &plain, &w]);

    let mut out = Metrics::per_layer();
    let m = server.metrics();
    for (name, counter) in [
        ("serve.server.events_sent", &m.events_sent),
        ("serve.server.events_dropped", &m.events_dropped),
        ("serve.server.slow_consumer_sheds", &m.slow_consumer_sheds),
        ("serve.server.protocol_errors", &m.protocol_errors),
        ("serve.server.panics", &m.panics),
    ] {
        out.set(name, counter.load(Ordering::Relaxed) as f64);
    }
    server.shutdown();

    let rate = |w: &Window| w.events as f64 / w.seconds;
    out.set(
        "trace.overhead_pct",
        (rate(&plain) / rate(&w) - 1.0) * 100.0,
    );
    out.set(
        "serve.hub.suback_burst_p50_us",
        quantile(&gen.suback_us, 0.5),
    );
    out.set(
        "serve.hub.suback_burst_p95_us",
        quantile(&gen.suback_us, 0.95),
    );
    out.set("serve.hub.pace_x", w.pace_x);
    out.set(
        "serve.server.batch_gap_p50_us",
        quantile(&w.pass_gap_us, 0.5),
    );
    out.set(
        "serve.server.batch_gap_p99_us",
        quantile(&w.pass_gap_us, 0.99),
    );
    out.set(
        "serve.server.bytes_per_event",
        w.bytes as f64 / w.events.max(1) as f64,
    );
    out.set("serve.ping.rtt_p50_us", quantile(&w.rtt_us, 0.5));
    out.set("serve.ping.rtt_p99_us", quantile(&w.rtt_us, 0.99));
    out.set("loadgen.busy_share", w.generator_busy_share);
    out.set("loadgen.ping_late_p99_us", quantile(&w.ping_late_us, 0.99));
    out.set("proc.cpu_share", w.process_cpu_s / w.seconds);
    // A poll-loop server's CPU per event moves both ways with how its
    // sleeps happen to line up: a median, not a minimum.
    out.set("proc.cpu_s_per_op", median(&w.cpu_s_per_kilo_event()));
    out.set("proc.peak_rss_mb", peak_rss_mb());

    // Counts and probe inputs come from the served testbed field, run once
    // in-process: the world every hub tick advances.
    let s = tr.open("workload.testbed_reference");
    let program = probes::figure_2_program();
    let t0 = Instant::now();
    let engine = crate::sweep::testbed_world(std::sync::Arc::clone(&program), seed, 0.5);
    let world_s = t0.elapsed().as_secs_f64();
    tr.close(s);
    probes::world_layers(
        engine.world(),
        world_s,
        &program,
        seed,
        sizes,
        &mut tr,
        &mut out,
    );
    out.set("trace.spans", tr.len() as f64);
    tracers.push(tr);

    notes.insert(0, host_note());
    notes.push(format!(
        "untraced {:.0} events/s, traced {:.0} events/s; {} ping samples",
        rate(&plain),
        rate(&w),
        w.rtt_us.len()
    ));
    Ok(RunOutput {
        attempted,
        failed,
        invalid: generator_verdict(&w),
        metrics: out,
        notes,
    })
}

/// # Errors
///
/// A set-up that cannot complete (bind, handshake, missing SUBACKs) means
/// there is nothing to measure; the caller exits non-zero.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    sizes: &Sizes,
    tracers: &mut Vec<Tracer>,
) -> Result<RunOutput, String> {
    if traced {
        run_traced(seed, seconds, sizes, tracers)
    } else {
        run_end_to_end(seed, seconds, sizes)
    }
}
