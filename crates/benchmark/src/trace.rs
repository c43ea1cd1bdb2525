//! Benchmark-side span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the product is instrumented. They are
//! kept in memory and written as JSON lines when the run ends. A span has
//! a name, start, end, the span that caused it, and the workload/rep it
//! belongs to; counts measured at the same boundary ride along as `attrs`.
//!
//! One [`Tracer`] belongs to one thread. Threads share the `origin`
//! instant so their timelines line up; [`write_jsonl`] merges them and
//! renumbers span ids file-wide.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    rep: u32,
    attrs: Vec<(&'static str, f64)>,
}

/// Handle to an open span; closing out of order is a benchmark bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    workload: &'static str,
    thread: u32,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `thread` of a traced run (`on`) or a no-op one.
    pub fn new(on: bool, workload: &'static str, origin: Instant, thread: u32) -> Self {
        Tracer {
            on,
            origin,
            workload,
            thread,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            attrs: Vec::new(),
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(idx)
    }

    /// Attaches a count to the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].attrs.push((key, value));
        }
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_us = self.us(Instant::now());
    }

    /// Records an already-finished leaf span under the innermost open one.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, f64)],
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            rep: self.rep,
            attrs: attrs.to_vec(),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Writes every tracer's spans to `path` as JSON lines and returns the
/// number written. Ids are renumbered so they are unique across threads.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0usize;
    for t in tracers {
        assert!(t.open.is_empty(), "unclosed span at trace write-out");
        for (i, s) in t.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"rep\":{},\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3}",
                base + i,
                s.parent.map_or_else(|| "null".to_owned(), |p| (base + p).to_string()),
                s.name,
                t.workload,
                s.rep,
                t.thread,
                s.start_us,
                s.end_us,
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        base += t.spans.len();
    }
    out.flush()?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_renumber_across_threads() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, "w", origin, 0);
        let outer = a.open("outer");
        let inner = a.open("inner");
        a.attr("events", 3.0);
        a.close(inner);
        a.leaf("leaf", origin, Instant::now(), &[("n", 1.0)]);
        a.close(outer);
        let mut b = Tracer::new(true, "w", origin, 1);
        let only = b.open("only");
        b.close(only);

        let dir = std::env::temp_dir().join(format!("envirotrack-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(write_jsonl(&path, &[a, b]).unwrap(), 4);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"name\":\"outer\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"events\":3"));
        assert!(lines[2].contains("\"name\":\"leaf\"") && lines[2].contains("\"parent\":0"));
        assert!(lines[3].starts_with("{\"id\":3,\"parent\":null,\"name\":\"only\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "w", Instant::now(), 0);
        let s = t.open("x");
        t.attr("k", 1.0);
        t.close(s);
        assert_eq!(t.len(), 0);
    }
}
