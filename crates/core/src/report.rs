//! The base station (the paper's "pursuer"): the sink that receives
//! application reports from tracking objects.
//!
//! The paper's vehicle-tracking example sends `(self:label, location)` to a
//! preselected mote interfaced to a pursuer laptop, which "monitors all
//! vehicles at all times and records their tracks". [`BaseStationLog`] is
//! that recording: a timestamped list of per-label payloads, with helpers
//! to reconstruct each label's reported track (Fig. 3).

//! The log also exports as **JSON lines** (one object per report) via
//! [`BaseStationLog::to_jsonl`], using the in-tree [`json`] writer — the
//! workspace builds hermetically with no serialisation crates, so the few
//! structs that leave the process (reports, experiment rows) encode through
//! this module instead of `serde` derives.

use std::fmt;

use bytes::Bytes;
use envirotrack_net::medium::{KindStats, NetStats};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{Registry, Telemetry};
use envirotrack_world::geometry::Point;

use crate::context::{ContextLabel, ContextTypeId};
use crate::object::payload;
use crate::wire::kinds;

/// A minimal JSON emitter: just enough to stream flat records as JSON
/// lines. Strings are escaped per RFC 8259; non-finite floats become
/// `null` (JSON has no NaN/Infinity).
pub mod json {
    use std::fmt::{self, Write as _};

    /// Appends `s` to `out`, escaped for inclusion in a JSON document
    /// (without the surrounding quotes). Everything that needs escaping is
    /// one ASCII byte, so the stretches between are copied whole — all of
    /// `s` in one piece when nothing does.
    pub(crate) fn escape_into<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
        let mut copied = 0;
        for (i, b) in s.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.write_str(&s[copied..i])?;
            if escaped.is_empty() {
                write!(out, "\\u{b:04x}")?;
            } else {
                out.write_str(escaped)?;
            }
            copied = i + 1;
        }
        out.write_str(&s[copied..])
    }

    /// A writer that escapes everything written through it into `W`.
    pub(crate) struct Escaping<'a, W: ?Sized>(pub(crate) &'a mut W);

    impl<W: fmt::Write + ?Sized> fmt::Write for Escaping<'_, W> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape_into(self.0, s)
        }
    }

    /// A writer that keeps nothing but how many bytes were written to it:
    /// what sizes an output before it is written.
    #[derive(Debug, Default)]
    pub(crate) struct Length(pub(crate) usize);

    impl fmt::Write for Length {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }

    /// Builds one flat JSON object, field by field, in insertion order.
    #[derive(Debug, Default)]
    pub struct JsonObject {
        body: String,
    }

    impl JsonObject {
        /// Starts an empty object.
        #[must_use]
        pub fn new() -> Self {
            JsonObject::default()
        }

        fn key(&mut self, key: &str) {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.quoted(key);
            self.body.push(':');
        }

        fn quoted(&mut self, s: &str) {
            self.body.push('"');
            // Writing to a `String` cannot fail.
            let _ = escape_into(&mut self.body, s);
            self.body.push('"');
        }

        /// Adds an unsigned integer field.
        #[must_use]
        pub fn field_u64(mut self, key: &str, v: u64) -> Self {
            self.key(key);
            let _ = write!(self.body, "{v}");
            self
        }

        /// Adds a float field (`null` when non-finite).
        #[must_use]
        pub fn field_f64(mut self, key: &str, v: f64) -> Self {
            self.key(key);
            if v.is_finite() {
                let _ = write!(self.body, "{v}");
            } else {
                self.body.push_str("null");
            }
            self
        }

        /// Adds a string field.
        #[must_use]
        pub fn field_str(mut self, key: &str, v: &str) -> Self {
            self.key(key);
            self.quoted(v);
            self
        }

        /// Adds a boolean field.
        #[must_use]
        pub fn field_bool(mut self, key: &str, v: bool) -> Self {
            self.key(key);
            self.body.push_str(if v { "true" } else { "false" });
            self
        }

        /// Closes the object.
        #[must_use]
        pub fn finish(self) -> String {
            format!("{{{}}}", self.body)
        }
    }

    /// Lowercase-hex encodes a byte slice (how binary payloads travel
    /// inside JSON lines).
    #[must_use]
    pub fn hex(bytes: &[u8]) -> String {
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            let _ = write!(out, "{b:02x}");
        }
        out
    }
}

/// One report as received at the base station.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// When the report arrived at the base station.
    pub received_at: Timestamp,
    /// When the leader generated it.
    pub generated_at: Timestamp,
    /// The reporting label.
    pub label: ContextLabel,
    /// The application payload.
    pub payload: Bytes,
}

/// The base station's record of everything it heard.
#[derive(Debug, Clone, Default)]
pub struct BaseStationLog {
    entries: Vec<ReportEntry>,
}

impl BaseStationLog {
    /// The heap bytes of the log and the payloads it keeps.
    pub(crate) fn heap_bytes(&self) -> usize {
        let payloads = self.entries.iter().map(|e| e.payload.heap_bytes());
        self.entries.capacity() * size_of::<ReportEntry>() + payloads.sum::<usize>()
    }

    /// Appends a received report.
    pub(crate) fn record(&mut self, entry: ReportEntry) {
        self.entries.push(entry);
    }

    /// All reports in arrival order.
    #[must_use]
    pub fn entries(&self) -> &[ReportEntry] {
        &self.entries
    }

    /// Number of reports received.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct labels that ever reported, in first-heard order.
    #[must_use]
    pub(crate) fn labels(&self) -> Vec<ContextLabel> {
        let mut out = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.label) {
                out.push(e.label);
            }
        }
        out
    }

    /// The reported *track* of one label, decoding each payload as a
    /// position: `(generation time, reported position)` pairs. Reports with
    /// non-position payloads are skipped.
    #[must_use]
    pub(crate) fn track(&self, label: ContextLabel) -> Vec<(Timestamp, Point)> {
        self.entries
            .iter()
            .filter(|e| e.label == label)
            .filter_map(|e| payload::decode_position(&e.payload).map(|p| (e.generated_at, p)))
            .collect()
    }

    /// The combined track of every label of a type — what the pursuer plots
    /// when it identifies vehicles "by their respective context labels".
    #[must_use]
    pub fn tracks_of_type(
        &self,
        type_id: ContextTypeId,
    ) -> Vec<(ContextLabel, Vec<(Timestamp, Point)>)> {
        self.labels()
            .into_iter()
            .filter(|l| l.type_id == type_id)
            .map(|l| (l, self.track(l)))
            .collect()
    }

    /// Exports the whole log as JSON lines: one object per report, in
    /// arrival order, with a trailing newline per line. Position payloads
    /// additionally decode into `x`/`y` fields; all payloads carry their
    /// raw bytes hex-encoded.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl ReportEntry {
    /// Encodes this report as one flat JSON object (no trailing newline).
    fn to_json(&self) -> String {
        let mut obj = json::JsonObject::new()
            .field_u64("received_us", self.received_at.as_micros())
            .field_u64("generated_us", self.generated_at.as_micros())
            .field_u64("type_id", u64::from(self.label.type_id.0))
            .field_u64("creator", u64::from(self.label.creator.0))
            .field_u64("seq", u64::from(self.label.seq))
            .field_str("payload_hex", &json::hex(&self.payload));
        if let Some(p) = payload::decode_position(&self.payload) {
            obj = obj.field_f64("x", p.x).field_f64("y", p.y);
        }
        obj.finish()
    }
}

/// A whole-run robustness summary, one JSON line per run: protocol event
/// totals, channel loss broken down by cause (so burst and partition
/// losses are distinguishable from plain fading), and the invariant
/// violation count from a chaos monitor. With a fixed seed and fault plan
/// the record is byte-identical across runs — the determinism contract the
/// chaos tests assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// The simulation seed.
    pub seed: u64,
    /// Simulated time covered by the run.
    pub elapsed: SimDuration,
    /// `LabelCreated` events.
    pub labels_created: u64,
    /// `LabelSuppressed` events.
    pub labels_suppressed: u64,
    /// `LeaderHandover` events.
    pub handovers: u64,
    /// Reports received at the base station.
    pub base_reports: u64,
    /// Heartbeat transmission-loss ratio.
    pub hb_loss: f64,
    /// Member-report transmission-loss ratio.
    pub report_loss: f64,
    /// Receiver-side loss ratio over all frame kinds.
    pub pair_loss: f64,
    /// Receiver opportunities lost to Gilbert–Elliott bursts.
    pub burst_faded: u64,
    /// Receiver opportunities suppressed by a partition mask.
    pub partition_dropped: u64,
    /// Frames dropped at the MAC before airtime.
    pub mac_dropped: u64,
    /// `MtpDelivered` events.
    pub mtp_delivered: u64,
    /// `MtpDropped` events.
    pub mtp_dropped: u64,
    /// Invariant violations observed by the monitor.
    pub violations: u64,
}

/// The registry counters a [`RunRecord`] counts, named once for the
/// recorder that increments them and the record that reads them.
pub(crate) mod counter {
    /// One per label created.
    pub(crate) const LABEL_CREATED: &str = "group.form";
    /// One per label suppressed in favour of another.
    pub(crate) const LABEL_SUPPRESSED: &str = "group.suppress";
    /// Followed by the label's display form: one counter per label, one per
    /// handover of its leadership.
    pub(crate) const HANDOVER_PREFIX: &str = "group.handover.";
    /// One per MTP message delivered to its destination object.
    pub(crate) const MTP_DELIVERED: &str = "mtp.delivered";
    /// One per MTP message given up on.
    pub(crate) const MTP_DROPPED: &str = "mtp.drop";
}

impl RunRecord {
    /// The record of a run whose protocol events `telemetry` counted and
    /// whose channel `net` describes: a monolithic world's own registry
    /// and medium, or a sharded run's merged registry and combined
    /// statistics.
    pub(crate) fn from_registry(
        seed: u64,
        elapsed: SimDuration,
        telemetry: &Telemetry,
        net: &NetStats,
        base_reports: u64,
        violations: u64,
    ) -> RunRecord {
        let mut all = KindStats::default();
        for ks in net.per_kind.values() {
            all.absorb(ks);
        }
        telemetry.with_registry(|r| RunRecord {
            seed,
            elapsed,
            labels_created: r.counter(counter::LABEL_CREATED),
            labels_suppressed: r.counter(counter::LABEL_SUPPRESSED),
            handovers: r
                .counters()
                .filter(|(name, _)| name.starts_with(counter::HANDOVER_PREFIX))
                .map(|(_, v)| v)
                .sum(),
            base_reports,
            hb_loss: net.kind(kinds::HEARTBEAT).tx_loss_ratio(),
            report_loss: net.kind(kinds::REPORT).tx_loss_ratio(),
            pair_loss: all.pair_loss_ratio(),
            burst_faded: all.burst_faded,
            partition_dropped: all.partition_dropped,
            mac_dropped: all.mac_dropped,
            mtp_delivered: r.counter(counter::MTP_DELIVERED),
            mtp_dropped: r.counter(counter::MTP_DROPPED),
            violations,
        })
    }

    /// Encodes the record as one flat JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::JsonObject::new()
            .field_u64("seed", self.seed)
            .field_u64("elapsed_us", self.elapsed.as_micros())
            .field_u64("labels_created", self.labels_created)
            .field_u64("labels_suppressed", self.labels_suppressed)
            .field_u64("handovers", self.handovers)
            .field_u64("base_reports", self.base_reports)
            .field_f64("hb_loss", self.hb_loss)
            .field_f64("report_loss", self.report_loss)
            .field_f64("pair_loss", self.pair_loss)
            .field_u64("burst_faded", self.burst_faded)
            .field_u64("partition_dropped", self.partition_dropped)
            .field_u64("mac_dropped", self.mac_dropped)
            .field_u64("mtp_delivered", self.mtp_delivered)
            .field_u64("mtp_dropped", self.mtp_dropped)
            .field_u64("violations", self.violations)
            .finish()
    }
}

/// Exports a telemetry registry as JSON lines, in deterministic order:
/// counters, gauges, histograms (buckets as `low:count` pairs), the
/// trace-ring drop count when nonzero, then every retained trace event.
/// With a fixed seed and fault plan the output is byte-identical across
/// runs — the same determinism contract as [`RunRecord`].
///
/// The output is allocated once, at its final length: a first pass writes
/// the export to a byte count, the second to a string of that size. A
/// trace event's text is made here, from its record and the registry's
/// strings.
#[must_use]
pub fn telemetry_to_jsonl(telemetry: &Telemetry) -> String {
    telemetry.with_registry(|r| {
        // Neither writer can fail.
        let mut length = json::Length::default();
        let _ = write_jsonl(r, &mut length);
        let mut out = String::with_capacity(length.0);
        let _ = write_jsonl(r, &mut out);
        debug_assert_eq!(out.len(), length.0, "both passes write the same bytes");
        out
    })
}

fn write_jsonl<W: fmt::Write>(r: &Registry, out: &mut W) -> fmt::Result {
    let line = |out: &mut W, object: String| {
        out.write_str(&object)?;
        out.write_char('\n')
    };
    for (name, v) in r.counters() {
        line(
            out,
            json::JsonObject::new()
                .field_str("t", "counter")
                .field_str("name", name)
                .field_u64("value", v)
                .finish(),
        )?;
    }
    for (name, v) in r.gauges() {
        line(
            out,
            json::JsonObject::new()
                .field_str("t", "gauge")
                .field_str("name", name)
                .field_f64("value", v)
                .finish(),
        )?;
    }
    for (name, h) in r.histograms() {
        let buckets: Vec<String> = h.iter().map(|(low, c)| format!("{low}:{c}")).collect();
        line(
            out,
            json::JsonObject::new()
                .field_str("t", "hist")
                .field_str("name", name)
                .field_u64("count", h.count())
                .field_u64("sum", u64::try_from(h.sum()).unwrap_or(u64::MAX))
                .field_u64("max", h.max())
                .field_str("buckets", &buckets.join(" "))
                .finish(),
        )?;
    }
    if r.trace_dropped() > 0 {
        line(
            out,
            json::JsonObject::new()
                .field_str("t", "trace_dropped")
                .field_u64("value", r.trace_dropped())
                .finish(),
        )?;
    }
    for e in r.trace_events() {
        let (at_us, node) = (e.at_us, e.node);
        write!(
            out,
            r#"{{"t":"trace","at_us":{at_us},"node":{node},"label":""#
        )?;
        json::escape_into(out, r.text(e.label))?;
        out.write_str(r#"","kind":""#)?;
        json::escape_into(out, e.site.kind())?;
        out.write_str(r#"","detail":""#)?;
        r.write_detail(e, &mut json::Escaping(out))?;
        out.write_str("\"}\n")?;
    }
    Ok(())
}

fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Renders the end-of-run text summary table: per-label leadership
/// handoffs, heartbeat loss rate, the retransmission-attempts histogram,
/// aggregate validity, directory traffic, and trace volume.
#[must_use]
pub fn telemetry_summary(telemetry: &Telemetry) -> String {
    use std::fmt::Write as _;
    telemetry.with_registry(|r| {
        let mut out = String::new();
        out.push_str("== telemetry summary ==\n");
        out.push_str("leadership handoffs per label:\n");
        let mut any = false;
        for (name, v) in r.counters() {
            if let Some(label) = name.strip_prefix(counter::HANDOVER_PREFIX) {
                any = true;
                let _ = writeln!(out, "  {label:<24} {v}");
            }
        }
        if !any {
            out.push_str("  (none)\n");
        }
        let hb_tx = r.counter("net.k1.tx");
        let hb_lost = r.counter("net.k1.lost");
        let _ = writeln!(
            out,
            "heartbeat loss: {hb_lost}/{hb_tx} broadcasts heard by nobody ({})",
            pct(hb_lost, hb_tx)
        );
        let _ = writeln!(
            out,
            "mtp: send={} ack={} retx={} drop={} delivered={} dedup={}",
            r.counter("mtp.send"),
            r.counter("mtp.ack"),
            r.counter("mtp.retx"),
            r.counter(counter::MTP_DROPPED),
            r.counter(counter::MTP_DELIVERED),
            r.counter("mtp.dedup"),
        );
        out.push_str("mtp attempts histogram (attempts -> segments):\n");
        match r.histogram("mtp.attempts") {
            Some(h) if !h.is_empty() => {
                for (low, c) in h.iter() {
                    let _ = writeln!(out, "  {low:>4}  {c}");
                }
            }
            _ => out.push_str("  (empty)\n"),
        }
        let valid = r.counter("agg.valid");
        let null = r.counter("agg.null");
        let _ = writeln!(
            out,
            "aggregate reads: valid={valid} null={null} (validity {})",
            pct(valid, valid + null)
        );
        let _ = writeln!(
            out,
            "directory: register={} query={} hop={}",
            r.counter("dir.register"),
            r.counter("dir.query"),
            r.counter("dir.hop"),
        );
        let _ = writeln!(
            out,
            "trace: {} events retained, {} dropped; kernel events {}",
            r.trace_events().count(),
            r.trace_dropped(),
            r.counter("kernel.events"),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_world::field::NodeId;

    fn label(n: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(n),
            seq: 0,
        }
    }

    fn entry(n: u32, secs: u64, pos: Point) -> ReportEntry {
        ReportEntry {
            received_at: Timestamp::from_secs(secs + 1),
            generated_at: Timestamp::from_secs(secs),
            label: label(n),
            payload: payload::position(pos),
        }
    }

    #[test]
    fn tracks_group_by_label_in_order() {
        let mut log = BaseStationLog::default();
        log.record(entry(1, 0, Point::new(0.0, 0.5)));
        log.record(entry(2, 1, Point::new(9.0, 1.5)));
        log.record(entry(1, 5, Point::new(1.0, 0.5)));
        assert_eq!(log.len(), 3);
        assert_eq!(log.labels(), vec![label(1), label(2)]);
        let t = log.track(label(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], (Timestamp::from_secs(0), Point::new(0.0, 0.5)));
        assert_eq!(t[1], (Timestamp::from_secs(5), Point::new(1.0, 0.5)));
        let all = log.tracks_of_type(ContextTypeId(0));
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn jsonl_export_is_one_valid_object_per_line() {
        let mut log = BaseStationLog::default();
        log.record(entry(1, 0, Point::new(0.0, 0.5)));
        log.record(ReportEntry {
            received_at: Timestamp::from_secs(2),
            generated_at: Timestamp::from_secs(1),
            label: label(2),
            payload: Bytes::from_static(b"raw"),
        });
        let out = log.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not an object: {line}"
            );
        }
        // The position payload decodes into coordinates; the raw one does not.
        assert!(lines[0].contains("\"x\":0") && lines[0].contains("\"y\":0.5"));
        assert!(!lines[1].contains("\"x\":"));
        assert!(lines[1].contains(&format!("\"payload_hex\":\"{}\"", json::hex(b"raw"))));
        assert!(lines[0].contains("\"generated_us\":0"));
        assert!(lines[0].contains("\"received_us\":1000000"));
    }

    #[test]
    fn json_escaping_covers_quotes_backslashes_and_controls() {
        let escape = |s| {
            let mut out = String::new();
            json::escape_into(&mut out, s).unwrap();
            out
        };
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Escapes between multi-byte characters, first and last included.
        assert_eq!(escape("\r→é\u{1f}∑\""), "\\r→é\\u001f∑\\\"");
        let mut line = String::from("so far: ");
        json::escape_into(&mut line, "plain").unwrap();
        assert_eq!(line, "so far: plain");
        let obj = json::JsonObject::new()
            .field_str("k\"ey", "v\\al")
            .field_f64("nan", f64::NAN)
            .field_bool("ok", true)
            .finish();
        assert_eq!(obj, "{\"k\\\"ey\":\"v\\\\al\",\"nan\":null,\"ok\":true}");
    }

    #[test]
    fn run_record_encodes_every_field_in_stable_order() {
        let r = RunRecord {
            seed: 42,
            elapsed: SimDuration::from_secs(60),
            labels_created: 3,
            labels_suppressed: 1,
            handovers: 2,
            base_reports: 17,
            hb_loss: 0.25,
            report_loss: 0.0,
            pair_loss: 0.125,
            burst_faded: 9,
            partition_dropped: 4,
            mac_dropped: 0,
            mtp_delivered: 5,
            mtp_dropped: 1,
            violations: 0,
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"seed\":42,\"elapsed_us\":60000000,"));
        assert!(line.contains("\"burst_faded\":9"));
        assert!(line.contains("\"partition_dropped\":4"));
        assert!(line.ends_with("\"violations\":0}"));
        // Byte-identical re-encoding: the determinism contract.
        assert_eq!(line, r.to_json());
    }

    /// The record's protocol counts are the registry's counters: handovers
    /// summed over every label's `group.handover.<label>`, and nothing
    /// counted from a name that only starts like one.
    #[test]
    fn a_run_record_reads_its_counts_from_the_registry() {
        let t = Telemetry::new();
        let net = NetStats::default();
        let empty = RunRecord::from_registry(9, SimDuration::ZERO, &t, &net, 0, 0);
        let nothing = RunRecord {
            seed: 9,
            ..RunRecord::default()
        };
        assert_eq!(empty, nothing);
        for (name, n) in [
            ("group.form", 3),
            ("group.suppress", 1),
            ("group.handover.type0@n1#0", 2),
            ("group.handover.type1@n7#3", 5),
            ("group.handover", 100),
            ("group.handovers", 100),
            ("group.hb", 100),
            ("x.group.handover.type0@n1#0", 100),
            ("mtp.delivered", 6),
            ("mtp.drop", 2),
            ("mtp.dropped", 100),
        ] {
            t.add(name, n);
        }
        let r = RunRecord::from_registry(9, SimDuration::ZERO, &t, &net, 4, 1);
        let counts = (r.labels_created, r.labels_suppressed, r.handovers);
        assert_eq!(counts, (3, 1, 7));
        assert_eq!((r.mtp_delivered, r.mtp_dropped), (6, 2));
        assert_eq!((r.seed, r.base_reports, r.violations), (9, 4, 1));
    }

    #[test]
    fn non_position_payloads_are_skipped_in_tracks() {
        let mut log = BaseStationLog::default();
        log.record(ReportEntry {
            received_at: Timestamp::from_secs(1),
            generated_at: Timestamp::ZERO,
            label: label(1),
            payload: Bytes::from_static(b"not a position"),
        });
        assert!(log.track(label(1)).is_empty());
        assert_eq!(log.labels(), vec![label(1)]);
    }

    fn sample_telemetry() -> Telemetry {
        let t = Telemetry::new();
        t.incr("group.handover.T0/n1#0");
        t.incr("group.handover.T0/n1#0");
        t.add("net.k1.tx", 10);
        t.add("net.k1.lost", 3);
        t.set_gauge("nodes.alive", 24.5);
        t.observe("mtp.attempts", 1);
        t.observe("mtp.attempts", 1);
        t.observe("mtp.attempts", 4);
        let label = "T0/n1#0".into();
        t.trace_shared(1000, 1, &label, "group.form", String::new());
        let weird = "weird \"detail\"\nline".to_owned();
        t.trace_shared(2000, 2, &label, "mtp.send", weird);
        t
    }

    #[test]
    fn telemetry_jsonl_is_valid_escaped_and_byte_stable() {
        let t = sample_telemetry();
        let out = telemetry_to_jsonl(&t);
        for line in out.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not an object: {line}"
            );
        }
        // Counters, gauge, histogram, and both trace events all present.
        assert!(out.contains("\"name\":\"group.handover.T0\\/n1#0\",\"value\":2")
            || out.contains("\"name\":\"group.handover.T0/n1#0\",\"value\":2"));
        assert!(out.contains("\"t\":\"gauge\""));
        assert!(out.contains("\"t\":\"hist\""));
        assert!(out.contains("\"kind\":\"group.form\""));
        // The hostile detail string round-trips escaped, never raw.
        assert!(out.contains("weird \\\"detail\\\"\\nline"));
        assert!(!out.contains("weird \"detail\"\nline"));
        // Byte-identical re-export: the determinism contract.
        assert_eq!(out, telemetry_to_jsonl(&t));
    }

    #[test]
    fn telemetry_summary_reports_handoffs_losses_and_attempts() {
        let t = sample_telemetry();
        let s = telemetry_summary(&t);
        assert!(s.contains("== telemetry summary =="));
        let handoff_line = s
            .lines()
            .find(|l| l.contains("T0/n1#0"))
            .expect("handoff line present");
        assert!(handoff_line.trim_end().ends_with('2'), "bad line: {handoff_line}");
        assert!(s.contains("3/10"), "heartbeat loss missing: {s}");
        assert!(s.contains("30.0%"));
        // No aggregate reads recorded: validity must degrade to n/a.
        assert!(s.contains("valid=0 null=0 (validity n/a)"));
        // The attempts histogram shows both buckets.
        assert!(s.contains("mtp attempts histogram"));
        assert_eq!(s, telemetry_summary(&t));
    }

    #[test]
    fn empty_telemetry_summary_renders_placeholders() {
        let t = Telemetry::new();
        let s = telemetry_summary(&t);
        assert!(s.contains("(none)"));
        assert!(s.contains("(empty)"));
        assert!(s.contains("n/a"));
        assert!(telemetry_to_jsonl(&t).is_empty());
    }
}
