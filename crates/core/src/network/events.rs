//! The recorder: the run's [`EventLog`], its mirror into telemetry (so
//! post-hoc analysis sees one stream), and the layers' trace lines.

use std::collections::BTreeMap;

use envirotrack_net::packet::FrameKind;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::{CounterHandle, Telemetry};
use envirotrack_world::field::NodeId;

use crate::context::{trace_label, ContextLabel, ContextTypeId, LabelIntern};
use crate::events::{EventLog, HandoverReason, SystemEvent};

pub(super) struct Recorder {
    pub(super) log: EventLog,
    /// The run-wide telemetry registry, shared (via cheap clones) with the
    /// kernel, the medium, and every per-node substrate.
    pub(super) telemetry: Telemetry,
    /// Shared cache of label/type display strings: trace emission on the
    /// heartbeat/handover hot paths reuses one `Rc<str>` per label instead
    /// of re-formatting it per event.
    pub(super) labels: LabelIntern,
    /// Pre-resolved `group.handover.<label>` counters, keyed by the packed
    /// label so the per-handover cost is an integer-map probe, not a
    /// format + string-keyed registry walk.
    handover_counters: BTreeMap<u128, CounterHandle>,
    /// Pre-resolved `net.k<kind>.corrupt` counters by `FrameKind.0`,
    /// resolved at a kind's first corrupt drop so that a kind which never
    /// drops one registers no counter.
    corrupt_counters: BTreeMap<u8, CounterHandle>,
}

impl Recorder {
    pub(super) fn new(telemetry: Telemetry) -> Self {
        Recorder {
            log: EventLog::new(),
            telemetry,
            labels: LabelIntern::new(),
            handover_counters: BTreeMap::new(),
            corrupt_counters: BTreeMap::new(),
        }
    }

    pub(super) fn trace(
        &self,
        at: Timestamp,
        node: NodeId,
        label: ContextLabel,
        kind: &'static str,
        detail: String,
    ) {
        trace_label(&self.telemetry, &self.labels, at, node, label, kind, detail);
    }

    pub(super) fn trace_type(
        &self,
        at: Timestamp,
        node: NodeId,
        tid: ContextTypeId,
        kind: &'static str,
        detail: String,
    ) {
        let name = self.labels.type_name(tid);
        self.telemetry
            .trace_shared(at.as_micros(), node.0, &name, kind, detail);
    }

    /// Records one receiver-side drop of a frame that failed its integrity
    /// or structural checks. Counted per (frame, receiver) pair under
    /// `net.k<kind>.corrupt`, mirroring the medium's per-pair loss stats.
    /// Cold: a clean channel never gets here, and inlining the map probe
    /// into the receive path cost `field_sparse` 8 % of its events/s.
    #[cold]
    pub(super) fn corrupt_drop(&mut self, kind: FrameKind) {
        let name = || format!("net.k{}.corrupt", kind.0);
        self.corrupt_counters
            .entry(kind.0)
            .or_insert_with(|| self.telemetry.counter_handle(&name()))
            .incr();
    }

    /// Every way an MTP send can die ends here.
    pub(super) fn mtp_dropped(&mut self, at: Timestamp, node: NodeId, label: ContextLabel) {
        self.record(at, node, SystemEvent::MtpDropped { label, node });
    }

    /// Appends `event` to the run log, mirrored into its telemetry
    /// counter/trace form.
    pub(super) fn record(&mut self, at: Timestamp, node: NodeId, event: SystemEvent) {
        let t = &self.telemetry;
        let labels = &self.labels;
        let trace = |label, kind, detail| trace_label(t, labels, at, node, label, kind, detail);
        match &event {
            SystemEvent::LabelCreated { label, .. } => {
                t.incr("group.form");
                trace(*label, "group.form", String::new());
            }
            SystemEvent::LeaderHandover {
                label,
                from,
                to,
                reason,
            } => {
                let kind = match reason {
                    HandoverReason::Relinquish => "group.relinquish",
                    HandoverReason::ReceiveTimeout => "group.takeover",
                    HandoverReason::DuplicateYield => "group.yield",
                };
                self.handover_counters
                    .entry(label.intern_key())
                    .or_insert_with(|| t.counter_handle(&format!("group.handover.{label}")))
                    .incr();
                trace(*label, kind, format!("from=n{} to=n{}", from.0, to.0));
            }
            SystemEvent::LabelSuppressed { loser, winner, .. } => {
                t.incr("group.suppress");
                trace(*loser, "group.suppress", format!("winner={winner}"));
            }
            SystemEvent::LabelDissolved { label, .. } => {
                t.incr("group.dissolve");
                trace(*label, "group.dissolve", String::new());
            }
            SystemEvent::MethodInvoked { .. } => t.incr("app.method"),
            // Aggregate outcomes are recorded at the read site itself
            // (`LeaderAccess::read_aggregate`), which also knows the
            // contributor count; mirroring here would double-count.
            SystemEvent::AggregateReadFailed { .. } => {}
            SystemEvent::MtpDelivered {
                label, chain_hops, ..
            } => {
                t.incr("mtp.delivered");
                t.observe("mtp.chain_hops", u64::from(*chain_hops));
                trace(*label, "mtp.delivered", format!("chain_hops={chain_hops}"));
            }
            SystemEvent::MtpDropped { label, .. } => {
                t.incr("mtp.drop");
                trace(*label, "mtp.drop", String::new());
            }
        }
        self.log.push(at, event);
    }
}
