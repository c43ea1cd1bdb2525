//! The recorder: the run's [`EventLog`], its mirror into telemetry (so
//! post-hoc analysis sees one stream), and the layers' trace lines.

use std::collections::BTreeMap;

use envirotrack_net::packet::FrameKind;
use envirotrack_sim::time::Timestamp;
use envirotrack_telemetry::{CounterHandle, Telemetry, TraceSite};
use envirotrack_world::field::NodeId;

use crate::context::{trace_label, ContextLabel, ContextTypeId};
use crate::events::{EventLog, HandoverReason, SystemEvent};
use crate::report::counter;
use crate::trace;

pub(super) struct Recorder {
    pub(super) log: EventLog,
    /// The run-wide telemetry registry, shared (via cheap clones) with the
    /// kernel, the medium, and every per-node substrate.
    pub(super) telemetry: Telemetry,
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
            log: EventLog::default(),
            telemetry,
            handover_counters: BTreeMap::new(),
            corrupt_counters: BTreeMap::new(),
        }
    }

    pub(super) fn trace(
        &self,
        at: Timestamp,
        node: NodeId,
        label: ContextLabel,
        site: &'static TraceSite,
        args: [u32; 3],
    ) {
        trace_label(&self.telemetry, at, node, label, site, args);
    }

    /// Records a trace event about a context type rather than a label.
    pub(super) fn trace_type(
        &self,
        at: Timestamp,
        node: NodeId,
        tid: ContextTypeId,
        site: &'static TraceSite,
        args: [u32; 3],
    ) {
        let t = &self.telemetry;
        t.trace(at.as_micros(), node.0, tid.trace_id(t), site, args);
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
        let trace = |label, site, args| trace_label(t, at, node, label, site, args);
        match &event {
            SystemEvent::LabelCreated { label, .. } => {
                t.incr(counter::LABEL_CREATED);
                trace(*label, &trace::GROUP_FORM, [0; 3]);
            }
            SystemEvent::LeaderHandover {
                label,
                from,
                to,
                reason,
            } => {
                let site = match reason {
                    HandoverReason::Relinquish => &trace::GROUP_RELINQUISH,
                    HandoverReason::ReceiveTimeout => &trace::GROUP_TAKEOVER,
                    HandoverReason::DuplicateYield => &trace::GROUP_YIELD,
                };
                self.handover_counters
                    .entry(label.intern_key())
                    .or_insert_with(|| {
                        t.counter_handle(&format!("{}{label}", counter::HANDOVER_PREFIX))
                    })
                    .incr();
                trace(*label, site, [from.0, to.0, 0]);
            }
            SystemEvent::LabelSuppressed { loser, winner, .. } => {
                t.incr(counter::LABEL_SUPPRESSED);
                trace(*loser, &trace::GROUP_SUPPRESS, [winner.trace_id(t), 0, 0]);
            }
            SystemEvent::LabelDissolved { label, .. } => {
                t.incr("group.dissolve");
                trace(*label, &trace::GROUP_DISSOLVE, [0; 3]);
            }
            SystemEvent::MethodInvoked { .. } => t.incr("app.method"),
            // Aggregate outcomes are recorded at the read site itself
            // (`LeaderAccess::read_aggregate`), which also knows the
            // contributor count; mirroring here would double-count.
            SystemEvent::AggregateReadFailed { .. } => {}
            SystemEvent::MtpDelivered {
                label, chain_hops, ..
            } => {
                t.incr(counter::MTP_DELIVERED);
                t.observe("mtp.chain_hops", u64::from(*chain_hops));
                let hops = u32::from(*chain_hops);
                trace(*label, &trace::MTP_DELIVERED, [hops, 0, 0]);
            }
            SystemEvent::MtpDropped { label, .. } => {
                t.incr(counter::MTP_DROPPED);
                trace(*label, &trace::MTP_DROP, [0; 3]);
            }
        }
        self.log.push(at, event);
    }
}
