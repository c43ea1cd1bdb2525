//! The MTP driver: what a node's transport does with an application send,
//! an arriving segment, an end-to-end ack and a retransmission timer. Each
//! returns what the owner does next; a segment that dies is logged here
//! (DESIGN.md §17).

use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;

use super::events::Recorder;
use crate::config::MiddlewareConfig;
use crate::transport::{self, LeaderLoc, MtpState, Outstanding};
use crate::wire::{Message, MtpAck, MtpSegment};

/// Starts sending `segment`. With end-to-end acks on, it gets a sequence
/// number and is tracked; that number is the retransmission timer to arm.
pub(super) fn open(
    mtp: &mut MtpState,
    mut segment: MtpSegment,
    now: Timestamp,
    mw: &MiddlewareConfig,
    rec: &Recorder,
) -> (Message, Option<u32>) {
    let node = segment.src_leader;
    let retry = mw.mtp_retx_enabled.then(|| mtp.next_seq());
    if let Some(seq) = retry {
        segment.seq = seq;
        mtp.track_outstanding(segment.clone());
        // The ack span measures first-send to end-to-end ack, across any
        // retransmissions in between.
        rec.telemetry
            .span_start(now.as_micros(), node.0, u64::from(seq));
    }
    rec.telemetry.incr("mtp.send");
    let detail = format!("seq={}", segment.seq);
    rec.trace(now, node, segment.dst_label, "mtp.send", detail);
    (Message::Mtp(segment), retry)
}

#[derive(Default)]
pub(super) struct Arrival {
    /// A message to send on: the segment itself, chasing its label, or the
    /// end-to-end ack back to its source.
    pub(super) send: Option<(LeaderLoc, Message)>,
    /// Whether the payload goes up to the destination object here.
    pub(super) deliver: bool,
}

/// A segment reached the node `here`. `leads` says whether that node leads
/// the segment's destination label — `None` when the label's context type
/// is not even part of this program.
pub(super) fn arrive(
    mtp: &mut MtpState,
    seg: &MtpSegment,
    here: LeaderLoc,
    leads: Option<bool>,
    now: Timestamp,
    mw: &MiddlewareConfig,
    rec: &mut Recorder,
) -> Arrival {
    // Update leadership knowledge from the header.
    let source = LeaderLoc {
        node: seg.src_leader,
        pos: seg.src_leader_pos,
    };
    mtp.learn(seg.src_label, source);
    match leads {
        None => Arrival::default(),
        // Not the leader: chase the label along pointers and cached
        // knowledge, unless the chain is already too long, nothing is
        // known, or the only pointer leads back here (it would loop).
        Some(false) => {
            let next = (seg.chain_hops < mtp.max_chain_hops)
                .then(|| mtp.route(seg.dst_label, now))
                .flatten()
                .filter(|loc| loc.node != here.node);
            if next.is_none() {
                rec.mtp_dropped(now, here.node, seg.dst_label);
            }
            let chased = |loc| {
                let mut seg = seg.clone();
                seg.chain_hops += 1;
                (loc, Message::Mtp(seg))
            };
            Arrival {
                send: next.map(chased),
                deliver: false,
            }
        }
        Some(true) if !mw.mtp_retx_enabled => Arrival {
            send: None,
            deliver: true,
        },
        // The segment reached its label's leader. A duplicate is acked
        // again — the earlier ack may itself have been lost — but not
        // delivered again.
        Some(true) => {
            let ack = Message::MtpAckMsg(MtpAck {
                dst_label: seg.dst_label,
                src_node: seg.src_leader,
                seq: seg.seq,
                acker: here.node,
                acker_pos: here.pos,
            });
            let fresh = mtp.note_delivered(seg.src_leader, seg.seq);
            if !fresh {
                rec.telemetry.incr("mtp.dedup");
            }
            Arrival {
                send: Some((source, ack)),
                deliver: fresh,
            }
        }
    }
}

/// The end-to-end retransmission timer of `seq`: the segment to [`resend`]
/// after a jitter, and the exponential backoff after which to look again;
/// `None` once it is acknowledged, or abandoned with its budget spent.
pub(super) fn retry(
    mtp: &mut MtpState,
    rng: &mut SimRng,
    seq: u32,
    node: NodeId,
    now: Timestamp,
    rec: &mut Recorder,
) -> Option<(Outstanding, SimDuration, SimDuration)> {
    match mtp.retransmit(seq, transport::RETX_MAX_ATTEMPTS)? {
        Err(abandoned) => {
            rec.telemetry
                .observe("mtp.attempts", u64::from(abandoned.attempts));
            rec.mtp_dropped(now, node, abandoned.segment.dst_label);
            None
        }
        Ok(out) => {
            rec.telemetry.incr("mtp.retx");
            let detail = format!("seq={seq} attempt={}", out.attempts);
            rec.trace(now, node, out.segment.dst_label, "mtp.retx", detail);
            let jitter = rng.below(transport::RETX_JITTER_MAX.as_micros());
            let backoff = transport::RETX.backoff(out.attempts);
            Some((out, SimDuration::from_micros(jitter), backoff))
        }
    }
}

/// Re-emits a tracked segment towards the current best-known location of
/// its destination label — re-resolved, since the label may have moved.
/// With no route knowledge the attempt is forfeit; the retry timer stays
/// armed, so a later heartbeat can still rescue the segment.
pub(super) fn resend(
    mtp: &mut MtpState,
    out: Outstanding,
    now: Timestamp,
) -> Option<(LeaderLoc, Message)> {
    let loc = mtp.route(out.segment.dst_label, now)?;
    Some((loc, Message::Mtp(out.segment)))
}

/// An end-to-end ack arrived at `node`: clear the outstanding segment and
/// refresh leadership knowledge from the acker.
pub(super) fn on_ack(
    mtp: &mut MtpState,
    ack: &MtpAck,
    node: NodeId,
    now: Timestamp,
    rec: &Recorder,
) {
    // Geo routing can dead-end an ack at a node other than the segment's
    // source; such strays carry nothing actionable here.
    if ack.src_node != node {
        return;
    }
    let acker = LeaderLoc {
        node: ack.acker,
        pos: ack.acker_pos,
    };
    mtp.learn(ack.dst_label, acker);
    if let Some(attempts) = mtp.acknowledge(ack.seq) {
        let t = &rec.telemetry;
        t.incr("mtp.ack");
        t.observe("mtp.attempts", u64::from(attempts));
        if let Some(rtt) = t.span_end(now.as_micros(), node.0, u64::from(ack.seq)) {
            t.observe("mtp.ack_us", rtt);
        }
        let detail = format!("seq={} acker=n{}", ack.seq, ack.acker.0);
        rec.trace(now, node, ack.dst_label, "mtp.ack", detail);
    }
}
