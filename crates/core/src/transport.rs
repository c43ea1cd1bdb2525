//! MTP — the inter-object transport layer (paper §5.4).
//!
//! Context labels are "akin to IP addresses"; a connection is the pair
//! ⟨source label : port, destination label : port⟩, and the group leader of
//! each side oversees its end. This module holds the per-node transport
//! state:
//!
//! * a bounded, least-recently-used **last-known-leader table** mapping
//!   context labels to the leader (node + position) most recently seen in
//!   traffic — every received segment refreshes it ("the more traffic
//!   exchanged between the endpoints, the more up-to-date the leader
//!   information is");
//! * **forwarding pointers** left behind by past leaders so that segments
//!   addressed to an out-of-date leader are chased along the chain to the
//!   current one;
//! * **pending sends** parked while a destination label is resolved through
//!   the directory service;
//! * **outstanding segments** awaiting an end-to-end acknowledgement, each
//!   retransmitted a bounded number of times under exponential backoff with
//!   jitter, with receiver-side duplicate suppression keyed on
//!   `(source node, sequence)`.
//!
//! The first two are every engaged mote's; the last two, with the
//! retransmission stream, are an `Endpoint`'s, which a mote holds only
//! once it sends, parks or takes delivery of a segment end to end.
//!
//! The actual send/receive orchestration lives in
//! [`crate::network`]; this module is pure state, unit-testable in
//! isolation.

use envirotrack_sim::rng::SimRng;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use crate::context::ContextLabel;
use crate::wire::MtpSegment;

/// A transport port, associated with one method of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u16);

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// A leader endpoint: the node currently speaking for a label, and where it
/// was when last heard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderLoc {
    /// The leader node.
    pub node: NodeId,
    /// Its last known position.
    pub pos: Point,
}

/// An application send queued until the destination label's leader is known.
#[derive(Debug, Clone)]
pub(crate) struct PendingSend {
    /// The segment to send once its destination label resolves.
    pub segment: MtpSegment,
    /// The directory query id that will resolve it.
    pub query_id: u32,
    /// When the send was parked (for expiry).
    pub parked_at: Timestamp,
}

/// One last-known-leader entry: a label and its leader, flat — a
/// `(ContextLabel, LeaderLoc)` pair pads to 40 bytes, this packs into 32.
#[derive(Debug, Clone, Copy)]
struct LastKnown {
    pos: Point,
    label: ContextLabel,
    node: NodeId,
}

impl LastKnown {
    fn loc(&self) -> LeaderLoc {
        LeaderLoc {
            node: self.node,
            pos: self.pos,
        }
    }
}

/// A forwarding pointer left behind by a past leader: where `label`'s
/// traffic goes next, until `expires`. Flat for the same reason: 40 bytes.
#[derive(Debug, Clone, Copy)]
struct ForwardPointer {
    pos: Point,
    expires: Timestamp,
    label: ContextLabel,
    node: NodeId,
}

/// One transmitted segment awaiting its end-to-end acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Outstanding {
    /// The segment as first sent — its `seq` is the node-scoped end-to-end
    /// sequence number — kept for retransmission.
    pub segment: MtpSegment,
    /// Send attempts so far (1 after the first transmission).
    pub attempts: u32,
}

/// Capacity of a mote's last-known-leader table.
pub const TABLE_CAPACITY: usize = 8;
/// Lifetime of the forwarding pointer a past leader leaves behind.
pub(crate) const FORWARD_TTL: SimDuration = SimDuration::from_secs(20);
/// Forwarding-chain hops after which a segment is dropped.
pub(crate) const MAX_CHAIN_HOPS: u8 = 8;
/// How long a send (or a subscription query) may wait on directory
/// resolution before it is given up.
pub(crate) const PENDING_TTL: SimDuration = SimDuration::from_secs(5);
/// Total end-to-end transmission attempts, the first send included.
pub(crate) const RETX_MAX_ATTEMPTS: u32 = 4;
/// Upper bound on the uniform jitter added to each retransmission backoff
/// (desynchronises retransmitters after a shared outage).
pub(crate) const RETX_JITTER_MAX: SimDuration = SimDuration::from_millis(80);
/// The end-to-end ack timeout and its ceiling. 60 s is far above
/// `timeout * 2^(RETX_MAX_ATTEMPTS - 1)`, so the cap never bites within
/// the retry budget.
pub(crate) const RETX: RetxPolicy = RetxPolicy {
    timeout: SimDuration::from_millis(600),
    max_backoff: SimDuration::from_secs(60),
};
const _: () = assert!(RETX_MAX_ATTEMPTS >= 1);
const _: () = assert!(RETX.max_backoff.as_micros() >= RETX.timeout.as_micros());

/// The backoff schedule of end-to-end retransmission.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetxPolicy {
    /// Base acknowledgement timeout (doubled per attempt).
    pub timeout: SimDuration,
    /// Hard ceiling on the exponential backoff: the doubling clamps here
    /// instead of growing without bound (or silently wrapping through a
    /// shift cap, as an earlier version did).
    pub max_backoff: SimDuration,
}

impl RetxPolicy {
    /// The backoff before the next retransmission after `attempts` tries:
    /// `min(timeout * 2^(attempts-1), max_backoff)`, to which the caller
    /// adds jitter drawn from its own RNG stream.
    ///
    /// Two degenerate inputs are guarded rather than trusted: a zero
    /// `timeout` (the one production policy has none, but this type is
    /// public API) is floored at one microsecond so a mis-built policy
    /// can never collapse into a zero-delay busy retransmit loop, and the
    /// exponent saturates instead of wrapping for large attempt counts.
    #[must_use]
    pub(crate) fn backoff(&self, attempts: u32) -> SimDuration {
        let base = self.timeout.as_micros().max(1);
        let cap = self.max_backoff.as_micros().max(1);
        let shift = attempts.saturating_sub(1);
        let factor = if shift >= 63 { u64::MAX } else { 1u64 << shift };
        SimDuration::from_micros(base.saturating_mul(factor).min(cap))
    }
}

/// Per-node transport state. See the [module docs](self).
///
/// Every mote that hears a leader keeps the two routing tables; only one
/// that sends, parks or takes delivery of a segment end to end holds an
/// `Endpoint`, made then. A fresh endpoint is what the node would have
/// held from the start, so when it is made changes no byte of a run.
#[derive(Debug, Clone, Default)]
pub struct MtpState {
    /// At most [`TABLE_CAPACITY`] entries, least recently used first
    /// ("leadership information is retained for as long as possible, given
    /// limited table sizes; replacement is done on a least-recently-used
    /// basis"). Lookup is linear — mote tables hold a handful of entries.
    last_known: Vec<LastKnown>,
    forwarding: Vec<ForwardPointer>,
    endpoint: Option<Box<Endpoint>>,
}

/// The end-to-end half of a node's transport: its retransmission stream,
/// its sends and the segments it took delivery of.
#[derive(Debug, Clone)]
pub(crate) struct Endpoint {
    /// Dedicated stream for retransmission jitter, so enabling or disabling
    /// retransmission never perturbs the node's main RNG.
    pub(crate) retx_rng: SimRng,
    /// Next end-to-end sequence number to assign.
    next_seq: u32,
    /// Sends parked until their destination label resolves.
    pending: Vec<PendingSend>,
    /// Segments awaiting end-to-end acknowledgement.
    outstanding: Vec<Outstanding>,
    /// Recently delivered `(source node, seq)` pairs, a bounded ring for
    /// duplicate suppression when a retransmission races its ack.
    seen_segments: Vec<(NodeId, u32)>,
}

impl Endpoint {
    fn new(retx_rng: SimRng) -> Self {
        Endpoint {
            retx_rng,
            next_seq: 0,
            pending: Vec::new(),
            outstanding: Vec::new(),
            seen_segments: Vec::new(),
        }
    }

    /// Gives `segment` the next end-to-end sequence number and tracks it
    /// as awaiting its ack; returns the number.
    pub(crate) fn track(&mut self, segment: &mut MtpSegment) -> u32 {
        segment.seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.push(Outstanding {
            segment: segment.clone(),
            attempts: 1,
        });
        segment.seq
    }

    /// Looks up an outstanding segment for retransmission, bumping its
    /// attempt counter. Returns `None` when the segment was acked,
    /// `Some(Ok(..))` with the segment to resend, and `Some(Err(..))` with
    /// the abandoned segment when the retry budget is exhausted (it is
    /// dropped from the table).
    pub(crate) fn retransmit(
        &mut self,
        seq: u32,
        max_attempts: u32,
    ) -> Option<Result<Outstanding, Outstanding>> {
        let idx = self.outstanding.iter().position(|o| o.segment.seq == seq)?;
        if self.outstanding[idx].attempts >= max_attempts {
            return Some(Err(self.outstanding.remove(idx)));
        }
        let o = &mut self.outstanding[idx];
        o.attempts += 1;
        Some(Ok(o.clone()))
    }

    /// Records a delivered `(source node, seq)` pair; returns `false` when
    /// it was already seen (a duplicate that must be re-acked but not
    /// re-delivered to the application).
    pub(crate) fn note_delivered(&mut self, src: NodeId, seq: u32) -> bool {
        if self.seen_segments.contains(&(src, seq)) {
            return false;
        }
        const DEDUP_WINDOW: usize = 64;
        if self.seen_segments.len() >= DEDUP_WINDOW {
            self.seen_segments.remove(0);
        }
        self.seen_segments.push((src, seq));
        true
    }

    /// Parks a send awaiting directory resolution, correlated by the
    /// caller-allocated `query_id` embedded in the directory query.
    pub(crate) fn park(&mut self, send: PendingSend) {
        self.pending.push(send);
    }

    /// The heap bytes of the box and its tables.
    fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + self.pending.capacity() * size_of::<PendingSend>()
            + self.outstanding.capacity() * size_of::<Outstanding>()
            + self.seen_segments.capacity() * size_of::<(NodeId, u32)>()
    }
}

impl MtpState {
    /// The node's endpoint, made now — its stream from `retx` — if it has
    /// none.
    pub(crate) fn endpoint(&mut self, retx: impl FnOnce() -> SimRng) -> &mut Endpoint {
        self.endpoint
            .get_or_insert_with(|| Box::new(Endpoint::new(retx())))
    }

    /// The node's endpoint, if it has one.
    pub(crate) fn endpoint_mut(&mut self) -> Option<&mut Endpoint> {
        self.endpoint.as_deref_mut()
    }

    /// Forgets everything a reboot loses. The sequence counter survives, as
    /// the nonvolatile boot counter real transports keep so a rebooted node
    /// never reuses sequence numbers its peers still hold in dedup windows;
    /// so does the retransmission stream. A node without an endpoint gets
    /// none.
    pub(crate) fn reboot(&mut self) {
        let endpoint = self.endpoint.take().map(|mut e| {
            *e = Endpoint {
                next_seq: e.next_seq,
                ..Endpoint::new(e.retx_rng.clone())
            };
            e
        });
        *self = MtpState {
            endpoint,
            ..MtpState::default()
        };
    }

    /// Clears an outstanding segment on ack receipt. Returns how many send
    /// attempts it took, or `None` when the ack matched nothing (a stale
    /// or duplicate ack does not).
    pub(crate) fn acknowledge(&mut self, seq: u32) -> Option<u32> {
        let outstanding = &mut self.endpoint_mut()?.outstanding;
        let idx = outstanding.iter().position(|o| o.segment.seq == seq)?;
        Some(outstanding.remove(idx).attempts)
    }

    /// Number of segments awaiting acknowledgement.
    #[must_use]
    pub(crate) fn outstanding_len(&self) -> usize {
        self.outstanding_seqs().count()
    }

    /// The sequence numbers of the segments awaiting acknowledgement.
    pub(crate) fn outstanding_seqs(&self) -> impl Iterator<Item = u32> + '_ {
        let outstanding = self.endpoint.iter().flat_map(|e| &e.outstanding);
        outstanding.map(|o| o.segment.seq)
    }

    /// The last-known leader of `label`, refreshing its recency.
    pub fn lookup(&mut self, label: ContextLabel) -> Option<LeaderLoc> {
        let idx = self.last_known.iter().position(|e| e.label == label)?;
        let entry = self.last_known.remove(idx);
        self.last_known.push(entry);
        Some(entry.loc())
    }

    /// Records that `label` is currently led from `loc` (from any observed
    /// traffic: MTP headers, heartbeats, directory responses), evicting the
    /// least recently used entry from a full table.
    pub fn learn(&mut self, label: ContextLabel, loc: LeaderLoc) {
        if let Some(idx) = self.last_known.iter().position(|e| e.label == label) {
            self.last_known.remove(idx);
        } else if self.last_known.len() == TABLE_CAPACITY {
            self.last_known.remove(0);
        }
        self.last_known.push(LastKnown {
            pos: loc.pos,
            label,
            node: loc.node,
        });
    }

    /// The number of cached leader entries.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.last_known.len()
    }

    /// Leaves a forwarding pointer: this node used to lead `label`, whose
    /// traffic should now chase `next` for [`FORWARD_TTL`]. The label's
    /// older pointer goes, and so does every expired one: nothing reads
    /// them again (the clock only moves forward), and a node that issues no
    /// directory query never sweeps its table.
    pub(crate) fn leave_forward_pointer(
        &mut self,
        label: ContextLabel,
        next: LeaderLoc,
        now: Timestamp,
    ) {
        self.forwarding
            .retain(|p| p.label != label && p.expires > now);
        self.forwarding.push(ForwardPointer {
            pos: next.pos,
            expires: now + FORWARD_TTL,
            label,
            node: next.node,
        });
    }

    /// An unexpired forwarding pointer for `label`, if present.
    #[must_use]
    pub(crate) fn forward_pointer(&self, label: ContextLabel, now: Timestamp) -> Option<LeaderLoc> {
        self.forwarding
            .iter()
            .find(|p| p.label == label && p.expires > now)
            .map(|p| LeaderLoc {
                node: p.node,
                pos: p.pos,
            })
    }

    /// The best-known location of `label`'s leader: a live forwarding
    /// pointer first (this node used to lead the label and knows who took
    /// over), else the last-known-leader table.
    pub(crate) fn route(&mut self, label: ContextLabel, now: Timestamp) -> Option<LeaderLoc> {
        self.forward_pointer(label, now)
            .or_else(|| self.lookup(label))
    }

    /// Drops expired forwarding pointers — a table that empties gives its
    /// memory back — and stale pending sends; returns the expired pending
    /// sends for error reporting.
    pub(crate) fn sweep(&mut self, now: Timestamp, pending_ttl: SimDuration) -> Vec<PendingSend> {
        self.forwarding.retain(|p| p.expires > now);
        if self.forwarding.is_empty() {
            self.forwarding = Vec::new();
        }
        let Some(endpoint) = self.endpoint_mut() else {
            return Vec::new();
        };
        let (keep, expired): (Vec<_>, Vec<_>) = std::mem::take(&mut endpoint.pending)
            .into_iter()
            .partition(|p| now.saturating_since(p.parked_at) <= pending_ttl);
        endpoint.pending = keep;
        expired
    }

    /// Takes the sends that were waiting on `query_id` (normally one).
    pub(crate) fn take_pending(&mut self, query_id: u32) -> Vec<PendingSend> {
        let Some(endpoint) = self.endpoint_mut() else {
            return Vec::new();
        };
        let (resolved, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut endpoint.pending)
            .into_iter()
            .partition(|p| p.query_id == query_id);
        endpoint.pending = keep;
        resolved
    }

    /// The heap bytes of the two routing tables, and of the endpoint.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let tables = self.last_known.capacity() * size_of::<LastKnown>()
            + self.forwarding.capacity() * size_of::<ForwardPointer>();
        (tables, self.endpoint.as_ref().map_or(0, |e| e.heap_bytes()))
    }

    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.endpoint.as_ref().map_or(0, |e| e.pending.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextTypeId;
    use bytes::Bytes;

    fn label(n: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(n),
            seq: 0,
        }
    }

    fn segment(dst: u32, seq: u32) -> MtpSegment {
        MtpSegment {
            src_label: label(0),
            src_port: Port(1),
            dst_label: label(dst),
            dst_port: Port(2),
            src_leader: NodeId(0),
            src_leader_pos: Point::ORIGIN,
            chain_hops: 0,
            seq,
            payload: Bytes::new(),
        }
    }

    fn parked(dst: u32, at: Timestamp, query_id: u32) -> PendingSend {
        PendingSend {
            segment: segment(dst, 0),
            query_id,
            parked_at: at,
        }
    }

    fn loc(n: u32) -> LeaderLoc {
        LeaderLoc {
            node: NodeId(n),
            pos: Point::new(f64::from(n), 0.0),
        }
    }

    /// A stream for an endpoint made in a test.
    fn retx() -> SimRng {
        SimRng::seed_from(3)
    }

    /// A last-known entry and a forwarding slot are flat: 32 and 40 bytes,
    /// where the nested `(label, LeaderLoc)` forms padded to 40 and 48.
    #[test]
    fn a_table_entry_is_flat() {
        assert_eq!(size_of::<LastKnown>(), 32);
        assert_eq!(size_of::<ForwardPointer>(), 40);
    }

    /// A reboot forgets the tables and what the endpoint holds, but not its
    /// sequence counter or its stream; it makes no endpoint for a node that
    /// has none.
    #[test]
    fn a_reboot_keeps_the_sequence_counter_and_makes_no_endpoint() {
        let mut idle = MtpState::default();
        idle.learn(label(1), loc(1));
        idle.reboot();
        assert_eq!((idle.table_len(), idle.endpoint.is_none()), (0, true));
        let mut mtp = MtpState::default();
        let endpoint = mtp.endpoint(retx);
        endpoint.track(&mut segment(7, 0));
        endpoint.retx_rng.next_u64();
        let stream = endpoint.retx_rng.clone();
        mtp.reboot();
        assert_eq!(mtp.outstanding_len(), 0);
        let endpoint = mtp.endpoint_mut().expect("kept");
        assert_eq!(endpoint.track(&mut segment(7, 0)), 1, "no sequence reused");
        assert_eq!(endpoint.retx_rng.next_u64(), stream.clone().next_u64());
    }

    #[test]
    fn the_least_recently_used_leader_is_evicted_from_a_full_table() {
        let mut mtp = MtpState::default();
        for n in 0..TABLE_CAPACITY as u32 {
            mtp.learn(label(n), loc(n));
        }
        // Looking label 0 up makes label 1 the least recently used, and
        // re-learning a known label evicts nothing.
        assert_eq!(mtp.lookup(label(0)), Some(loc(0)));
        mtp.learn(label(2), loc(12));
        assert_eq!(mtp.table_len(), TABLE_CAPACITY);
        mtp.learn(label(99), loc(99));
        assert_eq!(mtp.table_len(), TABLE_CAPACITY);
        assert_eq!(mtp.lookup(label(1)), None, "evicted");
        assert_eq!(mtp.lookup(label(0)), Some(loc(0)));
        assert_eq!(mtp.lookup(label(2)), Some(loc(12)));
    }

    #[test]
    fn learn_and_lookup_track_leaders() {
        let mut mtp = MtpState::default();
        assert_eq!(mtp.lookup(label(1)), None);
        mtp.learn(label(1), loc(5));
        assert_eq!(mtp.lookup(label(1)), Some(loc(5)));
        mtp.learn(label(1), loc(6));
        assert_eq!(mtp.lookup(label(1)), Some(loc(6)));
        assert_eq!(mtp.table_len(), 1);
    }

    #[test]
    fn forwarding_pointers_expire() {
        let mut mtp = MtpState::default();
        mtp.leave_forward_pointer(label(1), loc(9), Timestamp::from_secs(0));
        assert_eq!(
            mtp.forward_pointer(label(1), Timestamp::from_secs(5)),
            Some(loc(9))
        );
        let lapsed = Timestamp::ZERO + FORWARD_TTL;
        assert_eq!(mtp.forward_pointer(label(1), lapsed), None);
        mtp.sweep(Timestamp::from_secs(21), SimDuration::from_secs(60));
        assert_eq!(mtp.forward_pointer(label(1), Timestamp::from_secs(5)), None);
        assert_eq!(mtp.heap_bytes().0, 0, "an emptied table keeps no memory");
    }

    #[test]
    fn newer_pointer_replaces_older() {
        let mut mtp = MtpState::default();
        mtp.leave_forward_pointer(label(1), loc(2), Timestamp::ZERO);
        mtp.leave_forward_pointer(label(1), loc(3), Timestamp::from_secs(1));
        assert_eq!(
            mtp.forward_pointer(label(1), Timestamp::from_secs(2)),
            Some(loc(3))
        );
    }

    /// A node that never queries the directory never sweeps: leaving its
    /// next pointer is what drops the ones that expired, which no lookup
    /// would have returned anyway.
    #[test]
    fn leaving_a_pointer_drops_the_expired_ones() {
        let mut mtp = MtpState::default();
        mtp.leave_forward_pointer(label(1), loc(2), Timestamp::ZERO);
        mtp.leave_forward_pointer(label(2), loc(3), Timestamp::from_secs(15));
        let later = Timestamp::from_secs(30);
        assert_eq!(mtp.forward_pointer(label(1), later), None, "expired");
        mtp.leave_forward_pointer(label(3), loc(4), later);
        assert_eq!(mtp.forwarding.len(), 2, "label 1's pointer is gone");
        assert_eq!(mtp.forward_pointer(label(2), later), Some(loc(3)));
        assert_eq!(mtp.forward_pointer(label(3), later), Some(loc(4)));
    }

    #[test]
    fn parked_sends_resolve_by_query() {
        let mut mtp = MtpState::default();
        assert!(mtp.take_pending(1).is_empty(), "nothing parked");
        mtp.endpoint(retx).park(parked(7, Timestamp::ZERO, 1));
        mtp.endpoint(retx).park(parked(8, Timestamp::ZERO, 2));
        assert_eq!(mtp.pending_len(), 2);
        let got = mtp.take_pending(1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].segment.dst_label, label(7));
        assert_eq!(mtp.pending_len(), 1);
    }

    #[test]
    fn sweep_expires_stale_pending_sends() {
        let mut mtp = MtpState::default();
        let later = Timestamp::from_secs(50);
        mtp.endpoint(retx).park(parked(7, Timestamp::ZERO, 1));
        mtp.endpoint(retx).park(parked(8, later, 2));
        let expired = mtp.sweep(Timestamp::from_secs(55), SimDuration::from_secs(10));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].segment.dst_label, label(7));
        assert_eq!(mtp.pending_len(), 1);
    }

    #[test]
    fn outstanding_segments_ack_and_retransmit() {
        let mut mtp = MtpState::default();
        assert_eq!(mtp.acknowledge(0), None, "no endpoint, nothing to ack");
        let (mut a, mut b) = (segment(7, 0), segment(8, 0));
        let s1 = mtp.endpoint(retx).track(&mut a);
        let s2 = mtp.endpoint(retx).track(&mut b);
        assert_eq!((s1, s2, a.seq, b.seq), (0, 1, 0, 1));
        assert_eq!(mtp.outstanding_len(), 2);

        // Ack clears exactly the matching segment; stale acks are inert.
        assert_eq!(mtp.acknowledge(s1), Some(1));
        assert_eq!(mtp.acknowledge(s1), None);
        assert_eq!(mtp.outstanding_len(), 1);

        // Retransmission bumps attempts until the budget is exhausted.
        let endpoint = mtp.endpoint(retx);
        let rt = endpoint.retransmit(s2, 3).unwrap().unwrap();
        assert_eq!(rt.attempts, 2);
        let rt = endpoint.retransmit(s2, 3).unwrap().unwrap();
        assert_eq!(rt.attempts, 3);
        let dropped = endpoint.retransmit(s2, 3).unwrap().unwrap_err();
        assert_eq!(dropped.attempts, 3);
        // An acked/dropped segment no longer retransmits.
        assert_eq!(endpoint.retransmit(s2, 3), None);
        assert_eq!(mtp.outstanding_len(), 0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let policy = RetxPolicy {
            timeout: SimDuration::from_millis(400),
            max_backoff: SimDuration::from_secs(60),
        };
        assert_eq!(policy.backoff(1), SimDuration::from_millis(400));
        assert_eq!(policy.backoff(2), SimDuration::from_millis(800));
        assert_eq!(policy.backoff(3), SimDuration::from_millis(1600));
    }

    #[test]
    fn backoff_clamps_at_max_backoff_instead_of_wrapping() {
        let policy = RetxPolicy {
            timeout: SimDuration::from_millis(400),
            max_backoff: SimDuration::from_secs(30),
        };
        // Past the cap the backoff pins at max_backoff — it must neither
        // keep doubling nor wrap back down (the old shift-16 cap made
        // attempt 18+ repeat the same huge value; worse exponents would
        // have wrapped a plain `<<`).
        assert_eq!(policy.backoff(8), SimDuration::from_secs(30));
        assert_eq!(policy.backoff(17), SimDuration::from_secs(30));
        assert_eq!(policy.backoff(64), SimDuration::from_secs(30));
        assert_eq!(policy.backoff(u32::MAX), SimDuration::from_secs(30));
        // Monotone non-decreasing across the whole attempt range.
        let mut last = SimDuration::ZERO;
        for attempts in 1..100 {
            let b = policy.backoff(attempts);
            assert!(b >= last, "backoff regressed at attempt {attempts}");
            last = b;
        }
    }

    #[test]
    fn zero_timeout_never_yields_a_zero_backoff() {
        // A degenerate zero base timeout must not produce a zero backoff —
        // that is a busy retransmit loop. `RETX` has a positive one, but the
        // policy type is public API and guards the floor too.
        let policy = RetxPolicy {
            timeout: SimDuration::ZERO,
            max_backoff: SimDuration::from_secs(60),
        };
        for attempts in [1u32, 2, 3, 10, 100] {
            assert!(
                policy.backoff(attempts) > SimDuration::ZERO,
                "zero backoff at attempt {attempts}"
            );
        }
    }

    #[test]
    fn duplicate_segments_are_suppressed_once_seen() {
        let mut mtp = MtpState::default();
        let mtp = mtp.endpoint(retx);
        assert!(mtp.note_delivered(NodeId(3), 7));
        assert!(!mtp.note_delivered(NodeId(3), 7), "duplicate must be flagged");
        assert!(mtp.note_delivered(NodeId(4), 7), "other sender, same seq is new");
        // The window is bounded: old entries eventually age out.
        for i in 0..100 {
            mtp.note_delivered(NodeId(9), i);
        }
        assert!(mtp.note_delivered(NodeId(3), 7), "aged out of the ring");
    }
}
