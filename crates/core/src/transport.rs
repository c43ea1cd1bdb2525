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
//! The actual send/receive orchestration lives in
//! [`crate::network`]; this module is pure state, unit-testable in
//! isolation.

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

/// A bounded map with least-recently-used replacement ("leadership
/// information is retained for as long as possible, given limited table
/// sizes; replacement is done on a least-recently-used basis").
///
/// Lookup order is linear — mote tables hold a handful of entries.
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    capacity: usize,
    // Most recently used at the back.
    entries: Vec<(K, V)>,
}

impl<K: PartialEq + Copy, V> LruTable<K, V> {
    /// Creates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "an LRU table needs capacity for at least one entry"
        );
        LruTable {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: K) -> Option<&V> {
        let idx = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
        Some(&self.entries[self.entries.len() - 1].1)
    }

    /// Looks up `key` without touching recency.
    #[must_use]
    pub fn peek(&self, key: K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Inserts or refreshes `key`, evicting the least recently used entry
    /// when full. Returns the evicted pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(idx);
            self.entries.push((key, value));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((key, value));
        evicted
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
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

/// A forwarding pointer left behind by a past leader.
#[derive(Debug, Clone, Copy)]
struct ForwardPointer {
    label: ContextLabel,
    next: LeaderLoc,
    expires: Timestamp,
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
pub(crate) const TABLE_CAPACITY: usize = 8;
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
#[derive(Debug, Clone)]
pub struct MtpState {
    last_known: LruTable<ContextLabel, LeaderLoc>,
    forwarding: Vec<ForwardPointer>,
    pending: Vec<PendingSend>,
    forward_ttl: SimDuration,
    /// Maximum forwarding-chain length before a segment is dropped.
    pub max_chain_hops: u8,
    /// Next end-to-end sequence number to assign.
    next_seq: u32,
    /// Segments awaiting end-to-end acknowledgement.
    outstanding: Vec<Outstanding>,
    /// Recently delivered `(source node, seq)` pairs, a bounded ring for
    /// duplicate suppression when a retransmission races its ack.
    seen_segments: Vec<(NodeId, u32)>,
}

impl MtpState {
    /// Creates transport state with the given last-known-leader table
    /// capacity and forwarding-pointer lifetime.
    #[must_use]
    pub fn new(table_capacity: usize, forward_ttl: SimDuration, max_chain_hops: u8) -> Self {
        MtpState {
            last_known: LruTable::new(table_capacity),
            forwarding: Vec::new(),
            pending: Vec::new(),
            forward_ttl,
            max_chain_hops,
            next_seq: 0,
            outstanding: Vec::new(),
            seen_segments: Vec::new(),
        }
    }

    /// Allocates the next end-to-end sequence number.
    pub(crate) fn next_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Forgets everything a reboot loses. The sequence counter survives, as
    /// the nonvolatile boot counter real transports keep so a rebooted node
    /// never reuses sequence numbers its peers still hold in dedup windows.
    pub(crate) fn reboot(&mut self) {
        let (capacity, next_seq) = (self.last_known.capacity(), self.next_seq);
        *self = MtpState::new(capacity, self.forward_ttl, self.max_chain_hops);
        self.next_seq = next_seq;
    }

    /// Registers a freshly transmitted segment as awaiting its ack.
    pub(crate) fn track_outstanding(&mut self, segment: MtpSegment) {
        self.outstanding.push(Outstanding {
            segment,
            attempts: 1,
        });
    }

    /// Clears an outstanding segment on ack receipt. Returns how many send
    /// attempts it took, or `None` when the ack matched nothing (a stale
    /// or duplicate ack does not).
    pub(crate) fn acknowledge(&mut self, seq: u32) -> Option<u32> {
        let idx = self.outstanding.iter().position(|o| o.segment.seq == seq)?;
        Some(self.outstanding.remove(idx).attempts)
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

    /// Number of segments awaiting acknowledgement.
    #[must_use]
    pub(crate) fn outstanding_len(&self) -> usize {
        self.outstanding.len()
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

    /// The last-known leader of `label`, refreshing its recency.
    pub fn lookup(&mut self, label: ContextLabel) -> Option<LeaderLoc> {
        self.last_known.get(label).copied()
    }

    /// Records that `label` is currently led from `loc` (from any observed
    /// traffic: MTP headers, heartbeats, directory responses).
    pub fn learn(&mut self, label: ContextLabel, loc: LeaderLoc) {
        self.last_known.insert(label, loc);
    }

    /// The number of cached leader entries.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.last_known.len()
    }

    /// Leaves a forwarding pointer: this node used to lead `label`, whose
    /// traffic should now chase `next`.
    pub(crate) fn leave_forward_pointer(&mut self, label: ContextLabel, next: LeaderLoc, now: Timestamp) {
        self.forwarding.retain(|p| p.label != label);
        self.forwarding.push(ForwardPointer {
            label,
            next,
            expires: now + self.forward_ttl,
        });
    }

    /// An unexpired forwarding pointer for `label`, if present.
    #[must_use]
    pub(crate) fn forward_pointer(&self, label: ContextLabel, now: Timestamp) -> Option<LeaderLoc> {
        self.forwarding
            .iter()
            .find(|p| p.label == label && p.expires > now)
            .map(|p| p.next)
    }

    /// The best-known location of `label`'s leader: a live forwarding
    /// pointer first (this node used to lead the label and knows who took
    /// over), else the last-known-leader table.
    pub(crate) fn route(&mut self, label: ContextLabel, now: Timestamp) -> Option<LeaderLoc> {
        self.forward_pointer(label, now)
            .or_else(|| self.lookup(label))
    }

    /// Drops expired forwarding pointers and stale pending sends; returns
    /// the expired pending sends for error reporting.
    pub(crate) fn sweep(&mut self, now: Timestamp, pending_ttl: SimDuration) -> Vec<PendingSend> {
        self.forwarding.retain(|p| p.expires > now);
        let (keep, expired): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| now.saturating_since(p.parked_at) <= pending_ttl);
        self.pending = keep;
        expired
    }

    /// Parks a send awaiting directory resolution, correlated by the
    /// caller-allocated `query_id` embedded in the directory query.
    pub(crate) fn park(&mut self, send: PendingSend) {
        self.pending.push(send);
    }

    /// Takes the sends that were waiting on `query_id` (normally one).
    pub(crate) fn take_pending(&mut self, query_id: u32) -> Vec<PendingSend> {
        let (resolved, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.query_id == query_id);
        self.pending = keep;
        resolved
    }

    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
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

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t: LruTable<u32, &str> = LruTable::new(2);
        assert!(t.insert(1, "a").is_none());
        assert!(t.insert(2, "b").is_none());
        // Touch 1 so 2 becomes LRU.
        assert_eq!(t.get(1), Some(&"a"));
        let evicted = t.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(t.peek(2), None);
        assert_eq!(t.peek(1), Some(&"a"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lru_reinsert_refreshes_without_eviction() {
        let mut t: LruTable<u32, u32> = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert!(t.insert(1, 11).is_none(), "refresh must not evict");
        assert_eq!(t.peek(1), Some(&11));
        // 2 is now LRU.
        assert_eq!(t.insert(3, 30), Some((2, 20)));
    }

    #[test]
    fn learn_and_lookup_track_leaders() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        assert_eq!(mtp.lookup(label(1)), None);
        mtp.learn(label(1), loc(5));
        assert_eq!(mtp.lookup(label(1)), Some(loc(5)));
        mtp.learn(label(1), loc(6));
        assert_eq!(mtp.lookup(label(1)), Some(loc(6)));
        assert_eq!(mtp.table_len(), 1);
    }

    #[test]
    fn forwarding_pointers_expire() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        mtp.leave_forward_pointer(label(1), loc(9), Timestamp::from_secs(0));
        assert_eq!(
            mtp.forward_pointer(label(1), Timestamp::from_secs(5)),
            Some(loc(9))
        );
        assert_eq!(
            mtp.forward_pointer(label(1), Timestamp::from_secs(10)),
            None
        );
        mtp.sweep(Timestamp::from_secs(11), SimDuration::from_secs(60));
        assert_eq!(mtp.forward_pointer(label(1), Timestamp::from_secs(5)), None);
    }

    #[test]
    fn newer_pointer_replaces_older() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        mtp.leave_forward_pointer(label(1), loc(2), Timestamp::ZERO);
        mtp.leave_forward_pointer(label(1), loc(3), Timestamp::from_secs(1));
        assert_eq!(
            mtp.forward_pointer(label(1), Timestamp::from_secs(2)),
            Some(loc(3))
        );
    }

    #[test]
    fn parked_sends_resolve_by_query() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        mtp.park(parked(7, Timestamp::ZERO, 1));
        mtp.park(parked(8, Timestamp::ZERO, 2));
        assert_eq!(mtp.pending_len(), 2);
        let got = mtp.take_pending(1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].segment.dst_label, label(7));
        assert_eq!(mtp.pending_len(), 1);
    }

    #[test]
    fn sweep_expires_stale_pending_sends() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        mtp.park(parked(7, Timestamp::ZERO, 1));
        mtp.park(parked(8, Timestamp::from_secs(50), 2));
        let expired = mtp.sweep(Timestamp::from_secs(55), SimDuration::from_secs(10));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].segment.dst_label, label(7));
        assert_eq!(mtp.pending_len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_lru_is_rejected() {
        let _: LruTable<u32, u32> = LruTable::new(0);
    }

    #[test]
    fn outstanding_segments_ack_and_retransmit() {
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
        let s1 = mtp.next_seq();
        let s2 = mtp.next_seq();
        assert_eq!((s1, s2), (0, 1));
        mtp.track_outstanding(segment(7, s1));
        mtp.track_outstanding(segment(8, s2));
        assert_eq!(mtp.outstanding_len(), 2);

        // Ack clears exactly the matching segment; stale acks are inert.
        assert_eq!(mtp.acknowledge(s1), Some(1));
        assert_eq!(mtp.acknowledge(s1), None);
        assert_eq!(mtp.outstanding_len(), 1);

        // Retransmission bumps attempts until the budget is exhausted.
        let rt = mtp.retransmit(s2, 3).unwrap().unwrap();
        assert_eq!(rt.attempts, 2);
        let rt = mtp.retransmit(s2, 3).unwrap().unwrap();
        assert_eq!(rt.attempts, 3);
        let dropped = mtp.retransmit(s2, 3).unwrap().unwrap_err();
        assert_eq!(dropped.attempts, 3);
        assert_eq!(mtp.outstanding_len(), 0);
        // An acked/dropped segment no longer retransmits.
        assert_eq!(mtp.retransmit(s2, 3), None);
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
        let mut mtp = MtpState::new(4, SimDuration::from_secs(10), 4);
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
