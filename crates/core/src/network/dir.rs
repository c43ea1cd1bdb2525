//! The directory service: the home-node side (registrations, queries,
//! anti-entropy digests) and the client side (queries in flight, failover).
//! A handler returns the message to geo-route in answer (DESIGN.md §17).

use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use super::events::Recorder;
use crate::context::ContextTypeId;
use crate::directory::DirectoryStore;
use crate::wire::{DirQuery, DirRegister, DirResponse, DirSync, Message};

/// A directory query in flight, correlating the response to its consumer.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingQuery {
    query_id: u32,
    /// The type being queried.
    pub(super) target_type: ContextTypeId,
    /// The local machine that asked; `None` for an MTP resolution query.
    pub(super) asker: Option<ContextTypeId>,
    /// Replica-failover attempts so far (0 = the geo-routed query).
    attempt: usize,
    /// When the query was first issued (for expiry).
    issued_at: Timestamp,
}

/// What an unanswered query does when its failover timer fires.
#[derive(Debug, PartialEq)]
pub(super) enum Failover {
    /// Answered (or expired) in the meantime.
    Settled,
    /// Ask replica number `attempt` of the type's replica set.
    Retry {
        target_type: ContextTypeId,
        attempt: usize,
    },
    /// Every replica was tried: whatever was parked on it must be dropped.
    Exhausted,
}

/// One node's directory state, both roles.
#[derive(Default)]
pub(super) struct DirState {
    pub(super) store: DirectoryStore,
    next_query_id: u32,
    pending: Vec<PendingQuery>,
}

impl DirState {
    /// Forgets everything but the query-id counter.
    pub(super) fn reboot(&mut self) {
        self.store = DirectoryStore::new();
        self.pending.clear();
    }

    // -- home side ------------------------------------------------------

    pub(super) fn register(
        &mut self,
        reg: &DirRegister,
        node: NodeId,
        now: Timestamp,
        ttl: SimDuration,
        rec: &Recorder,
    ) {
        rec.telemetry.incr("dir.register");
        self.store.register(reg.label, reg.location, now);
        self.store.sweep(now, ttl);
        rec.trace(now, node, reg.label, "dir.register", String::new());
    }

    pub(super) fn answer(
        &self,
        q: &DirQuery,
        node: NodeId,
        now: Timestamp,
        ttl: SimDuration,
        rec: &Recorder,
    ) -> Message {
        rec.telemetry.incr("dir.query");
        let entries = self.store.query(q.type_id, now, ttl);
        let detail = format!("id={} hits={}", q.query_id, entries.len());
        rec.trace_type(now, node, q.type_id, "dir.query", detail);
        Message::DirResponse(DirResponse {
            query_id: q.query_id,
            entries,
        })
    }

    /// This replica's anti-entropy digest for `tid`. An *empty* one is still
    /// worth pushing with the pull flag set — that is how a rebooted
    /// (amnesiac) replica pulls what it lost — but never worth a reply.
    pub(super) fn digest(
        &self,
        tid: ContextTypeId,
        from: NodeId,
        reply: bool,
        rec: &Recorder,
    ) -> Option<Message> {
        let entries = self.store.entries_of(tid);
        if entries.is_empty() && !reply {
            return None;
        }
        rec.telemetry.incr("dir.gossip.tx");
        Some(Message::DirSyncMsg(DirSync {
            type_id: tid,
            from,
            reply,
            entries,
        }))
    }

    /// Merges a peer replica's digest (adopting missing and fresher
    /// entries); returns the digest to send back if the peer asked for one.
    /// Replies carry `reply: false`, bounding an exchange to one round trip.
    pub(super) fn merge(
        &mut self,
        sync: &DirSync,
        node: NodeId,
        now: Timestamp,
        ttl: SimDuration,
        rec: &Recorder,
    ) -> Option<Message> {
        let repaired = self.store.merge(&sync.entries);
        // Expired entries may ride in on a digest; sweep keeps the store's
        // live view identical to an un-partitioned replica's.
        self.store.sweep(now, ttl);
        if repaired > 0 {
            rec.telemetry.add("dir.gossip.repair", repaired as u64);
            let detail = format!("from=n{} repaired={repaired}", sync.from.0);
            rec.trace_type(now, node, sync.type_id, "dir.gossip.repair", detail);
        }
        if sync.reply {
            self.digest(sync.type_id, node, false, rec)
        } else {
            None
        }
    }

    // -- client side ----------------------------------------------------

    /// Opens a query for `target_type` and returns its id. Queries older
    /// than `ttl` are forgotten on the way: at replication factor 1 nothing
    /// else ever reclaims one whose reply was lost.
    pub(super) fn issue(
        &mut self,
        target_type: ContextTypeId,
        asker: Option<ContextTypeId>,
        now: Timestamp,
        ttl: SimDuration,
    ) -> u32 {
        self.pending
            .retain(|p| now.saturating_since(p.issued_at) <= ttl);
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        self.pending.push(PendingQuery {
            query_id,
            target_type,
            asker,
            attempt: 0,
            issued_at: now,
        });
        query_id
    }

    /// Closes the query a response answers, if this node still waits on it.
    pub(super) fn settle(&mut self, query_id: u32) -> Option<PendingQuery> {
        let idx = self.pending.iter().position(|p| p.query_id == query_id)?;
        Some(self.pending.remove(idx))
    }

    /// The failover timer of `query_id` fired; it walks `replicas` replicas.
    pub(super) fn failover(&mut self, query_id: u32, replicas: usize) -> Failover {
        let Some(p) = self.pending.iter_mut().find(|p| p.query_id == query_id) else {
            return Failover::Settled;
        };
        p.attempt += 1;
        if p.attempt >= replicas {
            self.pending.retain(|p| p.query_id != query_id);
            return Failover::Exhausted;
        }
        Failover::Retry {
            target_type: p.target_type,
            attempt: p.attempt,
        }
    }

    #[cfg(test)]
    pub(super) fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

pub(super) fn query(query_id: u32, type_id: ContextTypeId, node: NodeId, pos: Point) -> Message {
    Message::DirQuery(DirQuery {
        type_id,
        reply_to: node,
        reply_pos: pos,
        query_id,
    })
}

/// The replica `node` gossips to — none if it has no peer or is no replica:
/// its successor in ring order, which makes every pair of live replicas
/// converge within `k − 1` rounds even when some replicas are dead.
pub(super) fn ring_successor(replicas: &[NodeId], node: NodeId) -> Option<NodeId> {
    if replicas.len() <= 1 {
        return None;
    }
    let i = replicas.iter().position(|&r| r == node)?;
    Some(replicas[(i + 1) % replicas.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextLabel;

    const FIRE: ContextTypeId = ContextTypeId(1);
    const TTL: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn a_response_to_an_unknown_id_is_ignored() {
        let mut dir = DirState::default();
        let id = dir.issue(FIRE, Some(ContextTypeId(0)), Timestamp::ZERO, TTL);
        assert!(dir.settle(id + 1).is_none());
        assert_eq!(dir.pending_len(), 1, "the real query is still open");
        let q = dir.settle(id).expect("the id that was issued");
        assert_eq!((q.target_type, q.asker), (FIRE, Some(ContextTypeId(0))));
        assert!(
            dir.settle(id).is_none(),
            "a duplicate response finds nothing"
        );
    }

    #[test]
    fn failover_walks_the_replica_set_then_gives_up() {
        let mut dir = DirState::default();
        let id = dir.issue(FIRE, None, Timestamp::ZERO, TTL);
        let retry = |attempt| Failover::Retry {
            target_type: FIRE,
            attempt,
        };
        assert_eq!(dir.failover(id, 3), retry(1));
        assert_eq!(dir.failover(id, 3), retry(2));
        assert_eq!(dir.failover(id, 3), Failover::Exhausted);
        assert_eq!(dir.pending_len(), 0);
        assert_eq!(dir.failover(id, 3), Failover::Settled, "a stale timer");
        // An answered query's timer is just as inert.
        let id = dir.issue(FIRE, None, Timestamp::ZERO, TTL);
        assert!(dir.settle(id).is_some());
        assert_eq!(dir.failover(id, 3), Failover::Settled);
    }

    #[test]
    fn issuing_reclaims_queries_older_than_the_ttl_and_never_reuses_an_id() {
        let mut dir = DirState::default();
        let old = dir.issue(FIRE, None, Timestamp::ZERO, TTL);
        let kept = dir.issue(FIRE, None, Timestamp::from_secs(3), TTL);
        let new = dir.issue(FIRE, None, Timestamp::from_secs(6), TTL);
        assert_eq!(dir.pending_len(), 2);
        assert!(dir.settle(old).is_none(), "expired unanswered");
        assert!(dir.settle(kept).is_some() && dir.settle(new).is_some());
        dir.reboot();
        assert_eq!(dir.issue(FIRE, None, Timestamp::from_secs(7), TTL), new + 1);
    }

    #[test]
    fn the_gossip_ring_wraps_and_skips_non_replicas() {
        let ring = [NodeId(4), NodeId(9), NodeId(2)];
        assert_eq!(ring_successor(&ring, NodeId(9)), Some(NodeId(2)));
        assert_eq!(ring_successor(&ring, NodeId(2)), Some(NodeId(4)));
        assert_eq!(ring_successor(&ring, NodeId(7)), None);
        assert_eq!(ring_successor(&ring[..1], NodeId(4)), None);
    }

    #[test]
    fn a_pull_is_answered_only_with_something_to_say() {
        let rec = Recorder::new(envirotrack_telemetry::Telemetry::new());
        let (mut a, mut b) = (DirState::default(), DirState::default());
        let label = ContextLabel {
            type_id: FIRE,
            creator: NodeId(3),
            seq: 1,
        };
        let reg = DirRegister {
            label,
            location: Point::new(1.0, 2.0),
        };
        a.register(&reg, NodeId(0), Timestamp::ZERO, TTL, &rec);
        assert!(b.digest(FIRE, NodeId(1), false, &rec).is_none());
        // An empty digest with the pull flag is how an amnesiac asks.
        let Some(Message::DirSyncMsg(pull)) = b.digest(FIRE, NodeId(1), true, &rec) else {
            panic!("a pull is always sent");
        };
        let Some(Message::DirSyncMsg(push)) = a.merge(&pull, NodeId(0), Timestamp::ZERO, TTL, &rec)
        else {
            panic!("the peer that holds entries answers the pull");
        };
        assert!(!push.reply, "replies never ask back");
        assert!(b
            .merge(&push, NodeId(1), Timestamp::ZERO, TTL, &rec)
            .is_none());
        assert_eq!(b.store.digest(FIRE), a.store.digest(FIRE));
    }
}
