//! Object naming and directory services (paper §5.3).
//!
//! A context *type name* hashes to an (x, y) coordinate in the field; the
//! nodes around that coordinate (the *home node* under greedy geographic
//! routing) maintain the list of live labels of that type and their last
//! known locations. Leaders register on label creation and refresh
//! periodically; entries expire when not refreshed, so dead labels vanish
//! without tombstone traffic.
//!
//! ```
//! use envirotrack_core::directory::hash_point;
//! use envirotrack_world::geometry::{Aabb, Point};
//!
//! let bounds = Aabb::new(Point::ORIGIN, Point::new(9.0, 9.0));
//! let home = hash_point("fire", bounds);
//! assert!(bounds.contains(home));
//! // Deterministic: every node computes the same home coordinate.
//! assert_eq!(home, hash_point("fire", bounds));
//! ```

use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::{Aabb, Point};

use crate::context::{ContextLabel, ContextTypeId};

/// Hashes a context type name to a rendezvous coordinate inside `bounds`.
///
/// FNV-1a split into two 32-bit halves for x and y — stable across
/// platforms, so every node agrees on the home coordinate.
#[must_use]
pub fn hash_point(type_name: &str, bounds: Aabb) -> Point {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in type_name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let hx = (h >> 32) as u32;
    let hy = h as u32;
    let fx = f64::from(hx) / f64::from(u32::MAX);
    let fy = f64::from(hy) / f64::from(u32::MAX);
    Point::new(
        bounds.min.x + fx * bounds.width(),
        bounds.min.y + fy * bounds.height(),
    )
}

/// The `k` nodes nearest `home` — the replica set a registration fans out
/// to and a failed query falls back through. Deterministic: distance ties
/// break on node id, so every node computes the identical ordering. The
/// first element is the primary (the classic single home node).
#[must_use]
pub(crate) fn replica_set(deployment: &Deployment, home: Point, k: usize) -> Vec<NodeId> {
    let mut by_distance: Vec<(NodeId, f64)> = deployment
        .iter()
        .map(|(id, pos)| (id, pos.distance_sq_to(home)))
        .collect();
    by_distance.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    by_distance
        .into_iter()
        .take(k.max(1))
        .map(|(id, _)| id)
        .collect()
}

/// Entries not refreshed within this window expire.
pub(crate) const ENTRY_TTL: SimDuration = SimDuration::from_secs(30);
/// How long a query may stay unanswered before the asker fails over to the
/// next replica.
pub(crate) const QUERY_TIMEOUT: SimDuration = SimDuration::from_millis(1500);

/// One directory entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    label: ContextLabel,
    location: Point,
    refreshed: Timestamp,
}

/// The registry a home node maintains for the types that hash to it.
///
/// Every node owns a (usually empty) store; only the home node of a type's
/// coordinate ever receives registrations for it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirectoryStore {
    entries: Vec<Entry>,
}

impl DirectoryStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        DirectoryStore::default()
    }

    /// Registers or refreshes a label's location.
    pub(crate) fn register(&mut self, label: ContextLabel, location: Point, now: Timestamp) {
        match self.entries.iter_mut().find(|e| e.label == label) {
            Some(e) => {
                e.location = location;
                e.refreshed = now;
            }
            None => self.entries.push(Entry {
                label,
                location,
                refreshed: now,
            }),
        }
    }

    /// Live labels of a type: those refreshed within `ttl` of `now`.
    #[must_use]
    pub(crate) fn query(
        &self,
        type_id: ContextTypeId,
        now: Timestamp,
        ttl: SimDuration,
    ) -> Vec<(ContextLabel, Point)> {
        self.entries
            .iter()
            .filter(|e| e.label.type_id == type_id && now.saturating_since(e.refreshed) <= ttl)
            .map(|e| (e.label, e.location))
            .collect()
    }

    /// Drops entries not refreshed within `ttl` of `now`.
    pub(crate) fn sweep(&mut self, now: Timestamp, ttl: SimDuration) {
        self.entries
            .retain(|e| now.saturating_since(e.refreshed) <= ttl);
    }

    /// Snapshot of every stored entry of one type, with refresh times —
    /// the payload of an anti-entropy [`crate::wire::DirSync`] digest.
    #[must_use]
    pub(crate) fn entries_of(&self, type_id: ContextTypeId) -> Vec<(ContextLabel, Point, Timestamp)> {
        self.entries
            .iter()
            .filter(|e| e.label.type_id == type_id)
            .map(|e| (e.label, e.location, e.refreshed))
            .collect()
    }

    /// Merges a peer replica's digest: entries this store lacks are
    /// adopted, and entries the peer refreshed more recently overwrite the
    /// local copy (last-writer-wins on the refresh timestamp). Returns how
    /// many entries changed — the number of divergences repaired.
    pub(crate) fn merge(&mut self, entries: &[(ContextLabel, Point, Timestamp)]) -> usize {
        let mut repaired = 0;
        for &(label, location, refreshed) in entries {
            match self.entries.iter_mut().find(|e| e.label == label) {
                Some(e) => {
                    if refreshed > e.refreshed {
                        e.location = location;
                        e.refreshed = refreshed;
                        repaired += 1;
                    }
                }
                None => {
                    self.entries.push(Entry {
                        label,
                        location,
                        refreshed,
                    });
                    repaired += 1;
                }
            }
        }
        repaired
    }

    /// Order-insensitive FNV-1a digest of the entries of one type. Two
    /// replicas store identical entry sets for the type iff their digests
    /// are equal (up to hash collisions) — the convergence oracle the
    /// anti-entropy tests and the soak harness probe.
    #[must_use]
    pub(crate) fn digest(&self, type_id: ContextTypeId) -> u64 {
        let mut entries = self.entries_of(type_id);
        entries.sort_by_key(|(l, _, _)| (l.type_id.0, l.creator.0, l.seq));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (label, p, refreshed) in entries {
            mix(u64::from(label.type_id.0));
            mix(u64::from(label.creator.0));
            mix(u64::from(label.seq));
            mix(p.x.to_bits());
            mix(p.y.to_bits());
            mix(refreshed.as_micros());
        }
        h
    }

    /// Number of stored entries (stale ones included until swept).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_world::field::NodeId;

    fn label(t: u16, n: u32, s: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(t),
            creator: NodeId(n),
            seq: s,
        }
    }

    #[test]
    fn hash_point_is_deterministic_and_in_bounds() {
        let bounds = Aabb::new(Point::ORIGIN, Point::new(11.0, 7.0));
        for name in ["tracker", "fire", "car", "intruder", ""] {
            let p = hash_point(name, bounds);
            assert!(bounds.contains(p), "{name}: {p} out of bounds");
            assert_eq!(p, hash_point(name, bounds));
        }
        assert_ne!(hash_point("tracker", bounds), hash_point("fire", bounds));
    }

    #[test]
    fn register_refresh_and_query() {
        let mut d = DirectoryStore::new();
        let a = label(0, 1, 0);
        let b = label(0, 2, 0);
        let other_type = label(1, 3, 0);
        d.register(a, Point::new(1.0, 1.0), Timestamp::from_secs(0));
        d.register(b, Point::new(2.0, 2.0), Timestamp::from_secs(5));
        d.register(other_type, Point::new(3.0, 3.0), Timestamp::from_secs(5));
        // Refresh a with a new location.
        d.register(a, Point::new(1.5, 1.0), Timestamp::from_secs(6));
        assert_eq!(d.len(), 3);

        let ttl = SimDuration::from_secs(10);
        let results = d.query(ContextTypeId(0), Timestamp::from_secs(7), ttl);
        assert_eq!(results.len(), 2);
        assert!(results.contains(&(a, Point::new(1.5, 1.0))));
        assert!(results.contains(&(b, Point::new(2.0, 2.0))));
        // Type filter.
        assert_eq!(
            d.query(ContextTypeId(1), Timestamp::from_secs(7), ttl)
                .len(),
            1
        );
    }

    #[test]
    fn replica_set_is_deterministic_and_distance_ordered() {
        let d = Deployment::grid(4, 4, 1.0);
        let home = Point::new(1.2, 1.1);
        let r = replica_set(&d, home, 3);
        assert_eq!(r.len(), 3);
        // Nearest grid node to (1.2, 1.1) is (1,1); its id is 1*4+1 = 5.
        assert_eq!(r[0], NodeId(5));
        // Every subsequent replica is at least as far as the previous.
        let dist =
            |id: NodeId| d.position(id).distance_sq_to(home);
        assert!(dist(r[0]) <= dist(r[1]) && dist(r[1]) <= dist(r[2]));
        assert_eq!(r, replica_set(&d, home, 3), "must be stable");
        // k = 0 still yields the primary.
        assert_eq!(replica_set(&d, home, 0), vec![NodeId(5)]);
    }

    #[test]
    fn sweep_drops_exactly_the_expired_entries() {
        let mut d = DirectoryStore::new();
        let ttl = SimDuration::from_secs(30);
        d.register(label(0, 1, 0), Point::ORIGIN, Timestamp::from_secs(0));
        d.register(label(0, 2, 0), Point::ORIGIN, Timestamp::from_secs(20));
        d.register(label(1, 3, 0), Point::ORIGIN, Timestamp::from_secs(40));
        // At t=45 nothing has outlived the 30 s TTL except the t=0 entry.
        d.sweep(Timestamp::from_secs(45), ttl);
        assert_eq!(d.len(), 2);
        assert!(d
            .query(ContextTypeId(0), Timestamp::from_secs(45), ttl)
            .contains(&(label(0, 2, 0), Point::ORIGIN)));
        // A refresh resets the clock: the refreshed entry survives a sweep
        // that kills its sibling.
        d.register(label(0, 2, 0), Point::ORIGIN, Timestamp::from_secs(60));
        d.sweep(Timestamp::from_secs(75), ttl);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d.query(ContextTypeId(0), Timestamp::from_secs(75), ttl),
            vec![(label(0, 2, 0), Point::ORIGIN)]
        );
        // The boundary is inclusive: exactly-TTL-old entries survive.
        d.sweep(Timestamp::from_secs(90), ttl);
        assert_eq!(d.len(), 1);
        d.sweep(Timestamp::from_secs(91), ttl);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn stale_entries_drop_out_of_queries_and_sweeps() {
        let mut d = DirectoryStore::new();
        d.register(label(0, 1, 0), Point::ORIGIN, Timestamp::from_secs(0));
        d.register(label(0, 2, 0), Point::ORIGIN, Timestamp::from_secs(20));
        let ttl = SimDuration::from_secs(10);
        let live = d.query(ContextTypeId(0), Timestamp::from_secs(25), ttl);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, label(0, 2, 0));
        d.sweep(Timestamp::from_secs(25), ttl);
        assert_eq!(d.len(), 1);
        d.sweep(Timestamp::from_secs(100), ttl);
        assert_eq!(d.len(), 0);
    }
}
