//! Approximate aggregate state (paper §3.1, §3.2.3).
//!
//! Group members report raw readings to the leader; the leader maintains a
//! [`ReadingWindow`] per aggregate variable and evaluates the aggregation
//! function over the readings that are *fresh* (within `Le`) and come from
//! at least `Ne` distinct members (*critical mass*). A read either yields a
//! value with those guarantees, or [`AggregateReadError`] — the paper's
//! "null flag".
//!
//! Guarantees on a successful read (paper §3.2.3):
//!
//! 1. every contributor was a group member (enforced upstream: only member
//!    reports reach the window);
//! 2. every contributing reading is younger than the freshness horizon;
//! 3. at least `Ne` distinct members contributed.
//!
//! ```
//! use envirotrack_core::aggregate::{AggregateFn, ReadingValue, ReadingWindow};
//! use envirotrack_sim::time::{SimDuration, Timestamp};
//! use envirotrack_world::field::NodeId;
//!
//! let mut window = ReadingWindow::new();
//! window.insert(NodeId(1), Timestamp::from_secs(10), ReadingValue::Scalar(1.0));
//! window.insert(NodeId(2), Timestamp::from_secs(10), ReadingValue::Scalar(3.0));
//! let value = window
//!     .evaluate(&AggregateFn::Average, Timestamp::from_secs(10), SimDuration::from_secs(1), 2)
//!     .expect("two fresh readings");
//! assert_eq!(value.as_scalar(), Some(2.0));
//! ```

use std::sync::Arc;

use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;
use envirotrack_world::target::Channel;

/// What each member contributes to an aggregate variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateInput {
    /// The member's reading on a sensor channel.
    Channel(Channel),
    /// The member's own position (for location estimation).
    Position,
}

/// One raw reading as reported by a member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadingValue {
    /// A scalar channel measurement.
    Scalar(f64),
    /// A position measurement.
    Position(Point),
}

impl ReadingValue {
    /// The scalar, if this is one.
    #[must_use]
    pub fn as_scalar(self) -> Option<f64> {
        match self {
            ReadingValue::Scalar(v) => Some(v),
            ReadingValue::Position(_) => None,
        }
    }

    /// The position, if this is one.
    #[must_use]
    pub(crate) fn as_position(self) -> Option<Point> {
        match self {
            ReadingValue::Position(p) => Some(p),
            ReadingValue::Scalar(_) => None,
        }
    }
}

/// The value of an aggregate variable after evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// A scalar result (average temperature, count, …).
    Scalar(f64),
    /// A positional result (centre of gravity).
    Point(Point),
}

impl AggValue {
    /// The scalar, if this is one.
    #[must_use]
    pub fn as_scalar(self) -> Option<f64> {
        match self {
            AggValue::Scalar(v) => Some(v),
            AggValue::Point(_) => None,
        }
    }
}

impl std::fmt::Display for AggValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggValue::Scalar(v) => write!(f, "{v:.4}"),
            AggValue::Point(p) => write!(f, "{p}"),
        }
    }
}

/// A contribution visible to custom aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// The reporting member.
    pub member: NodeId,
    /// When the reading was taken.
    pub taken_at: Timestamp,
    /// The reading itself.
    pub value: ReadingValue,
}

/// A user-supplied aggregation over fresh contributions.
pub type CustomAggregateFn = Arc<dyn Fn(&[Contribution]) -> AggValue + Send + Sync>;

/// The library of aggregation functions (paper: "several aggregation
/// functions are provided, as well as mechanisms for programming custom
/// aggregation functions").
#[derive(Clone)]
pub enum AggregateFn {
    /// Arithmetic mean of scalar readings.
    Average,
    /// Sum of scalar readings.
    Sum,
    /// Minimum scalar reading.
    Min,
    /// Maximum scalar reading.
    Max,
    /// Number of fresh contributors (input values ignored).
    Count,
    /// Mean of position readings — the paper's `avg(position)`.
    CenterOfGravity,
    /// A user-supplied function over the fresh contributions.
    Custom {
        /// Diagnostic name.
        name: String,
        /// The function; receives only fresh contributions from distinct
        /// members, already satisfying critical mass.
        f: CustomAggregateFn,
    },
}

impl std::fmt::Debug for AggregateFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggregateFn::Average => "Average",
            AggregateFn::Sum => "Sum",
            AggregateFn::Min => "Min",
            AggregateFn::Max => "Max",
            AggregateFn::Count => "Count",
            AggregateFn::CenterOfGravity => "CenterOfGravity",
            AggregateFn::Custom { name, .. } => return write!(f, "Custom({name})"),
        })
    }
}

impl AggregateFn {
    /// Applies the function to a stream of contributions without
    /// materializing them: the built-in functions fold the iterator
    /// directly, so a leader aggregate read allocates nothing. Only
    /// [`AggregateFn::Custom`] collects (its signature takes a slice).
    ///
    /// The caller guarantees the stream is non-empty (the window checks
    /// critical mass ≥ 1 first).
    #[must_use]
    pub(crate) fn apply_iter<'a>(
        &self,
        contributions: impl Iterator<Item = &'a Contribution> + Clone,
    ) -> AggValue {
        let scalars = || contributions.clone().filter_map(|c| c.value.as_scalar());
        match self {
            AggregateFn::Average => {
                let (sum, n) = scalars().fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
                AggValue::Scalar(if n == 0 { 0.0 } else { sum / f64::from(n) })
            }
            AggregateFn::Sum => AggValue::Scalar(scalars().sum()),
            AggregateFn::Min => AggValue::Scalar(scalars().fold(f64::INFINITY, f64::min)),
            AggregateFn::Max => AggValue::Scalar(scalars().fold(f64::NEG_INFINITY, f64::max)),
            #[allow(clippy::cast_precision_loss)]
            AggregateFn::Count => AggValue::Scalar(contributions.count() as f64),
            AggregateFn::CenterOfGravity => {
                let pts = contributions.filter_map(|c| c.value.as_position());
                match Point::centroid(pts) {
                    Some(p) => AggValue::Point(p),
                    None => AggValue::Point(Point::ORIGIN),
                }
            }
            AggregateFn::Custom { f, .. } => {
                let collected: Vec<Contribution> = contributions.copied().collect();
                f(&collected)
            }
        }
    }
}

/// Error returned when an aggregate read cannot meet its QoS — the paper's
/// null flag ("the siting of the phenomenon is not positively confirmed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateReadError {
    /// Fresh distinct contributors available.
    pub have: u32,
    /// Critical mass required.
    pub need: u32,
}

impl std::fmt::Display for AggregateReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "critical mass not met: {} fresh contributors of {} required",
            self.have, self.need
        )
    }
}

impl std::error::Error for AggregateReadError {}

/// The leader-side sliding window of member readings for one aggregate
/// variable. Keeps only the latest reading per member; staleness is decided
/// at evaluation time against the freshness horizon.
#[derive(Debug, Clone, Default)]
pub struct ReadingWindow {
    // Small groups (tens of members): a Vec beats a map.
    readings: Vec<Contribution>,
}

impl ReadingWindow {
    /// The heap bytes of its contributions.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.readings.capacity() * size_of::<Contribution>()
    }

    /// Creates an empty window.
    #[must_use]
    pub fn new() -> Self {
        ReadingWindow::default()
    }

    /// Inserts (or refreshes) a member's reading. An older out-of-order
    /// report never overwrites a newer one.
    pub fn insert(&mut self, member: NodeId, taken_at: Timestamp, value: ReadingValue) {
        match self.readings.iter_mut().find(|c| c.member == member) {
            Some(existing) => {
                if taken_at >= existing.taken_at {
                    existing.taken_at = taken_at;
                    existing.value = value;
                }
            }
            None => self.readings.push(Contribution {
                member,
                taken_at,
                value,
            }),
        }
    }

    /// The fresh contributions at `now` under `freshness`.
    ///
    /// Freshness is a *two-sided* bound: a reading stamped more than
    /// `freshness` in the future (a skewed reporter clock) is just as
    /// untrustworthy as a stale one. Without the forward bound,
    /// `saturating_since` clamps a future timestamp to age zero and the
    /// reading stays "fresh" forever.
    #[must_use]
    pub fn fresh(&self, now: Timestamp, freshness: SimDuration) -> Vec<Contribution> {
        self.fresh_iter(now, freshness).copied().collect()
    }

    /// Iterates the fresh contributions at `now` without allocating — the
    /// hot-path form of [`ReadingWindow::fresh`], used by every leader
    /// aggregate read.
    pub(crate) fn fresh_iter(
        &self,
        now: Timestamp,
        freshness: SimDuration,
    ) -> impl Iterator<Item = &Contribution> + Clone {
        self.readings.iter().filter(move |c| {
            now.saturating_since(c.taken_at) <= freshness
                && c.taken_at.saturating_since(now) <= freshness
        })
    }

    /// Number of fresh contributions at `now` (no allocation).
    #[must_use]
    pub(crate) fn fresh_count(&self, now: Timestamp, freshness: SimDuration) -> usize {
        self.fresh_iter(now, freshness).count()
    }

    /// The freshest member other than `exclude` (ties broken toward the
    /// smaller node id) — the relinquish-successor query, answered in one
    /// allocation-free pass instead of sorting the whole window.
    #[must_use]
    pub(crate) fn successor_after(&self, exclude: NodeId) -> Option<NodeId> {
        let mut best: Option<(Timestamp, NodeId)> = None;
        for c in &self.readings {
            if c.member == exclude {
                continue;
            }
            let better = match best {
                None => true,
                Some((t, id)) => c.taken_at > t || (c.taken_at == t && c.member < id),
            };
            if better {
                best = Some((c.taken_at, c.member));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Evaluates `function` under the QoS constraints.
    ///
    /// # Errors
    ///
    /// Returns [`AggregateReadError`] when fewer than `critical_mass`
    /// distinct members have readings younger than `freshness`.
    pub fn evaluate(
        &self,
        function: &AggregateFn,
        now: Timestamp,
        freshness: SimDuration,
        critical_mass: u32,
    ) -> Result<AggValue, AggregateReadError> {
        let have = self.fresh_count(now, freshness) as u32;
        if have < critical_mass.max(1) {
            return Err(AggregateReadError {
                have,
                need: critical_mass.max(1),
            });
        }
        Ok(function.apply_iter(self.fresh_iter(now, freshness)))
    }

    /// Drops readings more than `horizon` away from `now` — older *or*
    /// future-stamped — bounding memory on long-lived leaders.
    pub(crate) fn prune(&mut self, now: Timestamp, horizon: SimDuration) {
        self.readings.retain(|c| {
            now.saturating_since(c.taken_at) <= horizon
                && c.taken_at.saturating_since(now) <= horizon
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prelude::*;

    fn scalar_window(entries: &[(u32, u64, f64)]) -> ReadingWindow {
        let mut w = ReadingWindow::new();
        for &(node, secs, v) in entries {
            w.insert(
                NodeId(node),
                Timestamp::from_secs(secs),
                ReadingValue::Scalar(v),
            );
        }
        w
    }

    #[test]
    fn average_of_fresh_readings() {
        let w = scalar_window(&[(1, 10, 2.0), (2, 10, 4.0), (3, 10, 6.0)]);
        let v = w
            .evaluate(
                &AggregateFn::Average,
                Timestamp::from_secs(10),
                SimDuration::from_secs(1),
                3,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(4.0));
    }

    #[test]
    fn stale_readings_do_not_count_toward_critical_mass() {
        let w = scalar_window(&[(1, 5, 2.0), (2, 10, 4.0)]);
        let err = w
            .evaluate(
                &AggregateFn::Average,
                Timestamp::from_secs(10),
                SimDuration::from_secs(1),
                2,
            )
            .unwrap_err();
        assert_eq!(err, AggregateReadError { have: 1, need: 2 });
        // With a looser horizon both count.
        let v = w
            .evaluate(
                &AggregateFn::Average,
                Timestamp::from_secs(10),
                SimDuration::from_secs(10),
                2,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(3.0));
    }

    #[test]
    fn duplicate_member_counts_once() {
        let mut w = ReadingWindow::new();
        w.insert(
            NodeId(1),
            Timestamp::from_secs(9),
            ReadingValue::Scalar(1.0),
        );
        w.insert(
            NodeId(1),
            Timestamp::from_secs(10),
            ReadingValue::Scalar(5.0),
        );
        assert_eq!(w.readings.len(), 1);
        let err = w
            .evaluate(
                &AggregateFn::Average,
                Timestamp::from_secs(10),
                SimDuration::from_secs(5),
                2,
            )
            .unwrap_err();
        assert_eq!(err.have, 1);
        // The newest value wins.
        let v = w
            .evaluate(
                &AggregateFn::Average,
                Timestamp::from_secs(10),
                SimDuration::from_secs(5),
                1,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(5.0));
    }

    #[test]
    fn out_of_order_report_does_not_regress() {
        let mut w = ReadingWindow::new();
        w.insert(
            NodeId(1),
            Timestamp::from_secs(10),
            ReadingValue::Scalar(5.0),
        );
        w.insert(
            NodeId(1),
            Timestamp::from_secs(8),
            ReadingValue::Scalar(1.0),
        );
        let v = w
            .evaluate(
                &AggregateFn::Max,
                Timestamp::from_secs(10),
                SimDuration::from_secs(5),
                1,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(5.0));
    }

    #[test]
    fn min_max_sum_count_work() {
        let w = scalar_window(&[(1, 10, 2.0), (2, 10, 8.0), (3, 10, 5.0)]);
        let at = Timestamp::from_secs(10);
        let fr = SimDuration::from_secs(1);
        assert_eq!(
            w.evaluate(&AggregateFn::Min, at, fr, 1).unwrap(),
            AggValue::Scalar(2.0)
        );
        assert_eq!(
            w.evaluate(&AggregateFn::Max, at, fr, 1).unwrap(),
            AggValue::Scalar(8.0)
        );
        assert_eq!(
            w.evaluate(&AggregateFn::Sum, at, fr, 1).unwrap(),
            AggValue::Scalar(15.0)
        );
        assert_eq!(
            w.evaluate(&AggregateFn::Count, at, fr, 1).unwrap(),
            AggValue::Scalar(3.0)
        );
    }

    #[test]
    fn center_of_gravity_averages_positions() {
        let mut w = ReadingWindow::new();
        w.insert(
            NodeId(1),
            Timestamp::from_secs(1),
            ReadingValue::Position(Point::new(0.0, 0.0)),
        );
        w.insert(
            NodeId(2),
            Timestamp::from_secs(1),
            ReadingValue::Position(Point::new(2.0, 2.0)),
        );
        let v = w
            .evaluate(
                &AggregateFn::CenterOfGravity,
                Timestamp::from_secs(1),
                SimDuration::from_secs(1),
                2,
            )
            .unwrap();
        assert_eq!(v, AggValue::Point(Point::new(1.0, 1.0)));
    }

    #[test]
    fn custom_function_sees_fresh_contributions_only() {
        let spread = AggregateFn::Custom {
            name: "spread".into(),
            f: Arc::new(|cs| {
                let vals: Vec<f64> = cs.iter().filter_map(|c| c.value.as_scalar()).collect();
                let max = vals.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                let min = vals.iter().fold(f64::INFINITY, |a, &b| a.min(b));
                AggValue::Scalar(max - min)
            }),
        };
        let w = scalar_window(&[(1, 10, 2.0), (2, 10, 9.0), (3, 1, 100.0)]);
        let v = w
            .evaluate(
                &spread,
                Timestamp::from_secs(10),
                SimDuration::from_secs(2),
                2,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(7.0), "the stale 100.0 must be excluded");
    }

    #[test]
    fn successor_after_matches_the_sorted_scan() {
        // The one-pass successor query must agree with "sort by recency,
        // take the first member that isn't the leader".
        let windows = [
            scalar_window(&[(5, 3, 0.0), (1, 7, 0.0), (9, 7, 0.0)]),
            scalar_window(&[(2, 4, 0.0)]),
            scalar_window(&[(3, 1, 0.0), (4, 1, 0.0), (2, 1, 0.0)]),
            ReadingWindow::new(),
        ];
        for w in &windows {
            // Freshest first, node id breaking ties.
            let mut by_recency: Vec<&Contribution> = w.readings.iter().collect();
            by_recency.sort_by(|a, b| {
                b.taken_at
                    .cmp(&a.taken_at)
                    .then_with(|| a.member.cmp(&b.member))
            });
            for leader in 0..10u32 {
                let expect = by_recency
                    .iter()
                    .map(|c| c.member)
                    .find(|n| *n != NodeId(leader));
                assert_eq!(w.successor_after(NodeId(leader)), expect, "leader {leader}");
            }
        }
    }

    #[test]
    fn fresh_iter_agrees_with_fresh() {
        let w = scalar_window(&[(1, 5, 2.0), (2, 10, 4.0), (3, 11, 8.0)]);
        let now = Timestamp::from_secs(10);
        let horizon = SimDuration::from_secs(1);
        let collected: Vec<Contribution> = w.fresh_iter(now, horizon).copied().collect();
        assert_eq!(collected, w.fresh(now, horizon));
        assert_eq!(w.fresh_count(now, horizon), 2);
    }

    #[test]
    fn prune_bounds_memory() {
        let mut w = scalar_window(&[(1, 1, 0.0), (2, 50, 0.0)]);
        w.prune(Timestamp::from_secs(51), SimDuration::from_secs(5));
        assert_eq!(w.readings.len(), 1);
    }

    #[test]
    fn future_stamped_reading_is_not_fresh() {
        // Regression: a reporter with a skewed clock stamps its reading in
        // the future. Before the two-sided bound, `saturating_since`
        // clamped its age to zero, so it stayed fresh forever and kept
        // satisfying critical mass on its own.
        let mut w = ReadingWindow::new();
        w.insert(
            NodeId(1),
            Timestamp::from_secs(100),
            ReadingValue::Scalar(9.0),
        );
        let err = w
            .evaluate(
                &AggregateFn::Count,
                Timestamp::from_secs(10),
                SimDuration::from_secs(1),
                1,
            )
            .unwrap_err();
        assert_eq!(err, AggregateReadError { have: 0, need: 1 });
        // Slight skew within the freshness horizon is still accepted.
        let v = w
            .evaluate(
                &AggregateFn::Count,
                Timestamp::from_secs(99),
                SimDuration::from_secs(1),
                1,
            )
            .unwrap();
        assert_eq!(v, AggValue::Scalar(1.0));
        // Prune also drops far-future readings instead of keeping them
        // forever.
        w.prune(Timestamp::from_secs(10), SimDuration::from_secs(5));
        assert!(w.readings.is_empty());
    }

    prop_test! {
        /// Whatever interleaving of re-reports arrives, the window keeps at
        /// most one reading per member (distinct-contributor counting) and
        /// that reading is the newest one inserted (latest-value-wins; on a
        /// timestamp tie the later arrival wins).
        #[test]
        fn duplicate_reporters_never_double_count(seed: u64) {
            use envirotrack_sim::rng::SimRng;
            const MEMBERS: u64 = 5;
            let mut rng = SimRng::seed_from(seed);
            let mut w = ReadingWindow::new();
            // expected[m] = (taken_at, value) the window must end up with.
            let mut expected: Vec<Option<(u64, f64)>> = vec![None; MEMBERS as usize];
            let inserts = 1 + rng.below(40);
            for i in 0..inserts {
                let m = rng.below(MEMBERS);
                let secs = rng.below(100);
                #[allow(clippy::cast_precision_loss)]
                let value = i as f64;
                w.insert(
                    NodeId(u32::try_from(m).unwrap()),
                    Timestamp::from_secs(secs),
                    ReadingValue::Scalar(value),
                );
                let slot = &mut expected[usize::try_from(m).unwrap()];
                match slot {
                    Some((t, _)) if secs < *t => {}
                    _ => *slot = Some((secs, value)),
                }
            }
            let distinct = expected.iter().filter(|e| e.is_some()).count();
            prop_assert!(
                w.readings.len() == distinct,
                "window holds {} entries for {} distinct members",
                w.readings.len(),
                distinct
            );
            // Critical mass counts distinct members, never report volume.
            let at = Timestamp::from_secs(100);
            let horizon = SimDuration::from_secs(100);
            let counted = w
                .evaluate(&AggregateFn::Count, at, horizon, 1)
                .map(|v| v.as_scalar().unwrap_or(-1.0))
                .unwrap_or(0.0);
            #[allow(clippy::cast_precision_loss)]
            let want = distinct as f64;
            prop_assert!(
                (counted - want).abs() < f64::EPSILON,
                "Count saw {counted}, want {want}"
            );
            prop_assert!(
                w.evaluate(&AggregateFn::Count, at, horizon, u32::try_from(distinct).unwrap() + 1).is_err(),
                "critical mass above distinct members must fail"
            );
            // Latest-value-wins per member.
            for c in w.fresh(at, horizon) {
                let (t, v) = expected[usize::try_from(c.member.0).unwrap()]
                    .expect("member reported");
                prop_assert!(
                    c.taken_at == Timestamp::from_secs(t)
                        && (c.value.as_scalar().unwrap() - v).abs() < f64::EPSILON,
                    "member {} kept ({:?}, {:?}), want ({t}s, {v})",
                    c.member.0,
                    c.taken_at,
                    c.value
                );
            }
        }
    }

    #[test]
    fn zero_critical_mass_is_treated_as_one() {
        let w = ReadingWindow::new();
        let err = w
            .evaluate(
                &AggregateFn::Count,
                Timestamp::ZERO,
                SimDuration::from_secs(1),
                0,
            )
            .unwrap_err();
        assert_eq!(err.need, 1);
    }
}
