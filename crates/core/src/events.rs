//! The system event log: the middleware's observable protocol history.
//!
//! Group management emits a [`SystemEvent`] at every label lifecycle
//! transition. The experiment harness audits these — e.g. Fig. 4's
//! *successful handover* rate is computed from `LeaderHandover` versus
//! `LabelCreated` events during a crossing — and the integration tests
//! assert coherence invariants over them (one live label per physically
//! separate entity).

use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use crate::context::{ContextLabel, ContextTypeId};

/// Why a node became leader of a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverReason {
    /// The previous leader explicitly relinquished and designated this node.
    Relinquish,
    /// The receive timer expired without hearing the leader (takeover).
    ReceiveTimeout,
    /// A duplicate leader yielded to this one within the same label.
    DuplicateYield,
}

/// One protocol-level event.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemEvent {
    /// A node minted a fresh context label (became its first leader).
    LabelCreated {
        /// The new label.
        label: ContextLabel,
        /// The minting node.
        node: NodeId,
        /// Where it was minted.
        at: Point,
    },
    /// Leadership of a live label moved between nodes.
    LeaderHandover {
        /// The label.
        label: ContextLabel,
        /// The previous leader (as known to the new one).
        from: NodeId,
        /// The new leader.
        to: NodeId,
        /// Why leadership moved.
        reason: HandoverReason,
    },
    /// A spurious label deleted itself after hearing a heavier same-type
    /// leader.
    LabelSuppressed {
        /// The label that yielded.
        loser: ContextLabel,
        /// The label that won.
        winner: ContextLabel,
        /// The node that performed the suppression.
        node: NodeId,
    },
    /// A leader dissolved its group (stopped sensing with no successor).
    LabelDissolved {
        /// The label.
        label: ContextLabel,
        /// The final leader.
        node: NodeId,
    },
    /// An object method executed on a leader.
    MethodInvoked {
        /// The enclosing label.
        label: ContextLabel,
        /// The executing node.
        node: NodeId,
        /// `object.method` name.
        method: String,
    },
    /// An aggregate read failed its QoS (the paper's null flag).
    AggregateReadFailed {
        /// The enclosing label.
        label: ContextLabel,
        /// The variable name.
        variable: String,
        /// Fresh contributors available.
        have: u32,
        /// Critical mass required.
        need: u32,
    },
    /// An MTP segment was delivered to a destination object method.
    MtpDelivered {
        /// The destination label.
        label: ContextLabel,
        /// The executing node.
        node: NodeId,
        /// Forwarding-chain hops the segment traversed.
        chain_hops: u8,
    },
    /// An MTP segment was dropped (no route to the destination leader).
    MtpDropped {
        /// The destination label.
        label: ContextLabel,
        /// The node that gave up.
        node: NodeId,
    },
}

/// A timestamped, append-only event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    entries: Vec<(Timestamp, SystemEvent)>,
}

impl EventLog {
    /// The heap bytes of the log and the names its events carry.
    pub(crate) fn heap_bytes(&self) -> usize {
        let names = self.entries.iter().map(|(_, event)| match event {
            SystemEvent::MethodInvoked { method: name, .. }
            | SystemEvent::AggregateReadFailed { variable: name, .. } => name.capacity(),
            _ => 0,
        });
        self.entries.capacity() * size_of::<(Timestamp, SystemEvent)>() + names.sum::<usize>()
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, at: Timestamp, event: SystemEvent) {
        self.entries.push((at, event));
    }

    /// All entries in order.
    #[must_use]
    pub fn entries(&self) -> &[(Timestamp, SystemEvent)] {
        &self.entries
    }

    /// Number of events.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Labels of a type ever created, in creation order.
    #[must_use]
    pub fn labels_created(&self, type_id: ContextTypeId) -> Vec<ContextLabel> {
        self.entries
            .iter()
            .filter_map(|(_, e)| match e {
                SystemEvent::LabelCreated { label, .. } if label.type_id == type_id => Some(*label),
                _ => None,
            })
            .collect()
    }

    /// Labels of a type suppressed as spurious.
    #[must_use]
    pub fn suppressed(&self, type_id: ContextTypeId) -> Vec<ContextLabel> {
        self.entries
            .iter()
            .filter_map(|(_, e)| match e {
                SystemEvent::LabelSuppressed { loser, .. } if loser.type_id == type_id => {
                    Some(*loser)
                }
                _ => None,
            })
            .collect()
    }

    /// Counts events matching a predicate.
    #[must_use]
    pub fn count(&self, mut pred: impl FnMut(&SystemEvent) -> bool) -> usize {
        self.entries.iter().filter(|(_, e)| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(t: u16, n: u32, s: u32) -> ContextLabel {
        ContextLabel {
            type_id: ContextTypeId(t),
            creator: NodeId(n),
            seq: s,
        }
    }

    #[test]
    fn log_filters_by_type_and_label() {
        let mut log = EventLog::default();
        let a = label(0, 1, 0);
        let b = label(1, 2, 0);
        log.push(
            Timestamp::ZERO,
            SystemEvent::LabelCreated {
                label: a,
                node: NodeId(1),
                at: Point::ORIGIN,
            },
        );
        log.push(
            Timestamp::from_secs(1),
            SystemEvent::LabelCreated {
                label: b,
                node: NodeId(2),
                at: Point::ORIGIN,
            },
        );
        log.push(
            Timestamp::from_secs(2),
            SystemEvent::LeaderHandover {
                label: a,
                from: NodeId(1),
                to: NodeId(3),
                reason: HandoverReason::Relinquish,
            },
        );
        assert_eq!(log.labels_created(ContextTypeId(0)), vec![a]);
        assert_eq!(log.labels_created(ContextTypeId(1)), vec![b]);
        let handed_to_3 = |of: ContextLabel| {
            log.count(|e| {
                matches!(e, SystemEvent::LeaderHandover { label, to: NodeId(3), .. } if *label == of)
            })
        };
        assert_eq!((handed_to_3(a), handed_to_3(b)), (1, 0));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn suppressed_and_count_queries() {
        let mut log = EventLog::default();
        let winner = label(0, 1, 0);
        let loser = label(0, 2, 0);
        log.push(
            Timestamp::from_secs(3),
            SystemEvent::LabelSuppressed {
                loser,
                winner,
                node: NodeId(2),
            },
        );
        assert_eq!(log.suppressed(ContextTypeId(0)), vec![loser]);
        assert!(log.suppressed(ContextTypeId(1)).is_empty());
        assert_eq!(
            log.count(|e| matches!(e, SystemEvent::LabelSuppressed { .. })),
            1
        );
    }
}
