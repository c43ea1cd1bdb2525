//! Tracking objects: user code attached to context labels.
//!
//! Object methods run on the group leader of the enclosing context (paper
//! §3.2.2), triggered by timers or by MTP message arrival. A method body is
//! a closure over an [`ObjectApi`], which exposes the enclosing context —
//! aggregate state variables with their QoS semantics, the label handle
//! (`self:label`), persistent state, the directory cache — and collects the
//! method's *effects* (sends, state updates) for the middleware to apply.
//!
//! Keeping bodies effect-collecting rather than directly side-effecting
//! makes object code deterministic and unit-testable without a network.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

use crate::aggregate::{AggValue, AggregateReadError};
use crate::context::{ContextLabel, ContextTypeId};
use crate::transport::Port;

/// A method body: runs on the current group leader with access to the
/// enclosing context.
pub type MethodBody = Arc<dyn Fn(&mut ObjectApi<'_>) + Send + Sync>;

/// Read-side access the leader grants to object code.
pub trait ContextAccess {
    /// Reads an aggregate state variable under its declared QoS.
    ///
    /// # Errors
    ///
    /// Returns the paper's null flag as [`AggregateReadError`] when the
    /// critical mass of fresh readings is not met.
    fn read_aggregate(&self, name: &str) -> Result<AggValue, ObjectReadError>;

    /// The cached directory view of live labels of a type this context
    /// subscribed to (empty if not subscribed or not yet resolved).
    fn labels_of_type(&self, type_id: ContextTypeId) -> Vec<(ContextLabel, Point)>;

    /// The persistent state blob, if any (survives leader handovers when
    /// state replication is enabled).
    fn persistent_state(&self) -> Option<&Bytes>;
}

/// Error returned by [`ObjectApi::read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectReadError {
    /// No aggregate variable with that name is declared in this context.
    UnknownVariable {
        /// The requested name.
        name: String,
    },
    /// QoS not met: the paper's null flag.
    NotConfirmed(AggregateReadError),
}

impl fmt::Display for ObjectReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectReadError::UnknownVariable { name } => {
                write!(f, "unknown aggregate variable {name:?}")
            }
            ObjectReadError::NotConfirmed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ObjectReadError {}

/// An MTP message being delivered to an `OnMessage` method.
#[derive(Debug, Clone, PartialEq)]
pub struct IncomingMessage {
    /// The sending context label.
    pub src_label: ContextLabel,
    /// The sending port.
    pub src_port: Port,
    /// The application payload.
    pub payload: Bytes,
}

/// An effect requested by a method body, applied by the middleware after
/// the body returns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ObjectEffect {
    /// Send a payload to the base station (the paper's `MySend(pursuer,…)`).
    SendToBase {
        /// The application payload.
        payload: Bytes,
    },
    /// Send an MTP message to a remote object.
    MtpSend {
        /// Destination context label.
        dst_label: ContextLabel,
        /// Destination port.
        dst_port: Port,
        /// The application payload.
        payload: Bytes,
    },
    /// Replace the persistent state blob (the paper's `setState`).
    SetState(Bytes),
    /// Append a line to the application log (debug/example output).
    Log(String),
}

/// The execution context handed to a method body. See the
/// [module docs](self).
pub struct ObjectApi<'a> {
    label: ContextLabel,
    node: NodeId,
    position: Point,
    now: Timestamp,
    access: &'a dyn ContextAccess,
    incoming: Option<IncomingMessage>,
    effects: Vec<ObjectEffect>,
}

impl<'a> ObjectApi<'a> {
    /// Assembles an execution context (called by the middleware; available
    /// publicly so object bodies can be unit-tested against a mock
    /// [`ContextAccess`]).
    #[must_use]
    pub fn new(
        label: ContextLabel,
        node: NodeId,
        position: Point,
        now: Timestamp,
        access: &'a dyn ContextAccess,
        incoming: Option<IncomingMessage>,
    ) -> Self {
        ObjectApi {
            label,
            node,
            position,
            now,
            access,
            incoming,
            effects: Vec::new(),
        }
    }

    /// The enclosing context label — the paper's `self:label`.
    #[must_use]
    pub fn label(&self) -> ContextLabel {
        self.label
    }

    /// The node currently executing this object (the group leader).
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The executing node's position (the locale of the tracked entity).
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Reads an aggregate state variable under its declared freshness and
    /// critical-mass QoS.
    ///
    /// # Errors
    ///
    /// [`ObjectReadError::NotConfirmed`] is the paper's null flag: too few
    /// fresh sensors confirm the phenomenon. Handle it in any
    /// application-specific way, including ignoring the invocation.
    pub fn read(&self, name: &str) -> Result<AggValue, ObjectReadError> {
        self.access.read_aggregate(name)
    }

    /// The message that triggered this invocation, for `OnMessage` methods.
    #[must_use]
    pub fn incoming(&self) -> Option<&IncomingMessage> {
        self.incoming.as_ref()
    }

    /// The cached set of live labels of a subscribed type, with their last
    /// known locations ("where are all the fires?").
    #[must_use]
    pub fn labels_of_type(&self, type_id: ContextTypeId) -> Vec<(ContextLabel, Point)> {
        self.access.labels_of_type(type_id)
    }

    /// The persistent state blob carried across leader handovers.
    #[must_use]
    pub fn state(&self) -> Option<&Bytes> {
        self.access.persistent_state()
    }

    /// Sends a payload to the base station / pursuer.
    pub fn send_to_base(&mut self, payload: impl Into<Bytes>) {
        self.effects.push(ObjectEffect::SendToBase {
            payload: payload.into(),
        });
    }

    /// Sends an MTP message to a method (port) of a remote object.
    pub fn send(&mut self, dst_label: ContextLabel, dst_port: Port, payload: impl Into<Bytes>) {
        self.effects.push(ObjectEffect::MtpSend {
            dst_label,
            dst_port,
            payload: payload.into(),
        });
    }

    /// Replaces the persistent state blob (the paper's `setState`).
    pub fn set_state(&mut self, state: impl Into<Bytes>) {
        self.effects.push(ObjectEffect::SetState(state.into()));
    }

    /// Appends a line to the application log.
    pub fn log(&mut self, line: impl Into<String>) {
        self.effects.push(ObjectEffect::Log(line.into()));
    }

    /// Consumes the context, yielding the collected effects.
    #[must_use]
    pub(crate) fn into_effects(self) -> Vec<ObjectEffect> {
        self.effects
    }
}

impl fmt::Debug for ObjectApi<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectApi")
            .field("label", &self.label)
            .field("node", &self.node)
            .field("now", &self.now)
            .field("effects", &self.effects.len())
            .finish()
    }
}

/// Tiny helpers for encoding typical payloads (positions, label handles) to
/// send to the base station, matching the paper's
/// `MySend(pursuer, self:label, location)` idiom.
pub mod payload {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use envirotrack_world::geometry::Point;

    /// Encodes a position payload.
    #[must_use]
    pub fn position(p: Point) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        b.put_f64(p.x);
        b.put_f64(p.y);
        b.freeze()
    }

    /// Decodes a position payload.
    #[must_use]
    pub(crate) fn decode_position(bytes: &[u8]) -> Option<Point> {
        if bytes.len() != 16 {
            return None;
        }
        let mut buf = bytes;
        let x = buf.get_f64();
        let y = buf.get_f64();
        Some(Point::new(x, y))
    }

    /// Encodes a scalar payload.
    #[must_use]
    pub fn scalar(v: f64) -> Bytes {
        let mut b = BytesMut::with_capacity(8);
        b.put_f64(v);
        b.freeze()
    }

    /// Decodes a scalar payload.
    #[must_use]
    pub fn decode_scalar(bytes: &[u8]) -> Option<f64> {
        if bytes.len() != 8 {
            return None;
        }
        let mut buf = bytes;
        Some(buf.get_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggValue;

    struct MockAccess {
        value: Option<AggValue>,
        state: Option<Bytes>,
    }

    impl ContextAccess for MockAccess {
        fn read_aggregate(&self, name: &str) -> Result<AggValue, ObjectReadError> {
            match name {
                "location" => self
                    .value
                    .ok_or(ObjectReadError::NotConfirmed(AggregateReadError {
                        have: 1,
                        need: 2,
                    })),
                other => Err(ObjectReadError::UnknownVariable {
                    name: other.to_owned(),
                }),
            }
        }
        fn labels_of_type(&self, _type_id: ContextTypeId) -> Vec<(ContextLabel, Point)> {
            vec![]
        }
        fn persistent_state(&self) -> Option<&Bytes> {
            self.state.as_ref()
        }
    }

    fn api(access: &MockAccess) -> ObjectApi<'_> {
        ObjectApi::new(
            ContextLabel {
                type_id: ContextTypeId(0),
                creator: NodeId(1),
                seq: 0,
            },
            NodeId(1),
            Point::new(2.0, 0.5),
            Timestamp::from_secs(5),
            access,
            None,
        )
    }

    #[test]
    fn the_papers_reporter_method_works_against_a_mock() {
        // report_function() { MySend(pursuer, self:label, location); }
        let access = MockAccess {
            value: Some(AggValue::Point(Point::new(3.0, 0.5))),
            state: None,
        };
        let mut ctx = api(&access);
        if let Ok(AggValue::Point(p)) = ctx.read("location") {
            ctx.send_to_base(payload::position(p));
        }
        let effects = ctx.into_effects();
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            ObjectEffect::SendToBase { payload: bytes } => {
                assert_eq!(payload::decode_position(bytes), Some(Point::new(3.0, 0.5)));
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn unconfirmed_reads_surface_the_null_flag() {
        let access = MockAccess {
            value: None,
            state: None,
        };
        let ctx = api(&access);
        match ctx.read("location") {
            Err(ObjectReadError::NotConfirmed(e)) => {
                assert_eq!(e.have, 1);
                assert_eq!(e.need, 2);
            }
            other => panic!("expected null flag, got {other:?}"),
        }
        assert!(matches!(
            ctx.read("velocity"),
            Err(ObjectReadError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn effects_accumulate_in_order() {
        let access = MockAccess {
            value: None,
            state: Some(Bytes::from_static(b"old")),
        };
        let mut ctx = api(&access);
        assert_eq!(ctx.state().unwrap().as_ref(), b"old");
        ctx.set_state(Bytes::from_static(b"new"));
        ctx.log("hello");
        ctx.send(
            ContextLabel {
                type_id: ContextTypeId(1),
                creator: NodeId(2),
                seq: 0,
            },
            Port(3),
            Bytes::from_static(b"msg"),
        );
        let effects = ctx.into_effects();
        assert_eq!(effects.len(), 3);
        assert!(matches!(effects[0], ObjectEffect::SetState(_)));
        assert!(matches!(effects[1], ObjectEffect::Log(_)));
        assert!(matches!(effects[2], ObjectEffect::MtpSend { .. }));
    }

    #[test]
    fn payload_helpers_round_trip() {
        let p = Point::new(-3.25, 8.5);
        assert_eq!(payload::decode_position(&payload::position(p)), Some(p));
        assert_eq!(payload::decode_scalar(&payload::scalar(42.5)), Some(42.5));
        assert_eq!(payload::decode_position(&[1, 2, 3]), None);
        assert_eq!(payload::decode_scalar(&[]), None);
    }
}
