//! Context types, context labels, and their declarations.
//!
//! A **context type** is a class of trackable entity ("tracker", "fire"),
//! declared once per program with its activation predicate, aggregate state
//! variables, and attached objects. A **context label** is one live instance
//! — the paper's `Car02`/`Fire01` — minted by the first node to sense an
//! entity that no existing group covers, and persisting while membership
//! churns underneath it.
//!
//! Labels must be unique without coordination, so they are minted locally
//! as `(type, creator-node, per-node sequence)`.

use std::fmt;
use std::sync::Arc;

use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Telemetry;
use envirotrack_world::field::NodeId;
use envirotrack_world::sensing::SensorSample;
use envirotrack_world::target::Channel;

use envirotrack_world::geometry::Point;

use crate::aggregate::{AggregateFn, AggregateInput};

/// Index of a context type within a [`crate::api::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextTypeId(pub u16);

impl fmt::Display for ContextTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type{}", self.0)
    }
}

/// A globally unique identifier for one live tracked entity.
///
/// Minted without coordination: the creating node's id plus a local
/// sequence number make collisions impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextLabel {
    /// The context type this label instantiates.
    pub type_id: ContextTypeId,
    /// The node that minted the label.
    pub creator: NodeId,
    /// The creator's per-type sequence number at minting time.
    pub seq: u32,
}

impl fmt::Display for ContextLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.type_id, self.creator, self.seq)
    }
}

impl ContextLabel {
    /// Packs the label into a unique integer intern key: labels already
    /// compare as plain integers, and this lets their *display strings*
    /// be cached the same way (see [`LabelIntern`]).
    #[must_use]
    pub(crate) fn intern_key(self) -> u128 {
        (u128::from(self.type_id.0) << 64) | (u128::from(self.creator.0) << 32) | u128::from(self.seq)
    }
}

/// Shared cache of label and type-name display strings for hot wire and
/// telemetry paths.
///
/// Emitting a heartbeat trace or a handover counter used to call
/// `label.to_string()` — format machinery plus an allocation — per event.
/// This table formats each [`ContextLabel`] (and [`ContextTypeId`]) once
/// and hands out the shared `Rc<str>` thereafter, keyed by the packed
/// integer form so lookups never hash or compare strings. Clones share
/// the underlying pool, mirroring the `Telemetry` handle it feeds.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelIntern {
    pool: envirotrack_telemetry::Interner,
}

/// Tag bit separating type-id keys from label keys in the shared pool
/// (label keys use at most 80 bits).
const TYPE_KEY_TAG: u128 = 1 << 127;

impl LabelIntern {
    /// A fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared display form of `label` (e.g. `type0@n3#1`).
    #[must_use]
    pub fn label(&self, label: ContextLabel) -> std::rc::Rc<str> {
        self.pool
            .get_or_insert_with(label.intern_key(), || label.to_string())
    }

    /// The shared display form of `type_id` (e.g. `type0`).
    #[must_use]
    pub(crate) fn type_name(&self, type_id: ContextTypeId) -> std::rc::Rc<str> {
        self.pool
            .get_or_insert_with(TYPE_KEY_TAG | u128::from(type_id.0), || type_id.to_string())
    }
}

/// Records a trace event about `label` on `telemetry`, under the label's
/// cached display form.
pub(crate) fn trace_label(
    telemetry: &Telemetry,
    labels: &LabelIntern,
    at: Timestamp,
    node: NodeId,
    label: ContextLabel,
    kind: &'static str,
    detail: String,
) {
    telemetry.trace_shared(at.as_micros(), node.0, &labels.label(label), kind, detail);
}

/// A boolean sensing predicate over the local sensor sample — the paper's
/// `sense_e()` function.
///
/// Cloneable and cheap to share: one program is shared by every node.
#[derive(Clone)]
pub struct SensePredicate {
    name: String,
    f: Arc<dyn Fn(&SensorSample) -> bool + Send + Sync>,
}

impl SensePredicate {
    /// Wraps an arbitrary predicate with a diagnostic name.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&SensorSample) -> bool + Send + Sync + 'static,
    ) -> Self {
        SensePredicate {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// A library predicate: `channel > threshold`. Covers the paper's
    /// `magnetic_sensor_reading()` style conditions.
    #[must_use]
    pub fn threshold(channel: Channel, threshold: f64) -> Self {
        SensePredicate::new(format!("{channel} > {threshold}"), move |s| {
            s.get(channel) > threshold
        })
    }

    /// A library predicate: conjunction of two predicates, e.g. the paper's
    /// `sense_fire() = (temperature > 180) and (light)`.
    #[must_use]
    pub fn and(self, other: SensePredicate) -> Self {
        let name = format!("({}) and ({})", self.name, other.name);
        let a = self.f;
        let b = other.f;
        SensePredicate {
            name,
            f: Arc::new(move |s| a(s) && b(s)),
        }
    }

    /// A library predicate: disjunction.
    #[must_use]
    pub fn or(self, other: SensePredicate) -> Self {
        let name = format!("({}) or ({})", self.name, other.name);
        let a = self.f;
        let b = other.f;
        SensePredicate {
            name,
            f: Arc::new(move |s| a(s) || b(s)),
        }
    }

    /// Evaluates the predicate on a sample.
    #[must_use]
    pub fn eval(&self, sample: &SensorSample) -> bool {
        (self.f)(sample)
    }

    /// The diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for SensePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SensePredicate").field(&self.name).finish()
    }
}

/// Declaration of one aggregate state variable (paper §3.2.3): an
/// aggregation function over member readings with freshness and critical
/// mass QoS attributes.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Variable name, unique within the context type.
    pub name: String,
    /// The aggregation function.
    pub function: AggregateFn,
    /// What each member contributes.
    pub input: AggregateInput,
    /// Freshness horizon `Le`: readings older than this are stale.
    pub freshness: SimDuration,
    /// Critical mass `Ne`: minimum distinct contributors for validity.
    pub critical_mass: u32,
}

/// When an attached method runs.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// Time-triggered with the given period (the paper's `TIMER(5s)`).
    Timer(SimDuration),
    /// Message-triggered: runs when an MTP message arrives on this port.
    OnMessage(crate::transport::Port),
}

/// Declaration of one method of a tracking object.
pub struct MethodSpec {
    /// Method name, unique within the object.
    pub name: String,
    /// What triggers the method.
    pub invocation: Invocation,
    /// The method body, run on the group leader.
    pub body: crate::object::MethodBody,
}

impl fmt::Debug for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodSpec")
            .field("name", &self.name)
            .field("invocation", &self.invocation)
            .finish()
    }
}

/// Declaration of one tracking object attached to a context type.
#[derive(Debug)]
pub struct ObjectSpec {
    /// Object name, unique within the context type.
    pub name: String,
    /// The object's methods.
    pub methods: Vec<MethodSpec>,
}

/// The full declaration of a context type — everything between the paper's
/// `begin context` and `end context`.
#[derive(Debug)]
pub struct ContextSpec {
    /// The type name ("tracker", "fire", …).
    pub name: String,
    /// Activation condition `sense_e()`.
    pub activation: SensePredicate,
    /// Optional explicit deactivation condition; when absent, the inverse
    /// of the activation condition is used (paper footnote 1).
    pub deactivation: Option<SensePredicate>,
    /// Aggregate state variables.
    pub aggregates: Vec<AggregateSpec>,
    /// Attached tracking objects.
    pub objects: Vec<ObjectSpec>,
    /// The paper's *static objects*: when set, the type has exactly one
    /// instance, instantiated at startup on the node closest to this
    /// coordinate, independent of any sensing condition. It never
    /// relinquishes; its label is a stable MTP endpoint and directory
    /// entry.
    pub pinned: Option<Point>,
}

impl ContextSpec {
    /// Whether a node with local sample `s` should currently belong to a
    /// group of this type: activation when outside, deactivation when
    /// inside.
    #[must_use]
    pub(crate) fn senses(&self, s: &SensorSample, currently_member: bool) -> bool {
        if currently_member {
            match &self.deactivation {
                Some(d) => !d.eval(s),
                None => self.activation.eval(s),
            }
        } else {
            self.activation.eval(s)
        }
    }

    /// Index of an aggregate variable by name.
    #[must_use]
    pub(crate) fn aggregate_index(&self, name: &str) -> Option<usize> {
        self.aggregates.iter().position(|a| a.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_sim::time::SimDuration;

    #[test]
    fn labels_display_uniquely() {
        let a = ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(3),
            seq: 1,
        };
        let b = ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(3),
            seq: 2,
        };
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "type0@n3#1");
    }

    #[test]
    fn threshold_predicate_matches_channel() {
        let p = SensePredicate::threshold(Channel::Magnetic, 0.5);
        let mut s = SensorSample::zero();
        assert!(!p.eval(&s));
        s.set(Channel::Magnetic, 0.6);
        assert!(p.eval(&s));
        assert_eq!(p.name(), "magnetic > 0.5");
    }

    #[test]
    fn fire_predicate_combines_with_and() {
        // The paper's example: sense_fire() = (temperature > 180) and (light).
        let p = SensePredicate::threshold(Channel::Temperature, 180.0)
            .and(SensePredicate::threshold(Channel::Light, 0.5));
        let mut s = SensorSample::zero();
        s.set(Channel::Temperature, 200.0);
        assert!(!p.eval(&s), "temperature alone is not a fire");
        s.set(Channel::Light, 1.0);
        assert!(p.eval(&s));
    }

    #[test]
    fn or_predicate_needs_either() {
        let p = SensePredicate::threshold(Channel::Acoustic, 1.0)
            .or(SensePredicate::threshold(Channel::Motion, 1.0));
        let mut s = SensorSample::zero();
        assert!(!p.eval(&s));
        s.set(Channel::Motion, 2.0);
        assert!(p.eval(&s));
    }

    #[test]
    fn deactivation_defaults_to_inverse_activation() {
        let spec = ContextSpec {
            name: "tracker".into(),
            activation: SensePredicate::threshold(Channel::Magnetic, 0.5),
            deactivation: None,
            aggregates: vec![],
            objects: vec![],
            pinned: None,
        };
        let mut s = SensorSample::zero();
        s.set(Channel::Magnetic, 0.6);
        assert!(spec.senses(&s, false));
        assert!(spec.senses(&s, true));
        s.set(Channel::Magnetic, 0.4);
        assert!(!spec.senses(&s, true));
    }

    #[test]
    fn explicit_deactivation_adds_hysteresis() {
        // Join above 0.6, stay until below 0.3.
        let spec = ContextSpec {
            name: "tracker".into(),
            activation: SensePredicate::threshold(Channel::Magnetic, 0.6),
            deactivation: Some(SensePredicate::new("magnetic < 0.3", |s| {
                s.get(Channel::Magnetic) < 0.3
            })),
            aggregates: vec![],
            objects: vec![],
            pinned: None,
        };
        let mut s = SensorSample::zero();
        s.set(Channel::Magnetic, 0.4);
        assert!(!spec.senses(&s, false), "0.4 does not activate");
        assert!(spec.senses(&s, true), "0.4 keeps an existing member");
        s.set(Channel::Magnetic, 0.2);
        assert!(!spec.senses(&s, true));
    }

    #[test]
    fn aggregate_index_finds_by_name() {
        let spec = ContextSpec {
            name: "tracker".into(),
            activation: SensePredicate::threshold(Channel::Magnetic, 0.5),
            deactivation: None,
            aggregates: vec![AggregateSpec {
                name: "location".into(),
                function: AggregateFn::CenterOfGravity,
                input: AggregateInput::Position,
                freshness: SimDuration::from_secs(1),
                critical_mass: 2,
            }],
            objects: vec![],
            pinned: None,
        };
        assert_eq!(spec.aggregate_index("location"), Some(0));
        assert_eq!(spec.aggregate_index("velocity"), None);
    }
}
