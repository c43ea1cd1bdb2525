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

use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::{Telemetry, TraceSite};
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
    /// be found the same way (see [`ContextLabel::trace_id`]).
    #[must_use]
    pub(crate) fn intern_key(self) -> u128 {
        (u128::from(self.type_id.0) << 64) | (u128::from(self.creator.0) << 32) | u128::from(self.seq)
    }

    /// The id of the label's display form (e.g. `type0@n3#1`) among
    /// `telemetry`'s interned strings. Formatted on the label's first
    /// trace only; after that, one probe by the packed integer key.
    pub(crate) fn trace_id(self, telemetry: &Telemetry) -> u32 {
        telemetry.intern_keyed(self.intern_key(), || self.to_string())
    }
}

/// Tag bit separating type-id keys from label keys among the interned
/// strings (label keys use at most 80 bits).
const TYPE_KEY_TAG: u128 = 1 << 127;

impl ContextTypeId {
    /// The id of the type's display form (e.g. `type0`) among
    /// `telemetry`'s interned strings, as [`ContextLabel::trace_id`].
    pub(crate) fn trace_id(self, telemetry: &Telemetry) -> u32 {
        telemetry.intern_keyed(TYPE_KEY_TAG | u128::from(self.0), || self.to_string())
    }
}

/// Records a trace event about `label` on `telemetry`, made at `site`.
pub(crate) fn trace_label(
    telemetry: &Telemetry,
    at: Timestamp,
    node: NodeId,
    label: ContextLabel,
    site: &'static TraceSite,
    args: [u32; 3],
) {
    let label = label.trace_id(telemetry);
    telemetry.trace(at.as_micros(), node.0, label, site, args);
}

/// How a [`SensePredicate::Cmp`] compares a channel reading with its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `==`, to within `f64::EPSILON`.
    Eq,
}

impl CmpOp {
    /// Whether `x op value` holds.
    fn holds(self, x: f64, value: f64) -> bool {
        match self {
            CmpOp::Gt => x > value,
            CmpOp::Lt => x < value,
            CmpOp::Ge => x >= value,
            CmpOp::Le => x <= value,
            CmpOp::Eq => (x - value).abs() < f64::EPSILON,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
        })
    }
}

/// A boolean sensing predicate over the local sensor sample — the paper's
/// `sense_e()` function: comparisons of one channel with a constant,
/// composed with `and`, `or` and `not`. Every condition the builder API
/// and the declaration language can state is one of these, so a predicate
/// is data: it compares, prints and evaluates without calling out to code.
#[derive(Debug, Clone, PartialEq)]
pub enum SensePredicate {
    /// `channel op value`.
    Cmp {
        /// The channel read.
        channel: Channel,
        /// The comparison.
        op: CmpOp,
        /// The constant compared with.
        value: f64,
    },
    /// Both hold.
    And(Box<SensePredicate>, Box<SensePredicate>),
    /// Either holds.
    Or(Box<SensePredicate>, Box<SensePredicate>),
    /// The inner predicate does not hold.
    Not(Box<SensePredicate>),
    /// Holds for no sample.
    Never,
}

impl SensePredicate {
    /// A library predicate: `channel > threshold`. Covers the paper's
    /// `magnetic_sensor_reading()` style conditions.
    #[must_use]
    pub fn threshold(channel: Channel, threshold: f64) -> Self {
        SensePredicate::Cmp {
            channel,
            op: CmpOp::Gt,
            value: threshold,
        }
    }

    /// A library predicate: conjunction of two predicates, e.g. the paper's
    /// `sense_fire() = (temperature > 180) and (light)`.
    #[must_use]
    pub fn and(self, other: SensePredicate) -> Self {
        SensePredicate::And(Box::new(self), Box::new(other))
    }

    /// A library predicate: disjunction.
    #[must_use]
    pub fn or(self, other: SensePredicate) -> Self {
        SensePredicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the predicate on a sample.
    #[inline]
    #[must_use]
    pub fn eval(&self, sample: &SensorSample) -> bool {
        match self {
            SensePredicate::Cmp { channel, op, value } => op.holds(sample.get(*channel), *value),
            // Composed predicates recurse out of line, so that a lone
            // comparison, the common condition, is evaluated where it is
            // asked: no call, no registers saved for a recursion.
            _ => self.eval_composed(sample),
        }
    }

    fn eval_composed(&self, sample: &SensorSample) -> bool {
        match self {
            SensePredicate::And(a, b) => a.eval(sample) && b.eval(sample),
            SensePredicate::Or(a, b) => a.eval(sample) || b.eval(sample),
            SensePredicate::Not(p) => !p.eval(sample),
            SensePredicate::Cmp { .. } => self.eval(sample),
            SensePredicate::Never => false,
        }
    }
}

/// The diagnostic form: `magnetic > 0.5`, `(a) and (b)`, `not (a)`.
impl fmt::Display for SensePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensePredicate::Cmp { channel, op, value } => write!(f, "{channel} {op} {value}"),
            SensePredicate::And(a, b) => write!(f, "({a}) and ({b})"),
            SensePredicate::Or(a, b) => write!(f, "({a}) or ({b})"),
            SensePredicate::Not(p) => write!(f, "not ({p})"),
            SensePredicate::Never => f.write_str("never"),
        }
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

    /// The time-triggered methods of every attached object, flattened in
    /// declaration order: `(object index, method index, period)`. A
    /// leader's method timer `i` is the `i`-th of these.
    pub(crate) fn timer_methods(&self) -> impl Iterator<Item = (usize, usize, SimDuration)> + '_ {
        let objects = self.objects.iter().enumerate();
        objects.flat_map(|(oi, obj)| {
            let methods = obj.methods.iter().enumerate();
            methods.filter_map(move |(mi, m)| match m.invocation {
                Invocation::Timer(period) => Some((oi, mi, period)),
                Invocation::OnMessage(_) => None,
            })
        })
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
        assert_eq!(p.to_string(), "magnetic > 0.5");
    }

    #[test]
    fn composed_predicates_print_and_compare_as_data() {
        let hot = SensePredicate::threshold(Channel::Temperature, 180.0);
        let dark = SensePredicate::Not(Box::new(SensePredicate::threshold(Channel::Light, 0.5)));
        let p = hot.clone().and(dark.clone()).or(SensePredicate::Never);
        assert_eq!(
            p.to_string(),
            "((temperature > 180) and (not (light > 0.5))) or (never)"
        );
        assert_eq!(p, hot.clone().and(dark.clone()).or(SensePredicate::Never));
        assert_ne!(p, dark.and(hot));
        let mut s = SensorSample::zero();
        s.set(Channel::Temperature, 200.0);
        assert!(p.eval(&s));
        s.set(Channel::Light, 1.0);
        assert!(!p.eval(&s));
        assert!(!SensePredicate::Never.eval(&s));
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
            deactivation: Some(SensePredicate::Cmp {
                channel: Channel::Magnetic,
                op: CmpOp::Lt,
                value: 0.3,
            }),
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
