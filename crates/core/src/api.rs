//! The application-facing API: declaring an EnviroTrack program.
//!
//! A [`Program`] is the set of context-type declarations a sensor network
//! hosts — the runtime image of the paper's declaration language (§4). The
//! preprocessor in `envirotrack-lang` compiles source text to exactly this
//! structure; Rust applications can also build one directly:
//!
//! ```
//! use envirotrack_core::aggregate::{AggValue, AggregateFn, AggregateInput};
//! use envirotrack_core::api::Program;
//! use envirotrack_core::context::SensePredicate;
//! use envirotrack_core::object::payload;
//! use envirotrack_sim::time::SimDuration;
//! use envirotrack_world::target::Channel;
//!
//! // The paper's Figure 2 tracker, almost verbatim.
//! let program = Program::builder()
//!     .context("tracker", |c| {
//!         c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5))
//!             .aggregate(
//!                 "location",
//!                 AggregateFn::CenterOfGravity,
//!                 AggregateInput::Position,
//!                 SimDuration::from_secs(1), // freshness = 1s
//!                 2,                         // confidence = 2
//!             )
//!             .object("reporter", |o| {
//!                 o.on_timer("report", SimDuration::from_secs(5), |ctx| {
//!                     if let Ok(AggValue::Point(p)) = ctx.read("location") {
//!                         ctx.send_to_base(payload::position(p));
//!                     }
//!                 })
//!             })
//!     })
//!     .build()
//!     .expect("valid program");
//! assert_eq!(program.context_count(), 1);
//! ```

use std::fmt;
use std::sync::Arc;

use envirotrack_sim::time::SimDuration;

use crate::aggregate::{AggregateFn, AggregateInput};
use crate::context::{
    AggregateSpec, ContextSpec, ContextTypeId, Invocation, MethodSpec, ObjectSpec, SensePredicate,
};
use crate::network::MAX_TIMER_METHODS;
use crate::object::ObjectApi;
use crate::transport::Port;

/// A complete, validated EnviroTrack application.
#[derive(Debug)]
pub struct Program {
    contexts: Vec<ContextSpec>,
    /// Per-context directory subscriptions (resolved type ids).
    subscriptions: Vec<Vec<ContextTypeId>>,
}

impl Program {
    /// Starts building a program.
    #[must_use]
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder {
            contexts: Vec::new(),
            subscription_names: Vec::new(),
        }
    }

    /// Number of declared context types.
    #[must_use]
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The declaration of a context type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range — type ids originate from this
    /// program, so that is a caller bug.
    #[must_use]
    pub fn spec(&self, id: ContextTypeId) -> &ContextSpec {
        &self.contexts[id.0 as usize]
    }

    /// All context type ids.
    pub(crate) fn type_ids(&self) -> impl Iterator<Item = ContextTypeId> {
        (0..self.contexts.len() as u16).map(ContextTypeId)
    }

    /// Resolves a context type by name.
    #[must_use]
    pub fn type_id(&self, name: &str) -> Option<ContextTypeId> {
        self.contexts
            .iter()
            .position(|c| c.name == name)
            .map(|i| ContextTypeId(i as u16))
    }

    /// The directory subscriptions of a context type.
    #[must_use]
    pub(crate) fn subscriptions(&self, id: ContextTypeId) -> &[ContextTypeId] {
        &self.subscriptions[id.0 as usize]
    }

    /// Finds the `OnMessage` method bound to `port` within a context type,
    /// as `(object index, method index)`.
    #[must_use]
    pub(crate) fn method_for_port(&self, id: ContextTypeId, port: Port) -> Option<(usize, usize)> {
        let spec = self.spec(id);
        for (oi, obj) in spec.objects.iter().enumerate() {
            for (mi, m) in obj.methods.iter().enumerate() {
                if matches!(m.invocation, Invocation::OnMessage(p) if p == port) {
                    return Some((oi, mi));
                }
            }
        }
        None
    }
}

/// Error returned when a program declaration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two context types share a name.
    DuplicateContext {
        /// The duplicated name.
        name: String,
    },
    /// Two aggregate variables in one context share a name.
    DuplicateAggregate {
        /// The context name.
        context: String,
        /// The duplicated variable name.
        name: String,
    },
    /// Two methods in one context bind the same port.
    DuplicatePort {
        /// The context name.
        context: String,
        /// The duplicated port.
        port: Port,
    },
    /// An aggregate declares an invalid QoS attribute.
    InvalidQos {
        /// The context name.
        context: String,
        /// The variable name.
        name: String,
        /// What is wrong.
        reason: &'static str,
    },
    /// A subscription references an undeclared context type.
    UnknownSubscription {
        /// The subscribing context.
        context: String,
        /// The unresolved type name.
        name: String,
    },
    /// A timer method declares a zero period.
    ZeroTimerPeriod {
        /// The context name.
        context: String,
        /// The `object.method` name.
        method: String,
    },
    /// A context type declares more time-triggered methods than a network
    /// can tell apart when their timers fire.
    TooManyTimerMethods {
        /// The context name.
        context: String,
        /// How many it declares, over all its objects.
        count: usize,
        /// How many it may.
        max: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateContext { name } => {
                write!(f, "context type {name:?} declared twice")
            }
            ProgramError::DuplicateAggregate { context, name } => {
                write!(
                    f,
                    "aggregate variable {name:?} declared twice in context {context:?}"
                )
            }
            ProgramError::DuplicatePort { context, port } => {
                write!(f, "port {port} bound twice in context {context:?}")
            }
            ProgramError::InvalidQos {
                context,
                name,
                reason,
            } => {
                write!(f, "aggregate {name:?} in context {context:?}: {reason}")
            }
            ProgramError::UnknownSubscription { context, name } => {
                write!(
                    f,
                    "context {context:?} subscribes to undeclared type {name:?}"
                )
            }
            ProgramError::ZeroTimerPeriod { context, method } => {
                write!(
                    f,
                    "method {method} in context {context:?} has a zero timer period"
                )
            }
            ProgramError::TooManyTimerMethods {
                context,
                count,
                max,
            } => {
                write!(
                    f,
                    "context {context:?} declares {count} timer methods, at most {max} fit"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Builder for [`Program`].
pub struct ProgramBuilder {
    contexts: Vec<ContextSpec>,
    subscription_names: Vec<Vec<String>>,
}

impl ProgramBuilder {
    /// Declares a context type; the closure configures it.
    #[must_use]
    pub fn context(
        mut self,
        name: impl Into<String>,
        configure: impl FnOnce(ContextBuilder) -> ContextBuilder,
    ) -> Self {
        let b = configure(ContextBuilder::new(name.into()));
        self.contexts.push(b.spec);
        self.subscription_names.push(b.subscriptions);
        self
    }

    /// Validates and assembles the program.
    ///
    /// # Errors
    ///
    /// See [`ProgramError`] for each rejected declaration shape.
    pub fn build(self) -> Result<Program, ProgramError> {
        for (i, c) in self.contexts.iter().enumerate() {
            if self.contexts[..i].iter().any(|other| other.name == c.name) {
                return Err(ProgramError::DuplicateContext {
                    name: c.name.clone(),
                });
            }
            for (ai, a) in c.aggregates.iter().enumerate() {
                if c.aggregates[..ai].iter().any(|other| other.name == a.name) {
                    return Err(ProgramError::DuplicateAggregate {
                        context: c.name.clone(),
                        name: a.name.clone(),
                    });
                }
                if a.freshness.is_zero() {
                    return Err(ProgramError::InvalidQos {
                        context: c.name.clone(),
                        name: a.name.clone(),
                        reason: "freshness must be positive",
                    });
                }
                if a.critical_mass == 0 {
                    return Err(ProgramError::InvalidQos {
                        context: c.name.clone(),
                        name: a.name.clone(),
                        reason: "critical mass must be at least 1",
                    });
                }
            }
            let mut ports = Vec::new();
            let mut timers = 0;
            for obj in &c.objects {
                for m in &obj.methods {
                    match m.invocation {
                        Invocation::OnMessage(p) => {
                            if ports.contains(&p) {
                                return Err(ProgramError::DuplicatePort {
                                    context: c.name.clone(),
                                    port: p,
                                });
                            }
                            ports.push(p);
                        }
                        Invocation::Timer(period) => {
                            if period.is_zero() {
                                return Err(ProgramError::ZeroTimerPeriod {
                                    context: c.name.clone(),
                                    method: format!("{}.{}", obj.name, m.name),
                                });
                            }
                            timers += 1;
                        }
                    }
                }
            }
            // A network names a method's timer by its index in this list,
            // in a field of the event it rides (`network/words.rs`).
            if timers > MAX_TIMER_METHODS {
                return Err(ProgramError::TooManyTimerMethods {
                    context: c.name.clone(),
                    count: timers,
                    max: MAX_TIMER_METHODS,
                });
            }
        }
        // Resolve subscriptions by name.
        let mut subscriptions = Vec::with_capacity(self.contexts.len());
        for (i, names) in self.subscription_names.iter().enumerate() {
            let mut resolved = Vec::with_capacity(names.len());
            for n in names {
                match self.contexts.iter().position(|c| &c.name == n) {
                    Some(idx) => resolved.push(ContextTypeId(idx as u16)),
                    None => {
                        return Err(ProgramError::UnknownSubscription {
                            context: self.contexts[i].name.clone(),
                            name: n.clone(),
                        })
                    }
                }
            }
            subscriptions.push(resolved);
        }
        Ok(Program {
            contexts: self.contexts,
            subscriptions,
        })
    }
}

/// Builder for one context type, used inside
/// [`ProgramBuilder::context`].
pub struct ContextBuilder {
    spec: ContextSpec,
    subscriptions: Vec<String>,
}

impl ContextBuilder {
    fn new(name: String) -> Self {
        ContextBuilder {
            spec: ContextSpec {
                name,
                // A context that never activates is harmless; the builder
                // replaces this with the real predicate.
                activation: SensePredicate::Never,
                deactivation: None,
                aggregates: Vec::new(),
                objects: Vec::new(),
                pinned: None,
            },
            subscriptions: Vec::new(),
        }
    }

    /// Sets the activation condition `sense_e()`.
    #[must_use]
    pub fn activation(mut self, p: SensePredicate) -> Self {
        self.spec.activation = p;
        self
    }

    /// Sets an explicit deactivation condition (defaults to the inverse of
    /// the activation condition).
    #[must_use]
    pub fn deactivation(mut self, p: SensePredicate) -> Self {
        self.spec.deactivation = Some(p);
        self
    }

    /// Declares an aggregate state variable with its QoS attributes.
    #[must_use]
    pub fn aggregate(
        mut self,
        name: impl Into<String>,
        function: AggregateFn,
        input: AggregateInput,
        freshness: SimDuration,
        critical_mass: u32,
    ) -> Self {
        self.spec.aggregates.push(AggregateSpec {
            name: name.into(),
            function,
            input,
            freshness,
            critical_mass,
        });
        self
    }

    /// Attaches a tracking object; the closure adds its methods.
    #[must_use]
    pub fn object(
        mut self,
        name: impl Into<String>,
        configure: impl FnOnce(ObjectBuilder) -> ObjectBuilder,
    ) -> Self {
        let b = configure(ObjectBuilder {
            spec: ObjectSpec {
                name: name.into(),
                methods: Vec::new(),
            },
        });
        self.spec.objects.push(b.spec);
        self
    }

    /// Subscribes this context to the directory view of another type, so
    /// object code can call
    /// [`labels_of_type`](crate::object::ObjectApi::labels_of_type).
    #[must_use]
    pub fn subscribe(mut self, type_name: impl Into<String>) -> Self {
        self.subscriptions.push(type_name.into());
        self
    }

    /// Makes this a *static object* type (the paper's "conventional static
    /// objects ... declared separately within the default context type"):
    /// exactly one instance, instantiated at startup on the node closest to
    /// `at`, independent of any sensing condition. It never relinquishes;
    /// its label is a stable MTP endpoint and directory entry.
    #[must_use]
    pub fn pinned(mut self, at: envirotrack_world::geometry::Point) -> Self {
        self.spec.pinned = Some(at);
        self
    }
}

/// Builder for one tracking object, used inside [`ContextBuilder::object`].
pub struct ObjectBuilder {
    spec: ObjectSpec,
}

impl ObjectBuilder {
    /// Adds a time-triggered method — the paper's `invocation: TIMER(5s)`.
    #[must_use]
    pub fn on_timer(
        mut self,
        name: impl Into<String>,
        period: SimDuration,
        body: impl Fn(&mut ObjectApi<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.spec.methods.push(MethodSpec {
            name: name.into(),
            invocation: Invocation::Timer(period),
            body: Arc::new(body),
        });
        self
    }

    /// Adds a message-triggered method bound to an MTP port.
    #[must_use]
    pub fn on_message(
        mut self,
        name: impl Into<String>,
        port: Port,
        body: impl Fn(&mut ObjectApi<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.spec.methods.push(MethodSpec {
            name: name.into(),
            invocation: Invocation::OnMessage(port),
            body: Arc::new(body),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_world::target::Channel;

    fn mag() -> SensePredicate {
        SensePredicate::threshold(Channel::Magnetic, 0.5)
    }

    fn minimal() -> ProgramBuilder {
        Program::builder().context("tracker", |c| {
            c.activation(mag()).aggregate(
                "location",
                AggregateFn::CenterOfGravity,
                AggregateInput::Position,
                SimDuration::from_secs(1),
                2,
            )
        })
    }

    #[test]
    fn valid_program_builds_and_resolves_names() {
        let p = minimal().build().unwrap();
        assert_eq!(p.context_count(), 1);
        let id = p.type_id("tracker").unwrap();
        assert_eq!(p.spec(id).name, "tracker");
        assert_eq!(p.type_id("fire"), None);
        assert_eq!(p.type_ids().count(), 1);
    }

    #[test]
    fn duplicate_contexts_are_rejected() {
        let err = Program::builder()
            .context("a", |c| c.activation(mag()))
            .context("a", |c| c.activation(mag()))
            .build()
            .unwrap_err();
        assert_eq!(err, ProgramError::DuplicateContext { name: "a".into() });
    }

    #[test]
    fn duplicate_aggregates_are_rejected() {
        let err = Program::builder()
            .context("a", |c| {
                c.activation(mag())
                    .aggregate(
                        "x",
                        AggregateFn::Average,
                        AggregateInput::Channel(Channel::Magnetic),
                        SimDuration::from_secs(1),
                        1,
                    )
                    .aggregate(
                        "x",
                        AggregateFn::Sum,
                        AggregateInput::Channel(Channel::Magnetic),
                        SimDuration::from_secs(1),
                        1,
                    )
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ProgramError::DuplicateAggregate { .. }));
    }

    #[test]
    fn invalid_qos_is_rejected() {
        let err = Program::builder()
            .context("a", |c| {
                c.activation(mag()).aggregate(
                    "x",
                    AggregateFn::Average,
                    AggregateInput::Channel(Channel::Magnetic),
                    SimDuration::ZERO,
                    1,
                )
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ProgramError::InvalidQos { reason, .. } if reason.contains("freshness"))
        );

        let err = Program::builder()
            .context("a", |c| {
                c.activation(mag()).aggregate(
                    "x",
                    AggregateFn::Average,
                    AggregateInput::Channel(Channel::Magnetic),
                    SimDuration::from_secs(1),
                    0,
                )
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ProgramError::InvalidQos { reason, .. } if reason.contains("critical mass"))
        );
    }

    #[test]
    fn duplicate_ports_are_rejected() {
        let err = Program::builder()
            .context("a", |c| {
                c.activation(mag()).object("o", |o| {
                    o.on_message("m1", Port(1), |_| {})
                        .on_message("m2", Port(1), |_| {})
                })
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ProgramError::DuplicatePort { port: Port(1), .. }
        ));
    }

    #[test]
    fn zero_timer_period_is_rejected() {
        let err = Program::builder()
            .context("a", |c| {
                c.activation(mag())
                    .object("o", |o| o.on_timer("tick", SimDuration::ZERO, |_| {}))
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ProgramError::ZeroTimerPeriod { .. }));
    }

    #[test]
    fn subscriptions_resolve_across_declaration_order() {
        let p = Program::builder()
            .context("watcher", |c| c.activation(mag()).subscribe("fire"))
            .context("fire", |c| {
                c.activation(SensePredicate::threshold(Channel::Temperature, 180.0))
            })
            .build()
            .unwrap();
        let watcher = p.type_id("watcher").unwrap();
        let fire = p.type_id("fire").unwrap();
        assert_eq!(p.subscriptions(watcher), &[fire]);
        assert!(p.subscriptions(fire).is_empty());
    }

    #[test]
    fn unknown_subscription_is_rejected() {
        let err = Program::builder()
            .context("watcher", |c| c.activation(mag()).subscribe("ghost"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ProgramError::UnknownSubscription { .. }));
    }

    #[test]
    fn method_for_port_finds_the_handler() {
        let p = Program::builder()
            .context("a", |c| {
                c.activation(mag())
                    .object("first", |o| {
                        o.on_timer("tick", SimDuration::from_secs(1), |_| {})
                    })
                    .object("second", |o| o.on_message("handle", Port(9), |_| {}))
            })
            .build()
            .unwrap();
        let id = p.type_id("a").unwrap();
        assert_eq!(p.method_for_port(id, Port(9)), Some((1, 0)));
        assert_eq!(p.method_for_port(id, Port(1)), None);
    }
}
