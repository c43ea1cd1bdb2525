//! Abstract syntax for the EnviroTrack declaration language (Appendix A).
//!
//! The AST is deliberately close to the paper's grammar: a program is a
//! list of context declarations, each holding an activation condition,
//! aggregate variable declarations with attribute lists, and attached
//! object declarations whose functions carry invocation conditions.

use envirotrack_core::context::CmpOp;

/// A parsed program: one or more context declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramDecl {
    /// The declared context types, in source order.
    pub contexts: Vec<ContextDecl>,
}

/// One `begin context … end context` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextDecl {
    /// The context type name.
    pub name: String,
    /// The `activation:` condition (`sense_e()`).
    pub activation: BoolExpr,
    /// The optional `deactivation:` condition.
    pub deactivation: Option<BoolExpr>,
    /// Directory subscriptions (`subscribe: fire`).
    pub subscriptions: Vec<String>,
    /// Static-object pin (`pinned: 3.0, 4.0`): instantiate once at this
    /// coordinate instead of tracking a sensed entity.
    pub pinned: Option<(f64, f64)>,
    /// Aggregate state variable declarations.
    pub aggregates: Vec<AggrDecl>,
    /// Attached object declarations.
    pub objects: Vec<ObjectDecl>,
    /// Source line of the declaration.
    pub line: u32,
}

/// A boolean sensing expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// A library sensing function: `magnetic_sensor_reading()`,
    /// `temperature_above(180)`.
    Call {
        /// Function name.
        name: String,
        /// Numeric arguments.
        args: Vec<f64>,
    },
    /// A channel comparison: `temperature > 180`.
    Compare {
        /// Channel name.
        channel: String,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold.
        value: f64,
    },
    /// A bare channel used as a boolean — the paper's `(light)`; true when
    /// the reading exceeds 0.5.
    Truthy {
        /// Channel name.
        channel: String,
    },
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

/// One aggregate variable declaration:
/// `location : avg(position) confidence=2, freshness=1s`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggrDecl {
    /// Variable name.
    pub name: String,
    /// Aggregation function name (`avg`, `sum`, `max`, …).
    pub function: String,
    /// Input name: `position` or a channel name.
    pub input: String,
    /// Attribute list (`confidence`, `freshness`, …).
    pub attrs: Vec<(String, AttrValue)>,
    /// Source line.
    pub line: u32,
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An integer (e.g. `confidence=2`).
    Int(u64),
    /// A float.
    Float(f64),
    /// A duration in microseconds (e.g. `freshness=1s`).
    DurationMicros(u64),
    /// A bare identifier.
    Ident(String),
}

/// One `begin object … end` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectDecl {
    /// Object name.
    pub name: String,
    /// The object's functions.
    pub methods: Vec<MethodDecl>,
}

/// One function with its invocation condition.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Function name.
    pub name: String,
    /// When it runs.
    pub invocation: InvocationDecl,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line.
    pub line: u32,
}

/// An invocation condition.
#[derive(Debug, Clone, PartialEq)]
pub enum InvocationDecl {
    /// `TIMER(5s)` — periodic, period in microseconds.
    TimerMicros(u64),
    /// `MESSAGE(7)` — on MTP message arrival at a port.
    MessagePort(u16),
}

/// A body statement: a call like `MySend(pursuer, self:label, location);`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Callee name (`MySend`, `log`, `send`, `set_state`).
    pub name: String,
    /// Arguments.
    pub args: Vec<Expr>,
    /// Source line.
    pub line: u32,
}

/// A body expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `self:label` — the enclosing context label handle.
    SelfLabel,
    /// A bare identifier (usually an aggregate variable name).
    Var(String),
    /// A string literal.
    Str(String),
    /// A numeric literal.
    Num(f64),
}
