//! The EnviroTrack preprocessor: AST → runtime [`Program`].
//!
//! The paper's preprocessor "patches a set of NesC program templates" from
//! the context description file; ours compiles the same declarations into
//! the runtime structures the middleware executes directly. Method bodies
//! are compiled to closures interpreting a small action language:
//!
//! | Statement | Effect |
//! |---|---|
//! | `MySend(pursuer, self:label, VAR);` | read aggregate `VAR`; if confirmed, send it to the base station (the label travels implicitly) |
//! | `send_base(VAR);` | same, without the paper's ceremonial arguments |
//! | `log("text", VAR, …);` | append to the application log, formatting aggregate reads |
//! | `set_state("blob");` | persist state across leader handovers |
//!
//! Unsupported statements are compile-time errors naming the statement and
//! the supported set — richer bodies use the Rust builder API directly.

use std::fmt;

use envirotrack_core::aggregate::{AggValue, AggregateFn, AggregateInput};
use envirotrack_core::api::{Program, ProgramError};
use envirotrack_core::context::SensePredicate;
use envirotrack_core::object::{payload, ObjectApi};
use envirotrack_core::transport::Port;
use envirotrack_sim::time::SimDuration;
use envirotrack_world::target::Channel;

use crate::ast::{
    AggrDecl, AttrValue, BoolExpr, ContextDecl, Expr, InvocationDecl, ProgramDecl, Stmt,
};
use crate::builtins::Builtins;
use crate::parser::{parse, ParseError};

/// Error produced while compiling a parsed program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source failed to parse.
    Parse(ParseError),
    /// A semantic problem, with source line and message.
    Semantic {
        /// 1-based source line (0 when unavailable).
        line: u32,
        /// The problem.
        message: String,
    },
    /// The assembled program failed core validation.
    Program(ProgramError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Semantic { line, message } => {
                write!(f, "compile error at line {line}: {message}")
            }
            CompileError::Program(e) => write!(f, "program error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Program(e)
    }
}

fn semantic(line: u32, message: impl Into<String>) -> CompileError {
    CompileError::Semantic {
        line,
        message: message.into(),
    }
}

/// Compiles EnviroTrack source text into a runnable [`Program`] using the
/// standard sensing-function library.
///
/// # Errors
///
/// Returns [`CompileError`] on parse errors, unknown sensing functions or
/// channels, bad QoS attributes, or unsupported body statements.
///
/// ```
/// let program = envirotrack_lang::compile::compile_source(r#"
///     begin context tracker
///       activation: magnetic_sensor_reading()
///       location : avg(position) confidence=2, freshness=1s
///       begin object reporter
///         invocation: TIMER(5s)
///         report_function() {
///           MySend(pursuer, self:label, location);
///         }
///       end
///     end context
/// "#).unwrap();
/// assert_eq!(program.context_count(), 1);
/// ```
pub fn compile_source(src: &str) -> Result<Program, CompileError> {
    compile_ast(&parse(src)?, &Builtins::standard())
}

/// Compiles an already-parsed program.
///
/// # Errors
///
/// See [`compile_source`].
pub(crate) fn compile_ast(ast: &ProgramDecl, builtins: &Builtins) -> Result<Program, CompileError> {
    let mut builder = Program::builder();
    for ctx in &ast.contexts {
        let compiled = compile_context(ctx, builtins)?;
        builder = builder.context(ctx.name.clone(), move |mut b| {
            b = b.activation(compiled.activation);
            if let Some((x, y)) = compiled.pinned {
                b = b.pinned(envirotrack_world::geometry::Point::new(x, y));
            }
            if let Some(d) = compiled.deactivation {
                b = b.deactivation(d);
            }
            for s in compiled.subscriptions {
                b = b.subscribe(s);
            }
            for a in compiled.aggregates {
                b = b.aggregate(a.0, a.1, a.2, a.3, a.4);
            }
            for (obj_name, methods) in compiled.objects {
                b = b.object(obj_name, move |mut ob| {
                    for m in methods {
                        ob = match m.invocation {
                            InvocationDecl::TimerMicros(us) => {
                                let body = m.body;
                                ob.on_timer(
                                    m.name,
                                    SimDuration::from_micros(us),
                                    move |api: &mut ObjectApi<'_>| run_body(&body, api),
                                )
                            }
                            InvocationDecl::MessagePort(p) => {
                                let body = m.body;
                                ob.on_message(m.name, Port(p), move |api: &mut ObjectApi<'_>| {
                                    run_body(&body, api)
                                })
                            }
                        };
                    }
                    ob
                });
            }
            b
        });
    }
    Ok(builder.build()?)
}

/// Intermediate, fully-resolved context pieces (everything validated before
/// entering the builder closures).
struct CompiledContext {
    activation: SensePredicate,
    deactivation: Option<SensePredicate>,
    pinned: Option<(f64, f64)>,
    subscriptions: Vec<String>,
    aggregates: Vec<(String, AggregateFn, AggregateInput, SimDuration, u32)>,
    objects: Vec<(String, Vec<CompiledMethod>)>,
}

struct CompiledMethod {
    name: String,
    invocation: InvocationDecl,
    body: Vec<Stmt>,
}

fn compile_context(
    ctx: &ContextDecl,
    builtins: &Builtins,
) -> Result<CompiledContext, CompileError> {
    let activation = compile_bool(&ctx.activation, builtins, ctx.line)?;
    let deactivation = ctx
        .deactivation
        .as_ref()
        .map(|d| compile_bool(d, builtins, ctx.line))
        .transpose()?;
    let aggregates = ctx
        .aggregates
        .iter()
        .map(compile_aggregate)
        .collect::<Result<_, _>>()?;
    let mut objects = Vec::new();
    for obj in &ctx.objects {
        let mut methods = Vec::new();
        for m in &obj.methods {
            validate_body(&m.body, ctx)?;
            methods.push(CompiledMethod {
                name: m.name.clone(),
                invocation: m.invocation.clone(),
                body: m.body.clone(),
            });
        }
        objects.push((obj.name.clone(), methods));
    }
    Ok(CompiledContext {
        activation,
        deactivation,
        pinned: ctx.pinned,
        subscriptions: ctx.subscriptions.clone(),
        aggregates,
        objects,
    })
}

fn compile_bool(
    expr: &BoolExpr,
    builtins: &Builtins,
    line: u32,
) -> Result<SensePredicate, CompileError> {
    match expr {
        BoolExpr::Call { name, args } => builtins
            .instantiate(name, args)
            .map_err(|m| semantic(line, m)),
        BoolExpr::Compare { channel, op, value } => Ok(SensePredicate::Cmp {
            channel: parse_channel(channel, line)?,
            op: *op,
            value: *value,
        }),
        BoolExpr::Truthy { channel } => Ok(SensePredicate::threshold(
            parse_channel(channel, line)?,
            0.5,
        )),
        BoolExpr::And(l, r) => {
            Ok(compile_bool(l, builtins, line)?.and(compile_bool(r, builtins, line)?))
        }
        BoolExpr::Or(l, r) => {
            Ok(compile_bool(l, builtins, line)?.or(compile_bool(r, builtins, line)?))
        }
        BoolExpr::Not(inner) => Ok(SensePredicate::Not(Box::new(compile_bool(
            inner, builtins, line,
        )?))),
    }
}

fn parse_channel(name: &str, line: u32) -> Result<Channel, CompileError> {
    name.parse().map_err(|_| {
        semantic(
            line,
            format!(
                "unknown sensor channel {name:?} (available: {})",
                Channel::ALL.map(|c| c.to_string()).join(", ")
            ),
        )
    })
}

type AggregateTuple = (String, AggregateFn, AggregateInput, SimDuration, u32);

fn compile_aggregate(decl: &AggrDecl) -> Result<AggregateTuple, CompileError> {
    let input = if decl.input == "position" {
        AggregateInput::Position
    } else {
        AggregateInput::Channel(parse_channel(&decl.input, decl.line)?)
    };
    let function = match (decl.function.as_str(), input) {
        ("avg" | "average", AggregateInput::Position) => AggregateFn::CenterOfGravity,
        ("cog" | "center_of_gravity", _) => AggregateFn::CenterOfGravity,
        ("avg" | "average", _) => AggregateFn::Average,
        ("sum", _) => AggregateFn::Sum,
        ("min", _) => AggregateFn::Min,
        ("max", _) => AggregateFn::Max,
        ("count", _) => AggregateFn::Count,
        (other, _) => {
            return Err(semantic(
                decl.line,
                format!(
                    "unknown aggregation function {other:?} (available: avg, sum, min, max, count, cog)"
                ),
            ))
        }
    };
    let mut freshness = None;
    let mut critical_mass = None;
    for (key, value) in &decl.attrs {
        match (key.as_str(), value) {
            ("freshness", AttrValue::DurationMicros(us)) => {
                freshness = Some(SimDuration::from_micros(*us));
            }
            ("freshness", _) => {
                return Err(semantic(
                    decl.line,
                    "freshness needs a duration, e.g. freshness=1s",
                ))
            }
            ("confidence" | "critical_mass", AttrValue::Int(n)) => {
                critical_mass = Some(
                    u32::try_from(*n)
                        .map_err(|_| semantic(decl.line, "confidence out of range"))?,
                );
            }
            ("confidence" | "critical_mass", _) => {
                return Err(semantic(
                    decl.line,
                    "confidence needs an integer, e.g. confidence=2",
                ))
            }
            (other, _) => {
                return Err(semantic(
                    decl.line,
                    format!("unknown attribute {other:?} (available: confidence, freshness)"),
                ))
            }
        }
    }
    let freshness = freshness.ok_or_else(|| {
        semantic(
            decl.line,
            format!("aggregate {:?} needs freshness=…", decl.name),
        )
    })?;
    let critical_mass = critical_mass.ok_or_else(|| {
        semantic(
            decl.line,
            format!("aggregate {:?} needs confidence=…", decl.name),
        )
    })?;
    Ok((decl.name.clone(), function, input, freshness, critical_mass))
}

/// Statements the interpreter supports.
const SUPPORTED: &str =
    "MySend(pursuer, self:label, VAR), send_base(VAR), log(…), set_state(\"…\")";

fn validate_body(body: &[Stmt], ctx: &ContextDecl) -> Result<(), CompileError> {
    for stmt in body {
        match stmt.name.as_str() {
            "MySend" => {
                let var = stmt.args.iter().rev().find_map(|a| match a {
                    Expr::Var(v) => Some(v),
                    _ => None,
                });
                match var {
                    Some(v) if ctx.aggregates.iter().any(|a| &a.name == v) => {}
                    Some(v) => {
                        return Err(semantic(
                            stmt.line,
                            format!("MySend references undeclared aggregate variable {v:?}"),
                        ))
                    }
                    None => {
                        return Err(semantic(
                            stmt.line,
                            "MySend needs an aggregate variable to send",
                        ))
                    }
                }
            }
            "send_base" => match stmt.args.as_slice() {
                [Expr::Var(v)] if ctx.aggregates.iter().any(|a| &a.name == v) => {}
                _ => {
                    return Err(semantic(
                        stmt.line,
                        "send_base takes exactly one declared aggregate variable",
                    ))
                }
            },
            "log" => {
                for a in &stmt.args {
                    if let Expr::Var(v) = a {
                        if !ctx.aggregates.iter().any(|ag| &ag.name == v) {
                            return Err(semantic(
                                stmt.line,
                                format!("log references undeclared aggregate variable {v:?}"),
                            ));
                        }
                    }
                }
            }
            "set_state" => match stmt.args.as_slice() {
                [Expr::Str(_)] => {}
                _ => return Err(semantic(stmt.line, "set_state takes one string literal")),
            },
            other => {
                return Err(semantic(
                    stmt.line,
                    format!("unsupported statement {other:?} (supported: {SUPPORTED})"),
                ))
            }
        }
    }
    Ok(())
}

/// Interprets a compiled body against the live object context.
fn run_body(body: &[Stmt], api: &mut ObjectApi<'_>) {
    for stmt in body {
        match stmt.name.as_str() {
            "MySend" | "send_base" => {
                let var = stmt.args.iter().rev().find_map(|a| match a {
                    Expr::Var(v) => Some(v.as_str()),
                    _ => None,
                });
                let Some(var) = var else { continue };
                // An unconfirmed siting (null flag) is silently skipped —
                // the paper leaves the handling application-specific, and
                // "no action" is its first suggestion.
                match api.read(var) {
                    Ok(AggValue::Point(p)) => api.send_to_base(payload::position(p)),
                    Ok(AggValue::Scalar(x)) => api.send_to_base(payload::scalar(x)),
                    Err(_) => {}
                }
            }
            "log" => {
                let mut parts = Vec::with_capacity(stmt.args.len() + 1);
                parts.push(format!("[{}]", api.label()));
                for a in &stmt.args {
                    match a {
                        Expr::Str(s) => parts.push(s.clone()),
                        Expr::Num(x) => parts.push(x.to_string()),
                        Expr::SelfLabel => parts.push(api.label().to_string()),
                        Expr::Var(v) => match api.read(v) {
                            Ok(value) => parts.push(format!("{v}={value}")),
                            Err(e) => parts.push(format!("{v}=<{e}>")),
                        },
                    }
                }
                api.log(parts.join(" "));
            }
            "set_state" => {
                if let [Expr::Str(s)] = stmt.args.as_slice() {
                    api.set_state(bytes::Bytes::copy_from_slice(s.as_bytes()));
                }
            }
            _ => unreachable!("validate_body admits only supported statements"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_2: &str = r#"
        begin context tracker
          activation: magnetic_sensor_reading()
          location : avg(position) confidence=2, freshness=1s
          begin object reporter
            invocation: TIMER(5s)
            report_function() {
              MySend(pursuer, self:label, location);
            }
          end
        end context
    "#;

    #[test]
    fn figure_two_compiles_to_a_program() {
        let p = compile_source(FIGURE_2).unwrap();
        assert_eq!(p.context_count(), 1);
        let tid = p.type_id("tracker").unwrap();
        let spec = p.spec(tid);
        assert_eq!(spec.aggregates.len(), 1);
        assert_eq!(spec.aggregates[0].name, "location");
        assert_eq!(spec.aggregates[0].critical_mass, 2);
        assert_eq!(spec.aggregates[0].freshness, SimDuration::from_secs(1));
        assert!(matches!(
            spec.aggregates[0].function,
            AggregateFn::CenterOfGravity
        ));
        assert_eq!(spec.objects.len(), 1);
        assert_eq!(spec.objects[0].methods.len(), 1);
    }

    #[test]
    fn fire_context_with_comparison_compiles() {
        let p = compile_source(
            r#"begin context fire
                 activation: temperature > 180 and light
                 heat : avg(temperature) confidence=3, freshness=3s
               end context"#,
        )
        .unwrap();
        let spec = p.spec(p.type_id("fire").unwrap());
        let mut s = envirotrack_world::sensing::SensorSample::zero();
        s.set(Channel::Temperature, 200.0);
        assert!(!spec.activation.eval(&s));
        s.set(Channel::Light, 1.0);
        assert!(spec.activation.eval(&s));
    }

    #[test]
    fn unknown_sensing_function_is_reported_with_alternatives() {
        let e =
            compile_source("begin context x\n activation: sonar_ping()\n end context").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("sonar_ping"), "{msg}");
        assert!(msg.contains("magnetic_sensor_reading"), "{msg}");
    }

    #[test]
    fn unknown_channel_is_reported() {
        let e = compile_source("begin context x\n activation: radiation > 5\n end context")
            .unwrap_err();
        assert!(e.to_string().contains("radiation"), "{e}");
    }

    #[test]
    fn missing_qos_attributes_are_errors() {
        let e = compile_source(
            "begin context x\n activation: light\n v : avg(light) confidence=2\n end context",
        )
        .unwrap_err();
        assert!(e.to_string().contains("freshness"), "{e}");
        let e = compile_source(
            "begin context x\n activation: light\n v : avg(light) freshness=1s\n end context",
        )
        .unwrap_err();
        assert!(e.to_string().contains("confidence"), "{e}");
    }

    #[test]
    fn undeclared_variable_in_body_is_an_error() {
        let e = compile_source(
            r#"begin context x
                 activation: light
                 begin object o
                   invocation: TIMER(1s)
                   f() { MySend(pursuer, self:label, velocity); }
                 end
               end context"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("velocity"), "{e}");
    }

    #[test]
    fn unsupported_statement_lists_the_supported_set() {
        let e = compile_source(
            r#"begin context x
                 activation: light
                 begin object o
                   invocation: TIMER(1s)
                   f() { detonate(); }
                 end
               end context"#,
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("detonate"), "{msg}");
        assert!(msg.contains("send_base"), "{msg}");
    }

    #[test]
    fn duplicate_context_surfaces_core_validation() {
        let src = "begin context a\n activation: light\n end context\nbegin context a\n activation: light\n end context";
        let e = compile_source(src).unwrap_err();
        assert!(matches!(
            e,
            CompileError::Program(ProgramError::DuplicateContext { .. })
        ));
    }

    #[test]
    fn not_and_or_compose_in_predicates() {
        let p = compile_source(
            "begin context x\n activation: not light and (motion or acoustic > 2)\n end context",
        )
        .unwrap();
        let spec = p.spec(p.type_id("x").unwrap());
        let mut s = envirotrack_world::sensing::SensorSample::zero();
        s.set(Channel::Acoustic, 3.0);
        assert!(spec.activation.eval(&s), "dark + loud should activate");
        s.set(Channel::Light, 1.0);
        assert!(!spec.activation.eval(&s), "light kills it via `not`");
    }
}
