//! Pretty-printer: AST back to EnviroTrack source.
//!
//! The emitted text re-parses to an identical AST ([`parse`] ∘
//! [`to_source`] is the identity on ASTs), which the property tests
//! exercise; it is also handy for tooling that rewrites declarations.
//!
//! [`parse`]: crate::parser::parse
//!
//! ```
//! use envirotrack_lang::parser::parse;
//! use envirotrack_lang::pretty::to_source;
//!
//! let ast = parse("begin context t\n activation: light\n end context").unwrap();
//! let src = to_source(&ast);
//! assert_eq!(parse(&src).unwrap().contexts[0].name, "t");
//! ```

use std::fmt::Write as _;

use crate::ast::{
    AggrDecl, AttrValue, BoolExpr, ContextDecl, Expr, InvocationDecl, MethodDecl, ObjectDecl,
    ProgramDecl, Stmt,
};

/// Renders a whole program.
#[must_use]
pub fn to_source(p: &ProgramDecl) -> String {
    let mut out = String::new();
    for c in &p.contexts {
        context_to_source(c, &mut out);
        out.push('\n');
    }
    out
}

fn context_to_source(c: &ContextDecl, out: &mut String) {
    let _ = writeln!(out, "begin context {}", c.name);
    let _ = writeln!(out, "  activation: {}", bool_expr(&c.activation));
    if let Some(d) = &c.deactivation {
        let _ = writeln!(out, "  deactivation: {}", bool_expr(d));
    }
    if let Some((x, y)) = c.pinned {
        let _ = writeln!(out, "  pinned: {}, {}", fmt_num(x), fmt_num(y));
    }
    for s in &c.subscriptions {
        let _ = writeln!(out, "  subscribe: {s}");
    }
    for a in &c.aggregates {
        let _ = writeln!(out, "  {}", aggr(a));
    }
    for o in &c.objects {
        object_to_source(o, out);
    }
    let _ = writeln!(out, "end context");
}

fn object_to_source(o: &ObjectDecl, out: &mut String) {
    let _ = writeln!(out, "  begin object {}", o.name);
    for m in &o.methods {
        method_to_source(m, out);
    }
    let _ = writeln!(out, "  end");
}

fn method_to_source(m: &MethodDecl, out: &mut String) {
    match m.invocation {
        InvocationDecl::TimerMicros(us) => {
            let _ = writeln!(out, "    invocation: TIMER({})", duration(us));
        }
        InvocationDecl::MessagePort(p) => {
            let _ = writeln!(out, "    invocation: MESSAGE({p})");
        }
    }
    let _ = writeln!(out, "    {}() {{", m.name);
    for s in &m.body {
        let _ = writeln!(out, "      {}", stmt(s));
    }
    let _ = writeln!(out, "    }}");
}

fn aggr(a: &AggrDecl) -> String {
    let attrs: Vec<String> = a
        .attrs
        .iter()
        .map(|(k, v)| match v {
            AttrValue::Int(n) => format!("{k}={n}"),
            AttrValue::Float(x) => format!("{k}={x}"),
            AttrValue::DurationMicros(us) => format!("{k}={}", duration(*us)),
            AttrValue::Ident(s) => format!("{k}={s}"),
        })
        .collect();
    format!(
        "{} : {}({}) {}",
        a.name,
        a.function,
        a.input,
        attrs.join(", ")
    )
}

/// A number as source text that lexes back to the same value: an integral
/// value below 1e15 as an integer, anything else as a float — with a `.0`
/// kept on an integral one, which would otherwise re-lex as an integer
/// literal, and past `u64::MAX` not lex at all.
fn fmt_num(x: f64) -> String {
    if x.fract() != 0.0 {
        format!("{x}")
    } else if x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}.0")
    }
}

fn duration(us: u64) -> String {
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

fn stmt(s: &Stmt) -> String {
    let args: Vec<String> = s.args.iter().map(expr).collect();
    format!("{}({});", s.name, args.join(", "))
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::SelfLabel => "self:label".into(),
        Expr::Var(v) => v.clone(),
        Expr::Str(s) => format!("{s:?}"),
        Expr::Num(x) => fmt_num(*x),
    }
}

/// Renders a boolean sensing expression (fully parenthesised, so
/// precedence survives the round trip).
#[must_use]
pub(crate) fn bool_expr(e: &BoolExpr) -> String {
    match e {
        BoolExpr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(|&x| fmt_num(x)).collect();
            format!("{name}({})", args.join(", "))
        }
        BoolExpr::Compare { channel, op, value } => {
            format!("{channel} {op} {}", fmt_num(*value))
        }
        BoolExpr::Truthy { channel } => channel.clone(),
        BoolExpr::And(l, r) => format!("({} and {})", bool_expr(l), bool_expr(r)),
        BoolExpr::Or(l, r) => format!("({} or {})", bool_expr(l), bool_expr(r)),
        BoolExpr::Not(inner) => format!("(not {})", bool_expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Zeroes source positions so structural comparison ignores layout.
    fn strip(mut p: ProgramDecl) -> ProgramDecl {
        for c in &mut p.contexts {
            c.line = 0;
            for a in &mut c.aggregates {
                a.line = 0;
            }
            for o in &mut c.objects {
                for m in &mut o.methods {
                    m.line = 0;
                    for s in &mut m.body {
                        s.line = 0;
                    }
                }
            }
        }
        p
    }

    #[test]
    fn figure_two_round_trips() {
        let src = r#"
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
        let ast = parse(src).unwrap();
        let printed = to_source(&ast);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{e}\n---\n{printed}"));
        assert_eq!(strip(reparsed), strip(ast));
    }

    #[test]
    fn precedence_survives_printing() {
        let src = "begin context x\n activation: not a and (b or c)\n end context";
        let ast = parse(src).unwrap();
        let reparsed = parse(&to_source(&ast)).unwrap();
        assert_eq!(strip(reparsed), strip(ast));
    }

    /// A threshold the language cannot hold is refused, and one it can is
    /// printed so that it reads back as itself: neither becomes the
    /// saturated `u64::MAX` ≈ 1.8446744073709552e19.
    #[test]
    fn large_thresholds_are_never_rewritten() {
        let big =
            "begin context x\n activation: temperature > 99999999999999999999999\n end context";
        let e = parse(big).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        let src =
            "begin context x\n activation: temperature > 100000000000000000000.0\n end context";
        let ast = parse(src).unwrap();
        let printed = to_source(&ast);
        assert!(
            printed.contains("temperature > 100000000000000000000.0"),
            "{printed}"
        );
        assert_eq!(strip(parse(&printed).unwrap()), strip(ast));
    }

    #[test]
    fn durations_print_in_natural_units() {
        assert_eq!(duration(5_000_000), "5s");
        assert_eq!(duration(250_000), "250ms");
        assert_eq!(duration(17), "17us");
    }
}
