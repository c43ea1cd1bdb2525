//! Property-based tests: pretty-print ∘ parse round trips for random ASTs,
//! and compiled sensing predicates against the expressions they came from.

use envirotrack_core::context::{CmpOp, SensePredicate};
use envirotrack_lang::ast::{
    AggrDecl, AttrValue, BoolExpr, ContextDecl, Expr, InvocationDecl, MethodDecl, ObjectDecl,
    ProgramDecl, Stmt,
};
use envirotrack_lang::compile_source;
use envirotrack_lang::parser::parse;
use envirotrack_lang::pretty::to_source;
use envirotrack_sim::rng::SimRng;
use envirotrack_world::sensing::SensorSample;
use envirotrack_world::target::Channel;
use testkit::prelude::*;

/// Identifiers that cannot collide with keywords or tokens.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| {
        !matches!(
            s.as_str(),
            "begin"
                | "end"
                | "context"
                | "object"
                | "activation"
                | "deactivation"
                | "invocation"
                | "subscribe"
                | "and"
                | "or"
                | "not"
                | "self"
                | "label"
        )
    })
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Gt),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
    ]
}

/// Thresholds and arguments: whole numbers, fractions, and whole numbers
/// from 1e15 — where the printer turns to float literals — to well past
/// `u64::MAX`.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..100_000).prop_map(f64::from),
        (0u32..100_000).prop_map(|n| f64::from(n) / 64.0),
        (1u32..10, 15u32..40).prop_map(|(m, e)| f64::from(m) * 10f64.powi(e as i32)),
    ]
}

/// `leaf`s composed with `and`, `or` and `not`, three levels deep.
fn composed(leaf: impl Strategy<Value = BoolExpr> + 'static) -> impl Strategy<Value = BoolExpr> {
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| BoolExpr::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| BoolExpr::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|e| BoolExpr::Not(Box::new(e))),
        ]
    })
}

/// Any sensing expression the grammar admits, names and channels
/// arbitrary: most do not compile.
fn arb_bool_expr() -> impl Strategy<Value = BoolExpr> {
    composed(prop_oneof![
        (ident(), prop::collection::vec(arb_value(), 0..3))
            .prop_map(|(name, args)| BoolExpr::Call { name, args }),
        (ident(), arb_cmp(), arb_value()).prop_map(|(channel, op, value)| BoolExpr::Compare {
            channel,
            op,
            value
        }),
        ident().prop_map(|channel| BoolExpr::Truthy { channel }),
    ])
}

/// The zero-argument detectors of the standard library, and the channel
/// each compares with 0.5.
const DETECTORS: [(&str, Channel); 4] = [
    ("magnetic_sensor_reading", Channel::Magnetic),
    ("light_sensor_reading", Channel::Light),
    ("motion_detected", Channel::Motion),
    ("acoustic_detected", Channel::Acoustic),
];

fn arb_channel() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| Channel::ALL[i].to_string())
}

/// Sensing expressions that compile: standard library calls, comparisons
/// and bare channels, composed.
fn arb_sensing_expr() -> impl Strategy<Value = BoolExpr> {
    composed(prop_oneof![
        (0usize..4).prop_map(|i| BoolExpr::Call {
            name: DETECTORS[i].0.into(),
            args: vec![],
        }),
        (arb_channel(), any::<bool>(), arb_value()).prop_map(|(ch, above, x)| BoolExpr::Call {
            name: format!("{ch}_{}", if above { "above" } else { "below" }),
            args: vec![x],
        }),
        (arb_channel(), arb_cmp(), arb_value())
            .prop_map(|(channel, op, value)| BoolExpr::Compare { channel, op, value }),
        arb_channel().prop_map(|channel| BoolExpr::Truthy { channel }),
    ])
}

/// What `expr` says of `s`, read straight off the syntax: a detector or a
/// bare channel is `> 0.5`, `<channel>_above(x)` is `> x`,
/// `<channel>_below(x)` is `< x`, and `==` holds to within `f64::EPSILON`.
fn interpret(expr: &BoolExpr, s: &SensorSample) -> bool {
    let read = |channel: &str| s.get(channel.parse().expect("a channel"));
    match expr {
        BoolExpr::Call { name, args } => {
            match (DETECTORS.iter().find(|d| d.0 == name), &args[..]) {
                (Some(&(_, channel)), []) => s.get(channel) > 0.5,
                (None, &[x]) => match name.rsplit_once('_') {
                    Some((channel, "above")) => read(channel) > x,
                    Some((channel, "below")) => read(channel) < x,
                    _ => panic!("no function {name}"),
                },
                _ => panic!("no function {name} of {} argument(s)", args.len()),
            }
        }
        BoolExpr::Compare { channel, op, value } => {
            let x = read(channel);
            match op {
                CmpOp::Gt => x > *value,
                CmpOp::Lt => x < *value,
                CmpOp::Ge => x >= *value,
                CmpOp::Le => x <= *value,
                CmpOp::Eq => (x - value).abs() < f64::EPSILON,
            }
        }
        BoolExpr::Truthy { channel } => read(channel) > 0.5,
        BoolExpr::And(l, r) => interpret(l, s) && interpret(r, s),
        BoolExpr::Or(l, r) => interpret(l, s) || interpret(r, s),
        BoolExpr::Not(inner) => !interpret(inner, s),
    }
}

/// The constants `expr` compares with.
fn constants(expr: &BoolExpr, out: &mut Vec<f64>) {
    match expr {
        BoolExpr::Call { args, .. } => out.extend(args),
        BoolExpr::Compare { value, .. } => out.push(*value),
        BoolExpr::Truthy { .. } => {}
        BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
            constants(l, out);
            constants(r, out);
        }
        BoolExpr::Not(inner) => constants(inner, out),
    }
}

/// `expr` as the activation of a one-type program, compiled from source.
fn compile(expr: &BoolExpr) -> SensePredicate {
    let decl = ContextDecl {
        name: "x".into(),
        activation: expr.clone(),
        deactivation: None,
        subscriptions: vec![],
        pinned: None,
        aggregates: vec![],
        objects: vec![],
        line: 0,
    };
    let src = to_source(&ProgramDecl {
        contexts: vec![decl],
    });
    let program = compile_source(&src).unwrap_or_else(|e| panic!("{e}\n--- source ---\n{src}"));
    program
        .spec(program.type_id("x").expect("declared"))
        .activation
        .clone()
}

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (0u64..1_000_000).prop_map(AttrValue::Int),
        // Durations only in whole ms so the printer's unit choice re-lexes
        // identically.
        (1u64..100_000).prop_map(|ms| AttrValue::DurationMicros(ms * 1000)),
        ident().prop_map(AttrValue::Ident),
    ]
}

fn arb_aggr() -> impl Strategy<Value = AggrDecl> {
    (
        ident(),
        ident(),
        ident(),
        prop::collection::vec((ident(), arb_attr_value()), 0..3),
    )
        .prop_map(|(name, function, input, attrs)| AggrDecl {
            name,
            function,
            input,
            attrs,
            line: 0,
        })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::SelfLabel),
        ident().prop_map(Expr::Var),
        "[ -!#-\\[\\]-~]{0,12}".prop_map(Expr::Str), // printable, no quote/backslash
        (0u32..1_000_000).prop_map(|n| Expr::Num(f64::from(n))),
    ]
}

fn arb_method() -> impl Strategy<Value = MethodDecl> {
    let invocation = prop_oneof![
        (1u64..10_000).prop_map(|ms| InvocationDecl::TimerMicros(ms * 1000)),
        any::<u16>().prop_map(InvocationDecl::MessagePort),
    ];
    (
        ident(),
        invocation,
        prop::collection::vec(
            (ident(), prop::collection::vec(arb_expr(), 0..4)).prop_map(|(name, args)| Stmt {
                name,
                args,
                line: 0,
            }),
            0..4,
        ),
    )
        .prop_map(|(name, invocation, body)| MethodDecl {
            name,
            invocation,
            body,
            line: 0,
        })
}

fn arb_object() -> impl Strategy<Value = ObjectDecl> {
    (ident(), prop::collection::vec(arb_method(), 1..3))
        .prop_map(|(name, methods)| ObjectDecl { name, methods })
}

fn arb_context() -> impl Strategy<Value = ContextDecl> {
    (
        ident(),
        arb_bool_expr(),
        prop::option::of(arb_bool_expr()),
        prop::collection::vec(ident(), 0..3),
        prop::option::of((0u32..100, 0u32..100).prop_map(|(x, y)| (f64::from(x), f64::from(y)))),
        prop::collection::vec(arb_aggr(), 0..3),
        prop::collection::vec(arb_object(), 0..2),
    )
        .prop_map(
            |(name, activation, deactivation, subscriptions, pinned, aggregates, objects)| {
                ContextDecl {
                    name,
                    activation,
                    deactivation,
                    subscriptions,
                    pinned,
                    aggregates,
                    objects,
                    line: 0,
                }
            },
        )
}

/// Strips source positions so structural equality ignores them.
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

prop_test! {
    /// Printing any AST and re-parsing it yields the same AST.
    #[test]
    fn print_parse_round_trip(contexts in prop::collection::vec(arb_context(), 1..3)) {
        let ast = ProgramDecl { contexts };
        let src = to_source(&ast);
        let reparsed = parse(&src).unwrap_or_else(|e| panic!("{e}\n--- source ---\n{src}"));
        prop_assert_eq!(strip(reparsed), ast);
    }

    /// A compiled activation condition evaluates as its expression reads,
    /// on samples whose channels sit on, beside and away from every
    /// constant the expression compares with; and compiling the same
    /// source twice builds equal predicates.
    #[test]
    fn compiled_predicate_means_what_its_source_says(expr in arb_sensing_expr(), seed: u64) {
        let compiled = compile(&expr);
        prop_assert_eq!(&compiled, &compile(&expr));
        let mut near = vec![0.5];
        constants(&expr, &mut near);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            let mut s = SensorSample::zero();
            for ch in Channel::ALL {
                let c = near[rng.below(near.len() as u64) as usize];
                let x = match rng.below(3) {
                    0 => c,
                    1 => c + rng.uniform_range(-1.0, 1.0),
                    _ => rng.uniform_range(-10.0, 10.0),
                };
                s.set(ch, x);
            }
            prop_assert_eq!(compiled.eval(&s), interpret(&expr, &s), "{} on {:?}", compiled, s);
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_is_total(src in "\\PC{0,200}") {
        let _ = parse(&src);
    }
}
