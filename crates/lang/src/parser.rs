//! Recursive-descent parser for the Appendix-A grammar.
//!
//! ```
//! use envirotrack_lang::parser::parse;
//!
//! let program = parse(r#"
//!     begin context tracker
//!       activation: magnetic_sensor_reading()
//!       location : avg(position) confidence=2, freshness=1s
//!       begin object reporter
//!         invocation: TIMER(5s)
//!         report_function() {
//!           MySend(pursuer, self:label, location);
//!         }
//!       end
//!     end context
//! "#).unwrap();
//! assert_eq!(program.contexts.len(), 1);
//! assert_eq!(program.contexts[0].name, "tracker");
//! ```

use std::fmt;

use envirotrack_core::context::CmpOp;

use crate::ast::{
    AggrDecl, AttrValue, BoolExpr, ContextDecl, Expr, InvocationDecl, MethodDecl, ObjectDecl,
    ProgramDecl, Stmt,
};
use crate::token::{lex, LexError, Spanned, Tok};

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses a full program.
///
/// # Errors
///
/// Returns [`ParseError`] with the position of the first offending token.
pub fn parse(src: &str) -> Result<ProgramDecl, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut contexts = Vec::new();
    while !p.at_eof() {
        contexts.push(p.context_decl()?);
    }
    if contexts.is_empty() {
        return Err(ParseError {
            message: "empty program: expected `begin context`".into(),
            line: 1,
            col: 1,
        });
    }
    Ok(ProgramDecl { contexts })
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.toks[self.pos]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().tok, Tok::Eof)
    }

    fn bump(&mut self) -> Spanned {
        let s = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        s
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let s = self.peek();
        Err(ParseError {
            message: message.into(),
            line: s.line,
            col: s.col,
        })
    }

    fn expect_tok(&mut self, tok: &Tok, what: &str) -> Result<Spanned, ParseError> {
        if &self.peek().tok == tok {
            Ok(self.bump())
        } else {
            self.error(format!("expected {what}, found `{}`", self.peek().tok))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                let line = self.peek().line;
                self.bump();
                Ok((s, line))
            }
            other => self.error(format!("expected identifier, found `{other}`")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.error(format!("expected `{kw}`, found `{other}`")),
        }
    }

    fn peek_ident(&self) -> Option<&str> {
        match &self.peek().tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn peek2_tok(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    // ------------------------------------------------------------------

    fn context_decl(&mut self) -> Result<ContextDecl, ParseError> {
        let line = self.peek().line;
        self.expect_keyword("begin")?;
        self.expect_keyword("context")?;
        let (name, _) = self.expect_ident()?;

        self.expect_keyword("activation")?;
        self.expect_tok(&Tok::Colon, "`:` after activation")?;
        let activation = self.bool_expr()?;

        let mut deactivation = None;
        let mut subscriptions = Vec::new();
        let mut aggregates = Vec::new();
        let mut objects = Vec::new();
        let mut pinned = None;

        loop {
            match self.peek_ident() {
                Some("end") => {
                    self.bump();
                    self.expect_keyword("context")?;
                    break;
                }
                Some("deactivation") => {
                    self.bump();
                    self.expect_tok(&Tok::Colon, "`:` after deactivation")?;
                    if deactivation.is_some() {
                        return self.error("duplicate deactivation clause");
                    }
                    deactivation = Some(self.bool_expr()?);
                }
                Some("subscribe") => {
                    self.bump();
                    self.expect_tok(&Tok::Colon, "`:` after subscribe")?;
                    let (t, _) = self.expect_ident()?;
                    subscriptions.push(t);
                }
                Some("pinned") => {
                    self.bump();
                    self.expect_tok(&Tok::Colon, "`:` after pinned")?;
                    let x = self.number("x coordinate")?;
                    self.expect_tok(&Tok::Comma, "`,` between coordinates")?;
                    let y = self.number("y coordinate")?;
                    if pinned.is_some() {
                        return self.error("duplicate pinned clause");
                    }
                    pinned = Some((x, y));
                }
                Some("begin") => {
                    objects.push(self.object_decl()?);
                }
                Some(_) if self.peek2_tok() == Some(&Tok::Colon) => {
                    aggregates.push(self.aggr_decl()?);
                }
                _ => {
                    return self.error(
                        "expected an aggregate declaration, `begin object`, or `end context`",
                    )
                }
            }
        }

        Ok(ContextDecl {
            name,
            activation,
            deactivation,
            subscriptions,
            aggregates,
            objects,
            pinned,
            line,
        })
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.bump().tok {
            Tok::Int(n) => Ok(n as f64),
            Tok::Float(x) => Ok(x),
            other => self.error(format!("expected {what}, found `{other}`")),
        }
    }

    fn aggr_decl(&mut self) -> Result<AggrDecl, ParseError> {
        let (name, line) = self.expect_ident()?;
        self.expect_tok(&Tok::Colon, "`:` in aggregate declaration")?;
        let (function, _) = self.expect_ident()?;
        self.expect_tok(&Tok::LParen, "`(` after aggregation function")?;
        let (input, _) = self.expect_ident()?;
        self.expect_tok(&Tok::RParen, "`)` after aggregation input")?;

        let mut attrs = Vec::new();
        loop {
            // Attribute list: IDENT = value, possibly comma-separated. It
            // ends when the next token isn't `ident =`.
            let is_attr =
                matches!(&self.peek().tok, Tok::Ident(_)) && self.peek2_tok() == Some(&Tok::Eq);
            if !is_attr {
                break;
            }
            let (key, _) = self.expect_ident()?;
            self.expect_tok(&Tok::Eq, "`=` in attribute")?;
            let value = match self.bump().tok {
                Tok::Int(n) => AttrValue::Int(n),
                Tok::Float(x) => AttrValue::Float(x),
                Tok::Duration(us) => AttrValue::DurationMicros(us),
                Tok::Ident(s) => AttrValue::Ident(s),
                other => return self.error(format!("invalid attribute value `{other}`")),
            };
            attrs.push((key, value));
            if self.peek().tok == Tok::Comma {
                self.bump();
            }
        }
        Ok(AggrDecl {
            name,
            function,
            input,
            attrs,
            line,
        })
    }

    fn object_decl(&mut self) -> Result<ObjectDecl, ParseError> {
        self.expect_keyword("begin")?;
        self.expect_keyword("object")?;
        let (name, _) = self.expect_ident()?;
        let mut methods = Vec::new();
        loop {
            match self.peek_ident() {
                Some("end") => {
                    self.bump();
                    break;
                }
                Some("invocation") => methods.push(self.method_decl()?),
                _ => return self.error("expected `invocation:` or `end` in object"),
            }
        }
        if methods.is_empty() {
            return self.error("an object needs at least one function");
        }
        Ok(ObjectDecl { name, methods })
    }

    fn method_decl(&mut self) -> Result<MethodDecl, ParseError> {
        self.expect_keyword("invocation")?;
        self.expect_tok(&Tok::Colon, "`:` after invocation")?;
        let (kind, _) = self.expect_ident()?;
        let invocation = match kind.to_ascii_uppercase().as_str() {
            "TIMER" => {
                self.expect_tok(&Tok::LParen, "`(`")?;
                let us = match self.bump().tok {
                    Tok::Duration(us) => us,
                    Tok::Int(secs) if secs <= u64::MAX / 1_000_000 => secs * 1_000_000,
                    other => return self.error(format!("expected a period, found `{other}`")),
                };
                self.expect_tok(&Tok::RParen, "`)`")?;
                InvocationDecl::TimerMicros(us)
            }
            "MESSAGE" => {
                self.expect_tok(&Tok::LParen, "`(`")?;
                let port = match self.bump().tok {
                    Tok::Int(n) if n <= u64::from(u16::MAX) => n as u16,
                    other => return self.error(format!("expected a port number, found `{other}`")),
                };
                self.expect_tok(&Tok::RParen, "`)`")?;
                InvocationDecl::MessagePort(port)
            }
            other => {
                return self.error(format!(
                    "unknown invocation condition `{other}` (expected TIMER or MESSAGE)"
                ))
            }
        };

        let (name, line) = self.expect_ident()?;
        self.expect_tok(&Tok::LParen, "`(` after function name")?;
        self.expect_tok(&Tok::RParen, "`)` (parameters are not supported)")?;
        self.expect_tok(&Tok::LBrace, "`{` opening the function body")?;
        let mut body = Vec::new();
        while self.peek().tok != Tok::RBrace {
            body.push(self.stmt()?);
        }
        self.expect_tok(&Tok::RBrace, "`}`")?;
        Ok(MethodDecl {
            name,
            invocation,
            body,
            line,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let (name, line) = self.expect_ident()?;
        self.expect_tok(&Tok::LParen, "`(` in statement")?;
        let mut args = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                args.push(self.expr()?);
                if self.peek().tok == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_tok(&Tok::RParen, "`)` closing the argument list")?;
        self.expect_tok(&Tok::Semi, "`;` after statement")?;
        Ok(Stmt { name, args, line })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.bump().tok {
            Tok::Ident(s) if s == "self" => {
                self.expect_tok(&Tok::Colon, "`:` in self:label")?;
                self.expect_keyword("label")?;
                Ok(Expr::SelfLabel)
            }
            Tok::Ident(s) => Ok(Expr::Var(s)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Int(n) => Ok(Expr::Num(n as f64)),
            Tok::Float(x) => Ok(Expr::Num(x)),
            other => self.error(format!("invalid expression `{other}`")),
        }
    }

    // ------------------------------------------------------------------
    // Boolean sensing expressions (precedence: not > and > or).
    // ------------------------------------------------------------------

    fn bool_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut left = self.and_expr()?;
        while self.peek_ident() == Some("or") {
            self.bump();
            let right = self.and_expr()?;
            left = BoolExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut left = self.unary_expr()?;
        while self.peek_ident() == Some("and") {
            self.bump();
            let right = self.unary_expr()?;
            left = BoolExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<BoolExpr, ParseError> {
        if self.peek_ident() == Some("not") {
            self.bump();
            let inner = self.unary_expr()?;
            return Ok(BoolExpr::Not(Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<BoolExpr, ParseError> {
        if self.peek().tok == Tok::LParen {
            self.bump();
            let inner = self.bool_expr()?;
            self.expect_tok(&Tok::RParen, "`)`")?;
            return Ok(inner);
        }
        let (name, _) = self.expect_ident()?;
        match &self.peek().tok {
            Tok::LParen => {
                self.bump();
                let mut args = Vec::new();
                if self.peek().tok != Tok::RParen {
                    loop {
                        match self.bump().tok {
                            Tok::Int(n) => args.push(n as f64),
                            Tok::Float(x) => args.push(x),
                            other => {
                                return self.error(format!(
                                    "sensing functions take numbers, found `{other}`"
                                ))
                            }
                        }
                        if self.peek().tok == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_tok(&Tok::RParen, "`)`")?;
                Ok(BoolExpr::Call { name, args })
            }
            Tok::Gt | Tok::Lt | Tok::Ge | Tok::Le | Tok::EqEq => {
                let op = match self.bump().tok {
                    Tok::Gt => CmpOp::Gt,
                    Tok::Lt => CmpOp::Lt,
                    Tok::Ge => CmpOp::Ge,
                    Tok::Le => CmpOp::Le,
                    Tok::EqEq => CmpOp::Eq,
                    _ => unreachable!("guarded by the match above"),
                };
                let value = self.number("a number")?;
                Ok(BoolExpr::Compare {
                    channel: name,
                    op,
                    value,
                })
            }
            _ => Ok(BoolExpr::Truthy { channel: name }),
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
    fn figure_two_parses_exactly() {
        let p = parse(FIGURE_2).unwrap();
        assert_eq!(p.contexts.len(), 1);
        let c = &p.contexts[0];
        assert_eq!(c.name, "tracker");
        assert_eq!(
            c.activation,
            BoolExpr::Call {
                name: "magnetic_sensor_reading".into(),
                args: vec![]
            }
        );
        assert!(c.deactivation.is_none());
        assert_eq!(c.aggregates.len(), 1);
        let a = &c.aggregates[0];
        assert_eq!(a.name, "location");
        assert_eq!(a.function, "avg");
        assert_eq!(a.input, "position");
        assert_eq!(
            a.attrs,
            vec![
                ("confidence".into(), AttrValue::Int(2)),
                ("freshness".into(), AttrValue::DurationMicros(1_000_000)),
            ]
        );
        assert_eq!(c.objects.len(), 1);
        let o = &c.objects[0];
        assert_eq!(o.name, "reporter");
        assert_eq!(o.methods.len(), 1);
        let m = &o.methods[0];
        assert_eq!(m.name, "report_function");
        assert_eq!(m.invocation, InvocationDecl::TimerMicros(5_000_000));
        assert_eq!(m.body.len(), 1);
        assert_eq!(m.body[0].name, "MySend");
        assert_eq!(
            m.body[0].args,
            vec![
                Expr::Var("pursuer".into()),
                Expr::SelfLabel,
                Expr::Var("location".into())
            ]
        );
    }

    #[test]
    fn fire_condition_with_and_parses() {
        let p = parse("begin context fire\n activation: temperature > 180 and light\n end context")
            .unwrap();
        match &p.contexts[0].activation {
            BoolExpr::And(l, r) => {
                assert_eq!(
                    **l,
                    BoolExpr::Compare {
                        channel: "temperature".into(),
                        op: CmpOp::Gt,
                        value: 180.0
                    }
                );
                assert_eq!(
                    **r,
                    BoolExpr::Truthy {
                        channel: "light".into()
                    }
                );
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn precedence_not_and_or() {
        let p = parse("begin context x\n activation: not a and b or c\n end context").unwrap();
        // ((not a) and b) or c
        match &p.contexts[0].activation {
            BoolExpr::Or(l, r) => {
                assert_eq!(
                    **r,
                    BoolExpr::Truthy {
                        channel: "c".into()
                    }
                );
                match &**l {
                    BoolExpr::And(ll, lr) => {
                        assert!(matches!(**ll, BoolExpr::Not(_)));
                        assert_eq!(
                            **lr,
                            BoolExpr::Truthy {
                                channel: "b".into()
                            }
                        );
                    }
                    other => panic!("expected And, got {other:?}"),
                }
            }
            other => panic!("expected Or, got {other:?}"),
        }
        // Parentheses override.
        let p = parse("begin context x\n activation: a and (b or c)\n end context").unwrap();
        assert!(
            matches!(&p.contexts[0].activation, BoolExpr::And(_, r) if matches!(**r, BoolExpr::Or(_, _)))
        );
    }

    #[test]
    fn pinned_clause_parses() {
        let p = parse("begin context panel\n activation: light\n pinned: 3.5, 4\n end context")
            .unwrap();
        assert_eq!(p.contexts[0].pinned, Some((3.5, 4.0)));
        let e = parse(
            "begin context panel\n activation: light\n pinned: 1, 2\n pinned: 3, 4\n end context",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate pinned"), "{e}");
    }

    #[test]
    fn deactivation_and_subscriptions_parse() {
        let p = parse(
            "begin context fire\n activation: temperature > 180\n deactivation: temperature < 120\n subscribe: sprinkler\n end context",
        )
        .unwrap();
        let c = &p.contexts[0];
        assert!(c.deactivation.is_some());
        assert_eq!(c.subscriptions, vec!["sprinkler".to_owned()]);
    }

    #[test]
    fn message_invocation_and_multiple_statements() {
        let p = parse(
            r#"begin context relay
                 activation: motion_detected()
                 begin object sink
                   invocation: MESSAGE(7)
                   on_msg() {
                     log("got one");
                     log("and another");
                   }
                 end
               end context"#,
        )
        .unwrap();
        let m = &p.contexts[0].objects[0].methods[0];
        assert_eq!(m.invocation, InvocationDecl::MessagePort(7));
        assert_eq!(m.body.len(), 2);
        assert_eq!(m.body[1].args, vec![Expr::Str("and another".into())]);
    }

    #[test]
    fn multiple_contexts_parse() {
        let p = parse(
            "begin context a\n activation: light\n end context\nbegin context b\n activation: motion\n end context",
        )
        .unwrap();
        assert_eq!(p.contexts.len(), 2);
        assert_eq!(p.contexts[1].name, "b");
    }

    #[test]
    fn errors_carry_positions_and_hints() {
        let e = parse("begin context x\n activation magnetic\n end context").unwrap_err();
        assert!(e.message.contains("`:`"), "{e}");
        assert_eq!(e.line, 2);

        let e = parse("").unwrap_err();
        assert!(e.message.contains("empty program"));

        let e = parse("begin context x\n activation: a\n begin object o\n end\n end context")
            .unwrap_err();
        assert!(e.message.contains("at least one function"), "{e}");

        let e = parse(
            "begin context x\n activation: a\n begin object o\n invocation: WHENEVER(1s)\n f() {}\n end\n end context",
        )
        .unwrap_err();
        assert!(e.message.contains("WHENEVER"), "{e}");

        // A period in seconds past `u64::MAX` microseconds.
        let e = parse(
            "begin context x\n activation: a\n begin object o\n invocation: TIMER(18446744073710)\n f() {}\n end\n end context",
        )
        .unwrap_err();
        assert!(e.message.contains("expected a period"), "{e}");
    }

    #[test]
    fn statement_requires_semicolon() {
        let e = parse(
            r#"begin context x
                 activation: a
                 begin object o
                   invocation: TIMER(1s)
                   f() { log("hi") }
                 end
               end context"#,
        )
        .unwrap_err();
        assert!(e.message.contains("`;`"), "{e}");
    }
}
