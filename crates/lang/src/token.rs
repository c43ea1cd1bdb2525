//! Lexer for the EnviroTrack context-declaration language.
//!
//! The surface syntax follows the paper's Figure 2 and Appendix A:
//!
//! ```text
//! begin context tracker
//!   activation: magnetic_sensor_reading()
//!   location : avg(position) confidence=2, freshness=1s
//!   begin object reporter
//!     invocation: TIMER(5s)
//!     report_function() {
//!       MySend(pursuer, self:label, location);
//!     }
//!   end
//! end context
//! ```
//!
//! Tokens carry their source line/column for error reporting.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// An identifier or keyword (`begin`, `context`, `avg`, `tracker`, …).
    Ident(String),
    /// An integer literal.
    Int(u64),
    /// A floating-point literal.
    Float(f64),
    /// A duration literal such as `1s`, `250ms`, `5us`.
    Duration(u64),
    /// A double-quoted string literal (escapes: `\"` and `\\`).
    Str(String),
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `=`
    Eq,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `==`
    EqEq,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Duration(us) => write!(f, "{us}us"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Colon => f.write_str(":"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::Eq => f.write_str("="),
            Tok::Gt => f.write_str(">"),
            Tok::Lt => f.write_str("<"),
            Tok::Ge => f.write_str(">="),
            Tok::Le => f.write_str("<="),
            Tok::EqEq => f.write_str("=="),
            Tok::Eof => f.write_str("<end of input>"),
        }
    }
}

/// A token plus its source position (1-based).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Error produced on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenises `src`. Comments run from `//` or `#` to end of line.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters, malformed numbers, or
/// unterminated strings.
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;

    let err = |message: &str, line: u32, col: u32| LexError {
        message: message.into(),
        line,
        col,
    };

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        let advance = |i: &mut usize, line: &mut u32, col: &mut u32| {
            if bytes[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => advance(&mut i, &mut line, &mut col),
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    advance(&mut i, &mut line, &mut col);
                }
            }
            '#' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    advance(&mut i, &mut line, &mut col);
                }
            }
            ':' => {
                out.push(Spanned {
                    tok: Tok::Colon,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            ',' => {
                out.push(Spanned {
                    tok: Tok::Comma,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            ';' => {
                out.push(Spanned {
                    tok: Tok::Semi,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            '(' => {
                out.push(Spanned {
                    tok: Tok::LParen,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            ')' => {
                out.push(Spanned {
                    tok: Tok::RParen,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            '{' => {
                out.push(Spanned {
                    tok: Tok::LBrace,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            '}' => {
                out.push(Spanned {
                    tok: Tok::RBrace,
                    line: tline,
                    col: tcol,
                });
                advance(&mut i, &mut line, &mut col);
            }
            '=' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    out.push(Spanned {
                        tok: Tok::EqEq,
                        line: tline,
                        col: tcol,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Eq,
                        line: tline,
                        col: tcol,
                    });
                }
            }
            '>' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    out.push(Spanned {
                        tok: Tok::Ge,
                        line: tline,
                        col: tcol,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Gt,
                        line: tline,
                        col: tcol,
                    });
                }
            }
            '<' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    out.push(Spanned {
                        tok: Tok::Le,
                        line: tline,
                        col: tcol,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Lt,
                        line: tline,
                        col: tcol,
                    });
                }
            }
            '"' => {
                advance(&mut i, &mut line, &mut col); // opening quote
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err("unterminated string literal", tline, tcol));
                    }
                    match bytes[i] {
                        '"' => {
                            advance(&mut i, &mut line, &mut col);
                            break;
                        }
                        '\\' => {
                            advance(&mut i, &mut line, &mut col);
                            if i >= bytes.len() {
                                return Err(err("unterminated escape", tline, tcol));
                            }
                            match bytes[i] {
                                '"' => s.push('"'),
                                '\\' => s.push('\\'),
                                'n' => s.push('\n'),
                                other => {
                                    return Err(err(
                                        &format!("unknown escape \\{other}"),
                                        line,
                                        col,
                                    ))
                                }
                            }
                            advance(&mut i, &mut line, &mut col);
                        }
                        other => {
                            s.push(other);
                            advance(&mut i, &mut line, &mut col);
                        }
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line: tline,
                    col: tcol,
                });
            }
            c if c.is_ascii_digit() => {
                let mut num = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    num.push(bytes[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                // Optional unit suffix → duration literal.
                let mut unit = String::new();
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    unit.push(bytes[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                let value: f64 = num
                    .parse()
                    .map_err(|_| err(&format!("malformed number {num:?}"), tline, tcol))?;
                let tok = match unit.as_str() {
                    "" => {
                        if num.contains('.') {
                            Tok::Float(value)
                        } else {
                            Tok::Int(value as u64)
                        }
                    }
                    "s" | "sec" => Tok::Duration((value * 1e6).round() as u64),
                    "ms" => Tok::Duration((value * 1e3).round() as u64),
                    "us" => Tok::Duration(value.round() as u64),
                    "min" => Tok::Duration((value * 60e6).round() as u64),
                    other => {
                        return Err(err(&format!("unknown unit suffix {other:?}"), tline, tcol))
                    }
                };
                out.push(Spanned {
                    tok,
                    line: tline,
                    col: tcol,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    s.push(bytes[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                out.push(Spanned {
                    tok: Tok::Ident(s),
                    line: tline,
                    col: tcol,
                });
            }
            other => return Err(err(&format!("unexpected character {other:?}"), tline, tcol)),
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn figure_two_header_lexes() {
        let t = toks("begin context tracker\nactivation: magnetic_sensor_reading()");
        assert_eq!(
            t,
            vec![
                Tok::Ident("begin".into()),
                Tok::Ident("context".into()),
                Tok::Ident("tracker".into()),
                Tok::Ident("activation".into()),
                Tok::Colon,
                Tok::Ident("magnetic_sensor_reading".into()),
                Tok::LParen,
                Tok::RParen,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn durations_parse_with_units() {
        assert_eq!(toks("1s"), vec![Tok::Duration(1_000_000), Tok::Eof]);
        assert_eq!(toks("250ms"), vec![Tok::Duration(250_000), Tok::Eof]);
        assert_eq!(toks("5us"), vec![Tok::Duration(5), Tok::Eof]);
        assert_eq!(toks("0.5s"), vec![Tok::Duration(500_000), Tok::Eof]);
        assert_eq!(toks("2min"), vec![Tok::Duration(120_000_000), Tok::Eof]);
    }

    #[test]
    fn numbers_and_comparisons() {
        assert_eq!(
            toks("temperature > 180"),
            vec![
                Tok::Ident("temperature".into()),
                Tok::Gt,
                Tok::Int(180),
                Tok::Eof
            ]
        );
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5), Tok::Eof]);
        assert_eq!(
            toks(">= <= =="),
            vec![Tok::Ge, Tok::Le, Tok::EqEq, Tok::Eof]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(toks(r#""hello""#), vec![Tok::Str("hello".into()), Tok::Eof]);
        assert_eq!(
            toks(r#""a\"b\\c""#),
            vec![Tok::Str(r#"a"b\c"#.into()), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
        assert_eq!(
            toks("# whole line\nc"),
            vec![Tok::Ident("c".into()), Tok::Eof]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let spanned = lex("a\n  b").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn unknown_characters_error_with_position() {
        let e = lex("ok @").unwrap_err();
        assert!(e.message.contains('@'));
        assert_eq!((e.line, e.col), (1, 4));
    }

    #[test]
    fn unknown_unit_suffix_is_rejected() {
        assert!(lex("5parsecs").is_err());
    }
}
