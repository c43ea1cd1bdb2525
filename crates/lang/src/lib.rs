//! # envirotrack-lang
//!
//! The EnviroTrack declaration language (paper §4, Appendix A) and its
//! preprocessor. Where the original emitted NesC from program templates,
//! this crate compiles the same surface syntax straight into the runtime
//! [`Program`](envirotrack_core::api::Program) structures executed by
//! `envirotrack-core`:
//!
//! ```
//! use envirotrack_lang::compile::compile_source;
//!
//! // Figure 2 of the paper, verbatim modulo whitespace.
//! let program = compile_source(r#"
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
//! assert!(program.type_id("tracker").is_some());
//! ```
//!
//! * [`token`] — the lexer.
//! * [`ast`] — the syntax tree (mirrors the Appendix-A grammar).
//! * [`parser`] — recursive descent with positioned errors.
//! * [`builtins`] — the named sensing-function library.
//! * [`compile`] — semantic analysis and code generation.

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod parser;
pub mod pretty;
pub mod token;

pub use compile::compile_source;
