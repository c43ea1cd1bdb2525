//! # envirotrack-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) against the simulated EnviroTrack stack.
//!
//! | Paper result | Module | CLI |
//! |---|---|---|
//! | Fig. 3 — tracked tank trajectory | [`experiments::fig3`] | `repro fig3` |
//! | Fig. 4 — successful handovers | [`experiments::fig4`] | `repro fig4` |
//! | Table 1 — communication performance | [`experiments::table1`] | `repro table1` |
//! | Fig. 5 — timers vs. max trackable speed | [`experiments::fig5`] | `repro fig5` |
//! | Fig. 6 — CR:SR ratio vs. max trackable speed | [`experiments::fig6`] | `repro fig6` |
//! | Ablations (weights, timers, reliability) | [`experiments::ablations`] | `repro ablations` |
//!
//! Absolute numbers are not expected to match the MICA testbed; the
//! *shapes* (who wins, rough factors, where breakdowns happen) are the
//! reproduction target. See `EXPERIMENTS.md` at the workspace root for the
//! side-by-side record.

pub mod experiments;
mod flags;
pub mod harness;
pub mod plot;
pub mod soak;
pub mod storm;
pub mod sweep;

pub use flags::Flags;
