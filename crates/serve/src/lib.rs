//! Tracking as a *service*: a TCP session server in front of the
//! simulation.
//!
//! EnviroTrack's promise (PAPER.md §2) is that tracking is a service
//! abstraction over the sensor field. Everything below this crate drives
//! the field in-process; this crate puts a network front door on it — a
//! std-only (no async runtime) TCP server speaking a length-prefixed
//! binary session protocol (`core::wire::session`): HELLO/ACCEPT/REJECT
//! negotiation, SUBSCRIBE/SUBACK query registration, streamed EVENT
//! frames, PING/PONG keep-alive, CLOSE with reason codes.
//!
//! The crate splits along the natural seams:
//!
//! * [`frame`] — incremental frame extraction from the byte stream.
//! * [`metrics`] — thread-safe counters and histograms.
//! * [`worlds`] — the single-threaded simulation hub, and (`outbox.rs`)
//!   the bounded [`worlds::Outbox`]es that carry its events to sessions.
//! * [`server`] — the acceptor + pooled worker threads and the session
//!   state machine.
//! * [`client`] — a blocking client for tests and probes.
//!
//! See DESIGN.md §16 for the threading model, the four-stage
//! backpressure policy, and the determinism boundary.

pub mod client;
pub mod frame;
pub mod metrics;
mod outbox;
pub mod server;
pub mod worlds;

pub use client::Client;
pub use frame::FrameReader;
pub use metrics::ServeMetrics;
pub use server::{Server, ServerConfig, MAX_PENDING_WRITE};
pub use worlds::{HubConfig, SCENARIO_TESTBED};
