//! # envirotrack-core
//!
//! The EnviroTrack middleware — the primary contribution of *"EnviroTrack:
//! Towards an Environmental Computing Paradigm for Distributed Sensor
//! Networks"* (ICDCS 2004) — reimplemented as a Rust library over the
//! simulation substrates in this workspace.
//!
//! EnviroTrack raises the programming abstraction for sensor networks:
//! applications declare **context types** (what constitutes a trackable
//! entity), attach **tracking objects** (code that runs wherever the entity
//! currently is), and read **aggregate state variables** with explicit QoS
//! (freshness + critical mass). The middleware maintains the moving sensor
//! groups, leader election, data collection, naming, and transport
//! underneath.
//!
//! ## Module map
//!
//! | Module | Paper section | Provides |
//! |---|---|---|
//! | [`api`] | §4 | [`api::Program`] + builder: declaring contexts |
//! | [`context`] | §3.2 | context types, labels, sensing predicates |
//! | [`aggregate`] | §3.1, §3.2.3 | aggregation functions, freshness / critical-mass windows |
//! | [`object`] | §3.2.2 | tracking objects, method bodies, effects |
//! | [`group`] | §5.2 | group management: leaders, heartbeats, takeover, relinquish, weights |
//! | [`directory`] | §5.3 | geographic-hash naming and directory stores |
//! | [`transport`] | §5.4 | MTP: ports, last-known-leader LRU, forwarding chains |
//! | [`wire`] | §5 | the binary message codec |
//! | [`network`] | §5 | the assembled simulation world ([`network::SensorNetwork`]) |
//! | [`shard`] | — | lock-step sharded execution across threads |
//! | [`events`] | — | protocol event log for audits |
//! | [`report`] | §4 | the base-station ("pursuer") report log |
//! | [`config`] | §6 | tuning knobs (heartbeat period, timer factors, `h`, …) |
//!
//! ## Quickstart
//!
//! See [`network`] for an end-to-end example, or the `quickstart` example
//! binary at the workspace root.

pub mod aggregate;
pub mod api;
pub mod config;
pub mod context;
pub mod directory;
pub mod events;
pub mod group;
pub mod network;
pub mod object;
pub mod report;
pub mod shard;
pub mod transport;
pub mod wire;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::aggregate::{AggValue, AggregateFn, AggregateInput};
    pub use crate::api::Program;
    pub use crate::context::{ContextLabel, ContextTypeId, SensePredicate};
    pub use crate::events::{HandoverReason, SystemEvent};
    pub use crate::network::{NetworkConfig, SensorNetwork};
    pub use crate::object::payload;
    pub use crate::transport::Port;
}
