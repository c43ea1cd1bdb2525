//! Chaos harness for the EnviroTrack middleware: scripted fault plans,
//! invariant monitors, and run summaries.
//!
//! A [`plan::FaultPlan`] is a declarative, seed-deterministic schedule of
//! fault events — node crashes and reboots, battery death, region
//! partitions, Gilbert–Elliott burst loss, link-level frame corruption
//! and reordering, bounded clock skew — that
//! [`harness::install`] turns into ordinary kernel events on a
//! [`envirotrack_core::network::SensorNetwork`] engine. A
//! [`monitor::InvariantMonitor`] samples the world on a fixed tick and
//! records [`monitor::Violation`]s of the protocol's safety claims; every
//! violation carries the seed and the fault trace that led to it, so any
//! failure replays from two numbers.
//!
//! ```
//! use std::sync::Arc;
//! use envirotrack_chaos::harness;
//! use envirotrack_chaos::plan::{FaultEvent, FaultPlan};
//! use envirotrack_core::api::Program;
//! use envirotrack_core::context::SensePredicate;
//! use envirotrack_core::network::{NetworkConfig, SensorNetwork};
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::field::NodeId;
//! use envirotrack_world::scenario::TankScenario;
//! use envirotrack_world::target::Channel;
//!
//! let program = Arc::new(
//!     Program::builder()
//!         .context("tracker", |c| c.activation(SensePredicate::threshold(Channel::Magnetic, 0.5)))
//!         .build()
//!         .unwrap(),
//! );
//! let world = TankScenario::default().build();
//! let seed = 42;
//! let mut engine = SensorNetwork::build_engine(
//!     program, world.deployment, world.environment, NetworkConfig::default(), seed,
//! );
//! let plan = FaultPlan::new()
//!     .at(Timestamp::from_secs(5), FaultEvent::Crash(NodeId(7)))
//!     .at(Timestamp::from_secs(12), FaultEvent::Reboot(NodeId(7)));
//! let monitor = harness::install(&mut engine, plan, seed);
//! engine.run_until(Timestamp::from_secs(30));
//! assert!(monitor.borrow().violations().is_empty());
//! ```

pub mod cell;
pub mod harness;
pub mod monitor;
pub mod plan;
