//! # envirotrack-world
//!
//! The physical-environment substrate of the EnviroTrack reproduction: the
//! ground truth that sensor nodes perceive and that the experiment harness
//! audits against.
//!
//! The paper evaluated on a physical testbed (light sensors emulating
//! magnetometers at 1000:1 scale). This crate is the simulated equivalent:
//!
//! * [`geometry`] — points, vectors, boxes, all in *grid units* so that
//!   distances read as hops.
//! * [`field`] — node deployments: grids, jittered grids, random drops
//!   ([`field::Deployment`], [`field::NodeId`]).
//! * [`grid`] — the shared radio [`grid::Topology`]: a uniform bucket grid
//!   (one flat id array plus per-cell offsets) whose 9-cell stencil lists
//!   a node's neighbours in O(deg) when something asks.
//! * [`target`] — moving entities with emission profiles
//!   ([`target::Target`], [`target::Trajectory`], [`target::Falloff`]).
//! * [`sensing`] — multi-channel samples and the composed
//!   [`sensing::Environment`].
//! * [`scenario`] — prebuilt worlds matching the paper's evaluation
//!   ([`scenario::TankScenario`], [`scenario::FireScenario`]).
//!
//! ```
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::scenario::TankScenario;
//! use envirotrack_world::target::Channel;
//!
//! let world = TankScenario::default().build();
//! // Which motes sense the tank one minute in?
//! let sensing = world.ground_truth_sensors(Timestamp::from_secs(60));
//! for idx in sensing {
//!     let pos = world.deployment.positions()[idx];
//!     let reading = world.environment.sample(pos, Timestamp::from_secs(60));
//!     assert!(reading.get(Channel::Magnetic) >= world.threshold);
//! }
//! ```

pub mod field;
pub mod geometry;
pub mod grid;
pub mod scenario;
pub mod sensing;
pub mod target;
