//! # envirotrack-net
//!
//! The wireless substrate of the EnviroTrack reproduction: the shared radio
//! channel the MICA motes communicated over, and the location-aware routing
//! layer the paper assumes.
//!
//! * [`packet`] — radio frames, link destinations, on-air sizing
//!   ([`packet::Frame`], [`packet::FrameKind`]).
//! * [`medium`] — the broadcast channel: 50 kb/s serialisation, CSMA
//!   deferral, hidden-terminal collisions, half-duplex, fading, and the
//!   per-kind statistics behind Table 1 ([`medium::Medium`]).
//! * [`routing`] — greedy geographic forwarding for location-addressed
//!   traffic ([`routing::GeoRouter`]).
//!
//! ```
//! use bytes::Bytes;
//! use envirotrack_net::medium::{Medium, RadioConfig};
//! use envirotrack_net::packet::{Frame, FrameKind};
//! use envirotrack_sim::rng::SimRng;
//! use envirotrack_sim::time::Timestamp;
//! use envirotrack_world::field::{Deployment, NodeId};
//!
//! let field = Deployment::grid(3, 3, 1.0);
//! let mut radio = Medium::new(&field, RadioConfig::default(), &SimRng::seed_from(1));
//! let tx = radio
//!     .transmit(Timestamp::ZERO, Frame::broadcast(NodeId(4), FrameKind(0), Bytes::new()))
//!     .expect("channel idle");
//! let report = radio.deliveries(tx.id);
//! assert_eq!(report.outcomes.len(), 8); // everyone is in range of the centre
//! ```

pub mod medium;
pub mod packet;
pub mod routing;
