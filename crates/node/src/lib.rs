//! # envirotrack-node
//!
//! The mote runtime substrate — the TinyOS stand-in of the EnviroTrack
//! reproduction. Where `envirotrack-net` models the radio, this crate
//! models what happens *inside* a MICA-class node:
//!
//! * [`cpu`] — a serial processor with bounded backlog
//!   ([`cpu::MoteCpu`]); reproduces the paper's finding that CPU
//!   processing, not bandwidth, limits tracking at small heartbeat periods.
//! * [`timer`] — cancellable, re-armable protocol timers
//!   ([`timer::TimerSlot`]) for the receive/wait timers of group
//!   management.
//!
//! ```
//! use envirotrack_node::cpu::{costs, MoteCpu};
//! use envirotrack_sim::time::Timestamp;
//!
//! let mut cpu = MoteCpu::new(costs::MAX_BACKLOG);
//! let admission = cpu.admit(Timestamp::ZERO, costs::RX_HANDLE).expect("idle CPU");
//! assert_eq!(admission.ready_at, Timestamp::ZERO + costs::RX_HANDLE);
//! ```

pub mod cpu;
pub mod energy;
pub mod timer;
