//! # DenseVLC — a cell-free massive MIMO VLC system with distributed LEDs
//!
//! This crate is the public facade of the DenseVLC reproduction (Beysens et
//! al., CoNEXT '18). A dense ceiling grid of LED luminaires jointly serves a
//! few receivers by forming per-receiver *beamspots* of synchronized
//! transmitters, allocating a communication power budget so system
//! throughput is maximized without disturbing illumination.
//!
//! ## Quick start
//!
//! ```
//! use densevlc::System;
//! use vlc_trace::Probe;
//! use vlc_testbed::Scenario;
//!
//! // The paper's testbed: 36 TXs over 3 m × 3 m, four receivers.
//! let mut system = System::scenario(Scenario::Two, 1.2 /* W budget */);
//! let round = system.adapt(Probe::off());
//! assert!(round.plan.beamspots().len() == 4);
//! assert!(round.system_throughput_bps > 0.0);
//! ```
//!
//! ## Layout
//!
//! * [`System`] — the assembled controller + testbed + metrics loop.
//! * [`e2e`] — symbol-level end-to-end frame simulation (Table 5's
//!   goodput/PER experiment).
//! * [`experiments`] — one driver per table/figure of the paper's
//!   evaluation; each prints the paper-comparable numbers.
//! * [`sim`] — a wall-clock simulation engine composing mobility, walking
//!   occluders, and the adaptation cadence into one timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e2e;
pub mod experiments;
pub mod sim;
pub mod system;

pub use sim::{Simulation, Tick, Timeline};
pub use system::{AdaptationRound, System};

// Re-export the layer crates so downstream users need a single dependency.
pub use vlc_alloc as alloc;
pub use vlc_channel as channel;
pub use vlc_geom as geom;
pub use vlc_led as led;
pub use vlc_mac as mac;
pub use vlc_phy as phy;
pub use vlc_sync as sync;
pub use vlc_testbed as testbed;
