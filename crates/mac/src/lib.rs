//! MAC layer and controller for the DenseVLC reproduction.
//!
//! The controller (paper §3.2) drives the whole system: it schedules pilot
//! rounds so receivers can measure every TX's channel, collects the reports
//! (over the WiFi uplink), runs the decision logic (the SJR heuristic from
//! `vlc-alloc`), and multicasts data frames over Ethernet to the selected
//! TXs, appointing one leading TX per beamspot for the NLOS-VLC
//! synchronization. This crate implements:
//!
//! * [`protocol`] — the controller ↔ TX ↔ RX message vocabulary.
//! * [`schedule`] — the time-division pilot schedule for channel sounding.
//! * [`backhaul`] — latency/jitter/loss models for the Ethernet multicast
//!   downlink and the WiFi report/ACK uplink.
//! * [`controller`] — the decision logic producing [`BeamspotPlan`]s.
//! * [`round`] — the full adaptation-round timeline (sounding → report →
//!   decide → reconfigure) that bounds mobility tracking.
//! * [`wire`] — the minimal byte layouts of the WiFi-uplink messages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backhaul;
pub mod controller;
pub mod protocol;
pub mod round;
pub mod schedule;
pub mod wire;

pub use backhaul::{EthernetMulticast, WifiUplink};
pub use controller::{BeamspotPlan, Controller, ControllerConfig};
pub use round::{simulate_round, RoundTimeline};
pub use schedule::PilotSchedule;
