//! Power allocation for the DenseVLC reproduction.
//!
//! This crate is the paper's scientific core: given the measured channel
//! matrix `H`, a power budget `P_C,tot` for communication, and the LED
//! electrical model, decide the per-TX swing currents that maximize
//! proportional-fair system throughput (paper Eq. 5–7). It provides:
//!
//! * [`model`] — the system model: per-receiver SINR (Eq. 12), throughput,
//!   the sum-log objective, and communication-power accounting (Eq. 10–11)
//!   over a [`model::Allocation`] of per-TX/per-RX swings.
//! * [`optimal`] — a multi-start projected-gradient solver for the nonlinear
//!   program (the role `fmincon` plays in the paper's §5).
//! * [`heuristic`] — the Signal-to-Jamming-Ratio ranking heuristic
//!   (Algorithm 1) with tunable κ, plus the §9 "personalized κ" extension.
//! * [`baselines`] — the SISO (nearest-TX) and D-MISO (all-neighbors)
//!   comparison schemes of §8.3.
//! * [`analysis`] — throughput-vs-power sweeps and power-efficiency
//!   comparisons used by the evaluation figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
pub mod baselines;
pub mod exhaustive;
pub mod heuristic;
pub mod model;
pub mod optimal;

pub use adaptive::{adapt_per_tx_kappa, KappaAdaptConfig};
pub use baselines::{dmiso_allocation, siso_allocation};
pub use exhaustive::exhaustive_binary;
pub use heuristic::{rank_by_sjr, rank_by_sjr_scalar, HeuristicConfig, RankedTx};
pub use model::{Allocation, SystemModel};
pub use optimal::{OptimalSolver, SolveReport};
