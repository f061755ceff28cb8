//! Optical channel models for the DenseVLC reproduction.
//!
//! Everything DenseVLC decides — which LEDs serve which receiver, at what
//! swing — flows from the optical channel between each TX/RX pair. This
//! crate provides:
//!
//! * [`lambertian`] — the line-of-sight Lambertian path loss of paper Eq. 2,
//!   parameterized by the LED's half-power semi-angle and the receiver's
//!   optics ([`RxOptics`]).
//! * [`photometry`] — luminous intensity and illuminance (lux) computations
//!   that reproduce the paper's Fig. 5 illuminance map and the ISO 8995-1
//!   uniformity checks.
//! * [`nlos`] — single-bounce (floor-reflection) channel gains, the physical
//!   substrate of DenseVLC's over-the-air synchronization (paper §6.2).
//! * [`noise`] — receiver noise (single-sided spectral density `N0`, AWGN
//!   sampling via an in-tree Box–Muller transform, shot noise).
//! * [`blockage`] — cylindrical occluders for the blockage study the paper
//!   sketches in §9.
//! * [`matrix`] — the N × M channel matrix `H` assembled from a TX grid and
//!   receiver poses, the direct input of the allocation algorithms.
//! * [`ambient`] — the DC photocurrent from the grid's bias illumination
//!   and the shot noise it contributes.
//! * [`incremental`] — dirty-column [`ChannelMatrix`] updates
//!   ([`ChannelUpdater`]) that recompute only the receivers that moved.
//! * [`soa`] — structure-of-arrays views for the optimal solver: the per-RX
//!   transpose ([`ChannelSoA`]) and CSR lists of the nonzero links
//!   ([`SparseChannelView`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
pub mod blockage;
pub mod incremental;
pub mod lambertian;
pub mod matrix;
pub mod nlos;
pub mod noise;
pub mod photometry;
pub mod soa;

pub use blockage::CylinderBlocker;
pub use incremental::{ChannelUpdate, ChannelUpdater};
pub use lambertian::{lambertian_order, los_gain, los_gain_profiled, RxOptics, RxProfile};
pub use matrix::ChannelMatrix;
pub use noise::{AwgnChannel, AwgnCursor, NoiseParams, NOISE_BOUND_SIGMAS};
pub use photometry::{IlluminanceMap, IlluminanceStats};
pub use soa::{ChannelSoA, SparseChannelView};
/// The instrumentation argument of [`ChannelMatrix::compute`] and
/// [`ChannelUpdater::update`], re-exported for callers that do not depend on
/// `vlc-trace`.
pub use vlc_trace::Probe;
