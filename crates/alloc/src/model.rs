//! The DenseVLC system model: allocations, SINR, throughput, power.
//!
//! An [`Allocation`] assigns each (TX, RX) pair a swing current
//! `I_sw^{j,k}`; the paper's Eq. 12 gives each receiver's SINR, Eq. 10–11
//! the extra electrical power spent on communication, and Eq. 5 the
//! proportional-fair sum-log-throughput objective the controller maximizes.

use serde::{Deserialize, Serialize};
use vlc_channel::matrix::{append_rx_columns, remove_rx_column};
use vlc_channel::{ChannelMatrix, NoiseParams};
use vlc_led::{power::dynamic_resistance, LedParams};

/// A per-TX, per-RX assignment of swing currents, in amperes.
///
/// Row `j` holds TX `j`'s swings toward each RX. A TX that serves nobody has
/// an all-zero row and stays in pure illumination mode. The per-TX *total*
/// swing `Σ_k I_sw^{j,k}` is what the hardware realizes and what both the
/// swing bound (Eq. 6) and the power model (Eq. 7) constrain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    n_tx: usize,
    n_rx: usize,
    swings: Vec<f64>,
}

impl Allocation {
    /// The all-zero (pure illumination) allocation.
    pub fn zeros(n_tx: usize, n_rx: usize) -> Self {
        assert!(
            n_tx > 0 && n_rx > 0,
            "allocation must have at least one TX and RX"
        );
        Allocation {
            n_tx,
            n_rx,
            swings: vec![0.0; n_tx * n_rx],
        }
    }

    /// Builds an allocation from a row-major swing vector.
    ///
    /// # Panics
    /// Panics if the vector shape is wrong or any swing is negative or
    /// non-finite.
    pub fn from_swings(n_tx: usize, n_rx: usize, swings: Vec<f64>) -> Self {
        assert_eq!(
            swings.len(),
            n_tx * n_rx,
            "swing vector has the wrong shape"
        );
        assert!(
            swings.iter().all(|s| s.is_finite() && *s >= 0.0),
            "swings must be finite and non-negative"
        );
        Allocation { n_tx, n_rx, swings }
    }

    /// Number of transmitters.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receivers.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// The swing of TX `tx` toward RX `rx`, in amperes.
    #[inline]
    pub fn swing(&self, tx: usize, rx: usize) -> f64 {
        assert!(tx < self.n_tx && rx < self.n_rx, "index out of range");
        self.swings[tx * self.n_rx + rx]
    }

    /// Sets the swing of TX `tx` toward RX `rx`.
    pub fn set_swing(&mut self, tx: usize, rx: usize, swing: f64) {
        assert!(tx < self.n_tx && rx < self.n_rx, "index out of range");
        assert!(
            swing.is_finite() && swing >= 0.0,
            "swing must be finite and non-negative"
        );
        self.swings[tx * self.n_rx + rx] = swing;
    }

    /// The total swing realized by TX `tx` across all receivers (Eq. 6's
    /// bounded quantity).
    pub fn tx_total_swing(&self, tx: usize) -> f64 {
        (0..self.n_rx).map(|r| self.swing(tx, r)).sum()
    }

    /// The receiver served by TX `tx` with a strictly positive swing, if the
    /// TX serves exactly one (the practical DenseVLC configuration).
    pub fn dedicated_rx(&self, tx: usize) -> Option<usize> {
        let mut found = None;
        for r in 0..self.n_rx {
            if self.swing(tx, r) > 0.0 {
                if found.is_some() {
                    return None;
                }
                found = Some(r);
            }
        }
        found
    }

    /// Number of TXs with any positive swing (communicating TXs).
    pub fn active_tx_count(&self) -> usize {
        (0..self.n_tx)
            .filter(|&t| self.tx_total_swing(t) > 0.0)
            .count()
    }

    /// Removes RX column `rx` in place; later columns shift left, as
    /// `Vec::remove` does. Keeps the storage, so a following
    /// [`Self::push_rx`] does not reallocate.
    ///
    /// # Panics
    /// Panics if `rx` is out of range or is the only column.
    pub fn remove_rx(&mut self, rx: usize) {
        assert!(self.n_rx > 1, "allocation must keep at least one RX");
        remove_rx_column(&mut self.swings, self.n_tx, self.n_rx, rx);
        self.n_rx -= 1;
    }

    /// Appends one RX column holding `col` (all zeros when `col` is
    /// empty). Storage grows to the exact new size, never by doubling.
    ///
    /// # Panics
    /// Panics if `col` is neither empty nor `n_tx` long, or holds a
    /// negative or non-finite swing.
    pub fn push_rx(&mut self, col: &[f64]) {
        assert!(
            col.is_empty() || col.len() == self.n_tx,
            "column has the wrong length"
        );
        assert!(
            col.iter().all(|s| s.is_finite() && *s >= 0.0),
            "swings must be finite and non-negative"
        );
        let n_rx = self.n_rx + 1;
        append_rx_columns(&mut self.swings, self.n_tx, self.n_rx, n_rx, 0.0);
        for (tx, &swing) in col.iter().enumerate() {
            self.swings[tx * n_rx + self.n_rx] = swing;
        }
        self.n_rx = n_rx;
    }

    /// Raw swings, row-major (`n_tx × n_rx`). Used by the solver.
    pub fn as_slice(&self) -> &[f64] {
        &self.swings
    }

    /// Mutable raw swings. Used by the solver's projection step.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.swings
    }
}

/// The complete system model tying channel, device, and noise together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemModel {
    /// Line-of-sight channel gains between every TX and RX.
    pub channel: ChannelMatrix,
    /// LED electrical parameters (shared by all TXs).
    pub led: LedParams,
    /// Receiver noise parameters.
    pub noise: NoiseParams,
    /// Photodiode responsivity `R` in A/W.
    pub responsivity: f64,
}

impl SystemModel {
    /// Builds a model with the paper's device and noise parameters.
    pub fn paper(channel: ChannelMatrix) -> Self {
        SystemModel {
            channel,
            led: LedParams::cree_xte_paper(),
            noise: NoiseParams::paper(),
            responsivity: 0.40,
        }
    }

    /// Number of transmitters.
    pub fn n_tx(&self) -> usize {
        self.channel.n_tx()
    }

    /// Number of receivers.
    pub fn n_rx(&self) -> usize {
        self.channel.n_rx()
    }

    /// The LED dynamic resistance `r` at the bias point.
    pub fn dyn_resistance(&self) -> f64 {
        dynamic_resistance(&self.led)
    }

    /// Total extra electrical power spent on communication (Eq. 7/11):
    /// `Σ_j r · (Σ_k I_sw^{j,k} / 2)²`, in watts.
    pub fn comm_power(&self, alloc: &Allocation) -> f64 {
        self.check_shape(alloc);
        let r = self.dyn_resistance();
        (0..alloc.n_tx())
            .map(|t| {
                let half = alloc.tx_total_swing(t) / 2.0;
                r * half * half
            })
            .sum()
    }

    /// Per-receiver SINR (Eq. 12), dimensionless.
    ///
    /// The received amplitude of stream `k` at RX `i` is
    /// `R·η·r · Σ_j H_{j,i} · (I_sw^{j,k}/2)²` in amperes. Only the nonzero
    /// swings of each stream are walked, in ascending TX order: gains are
    /// finite and non-negative, so a zero swing adds an exact `+0.0` and
    /// skipping it leaves every sum bitwise unchanged. A heuristic
    /// allocation (one stream per TX) thus costs `O(n_tx·n_rx)`, not
    /// `O(n_rx²·n_tx)`.
    pub fn sinr(&self, alloc: &Allocation) -> Vec<f64> {
        self.check_shape(alloc);
        let (n_tx, n_rx) = (alloc.n_tx(), alloc.n_rx());
        let noise = self.noise.noise_power();
        let scale = self.responsivity * self.led.wall_plug_efficiency * self.dyn_resistance();
        let swings = alloc.as_slice();
        let mut sig = vec![0.0; n_rx];
        let mut interference = vec![0.0; n_rx];
        let mut current = vec![0.0; n_rx];
        for stream in 0..n_rx {
            current.fill(0.0);
            for tx in 0..n_tx {
                let swing = swings[tx * n_rx + stream];
                if swing == 0.0 {
                    continue;
                }
                let half = swing / 2.0;
                for (c, &g) in current.iter_mut().zip(self.channel.tx_row(tx)) {
                    *c += g * half * half;
                }
            }
            for (rx, &c) in current.iter().enumerate() {
                let b = scale * c;
                if rx == stream {
                    sig[rx] = b;
                } else {
                    interference[rx] += b * b;
                }
            }
        }
        for (s, &i) in sig.iter_mut().zip(&interference) {
            *s = *s * *s / (noise + i);
        }
        sig
    }

    /// Per-receiver Shannon throughput `B·log2(1 + SINR)` in bit/s.
    pub fn throughput(&self, alloc: &Allocation) -> Vec<f64> {
        self.sinr(alloc)
            .into_iter()
            .map(|s| self.noise.bandwidth_hz * (1.0 + s).log2())
            .collect()
    }

    /// Total system throughput in bit/s.
    pub fn system_throughput(&self, alloc: &Allocation) -> f64 {
        self.throughput(alloc).into_iter().sum()
    }

    /// The paper's objective (Eq. 5): `Σ_i ln(B·log2(1 + SINR_i))`.
    ///
    /// Returns `-inf` when any receiver has zero SINR — proportional
    /// fairness forbids starving a user entirely.
    pub fn sum_log_throughput(&self, alloc: &Allocation) -> f64 {
        self.throughput(alloc).into_iter().map(f64::ln).sum()
    }

    /// Checks the allocation against the constraints (Eq. 6–7): per-TX total
    /// swing within `[0, Isw,max]` and total communication power within
    /// `budget_w` (with a small numerical tolerance).
    pub fn is_feasible(&self, alloc: &Allocation, budget_w: f64) -> bool {
        self.check_shape(alloc);
        let tol = 1e-9;
        let swing_ok =
            (0..alloc.n_tx()).all(|t| alloc.tx_total_swing(t) <= self.led.max_swing + tol);
        swing_ok && self.comm_power(alloc) <= budget_w + tol
    }

    fn check_shape(&self, alloc: &Allocation) {
        assert_eq!(alloc.n_tx(), self.n_tx(), "allocation TX count mismatch");
        assert_eq!(alloc.n_rx(), self.n_rx(), "allocation RX count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::RxOptics;
    use vlc_geom::{Pose, Room, TxGrid};

    /// The Fig. 7 instance: 4 RXs at the Scenario-2 positions (Table 6).
    pub(crate) fn paper_model() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        let channel = ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper());
        SystemModel::paper(channel)
    }

    #[test]
    fn zero_allocation_has_zero_power_and_sinr() {
        let m = paper_model();
        let alloc = Allocation::zeros(m.n_tx(), m.n_rx());
        assert_eq!(m.comm_power(&alloc), 0.0);
        assert!(m.sinr(&alloc).iter().all(|&s| s == 0.0));
        assert_eq!(m.system_throughput(&alloc), 0.0);
        assert_eq!(m.sum_log_throughput(&alloc), f64::NEG_INFINITY);
    }

    #[test]
    fn one_full_swing_tx_costs_74_mw() {
        let m = paper_model();
        let mut alloc = Allocation::zeros(m.n_tx(), m.n_rx());
        alloc.set_swing(m.channel.best_tx_for(0), 0, m.led.max_swing);
        let p = m.comm_power(&alloc);
        assert!((p - 0.07442).abs() < 2e-4, "P = {p} W");
    }

    #[test]
    fn single_serving_tx_gives_mbps_scale_throughput() {
        // A full-swing TX directly over an RX should put the link in the
        // Mbit/s regime (the scale of the paper's Fig. 8).
        let m = paper_model();
        let mut alloc = Allocation::zeros(m.n_tx(), m.n_rx());
        alloc.set_swing(m.channel.best_tx_for(0), 0, m.led.max_swing);
        let t = m.throughput(&alloc)[0];
        assert!(t > 0.2e6 && t < 10e6, "throughput = {t} bit/s");
    }

    #[test]
    fn interference_reduces_victim_sinr() {
        let m = paper_model();
        let mut clean = Allocation::zeros(m.n_tx(), m.n_rx());
        clean.set_swing(m.channel.best_tx_for(0), 0, m.led.max_swing);
        let sinr_clean = m.sinr(&clean)[0];

        // Now let a TX near RX1 transmit a *different* stream (to RX2).
        let mut jammed = clean.clone();
        let neighbor = m.channel.best_tx_for(0) + 1; // adjacent TX, same row
        jammed.set_swing(neighbor, 1, m.led.max_swing);
        let sinr_jammed = m.sinr(&jammed)[0];
        assert!(sinr_jammed < sinr_clean, "{sinr_jammed} !< {sinr_clean}");
    }

    #[test]
    fn joint_transmission_beats_single_tx() {
        // Two synchronized TXs carrying the same stream add optical power.
        let m = paper_model();
        let best = m.channel.best_tx_for(0);
        let mut single = Allocation::zeros(m.n_tx(), m.n_rx());
        single.set_swing(best, 0, m.led.max_swing);
        let mut joint = single.clone();
        joint.set_swing(best + 1, 0, m.led.max_swing);
        assert!(m.sinr(&joint)[0] > m.sinr(&single)[0]);
    }

    #[test]
    fn comm_power_uses_total_tx_swing() {
        // A TX splitting its swing across two RXs pays for the *sum* (Eq. 7).
        let m = paper_model();
        let mut split = Allocation::zeros(m.n_tx(), m.n_rx());
        split.set_swing(0, 0, 0.4);
        split.set_swing(0, 1, 0.4);
        let mut lumped = Allocation::zeros(m.n_tx(), m.n_rx());
        lumped.set_swing(0, 0, 0.8);
        assert!((m.comm_power(&split) - m.comm_power(&lumped)).abs() < 1e-15);
    }

    #[test]
    fn feasibility_checks_swing_and_power() {
        let m = paper_model();
        let mut alloc = Allocation::zeros(m.n_tx(), m.n_rx());
        alloc.set_swing(0, 0, m.led.max_swing);
        assert!(m.is_feasible(&alloc, 0.1));
        assert!(!m.is_feasible(&alloc, 0.01)); // power over budget
        let mut over = Allocation::zeros(m.n_tx(), m.n_rx());
        over.set_swing(0, 0, 0.6);
        over.set_swing(0, 1, 0.6); // total 1.2 > 0.9
        assert!(!m.is_feasible(&over, 10.0));
    }

    #[test]
    fn dedicated_rx_detection() {
        let mut a = Allocation::zeros(4, 2);
        assert_eq!(a.dedicated_rx(0), None);
        a.set_swing(0, 1, 0.5);
        assert_eq!(a.dedicated_rx(0), Some(1));
        a.set_swing(0, 0, 0.1);
        assert_eq!(a.dedicated_rx(0), None); // serves two RXs
    }

    #[test]
    fn active_tx_count_counts_positive_rows() {
        let mut a = Allocation::zeros(4, 2);
        assert_eq!(a.active_tx_count(), 0);
        a.set_swing(1, 0, 0.9);
        a.set_swing(3, 1, 0.2);
        assert_eq!(a.active_tx_count(), 2);
    }

    #[test]
    fn rx_columns_are_edited_in_place() {
        // 3 TX × 3 RX holding swing k/16 in cell k, so every cell differs
        // and every value is exact.
        let of = |cells: &[u32]| cells.iter().map(|&k| f64::from(k) / 16.0).collect();
        let mut a = Allocation::from_swings(3, 3, of(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        a.remove_rx(1);
        assert_eq!(a, Allocation::from_swings(3, 2, of(&[1, 3, 4, 6, 7, 9])));
        a.push_rx(&of(&[10, 0, 11]));
        a.push_rx(&[]);
        let expected = of(&[1, 3, 10, 0, 4, 6, 0, 0, 7, 9, 11, 0]);
        assert_eq!(a, Allocation::from_swings(3, 4, expected));
        a.remove_rx(3);
        a.remove_rx(0);
        assert_eq!(a, Allocation::from_swings(3, 2, of(&[3, 10, 6, 0, 9, 11])));
    }

    #[test]
    #[should_panic(expected = "at least one RX")]
    fn removing_the_last_rx_panics() {
        Allocation::zeros(2, 1).remove_rx(0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn pushed_column_must_cover_every_tx() {
        Allocation::zeros(2, 1).push_rx(&[0.1]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_swing_rejected() {
        Allocation::from_swings(1, 1, vec![-0.1]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let m = paper_model();
        let alloc = Allocation::zeros(2, 2);
        m.comm_power(&alloc);
    }
}
