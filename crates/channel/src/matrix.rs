//! The N × M channel matrix between a TX grid and a set of receivers.

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics};
use serde::{Deserialize, Serialize};
use vlc_geom::{Pose, TxGrid};
use vlc_trace::Probe;

/// Line-of-sight path gains `H[tx][rx]` for every TX/RX pair.
///
/// This is the matrix the paper calls `H` (Eq. 3, Eq. 13): the controller
/// measures it through pilot rounds and feeds it to the allocation
/// algorithms. Stored row-major with `n_tx` rows of `n_rx` entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelMatrix {
    n_tx: usize,
    n_rx: usize,
    gains: Vec<f64>,
}

impl ChannelMatrix {
    /// Builds the matrix from explicit gains (row-major, `n_tx × n_rx`).
    ///
    /// # Panics
    /// Panics if the slice length is not `n_tx · n_rx`, or any gain is
    /// negative or non-finite.
    pub fn from_gains(n_tx: usize, n_rx: usize, gains: Vec<f64>) -> Self {
        assert_eq!(gains.len(), n_tx * n_rx, "gain vector has the wrong shape");
        assert!(
            gains.iter().all(|g| g.is_finite() && *g >= 0.0),
            "channel gains must be finite and non-negative"
        );
        ChannelMatrix { n_tx, n_rx, gains }
    }

    /// Computes the LOS matrix for a TX grid and receiver poses, with
    /// cylindrical occluders (`&[]` for none): a blocked pair gets zero
    /// gain. Records a `channel.sound` span under `probe.span` with one
    /// `channel.sound.row` child per TX row (indexed by TX).
    ///
    /// The sound runs on the calling thread and fills the gains row by row
    /// into one allocation: a row is well under a microsecond of work, too
    /// little to pay for handing it to a worker. Each entry is an
    /// independent store of the fused profiled kernel, so the matrix is
    /// bitwise identical to a per-link scalar assembly (pinned by
    /// `tests/soa_identity.rs`).
    pub fn compute(
        grid: &TxGrid,
        receivers: &[Pose],
        half_power_semi_angle: f64,
        optics: &RxOptics,
        blockers: &[CylinderBlocker],
        probe: Probe<'_>,
    ) -> Self {
        let m = lambertian_order(half_power_semi_angle);
        let n_tx = grid.len();
        let n_rx = receivers.len();
        let profile = optics.profile();
        let sound = probe.span.child("channel.sound");
        if sound.is_enabled() {
            sound.attr("n_tx", &n_tx.to_string());
            sound.attr("n_rx", &n_rx.to_string());
        }
        let mut gains = Vec::with_capacity(n_tx * n_rx);
        for t in 0..n_tx {
            let _row = sound.child_indexed("channel.sound.row", t);
            let tx = grid.pose(t);
            gains.extend(receivers.iter().map(|rx| {
                if any_blocks(blockers, tx.position, rx.position) {
                    0.0
                } else {
                    los_gain_profiled(&tx, rx, m, &profile)
                }
            }));
        }
        ChannelMatrix { n_tx, n_rx, gains }
    }

    /// Number of transmitters (rows).
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receivers (columns).
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Gain from TX `tx` to RX `rx`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn gain(&self, tx: usize, rx: usize) -> f64 {
        assert!(
            tx < self.n_tx && rx < self.n_rx,
            "index ({tx},{rx}) out of range"
        );
        self.gains[tx * self.n_rx + rx]
    }

    /// All gains from one TX (one row), length `n_rx`.
    pub fn tx_row(&self, tx: usize) -> &[f64] {
        assert!(tx < self.n_tx);
        &self.gains[tx * self.n_rx..(tx + 1) * self.n_rx]
    }

    /// Iterator over `(tx, rx, gain)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_tx).flat_map(move |t| (0..self.n_rx).map(move |r| (t, r, self.gain(t, r))))
    }

    /// The TX index with the strongest gain toward RX `rx`.
    pub fn best_tx_for(&self, rx: usize) -> usize {
        (0..self.n_tx)
            .max_by(|&a, &b| {
                self.gain(a, rx)
                    .partial_cmp(&self.gain(b, rx))
                    .expect("gains are finite")
            })
            .expect("matrix has at least one TX")
    }

    /// Applies measurement noise / quantization by mapping each gain through
    /// `f` (used to emulate reported channel measurements).
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> ChannelMatrix {
        ChannelMatrix {
            n_tx: self.n_tx,
            n_rx: self.n_rx,
            gains: self.gains.iter().map(|&g| f(g).max(0.0)).collect(),
        }
    }

    /// Drops RX column `rx` in place; later columns shift left. Capacity
    /// is kept.
    pub(crate) fn remove_rx(&mut self, rx: usize) {
        remove_rx_column(&mut self.gains, self.n_tx, self.n_rx, rx);
        self.n_rx -= 1;
    }

    /// Widens the matrix to `n_rx` columns; the appended ones are zero.
    /// Storage grows to the exact new size.
    pub(crate) fn append_rx(&mut self, n_rx: usize) {
        append_rx_columns(&mut self.gains, self.n_tx, self.n_rx, n_rx, 0.0);
        self.n_rx = n_rx;
    }

    /// Reshapes to an all-zero `n_tx × n_rx` matrix with exact-size
    /// storage.
    pub(crate) fn reset_zeroed(&mut self, n_tx: usize, n_rx: usize) {
        self.gains.clear();
        self.gains.resize(n_tx * n_rx, 0.0);
        self.gains.shrink_to_fit();
        self.n_tx = n_tx;
        self.n_rx = n_rx;
    }

    /// Releases capacity beyond the current `n_tx · n_rx` gains.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.gains.shrink_to_fit();
    }

    /// The row-major gains, for in-place column writes. Callers keep them
    /// finite and non-negative.
    pub(crate) fn gains_mut(&mut self) -> &mut [f64] {
        &mut self.gains
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.gains.capacity()
    }
}

/// Removes RX column `rx` in place from a row-major `n_tx × n_rx` store
/// (the layout of [`ChannelMatrix`] and of the allocations planned on it).
/// Later columns shift left, as `Vec::remove` does; capacity is kept.
///
/// # Panics
/// Panics if `rx >= n_rx` or `store` is shorter than `n_tx · n_rx`.
pub fn remove_rx_column<T: Copy>(store: &mut Vec<T>, n_tx: usize, n_rx: usize, rx: usize) {
    assert!(rx < n_rx, "RX column out of range");
    let new_rx = n_rx - 1;
    for t in 0..n_tx {
        let (src, dst) = (t * n_rx, t * new_rx);
        store.copy_within(src..src + rx, dst);
        store.copy_within(src + rx + 1..src + n_rx, dst + rx);
    }
    store.truncate(n_tx * new_rx);
}

/// Widens a row-major `n_tx × old_rx` store to `n_tx × new_rx` in place,
/// filling the appended rightmost columns with `fill`. Storage grows to
/// the exact new size, never by amortised doubling.
///
/// # Panics
/// Panics if `new_rx < old_rx` or `store` is not `n_tx · old_rx` long.
pub fn append_rx_columns<T: Copy>(
    store: &mut Vec<T>,
    n_tx: usize,
    old_rx: usize,
    new_rx: usize,
    fill: T,
) {
    assert!(new_rx >= old_rx, "append cannot shrink the store");
    assert_eq!(store.len(), n_tx * old_rx, "store has the wrong shape");
    let len = n_tx * new_rx;
    store.reserve_exact(len - store.len());
    store.resize(len, fill);
    // Last row first: a row only moves right, onto space already vacated.
    for t in (0..n_tx).rev() {
        store.copy_within(t * old_rx..(t + 1) * old_rx, t * new_rx);
        store[t * new_rx + old_rx..(t + 1) * new_rx].fill(fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::Room;

    fn paper_setup() -> (TxGrid, Vec<Pose>) {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        (grid, rxs)
    }

    #[test]
    fn matrix_shape_matches_deployment() {
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        );
        assert_eq!(h.n_tx(), 36);
        assert_eq!(h.n_rx(), 4);
        assert_eq!(h.iter().count(), 144);
    }

    #[test]
    fn best_tx_is_geometrically_nearest() {
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        );
        for (i, rx) in rxs.iter().enumerate() {
            let best = h.best_tx_for(i);
            let nearest = grid.nearest(rx.position);
            assert_eq!(best, nearest, "RX{}", i + 1);
        }
    }

    #[test]
    fn narrow_beams_make_far_links_zero() {
        // With a 15° half-power lens and 2 m drop, a TX ~2.5 m away laterally is
        // far outside the beam: its cos^20(φ) is numerically negligible.
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        );
        let far_gain = h.gain(35, 2); // TX36 (corner) vs RX3 (opposite side)
        let near_gain = h.gain(h.best_tx_for(2), 2);
        assert!(far_gain < near_gain * 1e-3);
    }

    #[test]
    fn blockage_zeroes_only_the_occluded_links() {
        let (grid, rxs) = paper_setup();
        let optics = RxOptics::paper();
        let clear =
            ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &optics, &[], Probe::off());
        // A person standing right next to RX1 blocks its overhead TXs.
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let blocked = ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &optics,
            &blockers,
            Probe::off(),
        );
        let best_rx1 = clear.best_tx_for(0);
        assert!(clear.gain(best_rx1, 0) > 0.0);
        assert_eq!(blocked.gain(best_rx1, 0), 0.0);
        // A link on the other side of the room is untouched.
        let best_rx4 = clear.best_tx_for(3);
        assert_eq!(blocked.gain(best_rx4, 3), clear.gain(best_rx4, 3));
    }

    #[test]
    fn from_gains_validates_shape_and_values() {
        let m = ChannelMatrix::from_gains(2, 2, vec![1e-6, 0.0, 2e-6, 3e-6]);
        assert_eq!(m.gain(1, 0), 2e-6);
        assert_eq!(m.tx_row(1), &[2e-6, 3e-6]);
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn from_gains_rejects_bad_shape() {
        ChannelMatrix::from_gains(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_gains_rejects_negative() {
        ChannelMatrix::from_gains(1, 1, vec![-1.0]);
    }

    #[test]
    fn map_clamps_negative_results() {
        let m = ChannelMatrix::from_gains(1, 2, vec![1e-6, 5e-7]);
        let noisy = m.map(|g| g - 8e-7);
        assert_eq!(noisy.gain(0, 1), 0.0);
        assert!((noisy.gain(0, 0) - 2e-7).abs() < 1e-18);
    }
}
