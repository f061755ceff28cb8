//! Builders for dense ceiling grids of LED transmitters.

use crate::{Pose, Room, Vec3};

/// A rectangular ceiling grid of downward-facing LED transmitters.
///
/// The paper deploys `6 × 6 = 36` TXs with 0.5 m pitch, centered in a
/// 3 m × 3 m room. TX indices follow the paper's numbering (consistent with
/// Fig. 9's roles: TX8 serves RX1 at (0.92, 0.92), TX10 serves RX2 at
/// (1.65, 0.65)): TX1 sits at the minimum-x, minimum-y corner, indices
/// increase along +X first, then step up in +Y row by row. Internally we
/// store zero-based indices; display code adds 1 to match the paper's
/// labels.
///
/// ```
/// use vlc_geom::{Room, TxGrid, Vec3};
///
/// let grid = TxGrid::paper(&Room::paper_simulation());
/// assert_eq!(grid.len(), 36);
/// // TX8 (zero-based 7) hangs over the paper's RX1 position.
/// assert_eq!(grid.nearest(Vec3::new(0.92, 0.92, 0.0)), 7);
/// assert_eq!(grid.label(7), "TX8");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TxGrid {
    /// Number of columns (along X).
    pub cols: usize,
    /// Number of rows (along Y).
    pub rows: usize,
    /// Inter-TX spacing in meters.
    pub pitch: f64,
    /// Mounting height (ceiling) in meters.
    pub height: f64,
    /// Position of the grid's first TX (minimum x, minimum y).
    pub origin: Vec3,
}

impl TxGrid {
    /// The paper's 6 × 6 grid with 0.5 m pitch, centered in `room`, mounted
    /// at the room's ceiling height.
    pub fn paper(room: &Room) -> Self {
        TxGrid::centered(room, 6, 6, 0.5)
    }

    /// A `cols × rows` grid with the given pitch, centered in `room`.
    pub fn centered(room: &Room, cols: usize, rows: usize, pitch: f64) -> Self {
        assert!(cols >= 1 && rows >= 1, "grid must have at least one TX");
        assert!(pitch > 0.0, "pitch must be positive");
        let span_x = (cols - 1) as f64 * pitch;
        let span_y = (rows - 1) as f64 * pitch;
        let x0 = (room.width - span_x) / 2.0;
        let y0 = (room.depth - span_y) / 2.0;
        TxGrid {
            cols,
            rows,
            pitch,
            height: room.height,
            origin: Vec3::new(x0, y0, room.height),
        }
    }

    /// Total number of transmitters.
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// True when the grid is empty (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pose of TX `index` (zero-based, paper numbering order).
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn pose(&self, index: usize) -> Pose {
        assert!(
            index < self.len(),
            "TX index {index} out of range {}",
            self.len()
        );
        let row = index / self.cols;
        let col = index % self.cols;
        Pose::ceiling(
            self.origin.x + col as f64 * self.pitch,
            self.origin.y + row as f64 * self.pitch,
            self.height,
        )
    }

    /// All TX poses in index order.
    pub fn poses(&self) -> Vec<Pose> {
        (0..self.len()).map(|i| self.pose(i)).collect()
    }

    /// Zero-based index of the TX nearest (in XY) to a point.
    pub fn nearest(&self, p: Vec3) -> usize {
        (0..self.len())
            .min_by(|&a, &b| {
                let da = self.pose(a).position.horizontal_distance(p);
                let db = self.pose(b).position.horizontal_distance(p);
                da.partial_cmp(&db).expect("distances are finite")
            })
            .expect("grid is non-empty")
    }

    /// Zero-based indices of the TXs whose XY distance to `p` is at most
    /// `radius`, sorted nearest first.
    pub fn within_radius(&self, p: Vec3, radius: f64) -> Vec<usize> {
        let mut v: Vec<(usize, f64)> = (0..self.len())
            .map(|i| (i, self.pose(i).position.horizontal_distance(p)))
            .filter(|&(_, d)| d <= radius)
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        v.into_iter().map(|(i, _)| i).collect()
    }

    /// The 1-based label used in the paper (e.g. `"TX8"`).
    pub fn label(&self, index: usize) -> String {
        format!("TX{}", index + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_grid() -> TxGrid {
        TxGrid::paper(&Room::paper_simulation())
    }

    #[test]
    fn paper_grid_has_36_txs() {
        assert_eq!(paper_grid().len(), 36);
    }

    #[test]
    fn grid_is_centered_in_room() {
        let g = paper_grid();
        // 6 TXs with 0.5 m pitch span 2.5 m in a 3 m room → 0.25 m margin.
        assert!((g.origin.x - 0.25).abs() < 1e-12);
        assert!((g.origin.y - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tx1_is_bottom_left_and_tx36_top_right() {
        let g = paper_grid();
        let p1 = g.pose(0).position;
        let p36 = g.pose(35).position;
        assert!((p1.x - 0.25).abs() < 1e-12 && (p1.y - 0.25).abs() < 1e-12);
        assert!((p36.x - 2.75).abs() < 1e-12 && (p36.y - 2.75).abs() < 1e-12);
    }

    #[test]
    fn indices_increase_along_x_then_up() {
        let g = paper_grid();
        // TX2 (index 1) is right of TX1; TX7 (index 6) is above TX1.
        assert!(g.pose(1).position.x > g.pose(0).position.x);
        assert!((g.pose(1).position.y - g.pose(0).position.y).abs() < 1e-12);
        assert!(g.pose(6).position.y > g.pose(0).position.y);
        assert!((g.pose(6).position.x - g.pose(0).position.x).abs() < 1e-12);
    }

    #[test]
    fn fig9_roles_hold() {
        // Paper Fig. 9: TX8 is RX1's (0.92, 0.92) first pick and TX10 is
        // RX2's (1.65, 0.65) — the numbering convention anchor.
        let g = paper_grid();
        assert_eq!(g.nearest(Vec3::new(0.92, 0.92, 0.0)), 7); // TX8
        assert_eq!(g.nearest(Vec3::new(1.65, 0.65, 0.0)), 9); // TX10
    }

    #[test]
    fn all_txs_face_down_at_ceiling() {
        let g = paper_grid();
        for pose in g.poses() {
            assert_eq!(pose.boresight, Vec3::DOWN);
            assert!((pose.position.z - 2.8).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_finds_tx_under_point() {
        let g = paper_grid();
        // Directly under TX8 (index 7): row 1, col 1 → (0.75, 0.75).
        let idx = g.nearest(Vec3::new(0.75, 0.75, 0.8));
        assert_eq!(idx, 7);
    }

    #[test]
    fn within_radius_is_sorted_and_bounded() {
        let g = paper_grid();
        let p = Vec3::new(1.5, 1.5, 0.0);
        let near = g.within_radius(p, 0.8);
        assert!(!near.is_empty());
        let mut prev = -1.0;
        for &i in &near {
            let d = g.pose(i).position.horizontal_distance(p);
            assert!(d <= 0.8 + 1e-12);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn label_is_one_based() {
        assert_eq!(paper_grid().label(0), "TX1");
        assert_eq!(paper_grid().label(35), "TX36");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pose_out_of_range_panics() {
        paper_grid().pose(36);
    }
}
