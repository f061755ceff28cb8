//! Extension (paper §9): impact of TX and RX density.
//!
//! The paper's §9 argues: "The lower the TX density, the less degrees of
//! freedom we have to serve the users. This results in both a lower system
//! throughput and user fairness", and defers the evaluation. This
//! experiment sweeps the ceiling-grid density (keeping the same room and
//! illumination-normalized flux) and the receiver count, and reports system
//! throughput plus Jain's fairness index.

use vlc_alloc::analysis::{heuristic_sweep, jain_fairness, throughput_at_power};
use vlc_alloc::model::SystemModel;
use vlc_alloc::HeuristicConfig;
use vlc_channel::{ChannelMatrix, NoiseParams, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_trace::Probe;

/// One grid-density point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPoint {
    /// Grid side (the grid is `side × side`).
    pub side: usize,
    /// System throughput at the comparison budget, bit/s.
    pub system_bps: f64,
    /// Jain's fairness index over per-RX throughputs, in `(0, 1]`.
    pub fairness: f64,
}

/// The density-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDensity {
    /// Budget the comparison runs at, in watts.
    pub budget_w: f64,
    /// One entry per grid side.
    pub points: Vec<DensityPoint>,
}

/// Sweeps `side × side` grids (the same 3 m × 3 m room, pitch scaled to
/// keep the grid centered and spanning) at one budget.
pub fn run(sides: &[usize], budget_w: f64) -> ExtDensity {
    assert!(!sides.is_empty() && budget_w > 0.0);
    let room = Room::paper_simulation();
    let rxs: Vec<Pose> = [(0.92, 0.92), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)]
        .iter()
        .map(|&(x, y)| Pose::face_up(x, y, 0.8))
        .collect();
    let points = sides
        .iter()
        .map(|&side| {
            assert!(side >= 2, "grid side must be ≥ 2");
            // Keep the outermost TXs at the paper's 0.25 m margin.
            let pitch = 2.5 / (side - 1) as f64;
            let grid = TxGrid::centered(&room, side, side, pitch);
            let channel = ChannelMatrix::compute(
                &grid,
                &rxs,
                15f64.to_radians(),
                &RxOptics::paper(),
                &[],
                Probe::off(),
            );
            let mut model = SystemModel::paper(channel);
            model.noise = NoiseParams::paper();
            let curve = heuristic_sweep(&model, &HeuristicConfig::paper());
            let system_bps = throughput_at_power(&curve, budget_w);
            // Fairness at the closest sweep point to the budget.
            let point = curve
                .iter()
                .min_by(|a, b| {
                    (a.power_w - budget_w)
                        .abs()
                        .partial_cmp(&(b.power_w - budget_w).abs())
                        .expect("finite")
                })
                .expect("non-empty curve");
            DensityPoint {
                side,
                system_bps,
                fairness: jain_fairness(&point.per_rx_bps),
            }
        })
        .collect();
    ExtDensity { budget_w, points }
}

impl ExtDensity {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Extension (§9) — TX density at {} W (κ = 1.3 heuristic)\n  grid     TXs   system[Mb/s]   Jain fairness\n",
            self.budget_w
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {0}×{0}   {1:>5}   {2:>10.3}   {3:>10.3}\n",
                p.side,
                p.side * p.side,
                p.system_bps / 1e6,
                p.fairness
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denser_grids_win_throughput_and_fairness() {
        // §9's claim: lower TX density → lower throughput *and* fairness.
        let ext = run(&[3, 6], 1.2);
        let sparse = &ext.points[0];
        let dense = &ext.points[1];
        assert!(
            dense.system_bps > sparse.system_bps,
            "dense {} vs sparse {}",
            dense.system_bps,
            sparse.system_bps
        );
        assert!(
            dense.fairness >= sparse.fairness - 0.02,
            "dense fairness {} vs sparse {}",
            dense.fairness,
            sparse.fairness
        );
    }

    #[test]
    fn report_lists_every_grid() {
        let rep = run(&[4, 6], 0.9).report();
        assert!(rep.contains("4×4") && rep.contains("6×6"));
    }
}
