//! Extension (paper §9): blockage in a cell-free VLC system.
//!
//! §9 hypothesizes that "blockage could bring benefit to the system since
//! it can reduce the interference from other TXs" and defers the study.
//! This experiment sweeps a standing-person occluder over a grid of floor
//! positions, lets the controller re-plan on each blocked channel (to the
//! controller, blockage is just another measured channel), and reports the
//! distribution of throughput changes.

use serde::{Deserialize, Serialize};
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::model::SystemModel;
use vlc_alloc::HeuristicConfig;
use vlc_channel::{ChannelMatrix, CylinderBlocker};
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// One occluder position's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockagePoint {
    /// Occluder XY position in meters.
    pub x: f64,
    /// Occluder XY position in meters.
    pub y: f64,
    /// System throughput relative to the clear room (1.0 = unchanged).
    pub relative_throughput: f64,
}

/// The blockage-study result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtBlockage {
    /// Clear-room system throughput in bit/s.
    pub clear_bps: f64,
    /// One entry per tested occluder position.
    pub points: Vec<BlockagePoint>,
}

fn throughput_with(d: &Deployment, blockers: &[CylinderBlocker], budget_w: f64) -> f64 {
    let channel = ChannelMatrix::compute(
        &d.grid,
        &d.receivers,
        d.half_power_semi_angle,
        &d.optics,
        blockers,
        Probe::off(),
    );
    let mut model: SystemModel = d.model.clone();
    model.channel = channel;
    let alloc = heuristic_allocation(
        &model.channel,
        &model.led,
        budget_w,
        &HeuristicConfig::paper(),
        Probe::off(),
    );
    model.system_throughput(&alloc)
}

/// Sweeps a person-sized occluder over an `n × n` grid of positions in the
/// given scenario.
pub fn run(scenario: Scenario, n: usize, budget_w: f64) -> ExtBlockage {
    assert!(n >= 2 && budget_w > 0.0);
    let d = Deployment::scenario(scenario);
    let clear_bps = throughput_with(&d, &[], budget_w);
    let mut points = Vec::with_capacity(n * n);
    for iy in 0..n {
        for ix in 0..n {
            let x = d.room.width * (ix as f64 + 0.5) / n as f64;
            let y = d.room.depth * (iy as f64 + 0.5) / n as f64;
            let t = throughput_with(&d, &[CylinderBlocker::person(x, y)], budget_w);
            points.push(BlockagePoint {
                x,
                y,
                relative_throughput: t / clear_bps,
            });
        }
    }
    ExtBlockage { clear_bps, points }
}

impl ExtBlockage {
    /// Number of positions where blockage *helped* (> +0.5 %).
    pub fn helped(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.relative_throughput > 1.005)
            .count()
    }

    /// Number of positions where blockage hurt (< −0.5 %).
    pub fn hurt(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.relative_throughput < 0.995)
            .count()
    }

    /// The best (most helpful) position.
    pub fn best(&self) -> &BlockagePoint {
        self.points
            .iter()
            .max_by(|a, b| {
                a.relative_throughput
                    .partial_cmp(&b.relative_throughput)
                    .expect("finite")
            })
            .expect("non-empty sweep")
    }

    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let best = self.best();
        let verdict = if self.helped() > 0 {
            "blockage *can* help by cutting interference"
        } else {
            "without interference, blockage never helps"
        };
        format!(
            "Extension (§9) — standing-person blockage sweep ({} positions)\n\
             \x20 clear room: {:.2} Mb/s; helped at {} positions, hurt at {}\n\
             \x20 best position ({:.2}, {:.2}): {:+.1} % — {verdict}\n",
            self.points.len(),
            self.clear_bps / 1e6,
            self.helped(),
            self.hurt(),
            best.x,
            best.y,
            (best.relative_throughput - 1.0) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blockage_can_help_somewhere() {
        // The §9 hypothesis: at least one occluder position raises system
        // throughput by shadowing interference.
        let ext = run(Scenario::Three, 6, 1.2);
        assert!(
            ext.best().relative_throughput > 1.0,
            "no helpful position found (best {:.4})",
            ext.best().relative_throughput
        );
    }

    #[test]
    fn blockage_mostly_hurts_or_is_neutral() {
        // Sanity: light blockers are not free lunch — positions that hurt
        // (over serving TXs) must also exist.
        let ext = run(Scenario::Three, 6, 1.2);
        assert!(ext.hurt() > 0, "no position hurt throughput");
    }

    #[test]
    fn relative_throughput_is_finite_everywhere() {
        let ext = run(Scenario::One, 4, 0.9);
        for p in &ext.points {
            assert!(p.relative_throughput.is_finite() && p.relative_throughput >= 0.0);
        }
    }

    #[test]
    fn report_counts_positions() {
        let ext = run(Scenario::Two, 3, 1.2);
        assert!(ext.report().contains("9 positions"));
    }
}
