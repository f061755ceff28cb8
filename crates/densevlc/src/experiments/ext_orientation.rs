//! Extension (paper §9): receiver orientation.
//!
//! The paper notes that "both the optimization problem and the heuristic
//! are not limited to facing up receivers, and work for all receiver
//! orientation", without evaluating it. This experiment tilts the Fig. 7
//! receivers away from the vertical by a sweep of angles (each receiver
//! tilted toward the room center, the worst realistic pose for ceiling
//! light) and re-runs the heuristic to quantify the throughput cost and
//! confirm the pipeline keeps working.

use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::model::SystemModel;
use vlc_alloc::HeuristicConfig;
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_trace::Probe;

/// One tilt point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiltPoint {
    /// Tilt away from vertical, in degrees.
    pub tilt_deg: f64,
    /// System throughput at the comparison budget, bit/s.
    pub system_bps: f64,
    /// Number of receivers still served (positive throughput).
    pub served: usize,
}

/// The orientation-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtOrientation {
    /// Comparison budget in watts.
    pub budget_w: f64,
    /// One entry per tilt.
    pub points: Vec<TiltPoint>,
}

/// Runs the tilt sweep on the Fig. 7 receiver positions.
pub fn run(tilts_deg: &[f64], budget_w: f64) -> ExtOrientation {
    assert!(!tilts_deg.is_empty() && budget_w > 0.0);
    let room = Room::paper_simulation();
    let grid = TxGrid::paper(&room);
    let center = room.floor_center();
    let rx_xy = [(0.92, 0.92), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)];
    let points = tilts_deg
        .iter()
        .map(|&tilt_deg| {
            let tilt = tilt_deg.to_radians();
            let receivers: Vec<Pose> = rx_xy
                .iter()
                .map(|&(x, y)| {
                    // Tilt toward the room center (azimuth of the center as
                    // seen from the receiver).
                    let azimuth = (center.y - y).atan2(center.x - x) + std::f64::consts::PI;
                    Pose::tilted(x, y, 0.8, tilt, azimuth)
                })
                .collect();
            let channel = ChannelMatrix::compute(
                &grid,
                &receivers,
                15f64.to_radians(),
                &RxOptics::paper(),
                &[],
                Probe::off(),
            );
            let model = SystemModel::paper(channel);
            let curve = heuristic_sweep(&model, &HeuristicConfig::paper());
            let system_bps = throughput_at_power(&curve, budget_w);
            let point = curve
                .iter()
                .min_by(|a, b| {
                    (a.power_w - budget_w)
                        .abs()
                        .partial_cmp(&(b.power_w - budget_w).abs())
                        .expect("finite")
                })
                .expect("non-empty");
            TiltPoint {
                tilt_deg,
                system_bps,
                served: point.per_rx_bps.iter().filter(|&&t| t > 0.0).count(),
            }
        })
        .collect();
    ExtOrientation { budget_w, points }
}

impl ExtOrientation {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Extension (§9) — receiver tilt (away from room center) at {} W\n  tilt[°]   system[Mb/s]   RXs served\n",
            self.budget_w
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>6.0}   {:>10.3}   {:>6}/4\n",
                p.tilt_deg,
                p.system_bps / 1e6,
                p.served
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upright_matches_the_standard_pipeline() {
        let ext = run(&[0.0], 1.2);
        assert_eq!(ext.points[0].served, 4);
        assert!(ext.points[0].system_bps > 1e6);
    }

    #[test]
    fn moderate_tilts_degrade_gracefully() {
        // The pipeline must keep all four receivers served at office-like
        // tilts, with throughput falling monotonically-ish.
        let ext = run(&[0.0, 15.0, 30.0], 1.2);
        for p in &ext.points {
            assert_eq!(p.served, 4, "tilt {}° lost a receiver", p.tilt_deg);
        }
        assert!(ext.points[2].system_bps < ext.points[0].system_bps);
    }

    #[test]
    fn extreme_tilt_costs_real_throughput() {
        let ext = run(&[0.0, 60.0], 1.2);
        assert!(
            ext.points[1].system_bps < 0.8 * ext.points[0].system_bps,
            "60° tilt barely hurt: {} vs {}",
            ext.points[1].system_bps,
            ext.points[0].system_bps
        );
    }

    #[test]
    fn report_has_row_per_tilt() {
        let rep = run(&[0.0, 45.0], 0.9).report();
        assert_eq!(rep.lines().count(), 2 + 2);
    }

    #[test]
    fn vec3_center_is_room_center() {
        // Guard: the azimuth math above assumes floor_center at (1.5, 1.5).
        let c = Room::paper_simulation().floor_center();
        assert_eq!((c.x, c.y), (1.5, 1.5));
    }
}
