//! Extension: mobility tracking — what the fast heuristic buys end to end.
//!
//! The paper motivates the heuristic with "fast adaptation" (§2.1) and
//! §5's 0.07 s runtime, but never closes the loop to throughput under
//! motion. This experiment does: a receiver crosses the room at a sweep of
//! speeds while the controller re-plans once per adaptation round (whose
//! duration comes from the full §3.2 timeline: TDM sounding, WiFi reports,
//! decision, multicast reconfiguration). Between rounds the plan is
//! stale. We report the moving receiver's throughput retention vs an
//! always-fresh oracle, for the heuristic's decision time and for a
//! hypothetical solver that needs seconds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vlc_geom::Pose;
use vlc_mac::{simulate_round, EthernetMulticast, PilotSchedule, WifiUplink};
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// One (speed, decision-time) cell of the study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackingPoint {
    /// Receiver speed in m/s.
    pub speed_mps: f64,
    /// Decision time of the allocation algorithm in seconds.
    pub decision_s: f64,
    /// Adaptation round duration in seconds.
    pub round_s: f64,
    /// Mean throughput of the moving receiver relative to an oracle that
    /// re-plans continuously, in `[0, 1]`.
    pub retention: f64,
}

/// The mobility-tracking result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtAdaptation {
    /// All sweep cells.
    pub points: Vec<TrackingPoint>,
}

/// Runs the study: for each (speed, decision time), RX1 walks a 2 m
/// straight line while the other receivers hold still.
pub fn run(speeds_mps: &[f64], decision_times_s: &[f64], seed: u64) -> ExtAdaptation {
    assert!(!speeds_mps.is_empty() && !decision_times_s.is_empty());
    let schedule = PilotSchedule::full_sweep(36, 1e-3);
    let wifi = WifiUplink::paper();
    let eth = EthernetMulticast::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let budget_w = 1.2;

    let mut points = Vec::new();
    for &decision_s in decision_times_s {
        // One representative round duration per decision time.
        let round_s = simulate_round(&schedule, 4, 9, decision_s, &wifi, &eth, &mut rng).total_s();
        for &speed_mps in speeds_mps {
            let mut deployment = Deployment::scenario(Scenario::Two);
            let controller =
                vlc_mac::Controller::new(vlc_mac::ControllerConfig::paper(budget_w), 36, 4);

            // RX1 walks from (0.6, 0.9) to (2.6, 0.9): 2 m.
            let path_len = 2.0;
            let steps = 100usize;
            let dt = path_len / speed_mps / steps as f64;
            let mut plan = controller.plan(&deployment.model.channel, Probe::off());
            let mut since_replan = 0.0;
            let mut got = 0.0;
            let mut oracle = 0.0;
            for step in 0..steps {
                let x = 0.6 + path_len * step as f64 / steps as f64;
                let rxs = vec![
                    Pose::face_up(x, 0.9, 0.0),
                    Pose::face_up(1.65, 0.65, 0.0),
                    Pose::face_up(0.72, 1.93, 0.0),
                    Pose::face_up(1.99, 1.69, 0.0),
                ];
                deployment.update_receivers(rxs);
                since_replan += dt;
                if since_replan >= round_s {
                    plan = controller.plan(&deployment.model.channel, Probe::off());
                    since_replan = 0.0;
                }
                let fresh = controller.plan(&deployment.model.channel, Probe::off());
                got += deployment.model.throughput(&plan.allocation)[0];
                oracle += deployment.model.throughput(&fresh.allocation)[0];
            }
            points.push(TrackingPoint {
                speed_mps,
                decision_s,
                round_s,
                retention: if oracle > 0.0 { got / oracle } else { 1.0 },
            });
        }
    }
    ExtAdaptation { points }
}

impl ExtAdaptation {
    /// The retention for a (speed, decision-time) pair.
    pub fn retention(&self, speed_mps: f64, decision_s: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                (p.speed_mps - speed_mps).abs() < 1e-9 && (p.decision_s - decision_s).abs() < 1e-12
            })
            .map(|p| p.retention)
    }

    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "Extension — mobility tracking: moving-RX throughput retention vs an always-fresh oracle\n  speed[m/s]   decision[s]   round[s]   retention\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>8.2}   {:>9.3}   {:>8.3}   {:>7.1} %\n",
                p.speed_mps,
                p.decision_s,
                p.round_s,
                p.retention * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_rounds_track_walking_speed() {
        let ext = run(&[1.0], &[0.07], 1);
        let r = ext.retention(1.0, 0.07).expect("cell exists");
        assert!(r > 0.9, "retention {r} at walking speed with the heuristic");
    }

    #[test]
    fn slow_solvers_lose_throughput_under_motion() {
        // A 5 s decision time (still 30× faster than fmincon!) visibly
        // hurts a walking receiver.
        let ext = run(&[1.0], &[0.07, 5.0], 2);
        let fast = ext.retention(1.0, 0.07).expect("cell");
        let slow = ext.retention(1.0, 5.0).expect("cell");
        assert!(slow < fast, "slow {slow} !< fast {fast}");
        assert!(slow < 0.9, "slow solver retained {slow}");
    }

    #[test]
    fn faster_receivers_are_harder_to_track() {
        let ext = run(&[0.5, 4.0], &[0.3], 3);
        let slow_rx = ext.retention(0.5, 0.3).expect("cell");
        let fast_rx = ext.retention(4.0, 0.3).expect("cell");
        assert!(
            fast_rx <= slow_rx + 1e-9,
            "fast {fast_rx} vs slow {slow_rx}"
        );
    }

    #[test]
    fn report_has_a_row_per_cell() {
        let ext = run(&[1.0, 2.0], &[0.07], 4);
        assert_eq!(ext.report().lines().count(), 2 + 2);
    }
}
