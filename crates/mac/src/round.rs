//! The timeline of one full adaptation round (paper §3.2's MAC protocol).
//!
//! A round is: (1) the controller sounds every TX in TDM slots; (2) each
//! receiver reports its measurements over WiFi; (3) the decision logic
//! runs (heuristic: ~0.07 s in the paper, microseconds here; optimal:
//! minutes); (4) the new beamspot configuration is multicast to the TXs.
//! The total bounds how fast DenseVLC can track receiver mobility — the
//! §5 complexity argument is really about this loop.

use crate::backhaul::{EthernetMulticast, WifiUplink};
use crate::schedule::PilotSchedule;
use rand::Rng;

/// Durations of one adaptation round, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTimeline {
    /// TDM channel sounding over all scheduled TXs.
    pub sounding_s: f64,
    /// Slowest receiver's report delivery (with retries) over WiFi.
    pub reporting_s: f64,
    /// Decision-logic runtime.
    pub decision_s: f64,
    /// Multicast reconfiguration delivery to the slowest TX host.
    pub reconfiguration_s: f64,
}

impl RoundTimeline {
    /// Total round duration.
    pub fn total_s(&self) -> f64 {
        self.sounding_s + self.reporting_s + self.decision_s + self.reconfiguration_s
    }

    /// The highest receiver speed (m/s) the round can track if the channel
    /// must be re-planned every time a receiver moves `coherence_m` meters
    /// (half a beam footprint, say 0.25 m).
    pub fn max_tracking_speed(&self, coherence_m: f64) -> f64 {
        assert!(coherence_m > 0.0, "coherence distance must be positive");
        coherence_m / self.total_s()
    }
}

/// Simulates one adaptation round's timeline.
///
/// `n_rx` receivers report independently over `wifi` (3 retries); the
/// configuration is multicast over `eth` to `n_hosts` TX hosts and the
/// slowest delivery gates the reconfiguration. Lost reports (after
/// retries) stall the round by a full retry timeout — visible as an
/// outlier tail in repeated simulations, exactly like a real deployment.
pub fn simulate_round<R: Rng + ?Sized>(
    schedule: &PilotSchedule,
    n_rx: usize,
    n_hosts: usize,
    decision_s: f64,
    wifi: &WifiUplink,
    eth: &EthernetMulticast,
    rng: &mut R,
) -> RoundTimeline {
    assert!(n_rx > 0 && n_hosts > 0, "need receivers and hosts");
    assert!(decision_s >= 0.0, "decision time cannot be negative");
    let sounding_s = schedule.round_duration_s();
    let reporting_s = (0..n_rx)
        .map(|_| {
            wifi.delivery_with_retries_s(3, rng)
                // A fully lost report costs the retry budget and the round
                // proceeds with stale data for that RX.
                .unwrap_or(wifi.base_latency_s * 8.0)
        })
        .fold(0.0, f64::max);
    let reconfiguration_s = (0..n_hosts)
        .map(|_| eth.delivery_s(rng))
        .fold(0.0, f64::max);
    RoundTimeline {
        sounding_s,
        reporting_s,
        decision_s,
        reconfiguration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_round(decision_s: f64, seed: u64) -> RoundTimeline {
        let schedule = PilotSchedule::full_sweep(36, 1e-3);
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_round(
            &schedule,
            4,
            9,
            decision_s,
            &WifiUplink::paper(),
            &EthernetMulticast::paper(),
            &mut rng,
        )
    }

    #[test]
    fn heuristic_round_is_fast_enough_for_walking_users() {
        // With the paper's 0.07 s heuristic, the round tracks ≥1 m/s
        // receivers at 0.25 m coherence.
        let t = paper_round(0.07, 1);
        assert!(t.total_s() < 0.25, "round took {} s", t.total_s());
        assert!(t.max_tracking_speed(0.25) > 1.0);
    }

    #[test]
    fn optimal_solver_round_cannot_track_mobility() {
        // The 165 s fmincon solve makes the round useless for mobility —
        // the §5 motivation for the heuristic.
        let t = paper_round(165.0, 2);
        assert!(t.max_tracking_speed(0.25) < 0.01);
    }

    #[test]
    fn sounding_dominates_the_fast_round() {
        let t = paper_round(0.0001, 3);
        assert!(t.sounding_s > t.reporting_s);
        assert!(t.sounding_s > t.reconfiguration_s);
        assert!((t.sounding_s - 0.036).abs() < 1e-12); // 36 × 1 ms
    }

    #[test]
    fn subset_sounding_shrinks_the_round() {
        let mut rng = StdRng::seed_from_u64(4);
        let fast = simulate_round(
            &PilotSchedule::subset(vec![7, 8, 13, 14], 1e-3),
            4,
            9,
            0.001,
            &WifiUplink::paper(),
            &EthernetMulticast::paper(),
            &mut rng,
        );
        let full = paper_round(0.001, 4);
        assert!(fast.total_s() < full.total_s());
    }

    #[test]
    fn lossy_wifi_adds_a_tail() {
        let schedule = PilotSchedule::full_sweep(36, 1e-3);
        let lossy = WifiUplink {
            loss_probability: 0.5,
            ..WifiUplink::paper()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            let t = simulate_round(
                &schedule,
                4,
                9,
                0.001,
                &lossy,
                &EthernetMulticast::paper(),
                &mut rng,
            );
            worst = worst.max(t.reporting_s);
        }
        // Retries show up: the worst reporting time exceeds several base
        // latencies.
        assert!(
            worst > 3.0 * lossy.base_latency_s,
            "worst reporting {worst}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_coherence_panics() {
        paper_round(0.07, 6).max_tracking_speed(0.0);
    }
}
