//! Figs. 18–20: experimental heuristic evaluation in the three Table 6
//! scenarios.
//!
//! The paper assigns TXs from the ranked list one by one (raising the
//! communication budget step by step), computes SINRs from measured path
//! losses, and plots normalized per-RX and system throughput for
//! κ ∈ {1.0, 1.2, 1.3, 1.5}. Headline shapes: Scenario 1 is
//! interference-free (adding a TX never hurts the other RXs); Scenario 2
//! leaves RX1 behind (it sits closest to the interferers); Scenario 3 shows
//! a throughput drop when too many TXs are assigned.

use vlc_alloc::analysis::{heuristic_sweep, SweepPoint};
use vlc_alloc::HeuristicConfig;
use vlc_testbed::{Deployment, Scenario};

/// The per-scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCurves {
    /// Which scenario this is.
    pub scenario: Scenario,
    /// Sweep curves per κ: `(κ, points)` with one point per assigned-TX
    /// count (0..=36).
    pub curves: Vec<(f64, Vec<SweepPoint>)>,
    /// The normalization constant: the maximum system throughput observed
    /// across all κ and budgets (the paper normalizes its plots).
    pub max_system_bps: f64,
}

/// The κ values the paper sweeps.
pub const PAPER_KAPPAS: [f64; 4] = [1.0, 1.2, 1.3, 1.5];

/// Runs the ranked-assignment sweep for one scenario.
pub fn run(scenario: Scenario) -> ScenarioCurves {
    let model = Deployment::scenario(scenario).model;
    let curves: Vec<(f64, Vec<SweepPoint>)> = PAPER_KAPPAS
        .iter()
        .map(|&kappa| {
            (
                kappa,
                heuristic_sweep(&model, &HeuristicConfig::with_kappa(kappa)),
            )
        })
        .collect();
    let max_system_bps = curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.system_bps))
        .fold(0.0, f64::max);
    ScenarioCurves {
        scenario,
        curves,
        max_system_bps,
    }
}

impl ScenarioCurves {
    /// The curve for a κ.
    pub fn curve(&self, kappa: f64) -> &[SweepPoint] {
        &self
            .curves
            .iter()
            .find(|(k, _)| (*k - kappa).abs() < 1e-9)
            .expect("κ was swept")
            .1
    }

    /// Normalized system throughput for a κ at a point index.
    pub fn normalized_system(&self, kappa: f64, idx: usize) -> f64 {
        self.curve(kappa)[idx].system_bps / self.max_system_bps
    }

    /// Paper-style text rendering (system curves only, every third point).
    pub fn report(&self) -> String {
        let mut out = format!("{}\n  P[W]", self.scenario.label());
        for k in PAPER_KAPPAS {
            out.push_str(&format!("     κ={k}"));
        }
        out.push('\n');
        let n = self.curve(1.3).len();
        for idx in (0..n).step_by(3) {
            out.push_str(&format!("  {:>5.2}", self.curve(1.3)[idx].power_w));
            for k in PAPER_KAPPAS {
                out.push_str(&format!("  {:>6.3}", self.normalized_system(k, idx)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_txs_do_not_hurt_each_other() {
        // Fig. 18: assigning a TX to one RX causes no throughput drop at
        // the others — per-RX curves are non-decreasing for κ = 1.3 over
        // the first dozen assignments.
        let res = run(Scenario::One);
        let curve = res.curve(1.3);
        for idx in 1..=12 {
            for rx in 0..4 {
                let now = curve[idx].per_rx_bps[rx];
                let before = curve[idx - 1].per_rx_bps[rx];
                assert!(
                    now >= before * 0.999,
                    "Scenario 1: RX{} dropped at step {idx}",
                    rx + 1
                );
            }
        }
    }

    #[test]
    fn scenario2_interference_creates_per_rx_spread() {
        // Fig. 19: unlike the interference-free Scenario 1, the receivers
        // no longer track each other — the RX nearest the interferers ends
        // up noticeably below the best-served one. (Which receiver falls
        // behind depends on the measured channel realization; the paper's
        // testbed sees RX1, our Lambertian channel picks another — the
        // robust claim is the interference-induced spread itself.)
        let res = run(Scenario::Two);
        let last = res.curve(1.3).last().expect("non-empty");
        let max = last.per_rx_bps.iter().copied().fold(f64::MIN, f64::max);
        let min = last.per_rx_bps.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 1.3 * min, "no spread: max {max} min {min}");

        // Scenario 1's spread is much smaller at the same assignment depth.
        let s1 = run(Scenario::One);
        let last1 = s1.curve(1.3).last().expect("non-empty");
        let max1 = last1.per_rx_bps.iter().copied().fold(f64::MIN, f64::max);
        let min1 = last1.per_rx_bps.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max1 / min1 < max / min,
            "scenario 1 spread exceeds scenario 2"
        );
    }

    #[test]
    fn scenario3_drops_with_many_txs() {
        // Fig. 20: the system throughput peaks and then degrades when many
        // TXs are assigned.
        let res = run(Scenario::Three);
        let curve = res.curve(1.3);
        let peak = curve.iter().map(|p| p.system_bps).fold(0.0, f64::max);
        let last = curve.last().expect("non-empty").system_bps;
        assert!(last < peak * 0.995, "no drop: peak {peak} last {last}");
    }

    #[test]
    fn kappa_one_starts_slow_under_interference() {
        // κ = 1.0 "pays too much attention to interference at low power",
        // so its early throughput is lowest among the κ values.
        let res = run(Scenario::Two);
        let idx = 6;
        let t10 = res.normalized_system(1.0, idx);
        let t13 = res.normalized_system(1.3, idx);
        assert!(t10 < t13, "κ=1.0 {t10} vs κ=1.3 {t13}");
    }

    #[test]
    fn normalization_caps_at_one() {
        for s in [Scenario::One, Scenario::Two, Scenario::Three] {
            let res = run(s);
            for k in PAPER_KAPPAS {
                for idx in 0..res.curve(k).len() {
                    assert!(res.normalized_system(k, idx) <= 1.0 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn report_labels_the_scenario() {
        assert!(run(Scenario::Three).report().contains("Scenario 3"));
    }
}
