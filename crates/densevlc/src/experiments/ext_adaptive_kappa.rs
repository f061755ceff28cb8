//! Extension (paper §9): personalized, adaptive per-TX κ.
//!
//! The paper leaves as future work the observation that per-TX κ values
//! "can boost the system performance towards the optimal result". This
//! experiment quantifies the boost: for several budgets on the Fig. 7
//! instance, it compares the uniform-κ heuristic, the adapted per-TX-κ
//! heuristic, and the optimal solver.

use vlc_alloc::adaptive::{adapt_per_tx_kappa, KappaAdaptConfig};
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Pool;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// One budget point of the extension study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtKappaPoint {
    /// Budget in watts.
    pub budget_w: f64,
    /// Uniform-κ heuristic system throughput, bit/s.
    pub uniform_bps: f64,
    /// Adapted per-TX-κ heuristic system throughput, bit/s.
    pub adapted_bps: f64,
    /// Optimal system throughput, bit/s.
    pub optimal_bps: f64,
}

impl ExtKappaPoint {
    /// Fraction of the uniform-to-optimal gap the adaptation recovers
    /// (1.0 = reaches the optimum, 0.0 = no help).
    pub fn gap_recovered(&self) -> f64 {
        let gap = self.optimal_bps - self.uniform_bps;
        if gap <= 0.0 {
            return 1.0;
        }
        ((self.adapted_bps - self.uniform_bps) / gap).clamp(-1.0, 1.0)
    }
}

/// The extension-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtKappa {
    /// One entry per budget.
    pub points: Vec<ExtKappaPoint>,
}

/// Runs the study on the Fig. 7 instance starting from uniform κ.
pub fn run(budgets_w: &[f64], start_kappa: f64) -> ExtKappa {
    assert!(!budgets_w.is_empty());
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let solver = OptimalSolver::quick();
    let adapt_cfg = KappaAdaptConfig::default();
    let points = budgets_w
        .iter()
        .map(|&budget_w| {
            let start = HeuristicConfig::with_kappa(start_kappa);
            let uniform =
                heuristic_allocation(&model.channel, &model.led, budget_w, &start, Probe::off());
            let adapted_cfg = adapt_per_tx_kappa(&model, budget_w, &start, &adapt_cfg);
            let adapted = heuristic_allocation(
                &model.channel,
                &model.led,
                budget_w,
                &adapted_cfg.config,
                Probe::off(),
            );
            ExtKappaPoint {
                budget_w,
                uniform_bps: model.system_throughput(&uniform),
                adapted_bps: model.system_throughput(&adapted),
                optimal_bps: model.system_throughput(
                    &solver
                        .solve(&model, budget_w, None, &Pool::from_env(), Probe::off())
                        .allocation,
                ),
            }
        })
        .collect();
    ExtKappa { points }
}

impl ExtKappa {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "Extension (§9) — adaptive per-TX κ vs uniform κ vs optimal\n  budget[W]   uniform[Mb/s]   adapted[Mb/s]   optimal[Mb/s]   gap recovered\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>7.2}   {:>11.3}   {:>11.3}   {:>11.3}   {:>10.0} %\n",
                p.budget_w,
                p.uniform_bps / 1e6,
                p.adapted_bps / 1e6,
                p.optimal_bps / 1e6,
                p.gap_recovered() * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_recovers_gap_from_kappa_one() {
        // κ = 1.0 leaves a big gap to the optimum (paper: 40 % loss);
        // per-TX adaptation must recover a large share of it.
        let ext = run(&[0.9], 1.0);
        let p = &ext.points[0];
        assert!(p.adapted_bps >= p.uniform_bps);
        assert!(
            p.gap_recovered() > 0.5,
            "recovered only {:.0} % of the gap",
            p.gap_recovered() * 100.0
        );
    }

    #[test]
    fn adaptation_is_harmless_from_a_good_start() {
        let ext = run(&[1.2], 1.3);
        let p = &ext.points[0];
        assert!(p.adapted_bps >= p.uniform_bps * 0.999);
    }

    #[test]
    fn report_has_one_row_per_budget() {
        let ext = run(&[0.6, 1.2], 1.3);
        assert_eq!(ext.report().lines().count(), 2 + 2);
    }
}
