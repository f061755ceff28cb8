//! Fig. 11: heuristic verification — throughput vs optimal across κ, plus
//! loss histograms over random instances.
//!
//! The paper finds κ = 1.2/1.3 track the optimum within a few percent
//! (κ = 1.3 loses only 1.8 % on average), while κ = 1.0 over-penalizes
//! interference and loses ~40 % at low budgets.

use crate::experiments::mean_ci95;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Pool;
use vlc_testbed::{random_instances, Deployment, Scenario};
use vlc_trace::Probe;

/// Throughput-vs-budget curves on the Fig. 7 instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Curves {
    /// The swept budgets in watts.
    pub budgets_w: Vec<f64>,
    /// Optimal system throughput per budget, bit/s.
    pub optimal_bps: Vec<f64>,
    /// Heuristic system throughput per (κ, budget), bit/s.
    pub heuristic_bps: Vec<(f64, Vec<f64>)>,
}

/// Average loss statistics over random instances.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Losses {
    /// `(κ, per-instance loss fractions)`.
    pub losses: Vec<(f64, Vec<f64>)>,
}

/// The full Fig. 11 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// Left panel: curves on the single instance.
    pub curves: Fig11Curves,
    /// Right panels: loss distributions over instances.
    pub losses: Fig11Losses,
}

/// The κ values the paper sweeps.
pub const PAPER_KAPPAS: [f64; 4] = [1.0, 1.2, 1.3, 1.5];

/// Runs the verification: curves on the Fig. 7 instance and loss
/// distributions over `instances` random placements at `loss_budget_w`.
pub fn run(budgets_w: &[f64], instances: usize, loss_budget_w: f64, seed: u64) -> Fig11 {
    assert!(!budgets_w.is_empty() && instances > 0);
    let solver = OptimalSolver::quick();

    // Left panel: the Fig. 7 instance.
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let optimal_bps: Vec<f64> = budgets_w
        .iter()
        .map(|&b| {
            model.system_throughput(
                &solver
                    .solve(&model, b, None, &Pool::from_env(), Probe::off())
                    .allocation,
            )
        })
        .collect();
    let heuristic_bps: Vec<(f64, Vec<f64>)> = PAPER_KAPPAS
        .iter()
        .map(|&kappa| {
            let curve = heuristic_sweep(&model, &HeuristicConfig::with_kappa(kappa));
            let t = budgets_w
                .iter()
                .map(|&b| throughput_at_power(&curve, b))
                .collect();
            (kappa, t)
        })
        .collect();

    // Right panels: losses over random instances at one budget.
    let mut rng = StdRng::seed_from_u64(seed);
    let placements = random_instances(instances, 0.35, &mut rng);
    let mut losses: Vec<(f64, Vec<f64>)> = PAPER_KAPPAS
        .iter()
        .map(|&k| (k, Vec::with_capacity(instances)))
        .collect();
    for placement in &placements {
        let m = Deployment::simulation(placement).model;
        let opt = m.system_throughput(
            &solver
                .solve(&m, loss_budget_w, None, &Pool::from_env(), Probe::off())
                .allocation,
        );
        for (k, bucket) in losses.iter_mut() {
            let curve = heuristic_sweep(&m, &HeuristicConfig::with_kappa(*k));
            let h = throughput_at_power(&curve, loss_budget_w);
            bucket.push(1.0 - h / opt);
        }
    }
    Fig11 {
        curves: Fig11Curves {
            budgets_w: budgets_w.to_vec(),
            optimal_bps,
            heuristic_bps,
        },
        losses: Fig11Losses { losses },
    }
}

impl Fig11 {
    /// Mean loss for a κ, as a fraction.
    pub fn mean_loss(&self, kappa: f64) -> f64 {
        let bucket = &self
            .losses
            .losses
            .iter()
            .find(|(k, _)| (*k - kappa).abs() < 1e-9)
            .expect("κ was swept")
            .1;
        mean_ci95(bucket).0
    }

    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "Fig. 11 — heuristic vs optimal (left: Fig. 7 instance; right: instance losses)\n  budget[W]   optimal",
        );
        for (k, _) in &self.curves.heuristic_bps {
            out.push_str(&format!("      κ={k}"));
        }
        out.push('\n');
        for (i, &b) in self.curves.budgets_w.iter().enumerate() {
            out.push_str(&format!(
                "  {:>7.2}   {:>7.3}",
                b,
                self.curves.optimal_bps[i] / 1e6
            ));
            for (_, t) in &self.curves.heuristic_bps {
                out.push_str(&format!("  {:>7.3}", t[i] / 1e6));
            }
            out.push('\n');
        }
        out.push_str("  mean loss vs optimal (paper: 40.3 %, 2.4 %, 1.8 %, 2.6 %):\n");
        for &k in &PAPER_KAPPAS {
            out.push_str(&format!(
                "    κ={k}: {:>5.1} %\n",
                self.mean_loss(k) * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_kappas_are_near_optimal() {
        let fig = run(&[0.6, 1.2], 4, 1.2, 21);
        let loss_13 = fig.mean_loss(1.3);
        assert!(loss_13 < 0.10, "κ=1.3 loss {loss_13}");
    }

    #[test]
    fn kappa_one_is_worst_at_low_budget() {
        // κ=1.0 over-weights interference: at low budgets its curve sits
        // below the tuned κ values on the Fig. 7 instance.
        let fig = run(&[0.45], 1, 0.45, 22);
        let t = |kappa: f64| {
            fig.curves
                .heuristic_bps
                .iter()
                .find(|(k, _)| (*k - kappa).abs() < 1e-9)
                .expect("swept")
                .1[0]
        };
        assert!(t(1.0) < t(1.3), "κ=1.0 {} vs κ=1.3 {}", t(1.0), t(1.3));
    }

    #[test]
    fn optimal_dominates_every_heuristic() {
        let fig = run(&[0.6, 1.5], 2, 0.9, 23);
        for (i, &opt) in fig.curves.optimal_bps.iter().enumerate() {
            for (k, t) in &fig.curves.heuristic_bps {
                assert!(
                    t[i] <= opt * 1.02,
                    "κ={k} beat the optimum at budget index {i}: {} vs {opt}",
                    t[i]
                );
            }
        }
    }

    #[test]
    fn report_covers_all_kappas() {
        let rep = run(&[0.6], 1, 0.6, 24).report();
        for k in PAPER_KAPPAS {
            assert!(rep.contains(&format!("κ={k}")));
        }
    }
}
