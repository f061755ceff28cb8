//! Fig. 8: average throughput vs communication power under the optimal
//! policy, over random receiver placements with 95 % confidence intervals.
//!
//! The paper gradually raises the power budget, solves the optimization
//! problem for 100 random placements (Fig. 6), and plots system and per-RX
//! throughput. The headline shapes: throughput rises with the budget;
//! user fairness keeps per-RX curves balanced; the marginal gain drops
//! beyond ≈ 1.2 W; RX3 and RX4 edge out RX1 and RX2 at high budgets thanks
//! to more non-interfering TXs.

use crate::experiments::mean_ci95;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_alloc::OptimalSolver;
use vlc_par::Pool;
use vlc_testbed::{random_instances, Deployment};
use vlc_trace::Probe;

/// One budget point of the Fig. 8 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Point {
    /// Power budget in watts.
    pub budget_w: f64,
    /// Mean system throughput in bit/s and its 95 % CI half-width.
    pub system_bps: (f64, f64),
    /// Per-RX mean throughput and CI half-width.
    pub per_rx_bps: Vec<(f64, f64)>,
}

/// The Fig. 8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08 {
    /// One entry per budget.
    pub points: Vec<Fig08Point>,
    /// Number of random instances averaged.
    pub instances: usize,
}

/// Runs the sweep: `instances` random placements × the given budgets.
pub fn run(budgets_w: &[f64], instances: usize, seed: u64) -> Fig08 {
    assert!(!budgets_w.is_empty() && instances > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let placements = random_instances(instances, 0.35, &mut rng);
    let solver = OptimalSolver::quick();
    let models: Vec<_> = placements
        .iter()
        .map(|p| Deployment::simulation(p).model)
        .collect();

    let points = budgets_w
        .iter()
        .map(|&budget_w| {
            let mut sys = Vec::with_capacity(instances);
            let mut per_rx: Vec<Vec<f64>> = (0..4).map(|_| Vec::with_capacity(instances)).collect();
            for model in &models {
                let report = solver.solve(model, budget_w, None, &Pool::from_env(), Probe::off());
                let t = model.throughput(&report.allocation);
                sys.push(t.iter().sum());
                for (k, &v) in t.iter().enumerate() {
                    per_rx[k].push(v);
                }
            }
            Fig08Point {
                budget_w,
                system_bps: mean_ci95(&sys),
                per_rx_bps: per_rx.iter().map(|v| mean_ci95(v)).collect(),
            }
        })
        .collect();
    Fig08 { points, instances }
}

impl Fig08 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut s = format!(
            "Fig. 8 — optimal throughput vs power budget ({} instances, 95 % CI)\n\
             budget[W]   system[Mb/s]          RX1          RX2          RX3          RX4\n",
            self.instances
        );
        for p in &self.points {
            s.push_str(&format!(
                "  {:>6.2}   {:>6.3}±{:<5.3}",
                p.budget_w,
                p.system_bps.0 / 1e6,
                p.system_bps.1 / 1e6
            ));
            for (m, ci) in &p.per_rx_bps {
                s.push_str(&format!("  {:>5.3}±{:<4.3}", m / 1e6, ci / 1e6));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rises_with_budget() {
        let fig = run(&[0.3, 1.2], 4, 7);
        assert!(fig.points[1].system_bps.0 > fig.points[0].system_bps.0);
    }

    #[test]
    fn fairness_keeps_rx_curves_balanced() {
        // Sum-log fairness: no receiver may be starved relative to the rest.
        let fig = run(&[0.9], 4, 8);
        let means: Vec<f64> = fig.points[0].per_rx_bps.iter().map(|(m, _)| *m).collect();
        let max = means.iter().copied().fold(f64::MIN, f64::max);
        let min = means.iter().copied().fold(f64::MAX, f64::min);
        assert!(min > 0.25 * max, "per-RX means unbalanced: {means:?}");
    }

    #[test]
    fn marginal_gain_drops_at_high_budget() {
        // The paper: the efficiency falls beyond ≈ 1.2 W. Slope(0.3→1.2)
        // must exceed slope(1.2→2.4).
        let fig = run(&[0.3, 1.2, 2.4], 4, 9);
        let s01 = (fig.points[1].system_bps.0 - fig.points[0].system_bps.0) / 0.9;
        let s12 = (fig.points[2].system_bps.0 - fig.points[1].system_bps.0) / 1.2;
        assert!(s01 > 1.5 * s12, "slopes {s01} vs {s12}");
    }

    #[test]
    fn report_has_one_row_per_budget() {
        let fig = run(&[0.3, 0.6], 2, 10);
        assert_eq!(fig.report().lines().count(), 2 + 2);
    }
}
