//! Fig. 9: optimal swing levels vs communication power (the Fig. 7
//! instance).
//!
//! The paper plots, for TX1–TX18, the optimal swing toward RX1 and RX2 as
//! the power budget grows. The observations that drive the whole practical
//! design: the optimum assigns power *sequentially* to each receiver's
//! preferred TXs (Insight 1), and each TX's swing snaps from zero to full
//! quickly (Insight 2), so gray (partial-swing) regions are rare.

use vlc_alloc::model::SystemModel;
use vlc_alloc::OptimalSolver;
use vlc_par::Pool;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// The Fig. 9 result: swing maps for two receivers.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09 {
    /// The swept budgets in watts.
    pub budgets_w: Vec<f64>,
    /// `swings_rx1[b][tx]`: optimal swing of TX `tx` toward RX1 at budget
    /// index `b` (TXs 0..n_tx, amperes).
    pub swings_rx1: Vec<Vec<f64>>,
    /// Same toward RX2.
    pub swings_rx2: Vec<Vec<f64>>,
    /// Fraction of (budget, active-TX) cells at neither zero nor full swing
    /// — the paper's "gray area" share, which should be small.
    pub partial_fraction: f64,
}

/// Solves the optimal allocation across budgets on the Fig. 7 instance.
pub fn run(budgets_w: &[f64]) -> Fig09 {
    assert!(!budgets_w.is_empty());
    let model: SystemModel = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let solver = OptimalSolver::quick();
    let mut swings_rx1 = Vec::with_capacity(budgets_w.len());
    let mut swings_rx2 = Vec::with_capacity(budgets_w.len());
    let mut partial = 0usize;
    let mut active = 0usize;
    let full = model.led.max_swing;
    for &b in budgets_w {
        let report = solver.solve(&model, b, None, &Pool::from_env(), Probe::off());
        let a = &report.allocation;
        swings_rx1.push((0..model.n_tx()).map(|t| a.swing(t, 0)).collect());
        swings_rx2.push((0..model.n_tx()).map(|t| a.swing(t, 1)).collect());
        for t in 0..model.n_tx() {
            for r in 0..model.n_rx() {
                let s = a.swing(t, r);
                if s > 0.02 * full {
                    active += 1;
                    if s < 0.9 * full {
                        partial += 1;
                    }
                }
            }
        }
    }
    Fig09 {
        budgets_w: budgets_w.to_vec(),
        swings_rx1,
        swings_rx2,
        partial_fraction: if active == 0 {
            0.0
        } else {
            partial as f64 / active as f64
        },
    }
}

impl Fig09 {
    /// Paper-style text rendering: one row per TX1–TX18, one column per
    /// budget, `.` = off, `o` = partial, `#` = full swing.
    pub fn report(&self) -> String {
        let glyph = |s: f64| {
            if s < 0.018 {
                '.'
            } else if s < 0.81 {
                'o'
            } else {
                '#'
            }
        };
        let mut out = String::from(
            "Fig. 9 — optimal swing maps (rows TX1-TX18, cols = rising budget; . off, o partial, # full)\n",
        );
        for (label, map) in [("RX1", &self.swings_rx1), ("RX2", &self.swings_rx2)] {
            out.push_str(&format!("  stream to {label}:\n"));
            for tx in 0..18.min(map[0].len()) {
                out.push_str(&format!("   TX{:>2} ", tx + 1));
                for budget_map in map.iter() {
                    out.push(glyph(budget_map[tx]));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "  partial-swing share of active cells: {:.1} % (paper: negligible)\n",
            self.partial_fraction * 100.0
        ));
        out
    }

    /// Insight 1 check: the budget at which each TX first activates toward
    /// a receiver, in ranked order (lower = earlier).
    pub fn activation_budget(&self, rx1: bool, tx: usize) -> Option<f64> {
        let map = if rx1 {
            &self.swings_rx1
        } else {
            &self.swings_rx2
        };
        (0..self.budgets_w.len())
            .find(|&b| map[b][tx] > 0.02)
            .map(|b| self.budgets_w[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets() -> Vec<f64> {
        (1..=10).map(|i| 0.2 * i as f64).collect()
    }

    #[test]
    fn best_txs_activate_first() {
        let fig = run(&budgets());
        let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
        let best_rx1 = model.channel.best_tx_for(0);
        // RX1's best TX activates at the smallest budget in the sweep.
        let b_best = fig.activation_budget(true, best_rx1).expect("activates");
        assert!(b_best <= 0.4, "best TX activated only at {b_best} W");
    }

    #[test]
    fn partial_swing_cells_are_minority() {
        // Insight 2: the optimum is (mostly) binary.
        let fig = run(&budgets());
        assert!(
            fig.partial_fraction < 0.5,
            "partial fraction {}",
            fig.partial_fraction
        );
    }

    #[test]
    fn more_budget_activates_more_txs() {
        let fig = run(&[0.2, 1.6]);
        let active = |m: &Vec<f64>| m.iter().filter(|&&s| s > 0.02).count();
        let lo = active(&fig.swings_rx1[0]) + active(&fig.swings_rx2[0]);
        let hi = active(&fig.swings_rx1[1]) + active(&fig.swings_rx2[1]);
        assert!(hi > lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn report_draws_18_tx_rows_per_stream() {
        let fig = run(&[0.4, 0.8]);
        let rep = fig.report();
        // 18 TX rows per stream × 2 streams, plus the two header mentions.
        assert_eq!(rep.matches("TX").count(), 38);
    }
}
