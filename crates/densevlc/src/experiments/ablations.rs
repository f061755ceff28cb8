//! Ablations of the design choices `DESIGN.md` calls out, on the Fig. 7
//! instance (Scenario 2):
//!
//! * **Binary swings (Insight 2):** what throughput does discretizing the
//!   continuous optimum to {0, Isw,max} cost?
//! * **κ sensitivity:** heuristic throughput across κ at the paper's
//!   comparison budget.
//! * **Partial-last budget usage:** the heuristic with and without a
//!   fractional final TX.

use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::model::Allocation;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Pool;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// The ablation deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Budget every ablation runs at, in watts.
    pub budget_w: f64,
    /// System throughput of the continuous optimum, bit/s.
    pub continuous_bps: f64,
    /// System throughput of the optimum snapped to binary swings, bit/s.
    pub binary_bps: f64,
    /// `(κ, heuristic system throughput in bit/s)` per swept κ.
    pub kappa_bps: Vec<(f64, f64)>,
    /// Heuristic throughput without a fractional last TX, bit/s.
    pub strict_bps: f64,
    /// Heuristic throughput with a fractional last TX, bit/s.
    pub partial_bps: f64,
}

/// Discretizes an allocation to binary swings: each TX's dominant stream
/// snaps to `max_swing` when it is at least half of it, and every other
/// stream is zeroed.
fn binarize(alloc: &Allocation, max_swing: f64) -> Allocation {
    let mut out = Allocation::zeros(alloc.n_tx(), alloc.n_rx());
    for t in 0..alloc.n_tx() {
        // Snap the dominant stream of each TX.
        let mut best_rx = None;
        let mut best = 0.0;
        for r in 0..alloc.n_rx() {
            let s = alloc.swing(t, r);
            if s > best {
                best = s;
                best_rx = Some(r);
            }
        }
        if let Some(r) = best_rx {
            if best >= 0.5 * max_swing {
                out.set_swing(t, r, max_swing);
            }
        }
    }
    out
}

/// Runs the three ablations at `budget_w`, sweeping the heuristic over
/// `kappas`.
pub fn run(kappas: &[f64], budget_w: f64) -> Ablations {
    assert!(!kappas.is_empty() && budget_w > 0.0);
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;

    // Ablation 1: binary vs continuous optimum.
    let report =
        OptimalSolver::quick().solve(&model, budget_w, None, &Pool::from_env(), Probe::off());
    let continuous_bps = model.system_throughput(&report.allocation);
    let binary_bps = model.system_throughput(&binarize(&report.allocation, model.led.max_swing));

    // Ablation 2: κ sensitivity at the comparison budget.
    let kappa_bps = kappas
        .iter()
        .map(|&kappa| {
            let curve = heuristic_sweep(&model, &HeuristicConfig::with_kappa(kappa));
            (kappa, throughput_at_power(&curve, budget_w))
        })
        .collect();

    // Ablation 3: partial-last budget usage.
    let strict = heuristic_allocation(
        &model.channel,
        &model.led,
        budget_w,
        &HeuristicConfig::paper(),
        Probe::off(),
    );
    let partial = heuristic_allocation(
        &model.channel,
        &model.led,
        budget_w,
        &HeuristicConfig {
            allow_partial_last: true,
            ..HeuristicConfig::paper()
        },
        Probe::off(),
    );
    Ablations {
        budget_w,
        continuous_bps,
        binary_bps,
        kappa_bps,
        strict_bps: model.system_throughput(&strict),
        partial_bps: model.system_throughput(&partial),
    }
}

impl Ablations {
    /// One `[ablation]` line per delta.
    pub fn report(&self) -> String {
        let (continuous, budget) = (self.continuous_bps, self.budget_w);
        let mut out = format!(
            "[ablation] binary-swing discretization: continuous {:.3} Mb/s -> binary {:.3} Mb/s ({:+.2} %)\n",
            continuous / 1e6,
            self.binary_bps / 1e6,
            (self.binary_bps / continuous - 1.0) * 100.0
        );
        for &(kappa, t) in &self.kappa_bps {
            out.push_str(&format!(
                "[ablation] kappa {kappa}: {:.3} Mb/s at {budget} W ({:+.2} % vs optimal)\n",
                t / 1e6,
                (t / continuous - 1.0) * 100.0
            ));
        }
        out.push_str(&format!(
            "[ablation] partial-last TX: strict {:.3} Mb/s vs partial {:.3} Mb/s\n",
            self.strict_bps / 1e6,
            self.partial_bps / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binarized_swings_are_off_or_full_with_one_live_stream_per_tx() {
        let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
        let max = model.led.max_swing;
        let optimum = OptimalSolver::quick()
            .solve(&model, 1.2, None, &Pool::from_env(), Probe::off())
            .allocation;
        let binary = binarize(&optimum, max);
        let mut live_total = 0;
        for t in 0..binary.n_tx() {
            let mut live = 0;
            for r in 0..binary.n_rx() {
                let s = binary.swing(t, r);
                assert!(s == 0.0 || s == max, "TX{t} RX{r} swing {s}");
                live += usize::from(s > 0.0);
            }
            assert!(live <= 1, "TX{t} drives {live} streams");
            live_total += live;
        }
        assert!(live_total > 0, "the optimum at 1.2 W lights some TX");
    }

    #[test]
    fn report_carries_the_three_ablations() {
        let rep = run(&[1.0, 1.3], 1.2).report();
        assert!(rep.contains("[ablation] binary-swing discretization"));
        assert!(rep.contains("[ablation] kappa 1: "));
        assert!(rep.contains("[ablation] kappa 1.3: "));
        assert!(rep.contains("[ablation] partial-last TX"));
        assert_eq!(rep.lines().count(), 4);
    }
}
