//! Personalized, adaptive per-TX κ (paper §9, "Personalized and adaptive κ").
//!
//! The paper's heuristic uses one κ for all TXs and observes that "properly
//! personalized and adaptive κs can boost the system performance towards
//! the optimal result". This module implements that extension: a coordinate
//! ascent over per-TX κ values, evaluating candidate rankings on the system
//! model. Each pass perturbs one TX's κ up and down and keeps whatever
//! improves the planned sum-log throughput; a handful of passes converges
//! because only TXs near decision boundaries (serve RX A vs RX B vs stay
//! dark) react to their κ at all.

use crate::heuristic::{heuristic_allocation, HeuristicConfig};
use crate::model::SystemModel;
use serde::{Deserialize, Serialize};
use vlc_trace::Probe;

/// Configuration of the κ adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KappaAdaptConfig {
    /// Number of full coordinate-ascent passes over the TXs.
    pub passes: usize,
    /// Multiplicative perturbation step per trial (e.g. 0.1 → ±10 %).
    pub step: f64,
    /// Lower bound on any per-TX κ.
    pub kappa_min: f64,
    /// Upper bound on any per-TX κ.
    pub kappa_max: f64,
}

impl Default for KappaAdaptConfig {
    fn default() -> Self {
        KappaAdaptConfig {
            passes: 2,
            step: 0.15,
            kappa_min: 0.8,
            kappa_max: 2.5,
        }
    }
}

/// Result of the adaptation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KappaAdaptResult {
    /// The adapted heuristic configuration (with `per_tx_kappa` set).
    pub config: HeuristicConfig,
    /// Sum-log objective with the uniform starting κ.
    pub baseline_objective: f64,
    /// Sum-log objective after adaptation.
    pub adapted_objective: f64,
    /// Number of accepted per-TX changes.
    pub accepted_moves: usize,
}

impl KappaAdaptResult {
    /// System-throughput-style improvement as a fraction of the baseline
    /// objective gap (positive = adaptation helped).
    pub fn improved(&self) -> bool {
        self.adapted_objective > self.baseline_objective + 1e-12
    }
}

/// Runs the coordinate ascent for a model and budget, starting from a
/// uniform-κ configuration.
///
/// # Panics
/// Panics if the starting configuration already has `per_tx_kappa` set with
/// the wrong length, or if the budget is not positive.
pub fn adapt_per_tx_kappa(
    model: &SystemModel,
    budget_w: f64,
    start: &HeuristicConfig,
    adapt: &KappaAdaptConfig,
) -> KappaAdaptResult {
    assert!(budget_w > 0.0, "budget must be positive");
    assert!(
        adapt.passes > 0 && adapt.step > 0.0,
        "degenerate adaptation config"
    );
    let n_tx = model.n_tx();
    let mut kappas = match &start.per_tx_kappa {
        Some(v) => {
            assert_eq!(v.len(), n_tx, "per-TX κ vector has the wrong length");
            v.clone()
        }
        None => vec![start.kappa; n_tx],
    };

    let evaluate = |kappas: &[f64]| -> f64 {
        let cfg = HeuristicConfig {
            kappa: start.kappa,
            per_tx_kappa: Some(kappas.to_vec()),
            allow_partial_last: start.allow_partial_last,
        };
        let alloc = heuristic_allocation(&model.channel, &model.led, budget_w, &cfg, Probe::off());
        // Sum-log is −∞ while some RX is unserved (tiny budgets); fall back
        // to plain system throughput so the ascent still has a signal.
        let obj = model.sum_log_throughput(&alloc);
        if obj.is_finite() {
            obj
        } else {
            model.system_throughput(&alloc) / model.noise.bandwidth_hz - 1e6
        }
    };

    let baseline_objective = evaluate(&kappas);
    let mut best = baseline_objective;
    let mut accepted_moves = 0;
    for _ in 0..adapt.passes {
        for tx in 0..n_tx {
            let original = kappas[tx];
            let mut improved_here = false;
            for factor in [1.0 + adapt.step, 1.0 - adapt.step] {
                let candidate = (original * factor).clamp(adapt.kappa_min, adapt.kappa_max);
                if (candidate - original).abs() < 1e-12 {
                    continue;
                }
                kappas[tx] = candidate;
                let obj = evaluate(&kappas);
                if obj > best + 1e-12 {
                    best = obj;
                    accepted_moves += 1;
                    improved_here = true;
                    break;
                }
            }
            if !improved_here {
                kappas[tx] = original;
            }
        }
    }

    KappaAdaptResult {
        config: HeuristicConfig {
            kappa: start.kappa,
            per_tx_kappa: Some(kappas),
            allow_partial_last: start.allow_partial_last,
        },
        baseline_objective,
        adapted_objective: best,
        accepted_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::{ChannelMatrix, RxOptics};
    use vlc_geom::{Pose, Room, TxGrid};

    fn scenario2_model() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        SystemModel::paper(ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        ))
    }

    #[test]
    fn adaptation_never_degrades_the_objective() {
        let model = scenario2_model();
        let res = adapt_per_tx_kappa(
            &model,
            1.2,
            &HeuristicConfig::paper(),
            &KappaAdaptConfig::default(),
        );
        assert!(res.adapted_objective >= res.baseline_objective);
    }

    #[test]
    fn adaptation_finds_improvements_from_a_bad_start() {
        // Starting from the paper's known-bad κ = 1.0, adaptation must
        // claw back a meaningful share of the gap to κ = 1.3.
        let model = scenario2_model();
        let res = adapt_per_tx_kappa(
            &model,
            0.9,
            &HeuristicConfig::with_kappa(1.0),
            &KappaAdaptConfig::default(),
        );
        assert!(res.improved(), "no improvement from κ = 1.0");
        assert!(res.accepted_moves > 0);
    }

    #[test]
    fn adapted_kappas_stay_within_bounds() {
        let model = scenario2_model();
        let adapt = KappaAdaptConfig {
            passes: 3,
            step: 0.5,
            kappa_min: 1.0,
            kappa_max: 1.6,
        };
        let res = adapt_per_tx_kappa(&model, 1.2, &HeuristicConfig::with_kappa(1.3), &adapt);
        for &k in res.config.per_tx_kappa.as_ref().expect("set") {
            assert!((1.0..=1.6).contains(&k), "κ {k} escaped the bounds");
        }
    }

    #[test]
    fn result_config_is_usable_by_the_heuristic() {
        let model = scenario2_model();
        let res = adapt_per_tx_kappa(
            &model,
            1.2,
            &HeuristicConfig::paper(),
            &KappaAdaptConfig {
                passes: 1,
                ..KappaAdaptConfig::default()
            },
        );
        let alloc =
            heuristic_allocation(&model.channel, &model.led, 1.2, &res.config, Probe::off());
        assert!(model.is_feasible(&alloc, 1.2));
        assert!(model.system_throughput(&alloc) > 0.0);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_panics() {
        let model = scenario2_model();
        adapt_per_tx_kappa(
            &model,
            0.0,
            &HeuristicConfig::paper(),
            &KappaAdaptConfig::default(),
        );
    }
}
