//! Exhaustive binary-assignment search for small instances.
//!
//! Insight 2 says the practical optimum is (nearly) binary: each TX is
//! either dark or at full swing toward one receiver. For small deployments
//! the binary space is enumerable — `(M+1)^N` assignments — giving a
//! ground-truth optimum to validate the continuous gradient solver and the
//! SJR heuristic against. This is a test/validation tool, not a production
//! allocator: the paper's 36-TX instance has `5³⁶ ≈ 10²⁵` assignments.

use crate::model::{Allocation, SystemModel};
use std::fmt;
use vlc_par::{Pool, DEFAULT_CHUNK};

/// The exhaustive-search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveResult {
    /// The best binary allocation found.
    pub allocation: Allocation,
    /// Its sum-log objective.
    pub objective: f64,
    /// Its system throughput in bit/s.
    pub system_bps: f64,
    /// Assignments evaluated.
    pub evaluated: u64,
}

/// Why [`exhaustive_binary`] refused to search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExhaustiveError {
    /// A parameter lies outside the range the search accepts.
    InvalidParameters {
        /// The parameter's name (`budget_w`).
        param: &'static str,
        /// The value given.
        value: f64,
        /// The accepted range.
        allowed: &'static str,
    },
    /// The `choices^n_tx` assignments exceed `max_assignments`, or `u64`.
    SpaceTooLarge {
        /// Choices per TX: off, or full swing toward one of the receivers.
        choices: u64,
        /// Transmitters, the exponent of the space.
        n_tx: usize,
        /// The caller's guard.
        max_assignments: u64,
    },
}

impl fmt::Display for ExhaustiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustiveError::InvalidParameters {
                param,
                value,
                allowed,
            } => write!(
                f,
                "invalid search parameters: {param} = {value}, not in {allowed}"
            ),
            ExhaustiveError::SpaceTooLarge {
                choices,
                n_tx,
                max_assignments,
            } => write!(
                f,
                "search space {choices}^{n_tx} exceeds the {max_assignments} guard"
            ),
        }
    }
}

impl std::error::Error for ExhaustiveError {}

/// Enumerates every binary assignment (each TX off or full-swing toward one
/// RX) within the power budget and returns the best by sum-log objective,
/// falling back to system throughput while some receiver is still unserved.
///
/// Every assignment has an explicit index `i ∈ 0..(M+1)^N`, decoded as a
/// mixed-radix code with TX 0 the least-significant digit — the same order
/// the historic sequential counter visited. The candidate space partitions
/// across `pool`'s workers. The winner is the lowest-index assignment among
/// those maximal under the ranking predicate (finite objectives first,
/// throughput among the unserved): candidates are scanned in index order
/// within fixed-size chunks and the chunk bests merged in chunk order, with
/// only a *strictly better* candidate displacing the incumbent. Ties
/// therefore always break to the lowest assignment index, and the result
/// is bitwise identical for any worker count.
///
/// # Errors
/// [`ExhaustiveError::InvalidParameters`] when `budget_w` is not positive
/// and finite; [`ExhaustiveError::SpaceTooLarge`] when the search space
/// exceeds `max_assignments` (guard against accidentally exhausting a
/// 36-TX instance) or does not fit in `u64`.
pub fn exhaustive_binary(
    model: &SystemModel,
    budget_w: f64,
    max_assignments: u64,
    pool: &Pool,
) -> Result<ExhaustiveResult, ExhaustiveError> {
    if !(budget_w.is_finite() && budget_w > 0.0) {
        return Err(ExhaustiveError::InvalidParameters {
            param: "budget_w",
            value: budget_w,
            allowed: "(0, ∞) W",
        });
    }
    let n_tx = model.n_tx();
    let n_rx = model.n_rx();
    let choices = (n_rx + 1) as u64;
    let space = u32::try_from(n_tx)
        .ok()
        .and_then(|n| choices.checked_pow(n))
        .filter(|&space| space <= max_assignments)
        .ok_or(ExhaustiveError::SpaceTooLarge {
            choices,
            n_tx,
            max_assignments,
        })?;

    let full = model.led.max_swing;
    let full_power = model.dyn_resistance() * (full / 2.0) * (full / 2.0);
    let max_active = (budget_w / full_power).floor() as usize;

    // Score one assignment index; `None` = over the activation budget.
    let score = |index: usize| -> Option<(Allocation, f64, f64)> {
        let mut rest = index as u64;
        let mut alloc = Allocation::zeros(n_tx, n_rx);
        let mut active = 0usize;
        for tx in 0..n_tx {
            let c = (rest % choices) as usize; // 0 = off, 1..=n_rx = serve RX c-1
            rest /= choices;
            if c > 0 {
                active += 1;
                alloc.set_swing(tx, c - 1, full);
            }
        }
        if active > max_active {
            return None;
        }
        let obj = model.sum_log_throughput(&alloc);
        let bps = model.system_throughput(&alloc);
        Some((alloc, obj, bps))
    };
    // Rank finite objectives first; among −∞ (some RX unserved), prefer
    // higher raw throughput so tiny budgets still return a sensible
    // allocation. Strict, so equal candidates keep the earlier index.
    let better = |new: &(Allocation, f64, f64), cur: &(Allocation, f64, f64)| {
        if new.1.is_finite() || cur.1.is_finite() {
            new.1 > cur.1
        } else {
            new.2 > cur.2
        }
    };

    let best = pool.argmax_by(space as usize, DEFAULT_CHUNK, score, better);
    let (_, (allocation, objective, system_bps)) =
        best.expect("the all-off assignment (index 0) is always within budget");
    Ok(ExhaustiveResult {
        allocation,
        objective,
        system_bps,
        evaluated: space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{heuristic_allocation, HeuristicConfig};
    use crate::optimal::OptimalSolver;
    use vlc_channel::{ChannelMatrix, RxOptics};
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_par::Jobs;
    use vlc_trace::Probe;

    /// A 3 × 3 grid with two receivers: 3⁹ ≈ 20k assignments.
    fn tiny_model() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::centered(&room, 3, 3, 1.0);
        let rxs = vec![Pose::face_up(0.6, 0.6, 0.8), Pose::face_up(2.4, 2.4, 0.8)];
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
    fn exhaustive_respects_the_budget() {
        let m = tiny_model();
        let budget = 0.2;
        let res = exhaustive_binary(&m, budget, 1 << 20, &Pool::from_env()).unwrap();
        assert!(m.is_feasible(&res.allocation, budget));
        assert_eq!(res.evaluated, 3u64.pow(9));
    }

    #[test]
    fn continuous_solver_matches_or_beats_the_binary_ground_truth() {
        // The continuous relaxation can only do at least as well as the
        // best binary point (up to solver tolerance).
        let m = tiny_model();
        let budget = 0.3;
        let truth = exhaustive_binary(&m, budget, 1 << 21, &Pool::from_env()).unwrap();
        let report =
            OptimalSolver::default().solve(&m, budget, None, &Pool::from_env(), Probe::off());
        assert!(
            report.objective >= truth.objective - 0.02 * truth.objective.abs(),
            "solver {} far below binary truth {}",
            report.objective,
            truth.objective
        );
    }

    #[test]
    fn heuristic_lands_near_the_binary_ground_truth() {
        let m = tiny_model();
        let budget = 0.3;
        let truth = exhaustive_binary(&m, budget, 1 << 21, &Pool::from_env()).unwrap();
        let h = heuristic_allocation(
            &m.channel,
            &m.led,
            budget,
            &HeuristicConfig::paper(),
            Probe::off(),
        );
        let h_bps = m.system_throughput(&h);
        assert!(
            h_bps > 0.85 * truth.system_bps,
            "heuristic {} vs ground truth {}",
            h_bps,
            truth.system_bps
        );
    }

    #[test]
    fn tiny_budget_returns_the_best_single_tx() {
        let m = tiny_model();
        let full_power = m.dyn_resistance() * (m.led.max_swing / 2.0_f64).powi(2);
        let res = exhaustive_binary(&m, full_power * 1.01, 1 << 21, &Pool::from_env()).unwrap();
        assert_eq!(res.allocation.active_tx_count(), 1);
        assert!(res.system_bps > 0.0);
    }

    #[test]
    fn oversized_search_space_is_rejected() {
        let m = tiny_model();
        let err = exhaustive_binary(&m, 0.3, 100, &Pool::sequential()).unwrap_err();
        assert_eq!(
            err,
            ExhaustiveError::SpaceTooLarge {
                choices: 3,
                n_tx: 9,
                max_assignments: 100
            }
        );
        assert!(err.to_string().contains("exceeds the 100 guard"), "{err}");
        // 3^41 ≈ 3.6·10^19 > u64::MAX, so no guard admits it.
        let m = SystemModel::paper(ChannelMatrix::from_gains(41, 2, vec![0.0; 82]));
        let err = exhaustive_binary(&m, 0.3, u64::MAX, &Pool::sequential()).unwrap_err();
        assert!(matches!(
            err,
            ExhaustiveError::SpaceTooLarge { n_tx: 41, .. }
        ));
    }

    #[test]
    fn a_budget_that_is_not_positive_and_finite_is_rejected() {
        let m = tiny_model();
        for budget in [0.0, -0.3, f64::INFINITY, f64::NAN] {
            let err = exhaustive_binary(&m, budget, 1 << 21, &Pool::sequential()).unwrap_err();
            let ExhaustiveError::InvalidParameters { param, value, .. } = err else {
                panic!("budget {budget}: {err:?}");
            };
            assert_eq!(param, "budget_w");
            assert_eq!(value.to_bits(), budget.to_bits());
        }
    }

    #[test]
    fn ties_break_to_the_lowest_assignment_index() {
        // Two TXs with bitwise-identical gains toward one RX: activating
        // either yields the exact same objective, so the ranking alone
        // cannot pick a winner. The contract is lowest assignment index —
        // TX0 serving RX0 (index 1) beats TX1 serving RX0 (index 2) — on
        // one worker or many.
        let m = SystemModel::paper(ChannelMatrix::from_gains(2, 1, vec![1e-6, 1e-6]));
        let full_power = m.dyn_resistance() * (m.led.max_swing / 2.0_f64).powi(2);
        for jobs in [1usize, 2, 7] {
            let res = exhaustive_binary(&m, full_power * 1.5, 1 << 10, &Pool::new(Jobs::of(jobs)))
                .unwrap();
            assert_eq!(res.allocation.active_tx_count(), 1, "jobs={jobs}");
            assert!(
                res.allocation.swing(0, 0) > 0.0,
                "jobs={jobs}: the tie must go to TX0"
            );
            assert_eq!(res.allocation.swing(1, 0), 0.0, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_count_never_changes_the_result() {
        let m = tiny_model();
        let reference = exhaustive_binary(&m, 0.3, 1 << 21, &Pool::sequential()).unwrap();
        for jobs in [2usize, 7] {
            let res = exhaustive_binary(&m, 0.3, 1 << 21, &Pool::new(Jobs::of(jobs))).unwrap();
            assert_eq!(res, reference, "jobs={jobs}");
        }
    }
}
