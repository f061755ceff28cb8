//! Property tests for the sparse/SoA solver identity contract: the fast
//! engine behind every public [`OptimalSolver`] entry point must reproduce
//! the historical dense engine's report *bitwise* — same allocation, same
//! objective, same iteration and start counts — for arbitrary channel zero
//! patterns (including the all-in-FOV degenerate case where nothing is
//! sparse), any budget, and any worker count. Likewise the heuristic's
//! row-best ranking against its full-rescan scalar reference. These ride in
//! `cargo test --workspace` and in the CI `soa` job at `DENSEVLC_JOBS` ∈
//! {1, max}.

use proptest::prelude::*;
use vlc_alloc::heuristic::{rank_by_sjr, rank_by_sjr_scalar, HeuristicConfig};
use vlc_alloc::model::SystemModel;
use vlc_alloc::OptimalSolver;
use vlc_channel::ChannelMatrix;
use vlc_par::{Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// A reduced-effort solver: the identity must hold per evaluation, so a
/// short ascent exercises it as well as a long one, much faster.
fn test_solver() -> OptimalSolver {
    OptimalSolver {
        max_iters: 60,
        random_starts: 2,
        tol: 1e-7,
        seed: 0x5eed,
    }
}

/// Maps a raw draw onto a sparse gain: negative draws become exact zeros,
/// a small band collapses onto one duplicated value (forcing tie-breaking
/// downstream), the rest log-spreads over [1e-8, 1e-5].
fn sparse_gain(v: f64) -> f64 {
    if v < 0.0 {
        0.0
    } else if v < 0.15 {
        1e-6
    } else {
        1e-8 * 10f64.powf(3.0 * v)
    }
}

/// Random channel with a controllable zero pattern. Each RX gets a distinct
/// dominant TX so the solver's equal-share baseline start serves everyone
/// and the program stays feasible (an unreachable RX makes every objective
/// −∞ and the solver panics by contract); every other link draws from the
/// sparse distribution.
fn arb_model() -> impl Strategy<Value = SystemModel> {
    (4usize..8, 1usize..4)
        .prop_flat_map(|(n_tx, n_rx)| {
            (
                Just(n_tx),
                Just(n_rx),
                proptest::collection::vec(-0.4f64..1.0, n_tx * n_rx),
            )
        })
        .prop_map(|(n_tx, n_rx, raw)| {
            // ~30 % exact zeros, the rest log-spread over [1e-8, 1e-5].
            let mut gains: Vec<f64> = raw.into_iter().map(sparse_gain).collect();
            for rx in 0..n_rx {
                gains[rx * n_rx + rx] = 2e-5;
            }
            SystemModel::paper(ChannelMatrix::from_gains(n_tx, n_rx, gains))
        })
}

/// The degenerate all-live case: every gain nonzero, so the sparse view
/// culls nothing and the fast engine runs fully dense index lists.
fn arb_dense_model() -> impl Strategy<Value = SystemModel> {
    (2usize..6, 1usize..4)
        .prop_flat_map(|(n_tx, n_rx)| {
            (
                Just(n_tx),
                Just(n_rx),
                proptest::collection::vec(1e-8f64..1e-5, n_tx * n_rx),
            )
        })
        .prop_map(|(n_tx, n_rx, gains)| {
            SystemModel::paper(ChannelMatrix::from_gains(n_tx, n_rx, gains))
        })
}

/// The fast engine on a `jobs`-worker pool, untraced.
fn solve_fast(
    solver: &OptimalSolver,
    model: &SystemModel,
    budget: f64,
    jobs: Jobs,
) -> vlc_alloc::SolveReport {
    solver.solve_traced(
        model,
        budget,
        None,
        &Registry::noop(),
        &Pool::new(jobs),
        &Span::noop(),
    )
}

fn assert_reports_identical(
    fast: &vlc_alloc::SolveReport,
    dense: &vlc_alloc::SolveReport,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.iterations, dense.iterations);
    prop_assert_eq!(fast.objective.to_bits(), dense.objective.to_bits());
    prop_assert_eq!(fast.power_w.to_bits(), dense.power_w.to_bits());
    prop_assert_eq!(
        fast.allocation.as_slice().len(),
        dense.allocation.as_slice().len()
    );
    for (a, b) in fast
        .allocation
        .as_slice()
        .iter()
        .zip(dense.allocation.as_slice())
    {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sparse zero patterns: fast engine == dense engine, at any worker
    /// count.
    #[test]
    fn fast_engine_matches_dense_engine(
        model in arb_model(),
        budget in 0.02f64..0.5,
    ) {
        let solver = test_solver();
        let dense = solver.solve_dense(&model, budget, &Pool::sequential());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let fast = solve_fast(&solver, &model, budget, jobs);
            assert_reports_identical(&fast, &dense)?;
        }
    }

    /// All-in-FOV degenerate case: nothing to cull, the CSR lists are full
    /// rows, and the identity still holds.
    #[test]
    fn fast_engine_matches_dense_on_fully_live_channel(
        model in arb_dense_model(),
        budget in 0.02f64..0.5,
    ) {
        let solver = test_solver();
        let dense = solver.solve_dense(&model, budget, &Pool::sequential());
        let fast = solve_fast(&solver, &model, budget, Jobs::max());
        assert_reports_identical(&fast, &dense)?;
    }

    /// The heuristic's row-best greedy extraction selects the exact same
    /// (TX, RX, SJR) sequence as the full-rescan reference — including
    /// all-zero TX rows, tie patterns from duplicated gains, and per-TX κ.
    #[test]
    fn fast_ranking_matches_scalar_reference(
        shape in (2usize..12, 1usize..5).prop_flat_map(|(n_tx, n_rx)| {
            (
                Just(n_tx),
                Just(n_rx),
                proptest::collection::vec(-0.4f64..1.0, n_tx * n_rx),
            )
        }),
        kappa in 1.0f64..1.6,
    ) {
        let (n_tx, n_rx, raw) = shape;
        let gains: Vec<f64> = raw.into_iter().map(sparse_gain).collect();
        let channel = ChannelMatrix::from_gains(n_tx, n_rx, gains);
        let cfg = HeuristicConfig::with_kappa(kappa);
        let fast = rank_by_sjr(&channel, &cfg);
        let scalar = rank_by_sjr_scalar(&channel, &cfg);
        prop_assert_eq!(fast.len(), scalar.len());
        for (f, s) in fast.iter().zip(&scalar) {
            prop_assert_eq!((f.tx, f.rx), (s.tx, s.rx));
            prop_assert_eq!(f.sjr.to_bits(), s.sjr.to_bits());
        }
    }
}
