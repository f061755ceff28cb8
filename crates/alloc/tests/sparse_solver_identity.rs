//! Property tests for the sparse/SoA solver identity contract: the fast
//! engine behind every public [`OptimalSolver`] entry point must reproduce
//! the historical dense engine's report *bitwise* — same allocation, same
//! objective, same iteration and start counts — for arbitrary channel zero
//! patterns (including the all-in-FOV degenerate case where nothing is
//! sparse), any budget, and any worker count. Likewise the heuristic's
//! row-best ranking against its full-rescan scalar reference, and the
//! sparse [`SystemModel::sinr`] against the dense triple loop it replaced.
//! These ride in
//! `cargo test --workspace` and in the CI `soa` job at `DENSEVLC_JOBS` ∈
//! {1, max}.

use proptest::prelude::*;
use vlc_alloc::heuristic::{rank_by_sjr, rank_by_sjr_scalar, HeuristicConfig};
use vlc_alloc::model::{Allocation, SystemModel};
use vlc_alloc::OptimalSolver;
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_led::power::dynamic_resistance;
use vlc_par::{Jobs, Pool};
use vlc_trace::Probe;

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

/// A TX count of at least `n_rx` (`arb_model` gives each RX a TX of its
/// own) up to past the paper's 36; RX counts reach 6 and include the
/// paper's 4, so the objective's 4-wide RX blocks run full and padded.
fn arb_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..7).prop_flat_map(|n_rx| (n_rx.max(2)..41, Just(n_rx)))
}

/// Random channel with a controllable zero pattern. Each RX gets a distinct
/// dominant TX so the solver's equal-share baseline start serves everyone
/// and every start is finite; every other link draws from the sparse
/// distribution.
fn arb_model() -> impl Strategy<Value = SystemModel> {
    arb_shape()
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
/// culls nothing and the fast engine runs its all-live kernels.
fn arb_dense_model() -> impl Strategy<Value = SystemModel> {
    arb_shape()
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
    solver.solve(model, budget, None, &Pool::new(jobs), Probe::off())
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

/// The dense Eq. 12 reference: every stream's amplitude at every RX sums
/// over all TXs, zero swings included, in `O(n_rx²·n_tx)`.
fn dense_sinr(model: &SystemModel, alloc: &Allocation) -> Vec<f64> {
    let n_rx = alloc.n_rx();
    let stream_current = |stream: usize, at_rx: usize| {
        let r = dynamic_resistance(&model.led);
        let scale = model.responsivity * model.led.wall_plug_efficiency * r;
        let mut sum = 0.0;
        for t in 0..alloc.n_tx() {
            let half = alloc.swing(t, stream) / 2.0;
            sum += model.channel.gain(t, at_rx) * half * half;
        }
        scale * sum
    };
    (0..n_rx)
        .map(|i| {
            let sig = stream_current(i, i);
            let interference: f64 = (0..n_rx)
                .filter(|&k| k != i)
                .map(|k| {
                    let b = stream_current(k, i);
                    b * b
                })
                .sum();
            sig * sig / (model.noise.noise_power() + interference)
        })
        .collect()
}

/// A channel plus raw draws for two allocations of its shape: `dense`
/// swings for every (TX, RX) pair and one `(rx, swing)` pick per TX.
type SinrCase = (SystemModel, Vec<f64>, Vec<(usize, f64)>);

fn arb_sinr_case() -> impl Strategy<Value = SinrCase> {
    (1usize..12, 1usize..6)
        .prop_flat_map(|(n_tx, n_rx)| {
            (
                Just(n_tx),
                Just(n_rx),
                proptest::collection::vec(-0.4f64..1.0, n_tx * n_rx),
                proptest::collection::vec(-0.5f64..0.9, n_tx * n_rx),
                proptest::collection::vec((0..n_rx + 1, 0.0f64..0.9), n_tx),
            )
        })
        .prop_map(|(n_tx, n_rx, raw, dense, picks)| {
            let gains: Vec<f64> = raw.into_iter().map(sparse_gain).collect();
            let model = SystemModel::paper(ChannelMatrix::from_gains(n_tx, n_rx, gains));
            // Negative draws become exact zeros (~35 % of the pairs).
            let dense = dense.into_iter().map(|v| v.max(0.0)).collect();
            (model, dense, picks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sparse SINR walk equals the dense reference bit for bit, on
    /// optimal-like dense allocations and on heuristic-like ones where
    /// each TX serves at most one RX (a pick of `n_rx` leaves it idle).
    #[test]
    fn sparse_sinr_matches_dense_reference(case in arb_sinr_case()) {
        let (model, dense, picks) = case;
        let (n_tx, n_rx) = (model.n_tx(), model.n_rx());
        let mut one_per_tx = Allocation::zeros(n_tx, n_rx);
        for (tx, &(rx, swing)) in picks.iter().enumerate() {
            if rx < n_rx {
                one_per_tx.set_swing(tx, rx, swing);
            }
        }
        for alloc in [Allocation::from_swings(n_tx, n_rx, dense), one_per_tx] {
            let fast = model.sinr(&alloc);
            let reference = dense_sinr(&model, &alloc);
            prop_assert_eq!(fast.len(), reference.len());
            for (f, r) in fast.iter().zip(&reference) {
                prop_assert_eq!(f.to_bits(), r.to_bits());
            }
        }
    }

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

/// The paper's room (36 TX) with receivers at `rxs`, under the
/// building's 15° LED semi-angle: every link is live, so the fast engine
/// runs the all-live kernels `building-optimal` spends its time in.
fn paper_model(rxs: &[(f64, f64)]) -> SystemModel {
    let room = Room::paper_simulation();
    let poses: Vec<Pose> = rxs.iter().map(|&(x, y)| Pose::face_up(x, y, 0.8)).collect();
    SystemModel::paper(ChannelMatrix::compute(
        &TxGrid::paper(&room),
        &poses,
        15f64.to_radians(),
        &RxOptics::paper(),
        &[],
        Probe::off(),
    ))
}

/// Solves `model` at `budget` with the fast engine at one and at every
/// worker and checks both against the dense oracle, bit for bit.
fn assert_paper_case_identical(model: &SystemModel, budget: f64) -> vlc_alloc::SolveReport {
    let solver = OptimalSolver::quick();
    let dense = solver.solve_dense(model, budget, &Pool::sequential());
    for jobs in [Jobs::serial(), Jobs::max()] {
        let fast = solve_fast(&solver, model, budget, jobs);
        if let Err(e) = assert_reports_identical(&fast, &dense) {
            panic!("budget {budget} W, {jobs:?}: {e:?}");
        }
    }
    dense
}

/// Table 6's Scenario-2 positions: the paper's Fig. 7 instance.
const SCENARIO2: [(f64, f64); 4] = [(0.92, 0.92), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)];

#[test]
fn fast_engine_matches_dense_on_paper_rooms() {
    let model = paper_model(&SCENARIO2);
    assert_eq!(model.n_tx(), 36);
    for budget in [0.2, 0.6, 1.2] {
        assert_paper_case_identical(&model, budget);
    }
}

#[test]
fn fast_engine_matches_dense_with_the_power_ball_active() {
    // A budget far below one full-swing TX: the power total binds.
    let model = paper_model(&SCENARIO2);
    let budget = 0.05;
    let report = assert_paper_case_identical(&model, budget);
    assert!(
        report.power_w > budget * (1.0 - 1e-9),
        "power ball inactive: {} of {budget} W",
        report.power_w
    );
}

#[test]
fn fast_engine_matches_dense_with_a_capped_row() {
    // Receivers clustered under one corner with a budget worth ~27 full
    // swings: the ascent drives TX rows onto the per-TX swing cap.
    let model = paper_model(&[(0.4, 0.4), (0.9, 0.45), (0.45, 0.9), (0.85, 0.85)]);
    let report = assert_paper_case_identical(&model, 2.0);
    let max_swing = model.led.max_swing;
    assert!(
        (0..model.n_tx()).any(|t| report.allocation.tx_total_swing(t) > max_swing * (1.0 - 1e-9)),
        "no TX row reached the swing cap"
    );
}

#[test]
fn fast_engine_matches_dense_through_the_crowded_room_start() {
    // Ten receivers where every regular start leaves one dark: RXs 0 and
    // 6 share a best TX, as do RXs 1 and 5, and the first of each pair
    // takes its whole swing. Both engines run the crowded-room start.
    let rxs = [
        (0.32, 0.38),
        (1.79, 1.22),
        (1.17, 1.67),
        (0.32, 1.1),
        (1.45, 1.35),
        (1.87, 1.12),
        (0.24, 0.37),
        (2.66, 0.65),
        (1.54, 2.83),
        (0.7, 1.25),
    ];
    let model = paper_model(&rxs);
    let solver = OptimalSolver::quick();
    let dense = solver.solve_dense(&model, 1.2, &Pool::sequential());
    assert!(dense.objective.is_finite());
    for jobs in [Jobs::serial(), Jobs::max()] {
        let fast = solve_fast(&solver, &model, 1.2, jobs);
        if let Err(e) = assert_reports_identical(&fast, &dense) {
            panic!("{jobs:?}: {e:?}");
        }
    }
}
