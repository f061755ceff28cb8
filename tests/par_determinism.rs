//! The vlc-par determinism contract, end to end: every parallelised layer
//! (channel sounding, NLOS quadrature, the optimal solver, the exhaustive
//! search, and whole experiments driven through `DENSEVLC_JOBS`) must
//! produce *bitwise identical* results for any worker count. `jobs = 1` is
//! the exact legacy sequential path, so these tests also pin today's
//! numbers against accidental reassociation.

use vlc_alloc::exhaustive::exhaustive_binary_traced;
use vlc_alloc::model::SystemModel;
use vlc_alloc::OptimalSolver;
use vlc_channel::nlos::{floor_bounce_gain_traced, wall_bounce_gain_traced, NlosConfig};
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_par::{Jobs, Pool, JOBS_ENV};
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// Worker counts exercised everywhere: sequential, even split, a count
/// that does not divide typical item counts, and every available core.
fn job_grid() -> [Jobs; 4] {
    [Jobs::serial(), Jobs::of(2), Jobs::of(7), Jobs::max()]
}

fn paper_setup() -> (TxGrid, Vec<Pose>) {
    let room = Room::paper_simulation();
    let grid = TxGrid::paper(&room);
    let rxs = vec![
        Pose::face_up(0.92, 0.92, 0.8),
        Pose::face_up(1.65, 0.65, 0.8),
        Pose::face_up(0.72, 1.93, 0.8),
        Pose::face_up(1.99, 1.69, 0.8),
    ];
    (grid, rxs)
}

/// The LOS matrix at the paper's 15° semi-angle on a `jobs`-worker pool.
fn sound(grid: &TxGrid, rxs: &[Pose], optics: &RxOptics, jobs: Jobs) -> ChannelMatrix {
    ChannelMatrix::compute_traced(
        grid,
        rxs,
        15f64.to_radians(),
        optics,
        &[],
        None,
        &Pool::new(jobs),
        &Span::noop(),
    )
}

/// Bit-exact equality for gain vectors: `==` on f64 would also pass for
/// `-0.0 == 0.0`, so compare the raw bit patterns.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x:?} vs {y:?})"
        );
    }
}

#[test]
fn channel_matrix_is_bitwise_identical_for_any_worker_count() {
    let (grid, rxs) = paper_setup();
    let optics = RxOptics::paper();
    let reference = sound(&grid, &rxs, &optics, Jobs::serial());
    for jobs in job_grid() {
        let h = sound(&grid, &rxs, &optics, jobs);
        assert_eq!(h.n_tx(), reference.n_tx());
        assert_eq!(h.n_rx(), reference.n_rx());
        for t in 0..h.n_tx() {
            assert_bits_eq(
                h.tx_row(t),
                reference.tx_row(t),
                &format!("H row {t} at jobs={jobs}"),
            );
        }
    }
}

#[test]
fn nlos_integrals_are_bitwise_identical_for_any_worker_count() {
    let room = Room::paper_simulation();
    let cfg = NlosConfig::default();
    let optics = RxOptics::paper();
    // Two ceiling TXs (sync path: leader flashes, follower's photodiode
    // listens via the floor bounce) and one upward-facing data receiver.
    let leader = Pose::ceiling(0.6, 0.6, room.height);
    let follower = Pose::ceiling(1.8, 1.4, room.height);
    let rx = Pose::face_up(1.2, 1.0, 0.8);

    let floor_on = |jobs| {
        floor_bounce_gain_traced(
            &leader,
            &follower,
            1.0,
            &optics,
            &room,
            &cfg,
            &Pool::new(jobs),
            &Span::noop(),
        )
    };
    let wall_on = |jobs| {
        wall_bounce_gain_traced(
            &leader,
            &rx,
            1.0,
            &optics,
            &room,
            &cfg,
            &Pool::new(jobs),
            &Span::noop(),
        )
    };
    let floor_ref = floor_on(Jobs::serial());
    let wall_ref = wall_on(Jobs::serial());
    assert!(floor_ref > 0.0 && wall_ref > 0.0);

    for jobs in job_grid() {
        let floor = floor_on(jobs);
        let wall = wall_on(jobs);
        assert_eq!(
            floor.to_bits(),
            floor_ref.to_bits(),
            "floor bounce differs at jobs={jobs}"
        );
        assert_eq!(
            wall.to_bits(),
            wall_ref.to_bits(),
            "wall bounce differs at jobs={jobs}"
        );
    }
}

#[test]
fn optimal_solver_report_is_bitwise_identical_for_any_worker_count() {
    let (grid, rxs) = paper_setup();
    let h = sound(&grid, &rxs, &RxOptics::paper(), Jobs::serial());
    let model = SystemModel::paper(h);
    let solver = OptimalSolver::quick();

    let solve_on = |jobs| {
        solver.solve_traced(
            &model,
            1.2,
            None,
            &Registry::noop(),
            &Pool::new(jobs),
            &Span::noop(),
        )
    };
    let reference = solve_on(Jobs::serial());
    assert!(reference.objective.is_finite());
    for jobs in job_grid() {
        let report = solve_on(jobs);
        assert_bits_eq(
            report.allocation.as_slice(),
            reference.allocation.as_slice(),
            &format!("allocation at jobs={jobs}"),
        );
        assert_eq!(report.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(report.power_w.to_bits(), reference.power_w.to_bits());
        assert_eq!(report.iterations, reference.iterations);
    }
}

#[test]
fn exhaustive_search_is_bitwise_identical_for_any_worker_count() {
    // Small enough for (M+1)^N enumeration: 6 TX, 2 RX on a coarse grid.
    let room = Room::paper_simulation();
    let grid = TxGrid::centered(&room, 3, 2, 0.8);
    let rxs = vec![Pose::face_up(0.8, 0.9, 0.8), Pose::face_up(1.9, 1.5, 0.8)];
    let h = sound(&grid, &rxs, &RxOptics::paper(), Jobs::serial());
    let model = SystemModel::paper(h);

    let reference = exhaustive_binary_traced(&model, 0.9, 1_000, &Pool::sequential());
    for jobs in job_grid() {
        let result = exhaustive_binary_traced(&model, 0.9, 1_000, &Pool::new(jobs));
        assert_bits_eq(
            result.allocation.as_slice(),
            reference.allocation.as_slice(),
            &format!("exhaustive best at jobs={jobs}"),
        );
        assert_eq!(result.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(result.evaluated, reference.evaluated);
    }
}

/// Whole experiments driven through the `DENSEVLC_JOBS` environment knob:
/// the rendered report (the text behind the paper figure / the CSV rows)
/// must be byte-identical at every worker count. Env mutation stays inside
/// this single test; every other test in this binary passes `Jobs`
/// explicitly, so nothing races on the process environment.
#[test]
fn experiment_reports_are_identical_across_the_jobs_env_knob() {
    use densevlc::experiments::{fig08_throughput_vs_power, fig21_baselines};
    use vlc_testbed::Scenario;

    let run_both = || {
        (
            fig08_throughput_vs_power::run(&[0.3], 2, 8).report(),
            fig21_baselines::run(Scenario::Two).report(),
        )
    };

    std::env::set_var(JOBS_ENV, "1");
    let reference = run_both();
    for setting in ["2", "7", "max"] {
        std::env::set_var(JOBS_ENV, setting);
        let got = run_both();
        assert_eq!(
            got, reference,
            "experiment reports differ at {JOBS_ENV}={setting}"
        );
    }
    std::env::remove_var(JOBS_ENV);
    assert_eq!(run_both(), reference, "reports differ at {JOBS_ENV} unset");
}
