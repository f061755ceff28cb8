//! The tick fan-out on the pool's resident crew: a multi-worker engine
//! spawns its helper thread once for the whole run, reports exactly what
//! the sequential engine reports, and keeps every shard across a
//! panicking replan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use vlc_alloc::OptimalSolver;
use vlc_cell::{BuildingConfig, BuildingEngine, Command, LoadGenConfig, ReplanPolicy, TickReport};
use vlc_par::{Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

fn reports(jobs: Jobs, registry: &Registry) -> Vec<TickReport> {
    let load = LoadGenConfig {
        cols: 4,
        rows: 3,
        ticks: 600,
        target_events: 4_000,
        seed: 5,
        mean_lifetime_ticks: 120,
        move_period_ticks: 4,
        step_m: 1.5,
    };
    let cfg = BuildingConfig::paper(load.cols, load.rows);
    let mut engine = BuildingEngine::new(&cfg, registry);
    let pool = Pool::new(jobs).with_telemetry(registry);
    load.schedule()
        .per_tick
        .iter()
        .map(|cmds| {
            for cmd in cmds {
                engine.apply(cmd);
            }
            engine.control_tick(&pool, &Span::noop())
        })
        .collect()
}

#[test]
fn a_two_worker_engine_spawns_once_and_matches_the_serial_run() {
    let registry = Registry::new();
    let parallel = reports(Jobs::of(2), &registry);
    let serial = reports(Jobs::serial(), &Registry::noop());

    let fanned_out = parallel.iter().filter(|r| r.dirty_shards >= 2).count();
    assert!(fanned_out >= 500, "only {fanned_out} ticks fanned out");
    assert_eq!(registry.snapshot().counter("par.spawns"), Some(1));
    assert_eq!(parallel, serial);
    let bits = |rs: &[TickReport]| {
        rs.iter()
            .map(|r| r.system_bps.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&parallel), bits(&serial));
}

/// The optimal solver rejects a zero power budget by panicking, so every
/// replan in this building panics. The panic must surface from
/// `control_tick` with every shard back in its cell.
#[test]
fn a_panicking_replan_puts_every_shard_back() {
    let mut cfg = BuildingConfig::paper(3, 1);
    cfg.policy = ReplanPolicy::Optimal(OptimalSolver::quick());
    cfg.budget_w = 0.0;
    let mut engine = BuildingEngine::new(&cfg, &Registry::noop());
    for (session, x) in [(1, 1.0), (2, 4.0), (3, 7.0)] {
        engine.apply(&Command::Arrive { session, x, y: 1.5 });
    }
    let pool = Pool::new(Jobs::of(2));
    let err = catch_unwind(AssertUnwindSafe(|| {
        engine.control_tick(&pool, &Span::noop())
    }))
    .expect_err("a zero budget must fail the replan");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.starts_with("parallel item 0 panicked"), "{msg}");
    for (cell, session) in [(0, 1), (1, 2), (2, 3)] {
        assert_eq!(engine.shard(cell).sessions(), &[session]);
    }
}

/// A panicking replan must not leave its cell on the dirty list: the
/// session's `Leave` dirties the room once, so the next tick replans it
/// once (the now empty room plans without the solver, so it succeeds).
#[test]
fn a_panicking_replan_leaves_no_stale_dirty_cell() {
    for jobs in [Jobs::serial(), Jobs::of(2)] {
        let mut cfg = BuildingConfig::paper(2, 1);
        cfg.policy = ReplanPolicy::Optimal(OptimalSolver::quick());
        cfg.budget_w = 0.0;
        let mut engine = BuildingEngine::new(&cfg, &Registry::noop());
        let pool = Pool::new(jobs);
        engine.apply(&Command::Arrive {
            session: 1,
            x: 1.0,
            y: 1.5,
        });
        catch_unwind(AssertUnwindSafe(|| {
            engine.control_tick(&pool, &Span::noop())
        }))
        .expect_err("a zero budget must fail the replan");
        engine.apply(&Command::Leave { session: 1 });
        let report = engine.control_tick(&pool, &Span::noop());
        assert_eq!(
            (report.dirty_shards, report.replans),
            (1, 1),
            "{jobs:?}: {report:?}"
        );
        assert_eq!(report.sessions, 0);
    }
}
