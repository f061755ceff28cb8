//! Allocation audit for the steady-state control tick.
//!
//! The tentpole contract: once a building is warmed up, a control tick
//! that touches no shard — bookkeeping, metric updates, obs window
//! appends — performs exactly **zero** heap allocations. Per-shard
//! state (updater columns, warm allocations, window rings, the dirty list)
//! persists across ticks; only replans and flush boundaries may
//! allocate.

use vlc_cell::{
    drive, BuildingConfig, BuildingEngine, BuildingObs, BuildingObsConfig, Command, LoadGenConfig,
    TickReport,
};
use vlc_channel::{ChannelMatrix, CylinderBlocker, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_obs::NoopSink;
use vlc_par::{Jobs, Pool};
use vlc_prof::alloc_counter::{allocations_during, CountingAlloc};
use vlc_telemetry::Registry;
use vlc_trace::{Probe, Span};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_ticks_are_allocation_free() {
    let cfg = BuildingConfig::paper(4, 3);
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let pool = Pool::sequential();
    let span = Span::noop();

    // Warm the building with a short synthetic burst (arrivals, moves,
    // handovers), then let every window ring rotate through at least one
    // full span so bucket vectors reach their high-water capacity.
    let load = LoadGenConfig {
        cols: 4,
        rows: 3,
        ticks: 40,
        target_events: 1_200,
        seed: 9,
        mean_lifetime_ticks: 200, // sessions outlive the burst
        move_period_ticks: 4,
        step_m: 1.0,
    };
    let obs_cfg = BuildingObsConfig {
        every: 1_000_000, // no flush inside the measurement window
        ..BuildingObsConfig::default()
    };
    let mut obs = BuildingObs::new(&obs_cfg, engine.map(), Box::new(NoopSink)).expect("obs");
    drive(&mut engine, &load.schedule(), &pool, Some(&mut obs), &span).expect("warmup");
    let window_span = obs_cfg.window.window_ticks() + 8;
    let mut last = TickReport::default();
    for _ in 0..window_span {
        last = engine.control_tick(&pool, &span);
        obs.observe(&last).expect("warm observe");
    }
    assert_eq!(last.dirty_shards, 0, "warmup left shards dirty");
    assert!(engine.sessions() > 0, "building emptied before measurement");

    // The audit: 32 event-free control ticks, observed, zero allocations.
    let n = allocations_during(|| {
        for _ in 0..32 {
            let report = engine.control_tick(&pool, &span);
            obs.observe(&report).expect("steady observe");
        }
    });
    assert_eq!(n, 0, "steady-state control tick made {n} heap allocations");
}

/// A ratchet on the dirty tick, the next target after the steady one: the
/// heap allocations of one in-room move tick and one handover tick in a
/// warmed 2×1 building with 12 sessions in cell 0. The ceilings are this
/// code's counts; lower them as per-update scratch moves into the shards.
///
/// What is left of the in-room move: the plan's ranking and allocation and
/// the throughput's output and SINR scratch. The handover adds the carried
/// allocation column, the destination's first roster entries, and its
/// first channel update's stores (the destination cell was empty), besides
/// both shards' four.
#[test]
fn dirty_ticks_stay_under_their_allocation_ceilings() {
    let cfg = BuildingConfig::paper(2, 1);
    let mut engine = BuildingEngine::new(&cfg, &Registry::noop());
    let pool = Pool::sequential();
    let span = Span::noop();
    for session in 0..12u64 {
        engine.apply(&Command::Arrive {
            session,
            x: 0.3 + 0.2 * session as f64,
            y: 0.5 + 0.15 * session as f64,
        });
    }
    engine.control_tick(&pool, &span);
    engine.control_tick(&pool, &span);

    let mut tick_with = |cmd: Command| {
        allocations_during(|| {
            engine.apply(&cmd);
            let report = engine.control_tick(&pool, &span);
            assert_eq!(report.replans, 1 + report.handovers);
        })
    };
    let in_room = tick_with(Command::Move {
        session: 3,
        x: 1.9,
        y: 1.1,
    });
    let handover = tick_with(Command::Move {
        session: 5,
        x: 4.2,
        y: 1.4,
    });
    eprintln!("dirty tick allocations: in-room move {in_room}, handover {handover}");
    assert!(in_room <= 4, "in-room move tick made {in_room} allocations");
    assert!(handover <= 16, "handover tick made {handover} allocations");
}

/// The same ratchet for the fan-out: a handover tick dirties two shards,
/// so a 2-worker pool hands them to its resident helper. The counter sees
/// only this thread, and the helper may run either replan, so the bound
/// is per tick against the in-place path on an identical building: the
/// hand-off may add at most a fixed handful of allocations (the shared
/// batch of tick span and slots, its slot list, job, result slots,
/// results) — no thread spawn, nothing per worker. The ceiling is this
/// code's count.
#[test]
fn a_fanned_out_dirty_tick_adds_a_fixed_allocation_count() {
    const DISPATCH_ALLOCS: u64 = 0;
    let cfg = BuildingConfig::paper(2, 1);
    let span = Span::noop();
    let mut engines = [Jobs::serial(), Jobs::of(2)].map(|jobs| {
        let mut engine = BuildingEngine::new(&cfg, &Registry::noop());
        let pool = Pool::new(jobs);
        for session in 0..12u64 {
            engine.apply(&Command::Arrive {
                session,
                x: 0.3 + 0.2 * session as f64,
                y: 0.5 + 0.15 * session as f64,
            });
        }
        engine.apply(&Command::Arrive {
            session: 12,
            x: 4.5,
            y: 1.5,
        });
        engine.control_tick(&pool, &span);
        engine.control_tick(&pool, &span);
        (engine, pool)
    });

    for session in 3..9u64 {
        let [in_place, fanned_out] = engines.each_mut().map(|(engine, pool)| {
            allocations_during(|| {
                engine.apply(&Command::Move {
                    session,
                    x: 4.2,
                    y: 1.4,
                });
                let report = engine.control_tick(pool, &span);
                assert_eq!(report.dirty_shards, 2);
            })
        });
        assert!(
            fanned_out <= in_place + DISPATCH_ALLOCS,
            "handover of session {session}: {fanned_out} allocations fanned out, {in_place} in place"
        );
    }
}

/// A cold sound of the paper room fills its gains row by row on the
/// calling thread: the gain vector is its one allocation.
#[test]
fn a_cold_sound_allocates_only_the_gains() {
    let room = Room::paper_simulation();
    let grid = TxGrid::paper(&room);
    let rxs = [
        Pose::face_up(0.92, 0.92, 0.8),
        Pose::face_up(1.65, 0.65, 0.8),
        Pose::face_up(0.72, 1.93, 0.8),
        Pose::face_up(1.99, 1.69, 0.8),
    ];
    let optics = RxOptics::paper();
    let blockers = [CylinderBlocker::person(0.92, 0.92)];
    let mut h = None;
    let n = allocations_during(|| {
        h = Some(ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &optics,
            &blockers,
            Probe::off(),
        ));
    });
    assert_eq!(h.map(|h| (h.n_tx(), h.n_rx())), Some((36, 4)));
    assert_eq!(n, 1, "a cold sound made {n} allocations");
}
