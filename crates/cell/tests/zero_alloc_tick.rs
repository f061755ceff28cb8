//! Allocation audit for the steady-state control tick.
//!
//! The tentpole contract: once a building is warmed up, a control tick
//! that touches no shard — bookkeeping, metric updates, obs window
//! appends — performs exactly **zero** heap allocations. Per-shard
//! scratch (updater buffers, warm allocations, window rings, the dirty list)
//! persists across ticks; only replans and flush boundaries may
//! allocate.

use vlc_cell::{
    drive, BuildingConfig, BuildingEngine, BuildingObs, BuildingObsConfig, Command, LoadGenConfig,
    TickReport,
};
use vlc_obs::NoopSink;
use vlc_par::Pool;
use vlc_prof::alloc_counter::{allocations_during, CountingAlloc};
use vlc_telemetry::Registry;
use vlc_trace::Span;

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
    assert!(
        in_room <= 25,
        "in-room move tick made {in_room} allocations"
    );
    assert!(handover <= 53, "handover tick made {handover} allocations");
}
