//! Sharded-vs-sequential identity: the coordinator over N cells must
//! produce, bitwise, the same per-shard timelines as the same cells run
//! one at a time — at any worker count.
//!
//! The reference run feeds each cell's command stream (translated to the
//! cell's local frame via the same `BuildingMap::to_local` the engine
//! uses, so float arithmetic is identical) through a 1×1 building. The
//! coordinated run executes all cells in one engine at `jobs ∈ {1, 4,
//! max}`; every timeline entry — roster, replanned flag, per-session
//! throughput — must match to the last bit.

use vlc_cell::{BuildingConfig, BuildingEngine, Command, ShardTick};
use vlc_par::{Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

const COLS: usize = 3;
const ROWS: usize = 2;

fn config(cols: usize, rows: usize) -> BuildingConfig {
    let mut cfg = BuildingConfig::paper(cols, rows);
    cfg.record_timelines = true;
    cfg
}

/// A hand-built schedule touching cells 0, 2, 4 with arrivals,
/// within-room moves, and departures — no cross-room handovers, so the
/// building decomposes exactly into independent cells.
fn schedule() -> Vec<Vec<Command>> {
    let cfg = config(COLS, ROWS);
    let map = cfg.map();
    let (rw, rd) = (cfg.room.width, cfg.room.depth);
    // Sessions per cell: (cell, id, start position in local coords).
    let anchors = [
        (0usize, 1u64, (0.7, 0.7)),
        (0, 2, (2.1, 1.4)),
        (2, 3, (1.5, 1.5)),
        (4, 4, (0.9, 2.2)),
        (4, 5, (2.4, 0.6)),
    ];
    let global = |cell: usize, (lx, ly): (f64, f64)| {
        let (ox, oy) = map.origin(cell);
        (ox + lx, oy + ly)
    };
    let mut ticks: Vec<Vec<Command>> = vec![Vec::new(); 12];
    for &(cell, session, start) in &anchors {
        let (x, y) = global(cell, start);
        ticks[0].push(Command::Arrive { session, x, y });
        // Deterministic in-room drift, comfortably inside the walls.
        for t in [2usize, 5, 8] {
            let dx = 0.11 * session as f64 * (t as f64).sin();
            let dy = 0.07 * session as f64 * (t as f64).cos();
            let lx = (start.0 + dx).clamp(0.1, rw - 0.1);
            let ly = (start.1 + dy).clamp(0.1, rd - 0.1);
            let (x, y) = global(cell, (lx, ly));
            ticks[t].push(Command::Move { session, x, y });
        }
    }
    ticks[10].push(Command::Leave { session: 2 });
    ticks[10].push(Command::Leave { session: 4 });
    ticks
}

fn run_coordinated(jobs: Jobs) -> Vec<Vec<ShardTick>> {
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&config(COLS, ROWS), &registry);
    let pool = Pool::new(jobs).with_telemetry(&registry);
    for bucket in schedule() {
        for cmd in &bucket {
            engine.apply(cmd);
        }
        engine.control_tick(&pool, &Span::noop());
    }
    (0..COLS * ROWS)
        .map(|c| engine.shard(c).timeline().to_vec())
        .collect()
}

/// Runs cell `cell`'s commands alone through a 1×1 building.
fn run_cell_alone(cell: usize) -> Vec<ShardTick> {
    let map = config(COLS, ROWS).map();
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&config(1, 1), &registry);
    let pool = Pool::sequential();
    for bucket in schedule() {
        for cmd in &bucket {
            // Keep only this cell's commands, translated to local frame
            // with the exact same arithmetic the coordinator applies.
            let local = match *cmd {
                Command::Arrive { session, x, y } if map.cell_of(x, y) == cell => {
                    let (lx, ly) = map.to_local(cell, x, y);
                    Some(Command::Arrive {
                        session,
                        x: lx,
                        y: ly,
                    })
                }
                Command::Move { session, x, y } if map.cell_of(x, y) == cell => {
                    let (lx, ly) = map.to_local(cell, x, y);
                    Some(Command::Move {
                        session,
                        x: lx,
                        y: ly,
                    })
                }
                Command::Leave { session } if session_home(session) == cell => {
                    Some(Command::Leave { session })
                }
                _ => None,
            };
            if let Some(cmd) = local {
                engine.apply(&cmd);
            }
        }
        engine.control_tick(&pool, &Span::noop());
    }
    let shard = engine.shard(0);
    shard.timeline().to_vec()
}

/// The schedule never hands sessions over, so home cells are static.
fn session_home(session: u64) -> usize {
    match session {
        1 | 2 => 0,
        3 => 2,
        4 | 5 => 4,
        _ => unreachable!("unknown session"),
    }
}

#[test]
fn coordinator_matches_cells_run_one_by_one_bitwise() {
    let coordinated = run_coordinated(Jobs::of(1));
    for (cell, timeline) in coordinated.iter().enumerate() {
        let alone = run_cell_alone(cell);
        assert_eq!(
            *timeline, alone,
            "cell {cell}: coordinated timeline diverges from the solo run"
        );
    }
    // Untouched cells never replan at all.
    for cell in [1usize, 3, 5] {
        assert!(coordinated[cell].is_empty(), "cell {cell} was visited");
    }
}

#[test]
fn worker_count_never_changes_the_timelines() {
    let serial = run_coordinated(Jobs::of(1));
    let threaded = run_coordinated(Jobs::of(4));
    let max = run_coordinated(Jobs::max());
    assert_eq!(serial, threaded, "jobs=4 diverged from jobs=1");
    assert_eq!(serial, max, "jobs=max diverged from jobs=1");
}
