//! When a dirty shard replans and when its previous plan stands.
//!
//! A shard skips the replan only when its channel comes out unchanged and
//! no session arrived or left since the last plan. A roster edit always
//! replans, even when the new roster's channel is bitwise the old one: the
//! departure and the arrival edit the plan's allocation columns in place
//! (drop one, append a zero or carried one), so the old plan no longer
//! serves the sessions it is credited to.

use vlc_cell::{BuildingConfig, BuildingEngine, Command, ShardTick};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// Runs `buckets` of commands through a 1×1 building, one control tick
/// per bucket, and returns the engine.
fn run(buckets: &[Vec<Command>]) -> BuildingEngine {
    let mut cfg = BuildingConfig::paper(1, 1);
    cfg.record_timelines = true;
    let mut engine = BuildingEngine::new(&cfg, &Registry::noop());
    let pool = Pool::sequential();
    for bucket in buckets {
        for cmd in bucket {
            engine.apply(cmd);
        }
        engine.control_tick(&pool, &Span::noop());
    }
    engine
}

fn arrive(session: u64) -> Command {
    Command::Arrive {
        session,
        x: 1.0,
        y: 1.0,
    }
}

fn last_tick(engine: &BuildingEngine) -> &ShardTick {
    engine
        .shard(0)
        .timeline()
        .last()
        .expect("the shard replanned")
}

/// Every session credited with throughput is served by at least one TX.
fn assert_served(engine: &BuildingEngine) {
    let shard = engine.shard(0);
    let alloc = shard.allocation().expect("the shard has a plan");
    assert_eq!(alloc.n_rx(), shard.sessions().len());
    for (rx, (&id, &bps)) in shard.sessions().iter().zip(shard.bps()).enumerate() {
        if bps > 0.0 {
            assert!(
                (0..alloc.n_tx()).any(|tx| alloc.swing(tx, rx) != 0.0),
                "session {id} gets {bps} bit/s from an all-zero allocation column"
            );
        }
    }
}

/// Session 3 replaces session 1 at the same spot: the channel is bitwise
/// the previous one, but the roster changed, so the shard replans.
#[test]
fn a_roster_swap_with_an_unchanged_channel_replans() {
    let engine = run(&[
        vec![arrive(1), arrive(2)],
        vec![Command::Leave { session: 1 }, arrive(3)],
    ]);
    let tick = last_tick(&engine);
    assert_eq!(tick.sessions, vec![2, 3]);
    assert!(tick.replanned, "a roster edit must replan: {tick:?}");
    assert!(tick.bps.iter().any(|&b| b > 0.0));
    assert_served(&engine);
}

/// A move back onto the same spot leaves channel and roster as they were,
/// so the previous plan stands.
#[test]
fn an_unchanged_channel_over_an_unchanged_roster_keeps_the_plan() {
    let engine = run(&[
        vec![arrive(1), arrive(2)],
        vec![Command::Move {
            session: 1,
            x: 1.0,
            y: 1.0,
        }],
    ]);
    let timeline = engine.shard(0).timeline();
    assert_eq!(timeline.len(), 2, "the move dirtied the shard");
    let tick = &timeline[1];
    assert!(!tick.replanned, "nothing changed: {tick:?}");
    assert_eq!(tick.bps, timeline[0].bps);
    assert_served(&engine);
}
