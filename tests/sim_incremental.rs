//! The incremental simulation engine must be an *exact* drop-in for the
//! cold one: same `Timeline`, tick for tick, bit for bit — including across
//! mid-run cache invalidations (a teleporting receiver, a person walking
//! through every beam) — while actually exercising the warm paths.

use densevlc::sim::Simulation;
use vlc_geom::Vec3;
use vlc_telemetry::Registry;
use vlc_testbed::{AcroPositioner, Deployment, Scenario};
use vlc_trace::Span;

fn sim() -> Simulation {
    Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2)
}

/// Runs the same script through both engines and returns the two
/// (timeline-ticks, snapshot) pairs. The script teleports RX1 across the
/// room mid-run and sends a person straight through the grid — both cache
/// invalidation classes (pose miss, blockage partial) fire mid-flight.
fn run_script(incremental: bool) -> (Vec<densevlc::sim::Tick>, Registry) {
    let mut s = sim();
    s.send_receiver(0, 2.0, 2.0);
    // The person crosses half the room then stands still, so the run has
    // walking ticks (blockage changes → partial re-tests) *and* settled
    // ticks (nothing changes → column hits).
    s.add_person(0.1, 1.5, 1.0, &[(1.5, 1.5)]);
    let telemetry = Registry::new();
    let mut ticks = Vec::new();
    let first = if incremental {
        s.run_traced(1.0, None, &telemetry, &Span::noop())
    } else {
        s.run_cold(1.0, &telemetry)
    };
    ticks.extend(first.ticks);
    // Teleport: replace the mover outright — a discontinuous jump no
    // ε-threshold could mistake for "hasn't moved".
    let room = s.deployment.room;
    s.rx_movers[0] = AcroPositioner::new(Vec3::new(0.3, 2.7, 0.0), 0.5, room);
    let second = if incremental {
        s.run_traced(1.0, None, &telemetry, &Span::noop())
    } else {
        s.run_cold(1.0, &telemetry)
    };
    ticks.extend(second.ticks);
    (ticks, telemetry)
}

#[test]
fn incremental_engine_reproduces_cold_timeline_through_invalidation() {
    let (warm, warm_telemetry) = run_script(true);
    let (cold, _) = run_script(false);
    assert_eq!(warm.len(), cold.len());
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w, c, "tick t={} diverged", w.t_s);
    }
    // The run must actually have exercised the cache, not just bypassed it.
    let snap = warm_telemetry.snapshot();
    assert!(
        snap.counter("channel.cache.hit").unwrap_or(0) > 0,
        "no column was ever reused"
    );
    assert!(
        snap.counter("channel.cache.miss").unwrap_or(0) > 0,
        "no column was ever recomputed"
    );
    assert!(
        snap.counter("channel.cache.partial").unwrap_or(0) > 0,
        "blockage changes never re-tested a mask"
    );
}

#[test]
fn end_of_run_deployment_state_matches_cold() {
    // Beyond the timeline, the mutated deployment (receiver poses, stored
    // clear channel) must come out of both engines identical, so downstream
    // experiment code can't tell which engine ran.
    let mut warm = sim();
    warm.send_receiver(0, 2.4, 2.4);
    warm.run(2.0);
    let mut cold = sim();
    cold.send_receiver(0, 2.4, 2.4);
    cold.run_cold(2.0, &Registry::noop());
    assert_eq!(warm.deployment.receivers, cold.deployment.receivers);
    assert_eq!(warm.deployment.model.channel, cold.deployment.model.channel);
}

#[test]
fn blocked_links_are_counted_against_same_tick_clear_gains() {
    // Regression guard for the stale-diff bug: a receiver gliding under a
    // stationary person changes *which* links its column blocks while plans
    // are stale. Counting the mask against a stale stored channel would
    // double-count the moved column; the same-tick contract keeps both
    // engines in exact agreement, with a long stale window to stress it.
    let build = || {
        let mut s = sim();
        s.adaptation_period_s = 1.5; // mostly-stale plans
        s.add_person(1.32, 0.92, 0.5, &[]); // standing still near RX1
        s.send_receiver(0, 2.4, 0.9); // RX1 slides past the shadow
        s
    };
    let warm = build().run(3.0);
    let cold = build().run_cold(3.0, &Registry::noop());
    assert_eq!(warm.ticks.len(), cold.ticks.len());
    for (w, c) in warm.ticks.iter().zip(&cold.ticks) {
        assert_eq!(w.blocked_links, c.blocked_links, "t={}", w.t_s);
    }
    assert!(
        warm.ticks.iter().any(|t| t.blocked_links > 0),
        "scenario never blocked anything"
    );
    // The count varies as the receiver crosses the shadow — proof the diff
    // tracks the *current* geometry rather than a snapshot.
    let counts: Vec<usize> = warm.ticks.iter().map(|t| t.blocked_links).collect();
    assert!(
        counts.windows(2).any(|w| w[0] != w[1]),
        "blocked-link count never changed: {counts:?}"
    );
}

#[test]
fn static_world_hits_plan_cache() {
    // Nothing moves → after the first tick every column is a hit, the
    // updater reports the channel unchanged, and every later re-plan keeps
    // the stored plan.
    let mut s = sim();
    let telemetry = Registry::new();
    s.run_traced(2.0, None, &telemetry, &Span::noop());
    let snap = telemetry.snapshot();
    assert!(snap.counter("mac.plan.cache_hits").unwrap_or(0) > 0);
    assert_eq!(snap.counter("mac.plan.cache_misses"), Some(1));
    assert!(snap.counter("channel.cache.hit").unwrap_or(0) > 0);
    assert!(snap.counter("par.pool.created").unwrap_or(0) >= 1);
}

#[test]
fn channel_that_returns_to_the_planned_one_still_replans() {
    // A walking person's shadow changes the channel between two rounds and
    // can leave it bit for bit as it was at the last plan. The updater
    // reported a change in between, so that round re-plans (to the same
    // plan): the skip reads `ChannelUpdate::changed`, never the matrix.
    let build = || {
        let mut s = Simulation::new(Deployment::scenario(Scenario::One), 1.2, 0.2);
        s.add_person(0.1, 0.92, 0.8, &[(2.9, 0.92), (2.9, 2.9), (0.1, 2.9)]);
        s
    };
    let telemetry = Registry::new();
    let warm = build().run_traced(12.0, None, &telemetry, &Span::noop());
    let cold = build().run_cold(12.0, &Registry::noop());
    assert_eq!(warm.ticks, cold.ticks);
    let snap = telemetry.snapshot();
    let hits = snap.counter("mac.plan.cache_hits").unwrap_or(0);
    let misses = snap.counter("mac.plan.cache_misses").unwrap_or(0);
    assert_eq!(hits + misses, warm.replans() as u64);
    assert_eq!((hits, misses), (21, 39));
}
