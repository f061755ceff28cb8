//! The vlc-trace determinism contract, end to end: under a [`ManualClock`]
//! the *recorded span tree* — names, parent/child structure, structural
//! ids, and attributes — is identical for any worker count. Lanes
//! (`track`) are scheduling metadata and explicitly excluded; everything
//! `tree_string` renders is covered.
//!
//! Also pins the zero-cost default: entry points called without a live
//! parent span record no spans at all.

use vlc_alloc::heuristic::heuristic_allocation_traced;
use vlc_alloc::model::SystemModel;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_channel::nlos::{floor_bounce_gain_traced, wall_bounce_gain_traced, NlosConfig};
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_led::LedParams;
use vlc_par::{Jobs, Pool};
use vlc_telemetry::{ManualClock, Registry};
use vlc_trace::{Span, TraceSnapshot, Tracer};

/// Worker counts exercised: sequential, even split, a count that does not
/// divide typical item counts, and every available core.
fn job_grid() -> [Jobs; 4] {
    [Jobs::serial(), Jobs::of(2), Jobs::of(7), Jobs::max()]
}

/// Runs every traced parallel layer under one root and returns the
/// snapshot: channel sounding, both NLOS quadratures, the heuristic
/// allocator, and the optimal solver's multi-start fan-out.
fn traced_workload(jobs: Jobs) -> TraceSnapshot {
    let tracer = Tracer::with_clock(ManualClock::new());
    let root = tracer.root("workload");

    let room = Room::paper_simulation();
    let grid = TxGrid::paper(&room);
    let rxs = vec![
        Pose::face_up(0.92, 0.92, 0.8),
        Pose::face_up(1.65, 0.65, 0.8),
        Pose::face_up(0.72, 1.93, 0.8),
        Pose::face_up(1.99, 1.69, 0.8),
    ];
    let optics = RxOptics::paper();
    let pool = Pool::new(jobs);
    let h = ChannelMatrix::compute_traced(
        &grid,
        &rxs,
        15f64.to_radians(),
        &optics,
        &[],
        None,
        &pool,
        &root,
    );

    let cfg = NlosConfig::default();
    let leader = Pose::ceiling(0.6, 0.6, room.height);
    let follower = Pose::ceiling(1.8, 1.4, room.height);
    floor_bounce_gain_traced(&leader, &follower, 1.0, &optics, &room, &cfg, &pool, &root);
    let rx = Pose::face_up(1.2, 1.0, 0.8);
    wall_bounce_gain_traced(&leader, &rx, 1.0, &optics, &room, &cfg, &pool, &root);

    let model = SystemModel::paper(h);
    let quiet = Registry::noop();
    heuristic_allocation_traced(
        &model.channel,
        &LedParams::cree_xte_paper(),
        1.2,
        &HeuristicConfig::paper(),
        &quiet,
        &root,
    );
    OptimalSolver::quick().solve_traced(&model, 1.2, None, &quiet, &pool, &root);

    drop(root);
    tracer.snapshot()
}

#[test]
fn span_tree_is_identical_for_any_worker_count() {
    let reference = traced_workload(Jobs::serial());
    assert!(
        reference.len() > 50,
        "workload records a real tree ({} spans)",
        reference.len()
    );
    let reference_tree = reference.tree_string();
    for jobs in job_grid() {
        let snap = traced_workload(jobs);
        assert_eq!(
            snap.tree_string(),
            reference_tree,
            "span tree differs at jobs={jobs}"
        );
    }
}

#[test]
fn structural_ids_and_attrs_are_identical_for_any_worker_count() {
    // tree_string covers names/structure/attrs; this pins the raw ids too
    // (everything except timing and lanes).
    type Skeleton = Vec<(u64, u64, u64, String, Vec<(String, String)>)>;
    let skeleton = |snap: &TraceSnapshot| {
        let mut v: Skeleton = snap
            .spans
            .iter()
            .map(|s| (s.id, s.parent_id, s.seq, s.name.clone(), s.attrs.clone()))
            .collect();
        v.sort();
        v
    };
    let reference = skeleton(&traced_workload(Jobs::serial()));
    for jobs in [Jobs::of(2), Jobs::max()] {
        assert_eq!(
            skeleton(&traced_workload(jobs)),
            reference,
            "span ids differ at jobs={jobs}"
        );
    }
}

#[test]
fn untraced_entry_points_record_zero_spans() {
    // The default path hands every layer a noop parent: a live tracer in
    // the same process must stay empty, and the noop registry must record
    // no events either — the instrumentation is strictly opt-in.
    let tracer = Tracer::with_clock(ManualClock::new());
    let quiet = Registry::noop();

    let mut system = densevlc::System::scenario(vlc_testbed::Scenario::Two, 1.2);
    system.adapt(); // plain, uninstrumented entry point
    system.adapt_traced(&quiet, &Span::noop()); // instrumented, but noop parent inside

    let snap = tracer.snapshot();
    assert_eq!(snap.len(), 0, "no spans recorded on the default path");
    assert_eq!(snap.dropped, 0);
    let t = quiet.snapshot();
    assert!(t.events.is_empty(), "no events on the noop registry");
    assert_eq!(t.events_dropped, 0);
}

#[test]
fn noop_span_children_are_free_of_record() {
    // A deep noop chain never touches a ring: ids stay None throughout.
    let root = Span::noop();
    let a = root.child("a");
    let b = a.child_indexed("b", 3);
    b.attr("k", "v");
    assert_eq!(root.id(), None);
    assert_eq!(a.id(), None);
    assert_eq!(b.id(), None);
}
