//! Profile tour: trace one adaptation round twice — the second time with
//! a deliberately heavier solver — then walk span tree → profile →
//! folded stacks → flamegraph → differential, the same pipeline
//! `densevlc-cli profile` and `bench_compare --explain` use.
//!
//! Run with: `cargo run --example profile_tour`
//!
//! The profiler's invariant (Σ self-time == Σ root wall time) makes the
//! tables trustworthy: every nanosecond of traced wall time appears in
//! exactly one row. The differential at the end shows how a regression
//! investigation reads: the solver we made heavier owns the delta.

use densevlc::System;
use vlc_alloc::OptimalSolver;
use vlc_par::{Jobs, Pool};
use vlc_prof::{to_folded, write_flamegraph, Profile, ProfileDiff};
use vlc_telemetry::Registry;
use vlc_testbed::Scenario;
use vlc_trace::Tracer;

/// One traced round: adaptation plus a solver probe with `starts` random
/// restarts. Returns the profile.
fn traced_round(starts: usize) -> Profile {
    let tracer = Tracer::new();
    let telemetry = Registry::noop();
    let root = tracer.root("profile_tour");
    let mut system = System::scenario(Scenario::Two, 1.2);
    system.adapt_traced(&telemetry, &root);
    let solver = OptimalSolver {
        random_starts: starts,
        ..OptimalSolver::quick()
    };
    solver.solve_traced(
        &system.deployment.model,
        1.2,
        None,
        &telemetry,
        &Pool::from_env(),
        &root,
    );
    drop(root);
    Profile::from_snapshot(&tracer.snapshot(), Jobs::from_env().get())
}

fn main() {
    // Baseline round, then a "regressed" round with a 4x heavier solver.
    let before = traced_round(2);
    let after = traced_round(8);

    println!("self-time table (top 8 paths, baseline round):");
    print!("{}", before.self_table(8));
    println!(
        "\ninvariant: sum(self) = {:.6}s, sum(roots) = {:.6}s",
        before.total_self_s(),
        before.total_root_s()
    );

    // Folded stacks load into any flamegraph tool; the SVG needs nothing.
    let folded = to_folded(&after);
    std::fs::write("profile.folded", &folded).expect("write profile.folded");
    let lines = vlc_prof::parse_folded(&folded).expect("own output parses");
    std::fs::write(
        "flamegraph.svg",
        write_flamegraph("profile_tour (heavy round)", &lines),
    )
    .expect("write flamegraph.svg");
    println!(
        "\nwrote profile.folded ({} paths) and flamegraph.svg",
        lines.len()
    );

    // The differential names where the extra time went.
    let diff = ProfileDiff::between(&before, &after);
    println!("\ndifferential (top 6 by |self-time delta|):");
    print!("{}", diff.table(6));
    let mut regressed = diff.regressed();
    if let Some(worst) = regressed.next() {
        println!(
            "\nworst regression: {} ({:+.6}s self) — the heavier solver, as planted",
            worst.path,
            worst.delta_s()
        );
    }
}
