//! Trace tour: run one adaptation round with causal tracing on, write the
//! span tree as Chrome Trace Event JSON (open `trace.json` in Perfetto or
//! chrome://tracing), and print the deepest span chains.
//!
//! Run with: `cargo run --example trace_tour`
//!
//! Tracing is opt-in and pay-as-you-go: every traced entry point takes a
//! parent [`Span`], and passing `Span::noop()` (what the untraced wrappers
//! do) reduces each span site to a single branch. Here we pass a live
//! root instead, so the whole `sim.adapt` → `mac.plan` → `mac.rank` /
//! `mac.allocate` tree lands in the tracer's ring — plus the solver probe
//! with its per-start and per-iteration-batch children.

use densevlc::System;
use vlc_alloc::OptimalSolver;
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_testbed::Scenario;
use vlc_trace::Tracer;

fn main() {
    let tracer = Tracer::new();
    let telemetry = Registry::noop();

    // One adaptation round on the paper's Scenario 2, traced end to end.
    let root = tracer.root("trace_tour");
    let mut system = System::scenario(Scenario::Two, 1.2);
    let round = system.adapt_traced(&telemetry, &root);
    println!(
        "adaptation round: {} beamspots, {:.2} Mb/s at {:.3} W",
        round.plan.beamspots.len(),
        round.system_throughput_bps / 1e6,
        round.power_w
    );

    // The optimal solver fans out over random starts; its spans land on
    // per-worker lanes (Perfetto rows) while the *structure* of the tree
    // stays identical for any worker count.
    OptimalSolver::quick().solve_traced(
        &system.deployment.model,
        1.2,
        None,
        &telemetry,
        &Pool::from_env(),
        &root,
    );
    drop(root);

    let snapshot = tracer.snapshot();
    println!("\nrecorded {} spans; the 3 deepest chains:", snapshot.len());
    for chain in snapshot.deepest_chains(3) {
        println!("  {chain}");
    }

    std::fs::write("trace.json", snapshot.to_chrome_json()).expect("write trace.json");
    println!("\nwrote trace.json — load it in Perfetto (ui.perfetto.dev) or chrome://tracing");
}
