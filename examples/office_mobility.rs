//! Office mobility study: a receiver crosses the room on an ACRO gantry
//! while the controller re-adapts at a fixed cadence — the paper's "fast
//! adaptation" motivation made concrete.
//!
//! The study compares per-step throughput of the moving receiver when the
//! controller re-plans every step versus when it keeps the stale plan from
//! the walk's start, quantifying what the 0.07 s heuristic buys.
//!
//! Run with: `cargo run --example office_mobility`

use densevlc::System;
use vlc_geom::Vec3;
use vlc_testbed::{AcroPositioner, Scenario};
use vlc_trace::Probe;

fn main() {
    let budget_w = 1.2;
    let mut adaptive = System::scenario(Scenario::Two, budget_w);
    let mut stale = System::scenario(Scenario::Two, budget_w);
    let stale_plan = stale.adapt(Probe::off()).plan;

    // RX1 rides a gantry from its Scenario-2 spot to the opposite corner.
    let room = adaptive.deployment.room;
    let mut gantry = AcroPositioner::new(Vec3::new(0.92, 0.92, 0.0), 0.25, room);
    gantry.queue(Vec3::new(2.4, 1.0, 0.0));
    gantry.queue(Vec3::new(2.4, 2.4, 0.0));

    println!("Mobility study: RX1 walks (0.92,0.92) → (2.4,1.0) → (2.4,2.4) at 0.25 m/s");
    println!("re-adaptation every 1 s; stale system keeps its initial plan\n");
    println!("  t[s]   RX1 pos        adaptive RX1 [Mb/s]   stale RX1 [Mb/s]   beamspot");

    let mut adaptive_total = 0.0;
    let mut stale_total = 0.0;
    for step in 0..=12 {
        let p = gantry.position;
        let positions = [(p.x, p.y), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)];
        adaptive.move_receivers(&positions);
        stale.move_receivers(&positions);

        let round = adaptive.adapt(Probe::off());
        let stale_bps = stale.deployment.model.throughput(&stale_plan.allocation)[0];
        let leader = round
            .plan
            .beamspot_for(0)
            .map(|s| adaptive.deployment.grid.label(s.leader))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:>4}   ({:.2}, {:.2})   {:>12.2}          {:>10.2}        {}",
            step,
            p.x,
            p.y,
            round.per_rx_bps[0] / 1e6,
            stale_bps / 1e6,
            leader
        );
        adaptive_total += round.per_rx_bps[0];
        stale_total += stale_bps;
        gantry.advance(1.0);
    }

    println!(
        "\nmean RX1 throughput while moving: adaptive {:.2} Mb/s vs stale {:.2} Mb/s ({:.1}× gain)",
        adaptive_total / 13.0 / 1e6,
        stale_total / 13.0 / 1e6,
        adaptive_total / stale_total.max(1.0)
    );
}
