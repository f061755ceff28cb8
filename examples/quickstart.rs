//! Quickstart: bring up the paper's 36-TX / 4-RX deployment, let the
//! controller form beamspots under a power budget, and inspect the result.
//!
//! Run with: `cargo run --example quickstart`

use densevlc::System;
use vlc_telemetry::Registry;
use vlc_testbed::Scenario;
use vlc_trace::Probe;

fn main() {
    // A live registry: every layer the adaptation round touches records
    // counters, gauges, and span timings into it (pass `Probe::off()` to
    // skip all of that).
    let telemetry = Registry::new();

    // Scenario 2 from the paper (Table 6): four receivers amid the grid,
    // with real inter-beamspot interference.
    let budget_w = 1.2;
    let mut system = System::scenario(Scenario::Two, budget_w);
    println!("DenseVLC quickstart — {}", Scenario::Two.label());
    println!(
        "deployment: {} TXs over {:.1} m × {:.1} m, {} receivers, budget {budget_w} W\n",
        system.deployment.grid.len(),
        system.deployment.room.width,
        system.deployment.room.depth,
        system.deployment.receivers.len(),
    );

    // One adaptation round: measure → rank → form beamspots.
    let probe = Probe {
        telemetry: &telemetry,
        ..Probe::off()
    };
    let round = system.adapt(probe);
    println!(
        "controller formed {} beamspots:",
        round.plan.beamspots().len()
    );
    for spot in round.plan.beamspots() {
        let txs: Vec<String> = spot
            .txs
            .iter()
            .map(|&t| system.deployment.grid.label(t))
            .collect();
        println!(
            "  RX{} <- [{}] (leader {}, {:.2} Mb/s)",
            spot.rx + 1,
            txs.join(", "),
            system.deployment.grid.label(spot.leader),
            round.per_rx_bps[spot.rx] / 1e6,
        );
    }
    println!(
        "\nsystem throughput {:.2} Mb/s using {:.3} W of communication power",
        round.system_throughput_bps / 1e6,
        round.power_w
    );

    // Mobility: RX1 strolls to the far corner; the cell-free design just
    // re-forms its beamspot from whatever TXs now have the best channels.
    system.move_receivers(&[(2.55, 2.55), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)]);
    let after = system.adapt(probe);
    let spot = after.plan.beamspot_for(0).expect("RX1 still served");
    let txs: Vec<String> = spot
        .txs
        .iter()
        .map(|&t| system.deployment.grid.label(t))
        .collect();
    println!(
        "\nafter RX1 moved to (2.55, 2.55): beamspot re-formed from [{}], {:.2} Mb/s",
        txs.join(", "),
        after.per_rx_bps[0] / 1e6
    );

    // What the system just did, by the numbers: planning phase timings,
    // round counts, and the latest per-receiver throughput gauges. For the
    // causal view of the same round — a span tree loadable in Perfetto —
    // see `cargo run --example trace_tour` or `densevlc-cli adapt --trace
    // trace.json`.
    println!("\n{}", telemetry.snapshot().summary_table());
}
