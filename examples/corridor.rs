//! A custom deployment beyond the paper's 6 × 6 room: a 2 × 8 LED strip
//! lighting a corridor, serving two receivers walking in opposite
//! directions. Shows that every layer — grid builder, channel, controller,
//! metrics — is parameterized, not hard-wired to the paper's geometry.
//!
//! Run with: `cargo run --release --example corridor`

use vlc_alloc::analysis::jain_fairness;
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_mac::{Controller, ControllerConfig};
use vlc_trace::Probe;

fn main() {
    // A 1.5 m × 12 m corridor with a 2 × 8 strip of luminaires. (The grid
    // builder centers any cols × rows layout in any room.)
    let corridor = Room {
        width: 1.5,
        depth: 12.0,
        height: 2.6,
        floor_reflectance: 0.5,
    };
    let grid = TxGrid::centered(&corridor, 2, 8, 1.5);
    println!(
        "corridor deployment: {} TXs over {:.1} m × {:.1} m",
        grid.len(),
        corridor.width,
        corridor.depth
    );

    let controller = Controller::new(ControllerConfig::paper(0.6), grid.len(), 2);
    println!("\n  t   RX1@y      RX2@y      RX1 beamspot        RX2 beamspot        fairness");
    for step in 0..=10 {
        // The receivers walk past each other along the corridor.
        let y1 = 1.0 + step as f64; // north-bound
        let y2 = 11.0 - step as f64; // south-bound
        let rxs = vec![Pose::face_up(0.75, y1, 0.9), Pose::face_up(0.75, y2, 0.9)];
        let channel = ChannelMatrix::compute(
            &grid,
            &rxs,
            25f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        );
        let plan = controller.plan(&channel, Probe::off());

        let spot_str = |rx: usize| {
            plan.beamspot_for(rx)
                .map(|s| {
                    s.txs
                        .iter()
                        .map(|&t| grid.label(t))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_else(|| "-".into())
        };
        // Evaluate the plan on a throwaway model for the fairness metric.
        let model = vlc_alloc::model::SystemModel::paper(channel);
        let t = model.throughput(&plan.allocation);
        println!(
            "  {:>2}   {:>5.1}      {:>5.1}      {:<18}  {:<18}  {:.3}",
            step,
            y1,
            y2,
            spot_str(0),
            spot_str(1),
            jain_fairness(&t)
        );
    }
    println!(
        "\nthe beamspots slide along the strip with the walkers and hand over at each\n\
         step; at the crossing instant the two receivers are co-located and the greedy\n\
         SJR ranking (the paper's Algorithm 1) briefly serves only one of them — the\n\
         co-location limitation documented in DESIGN.md, gone one step later"
    );
}
