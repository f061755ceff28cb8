//! The beamspots of a [`BeamspotPlan`] are a view of its ranking and
//! allocation, derived on demand. This suite pins the view to the eager
//! grouping the controller used to store with every plan, on random rooms:
//! geometric channels, gains quantized to a few levels (so scores tie),
//! zero and tiny budgets, and partial last swings. It also pins the
//! infeasible-round rule (no ranked TX with a positive swing) and the traced
//! `beamspots` attribute to the same grouping.

use proptest::prelude::*;
use vlc_channel::{ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_mac::controller::{Beamspot, BeamspotPlan, Controller, ControllerConfig};
use vlc_telemetry::{ManualClock, Registry};
use vlc_trace::{Probe, Tracer};

/// The grouping each plan used to carry: ranked entries with a positive
/// swing, grouped per receiver in rank order, each group led by its first
/// (best-ranked) TX.
fn eager_beamspots(plan: &BeamspotPlan) -> Vec<Beamspot> {
    let mut beamspots: Vec<Beamspot> = Vec::new();
    for entry in &plan.ranking {
        if plan.allocation.swing(entry.tx, entry.rx) <= 0.0 {
            continue;
        }
        match beamspots.iter_mut().find(|b| b.rx == entry.rx) {
            Some(spot) => spot.txs.push(entry.tx),
            None => beamspots.push(Beamspot {
                rx: entry.rx,
                txs: vec![entry.tx],
                leader: entry.tx,
            }),
        }
    }
    beamspots
}

/// A room's channel: `n_rx` face-up receivers at random spots under the
/// paper's grid, or (with `levels > 0`) random gains quantized to `levels`
/// values including zero, so many (TX, RX) scores tie exactly.
fn arb_channel() -> impl Strategy<Value = ChannelMatrix> {
    (1usize..9, 0usize..4).prop_flat_map(|(n_rx, levels)| {
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 36 * n_rx).prop_map(move |draws| {
            let room = Room::paper_simulation();
            let grid = TxGrid::paper(&room);
            if levels == 0 {
                let rxs: Vec<Pose> = draws[..n_rx]
                    .iter()
                    .map(|&(u, v)| Pose::face_up(0.1 + 2.8 * u, 0.1 + 2.8 * v, 0.8))
                    .collect();
                ChannelMatrix::compute(
                    &grid,
                    &rxs,
                    15f64.to_radians(),
                    &RxOptics::paper(),
                    &[],
                    Probe::off(),
                )
            } else {
                let gains = draws
                    .iter()
                    .map(|&(u, _)| (u * (levels + 1) as f64).floor() * 1e-7)
                    .collect();
                ChannelMatrix::from_gains(grid.len(), n_rx, gains)
            }
        })
    })
}

/// Zero, below one full-swing TX, or up to the whole grid's worth.
fn arb_budget() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..3.0).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => 0.05 * u,
        _ => u,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn derived_beamspots_match_the_eager_grouping(
        channel in arb_channel(),
        budget_w in arb_budget(),
        partial in any::<bool>(),
    ) {
        let mut config = ControllerConfig::paper(budget_w);
        config.heuristic.allow_partial_last = partial;
        let controller = Controller::new(config, channel.n_tx(), channel.n_rx());
        let telemetry = Registry::new();
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("round");
        let plan = controller.plan(&channel, Probe { telemetry: &telemetry, span: &root });
        drop(root);

        let eager = eager_beamspots(&plan);
        prop_assert_eq!(&plan.beamspots(), &eager);
        prop_assert_eq!(plan, controller.plan(&channel, Probe::off()));
        prop_assert_eq!(plan.serves_anyone(), !eager.is_empty());
        for rx in 0..channel.n_rx() {
            prop_assert_eq!(plan.beamspot_for(rx), eager.iter().find(|b| b.rx == rx).cloned());
        }
        let mut active: Vec<usize> = eager.iter().flat_map(|b| b.txs.iter().copied()).collect();
        active.sort_unstable();
        prop_assert_eq!(plan.active_txs(), active);

        let snap = telemetry.snapshot();
        let infeasible = eager.is_empty().then_some(1);
        prop_assert_eq!(snap.counter("mac.infeasible_rounds"), infeasible);
        prop_assert_eq!(snap.events_of_kind("infeasible_round").count(), usize::from(eager.is_empty()));
        let trace = tracer.snapshot();
        let span = trace.find("mac.plan").expect("plan span recorded");
        let attr = span.attrs.iter().find(|(k, _)| k == "beamspots").map(|(_, v)| v.clone());
        prop_assert_eq!(attr, Some(eager.len().to_string()));
    }
}

#[test]
fn zero_budget_has_no_beamspots_and_counts_one_infeasible_round() {
    let room = Room::paper_simulation();
    let grid = TxGrid::paper(&room);
    let rxs = [
        Pose::face_up(0.92, 0.92, 0.8),
        Pose::face_up(1.99, 1.69, 0.8),
    ];
    let channel = ChannelMatrix::compute(
        &grid,
        &rxs,
        15f64.to_radians(),
        &RxOptics::paper(),
        &[],
        Probe::off(),
    );
    let controller = Controller::new(ControllerConfig::paper(0.0), grid.len(), 0);
    let telemetry = Registry::new();
    let plan = controller.plan(
        &channel,
        Probe {
            telemetry: &telemetry,
            ..Probe::off()
        },
    );
    assert!(plan.beamspots().is_empty());
    assert!(!plan.serves_anyone());
    assert_eq!(
        plan.ranking.len(),
        grid.len(),
        "the ranking is kept either way"
    );
    assert_eq!(
        telemetry.snapshot().counter("mac.infeasible_rounds"),
        Some(1)
    );
}
