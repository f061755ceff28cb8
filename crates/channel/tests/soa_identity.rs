//! Property tests for the SoA / lane-kernel identity contract: every fused
//! fast path introduced by the SoA refactor must be *bitwise* equal to its
//! retained scalar reference, for any poses, optics, blockers, and worker
//! count, and the FOV mask must be conservative (it never culls a link
//! whose scalar LOS gain is nonzero). These ride in `cargo test
//! --workspace` and in the CI `soa` job at `DENSEVLC_JOBS` ∈ {1, max}.

use proptest::prelude::*;
use vlc_channel::fov::cone_live;
use vlc_channel::nlos::{
    floor_bounce_gain_scalar, floor_bounce_gain_traced, wall_bounce_gain_scalar,
    wall_bounce_gain_traced, NlosConfig,
};
use vlc_channel::{
    lambertian_order, los_gain, los_gain_profiled, ChannelMatrix, CylinderBlocker, FovMask,
    RxOptics, SparseChannelView,
};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_par::{Jobs, Pool};
use vlc_trace::Span;

const HPSA: f64 = 0.2617993877991494; // 15° in radians

/// Coarse patches keep the per-case quadrature cheap; the identity must
/// hold for any grid (0.07 m leaves a non-multiple-of-4 patch count, so the
/// scalar tail of the lane kernel is exercised too).
fn coarse() -> NlosConfig {
    NlosConfig { patch_size_m: 0.07 }
}

fn arb_tx_pose() -> impl Strategy<Value = Pose> {
    // Ceiling emitters, some tilted off vertical.
    (
        0.0f64..3.0,
        0.0f64..3.0,
        2.0f64..3.0,
        0.0f64..0.6,
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(|(x, y, z, tilt, az)| {
            let p = Pose::tilted(x, y, z, tilt, az);
            Pose::new(p.position, -p.boresight)
        })
}

fn arb_rx_pose() -> impl Strategy<Value = Pose> {
    // Anywhere in the room interior, desk to head height, possibly tilted.
    (
        0.0f64..3.0,
        0.0f64..3.0,
        0.3f64..1.8,
        0.0f64..0.5,
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(|(x, y, z, tilt, az)| Pose::tilted(x, y, z, tilt, az))
}

fn arb_optics() -> impl Strategy<Value = RxOptics> {
    // FOV half-angles from narrow (heavy culling) to the paper's wide open.
    (10.0f64..90.0).prop_map(|fov_deg| RxOptics {
        fov_half_angle: fov_deg.to_radians(),
        ..RxOptics::paper()
    })
}

fn arb_blockers() -> impl Strategy<Value = Vec<CylinderBlocker>> {
    proptest::collection::vec(
        (0.0f64..3.0, 0.0f64..3.0).prop_map(|(x, y)| CylinderBlocker::person(x, y)),
        0..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused profiled LOS kernel is bitwise identical to the historical
    /// per-call scalar reference for arbitrary pose pairs and optics.
    #[test]
    fn profiled_los_gain_matches_reference(
        tx in arb_tx_pose(),
        rx in arb_rx_pose(),
        optics in arb_optics(),
    ) {
        let m = lambertian_order(HPSA);
        let reference = los_gain(&tx, &rx, m, &optics);
        let fused = los_gain_profiled(&tx, &rx, m, &optics.profile());
        prop_assert_eq!(fused.to_bits(), reference.to_bits());
    }

    /// The FOV mask is conservative: any link with a nonzero scalar LOS
    /// gain is live, and the cheap cone test agrees with the mask bits.
    #[test]
    fn fov_mask_is_conservative(
        txs in proptest::collection::vec(arb_tx_pose(), 1..6),
        rxs in proptest::collection::vec(arb_rx_pose(), 1..4),
        optics in arb_optics(),
    ) {
        let m = lambertian_order(HPSA);
        let profile = optics.profile();
        let mask = FovMask::compute_poses(&txs, &rxs, &profile);
        let mut live = 0;
        for (r, rx) in rxs.iter().enumerate() {
            for (t, tx) in txs.iter().enumerate() {
                let g = los_gain(tx, rx, m, &optics);
                if g != 0.0 {
                    prop_assert!(mask.is_live(t, r), "culled nonzero link tx={} rx={}", t, r);
                }
                prop_assert_eq!(mask.is_live(t, r), cone_live(tx, rx, &profile));
                if mask.is_live(t, r) {
                    live += 1;
                }
            }
        }
        prop_assert_eq!(mask.live_count(), live);
        prop_assert_eq!(mask.culled_count(), txs.len() * rxs.len() - live);
    }

    /// The lane-batched masked matrix sweep equals (a) a per-link scalar
    /// assembly and (b) the unmasked sweep, bitwise, for any worker count.
    #[test]
    fn masked_lane_compute_matches_scalar_assembly(
        rxs in proptest::collection::vec(arb_rx_pose(), 1..4),
        optics in arb_optics(),
        blockers in arb_blockers(),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let m = lambertian_order(HPSA);
        let mask = FovMask::compute(&grid, &rxs, &optics.profile());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let masked = ChannelMatrix::compute_traced(
                &grid, &rxs, HPSA, &optics, &blockers, Some(&mask), &pool, &Span::noop(),
            );
            let unmasked = ChannelMatrix::compute_traced(
                &grid, &rxs, HPSA, &optics, &blockers, None, &pool, &Span::noop(),
            );
            for t in 0..grid.len() {
                let tx = grid.pose(t);
                for (r, rx) in rxs.iter().enumerate() {
                    let scalar = if vlc_channel::blockage::any_blocks(
                        &blockers, tx.position, rx.position,
                    ) {
                        0.0
                    } else {
                        los_gain(&tx, rx, m, &optics)
                    };
                    prop_assert_eq!(masked.gain(t, r).to_bits(), scalar.to_bits());
                    prop_assert_eq!(unmasked.gain(t, r).to_bits(), scalar.to_bits());
                }
            }
            // The sparse view built through the mask carries exactly the
            // zero-pattern live set (conservativeness again, CSR-side).
            prop_assert_eq!(
                SparseChannelView::from_mask(&masked, &mask),
                SparseChannelView::from_matrix(&masked)
            );
        }
    }

    /// The lane-batched NLOS quadratures (floor and wall) are bitwise
    /// identical to the retained scalar references for any worker count.
    #[test]
    fn nlos_lane_kernels_match_scalar_references(
        tx in arb_tx_pose(),
        rx in arb_rx_pose(),
        optics in arb_optics(),
    ) {
        let room = Room::paper_testbed();
        let m = lambertian_order(HPSA);
        let cfg = coarse();
        let floor_ref = floor_bounce_gain_scalar(&tx, &rx, m, &optics, &room, &cfg);
        let wall_ref = wall_bounce_gain_scalar(&tx, &rx, m, &optics, &room, &cfg);
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let floor =
                floor_bounce_gain_traced(&tx, &rx, m, &optics, &room, &cfg, &pool, &Span::noop());
            let wall =
                wall_bounce_gain_traced(&tx, &rx, m, &optics, &room, &cfg, &pool, &Span::noop());
            prop_assert_eq!(floor.to_bits(), floor_ref.to_bits());
            prop_assert_eq!(wall.to_bits(), wall_ref.to_bits());
        }
    }
}
