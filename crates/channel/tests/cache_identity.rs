//! Property tests for the incremental channel engine's identity contract:
//! the cached/incremental paths must be *bitwise* equal to the cold paths
//! (paper-faithful per-pair quadrature), for any receiver poses, any ε, any
//! blocker set, and any worker count. These ride in `cargo test --workspace`
//! and therefore in both halves of `cargo tier2`.

use proptest::prelude::*;
use vlc_channel::nlos::{floor_bounce_gain_traced, wall_bounce_gain_traced, NlosConfig};
use vlc_channel::{
    lambertian_order, ChannelMatrix, ChannelUpdater, CylinderBlocker, NlosTxCache, RxOptics,
};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_par::{Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

const HPSA: f64 = 0.2617993877991494; // 15° in radians

/// Coarser patches than the 5 cm default keep the per-case quadrature cheap
/// without weakening the identity being tested (it must hold for any grid).
fn coarse() -> NlosConfig {
    NlosConfig { patch_size_m: 0.2 }
}

fn arb_rx_pose() -> impl Strategy<Value = Pose> {
    // Anywhere in the testbed room's interior, desk to head height.
    (0.0f64..3.0, 0.0f64..3.0, 0.3f64..1.8).prop_map(|(x, y, z)| Pose::face_up(x, y, z))
}

fn arb_blockers() -> impl Strategy<Value = Vec<CylinderBlocker>> {
    proptest::collection::vec(
        (0.0f64..3.0, 0.0f64..3.0).prop_map(|(x, y)| CylinderBlocker::person(x, y)),
        0..3,
    )
}

/// Shape plus every gain's bit pattern: equality here is bit for bit.
fn bits(m: &ChannelMatrix) -> (usize, usize, Vec<u64>) {
    let gains = m.iter().map(|(_, _, g)| g.to_bits()).collect();
    (m.n_tx(), m.n_rx(), gains)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A leader-side NLOS cache reproduces the direct floor-bounce
    /// quadrature bit for bit, for any receiver pose and worker count.
    #[test]
    fn cached_floor_gain_matches_direct_bitwise(rx in arb_rx_pose(), tx_idx in 0usize..36) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let m = lambertian_order(HPSA);
        let tx = grid.pose(tx_idx);
        let cache = NlosTxCache::new(&tx, m, &room, &coarse());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let direct =
                floor_bounce_gain_traced(&tx, &rx, m, &optics, &room, &coarse(), &pool, &Span::noop());
            let cached = cache.floor_gain_traced(&rx, &optics, &pool, &Span::noop());
            prop_assert_eq!(cached.to_bits(), direct.to_bits(), "jobs={}", jobs);
        }
    }

    /// Same identity for the four-wall bounce.
    #[test]
    fn cached_wall_gain_matches_direct_bitwise(rx in arb_rx_pose(), tx_idx in 0usize..36) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let m = lambertian_order(HPSA);
        let tx = grid.pose(tx_idx);
        let cache = NlosTxCache::new(&tx, m, &room, &coarse());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let direct =
                wall_bounce_gain_traced(&tx, &rx, m, &optics, &room, &coarse(), &pool, &Span::noop());
            let cached = cache.wall_gain_traced(&rx, &optics, &pool, &Span::noop());
            prop_assert_eq!(cached.to_bits(), direct.to_bits(), "jobs={}", jobs);
        }
    }

    /// With ε = 0 the dirty-row updater is a drop-in replacement for a full
    /// rebuild: after any sequence of pose jitters and blocker changes, the
    /// caller's masked matrix, the clear matrix, and the blocked-link count
    /// all match a from-scratch computation of the same tick, bitwise, at
    /// any jobs, and `changed` is set exactly when the first update primes
    /// the layout or the masked matrix differs from the previous tick's.
    #[test]
    fn zero_epsilon_updater_matches_full_rebuild(
        steps in proptest::collection::vec(
            (proptest::collection::vec(arb_rx_pose(), 3), arb_blockers()),
            1..5,
        ),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let mut updater = ChannelUpdater::new(&grid, HPSA, &optics, 0.0);
            let mut masked = ChannelMatrix::from_gains(grid.len(), 0, Vec::new());
            for (step, (poses, blockers)) in steps.iter().enumerate() {
                let previous = masked.clone();
                let update = updater.update_traced(
                    poses,
                    blockers,
                    &mut masked,
                    &Registry::noop(),
                    &pool,
                    &Span::noop(),
                );
                let full = ChannelMatrix::compute_traced(
                    &grid, poses, HPSA, &optics, blockers, None, &pool, &Span::noop(),
                );
                let clear = ChannelMatrix::compute_traced(
                    &grid, poses, HPSA, &optics, &[], None, &pool, &Span::noop(),
                );
                prop_assert_eq!(&masked, &full, "masked, jobs={}", jobs);
                prop_assert_eq!(updater.clear_channel(), &clear, "clear, jobs={}", jobs);
                prop_assert_eq!(update.changed, step == 0 || masked != previous, "jobs={}", jobs);
                let blocked = (0..grid.len())
                    .flat_map(|t| (0..poses.len()).map(move |r| (t, r)))
                    .filter(|&(t, r)| clear.gain(t, r) > 0.0 && full.gain(t, r) == 0.0)
                    .count();
                prop_assert_eq!(update.blocked_links, blocked);
            }
        }
    }

    /// Column-stable roster edits keep the identity: after any sequence of
    /// removals (in range or past the stored columns), appends, moves and
    /// blocker changes, every update's masked matrix, clear matrix and
    /// blocked-link count equal a cold rebuild of the same tick, bitwise,
    /// on pools of 1 and 2 workers. `changed` is set exactly when a column
    /// was removed, appended or re-primed since the last update, or the
    /// masked matrix differs from the previous one.
    #[test]
    fn roster_edits_match_full_rebuild(
        initial in proptest::collection::vec(arb_rx_pose(), 0..5),
        steps in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..6, arb_rx_pose(), arb_blockers()), 1..4),
            1..6,
        ),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        for jobs in [Jobs::serial(), Jobs::of(2)] {
            let pool = Pool::new(jobs);
            let mut updater = ChannelUpdater::new(&grid, HPSA, &optics, 0.0);
            let mut masked = ChannelMatrix::from_gains(grid.len(), 0, Vec::new());
            let mut poses = initial.clone();
            let mut blockers = Vec::new();
            let first = updater.update_traced(
                &poses,
                &blockers,
                &mut masked,
                &Registry::noop(),
                &pool,
                &Span::noop(),
            );
            prop_assert!(first.changed, "the first update primes the layout");
            for ops in &steps {
                let previous = masked.clone();
                // Every removal either drops a column or (past the stored
                // columns) re-primes; every push appends or re-primes.
                let reshaped = ops.iter().any(|&(op, ..)| op < 2);
                for (op, idx, pose, new_blockers) in ops {
                    match op {
                        // An index past the roster exercises the re-prime
                        // fallback with the roster left as it is.
                        0 => {
                            if *idx < poses.len() {
                                poses.remove(*idx);
                            }
                            updater.remove_rx(*idx, &mut masked);
                        }
                        1 => poses.push(*pose),
                        2 if !poses.is_empty() => {
                            let i = idx % poses.len();
                            poses[i] = *pose;
                        }
                        _ => blockers = new_blockers.clone(),
                    }
                }
                let update = updater.update_traced(
                    &poses,
                    &blockers,
                    &mut masked,
                    &Registry::noop(),
                    &pool,
                    &Span::noop(),
                );
                let full = ChannelMatrix::compute_with_blockage(&grid, &poses, HPSA, &optics, &blockers);
                let clear = ChannelMatrix::compute_with_blockage(&grid, &poses, HPSA, &optics, &[]);
                prop_assert_eq!(bits(&masked), bits(&full), "masked, jobs={}", jobs);
                prop_assert_eq!(bits(updater.clear_channel()), bits(&clear), "clear, jobs={}", jobs);
                prop_assert_eq!(
                    update.changed,
                    reshaped || masked != previous,
                    "changed, jobs={}",
                    jobs
                );
                let blocked = clear
                    .iter()
                    .filter(|&(t, r, g)| g > 0.0 && full.gain(t, r) == 0.0)
                    .count();
                prop_assert_eq!(update.blocked_links, blocked, "jobs={}", jobs);
            }
        }
    }

    /// With ε > 0 the updater trades bounded staleness for reuse: its output
    /// equals a full rebuild at the *effective* poses (each column's pose
    /// re-snaps only when the receiver drifts beyond ε of the last computed
    /// pose), so the approximation is exactly "each RX is where we last
    /// looked, at most ε ago" — never an uncontrolled mixture.
    #[test]
    fn positive_epsilon_updater_matches_rebuild_at_effective_poses(
        epsilon in 0.0f64..0.5,
        steps in proptest::collection::vec(
            (proptest::collection::vec(arb_rx_pose(), 2), arb_blockers()),
            1..5,
        ),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let mut updater = ChannelUpdater::new(&grid, HPSA, &optics, epsilon);
        let mut masked = ChannelMatrix::from_gains(grid.len(), 0, Vec::new());
        // Shadow model of the invalidation rule.
        let mut effective: Vec<Pose> = Vec::new();
        for (poses, blockers) in &steps {
            updater.update(poses, blockers, &mut masked);
            if effective.is_empty() {
                effective = poses.clone();
            } else {
                for (eff, new) in effective.iter_mut().zip(poses) {
                    if eff.boresight != new.boresight
                        || eff.position.distance(new.position) > epsilon
                    {
                        *eff = *new;
                    }
                }
            }
            let full = ChannelMatrix::compute_with_blockage(
                &grid, &effective, HPSA, &optics, blockers,
            );
            prop_assert_eq!(&masked, &full);
        }
    }
}
