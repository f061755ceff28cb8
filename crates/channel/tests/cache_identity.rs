//! Property tests for the incremental channel engine's identity contract:
//! the dirty-column updater must be *bitwise* equal to a cold rebuild, for
//! any receiver poses, any blocker set and any roster edit. These ride in
//! `cargo test --workspace` and therefore in both halves of `cargo tier2`.

use proptest::prelude::*;
use vlc_channel::{ChannelMatrix, ChannelUpdater, CylinderBlocker, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_trace::Probe;

const HPSA: f64 = 0.2617993877991494; // 15° in radians

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

    /// The dirty-row updater is a drop-in replacement for a full
    /// rebuild: after any sequence of pose jitters and blocker changes, the
    /// caller's masked matrix, the clear matrix, and the blocked-link count
    /// all match a from-scratch computation of the same tick, bitwise, and
    /// `changed` is set exactly when the first update primes the layout or
    /// the masked matrix differs from the previous tick's.
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
        let mut updater = ChannelUpdater::new(&grid, HPSA, &optics);
        let mut masked = ChannelMatrix::from_gains(grid.len(), 0, Vec::new());
        for (step, (poses, blockers)) in steps.iter().enumerate() {
            let previous = masked.clone();
            let update = updater.update(poses, blockers, &mut masked, Probe::off());
            let full = ChannelMatrix::compute(&grid, poses, HPSA, &optics, blockers, Probe::off());
            let clear = ChannelMatrix::compute(&grid, poses, HPSA, &optics, &[], Probe::off());
            prop_assert_eq!(&masked, &full, "masked");
            prop_assert_eq!(updater.clear_channel(), &clear, "clear");
            prop_assert_eq!(update.changed, step == 0 || masked != previous);
            let blocked = (0..grid.len())
                .flat_map(|t| (0..poses.len()).map(move |r| (t, r)))
                .filter(|&(t, r)| clear.gain(t, r) > 0.0 && full.gain(t, r) == 0.0)
                .count();
            prop_assert_eq!(update.blocked_links, blocked);
        }
    }

    /// Column-stable roster edits keep the identity: after any sequence of
    /// removals (in range or past the stored columns), appends, moves and
    /// blocker changes, every update's masked matrix, clear matrix and
    /// blocked-link count equal a cold rebuild of the same tick, bitwise.
    /// `changed` is set exactly when a column was removed, appended or
    /// re-primed since the last update, or the masked matrix differs from
    /// the previous one.
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
        let mut updater = ChannelUpdater::new(&grid, HPSA, &optics);
        let mut masked = ChannelMatrix::from_gains(grid.len(), 0, Vec::new());
        let mut poses = initial.clone();
        let mut blockers = Vec::new();
        let first = updater.update(&poses, &blockers, &mut masked, Probe::off());
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
            let update = updater.update(&poses, &blockers, &mut masked, Probe::off());
            let full = ChannelMatrix::compute(&grid, &poses, HPSA, &optics, &blockers, Probe::off());
            let clear = ChannelMatrix::compute(&grid, &poses, HPSA, &optics, &[], Probe::off());
            prop_assert_eq!(bits(&masked), bits(&full), "masked");
            prop_assert_eq!(bits(updater.clear_channel()), bits(&clear), "clear");
            prop_assert_eq!(update.changed, reshaped || masked != previous, "changed");
            let blocked = clear
                .iter()
                .filter(|&(t, r, g)| g > 0.0 && full.gain(t, r) == 0.0)
                .count();
            prop_assert_eq!(update.blocked_links, blocked);
        }
    }
}
