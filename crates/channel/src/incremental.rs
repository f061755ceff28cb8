//! Dirty-column incremental updates of the [`ChannelMatrix`].
//!
//! The controller re-sounds the channel every adaptation period, but
//! between ticks most of the world is static: ceiling TXs never move, and
//! in a mobility run typically one receiver moves per tick while the rest
//! idle. [`ChannelUpdater`] exploits that: it remembers the per-RX poses
//! and blocker set of the previous update and recomputes only the matrix
//! *columns* whose receiver moved beyond `epsilon_m` (a **miss**) or whose
//! blockage geometry changed (a **partial** — the LOS gains are reused and
//! only the occlusion mask is re-tested); untouched columns are copied
//! from the previous tick (a **hit**).
//!
//! Columns follow the caller's receiver list. [`ChannelUpdater::remove_rx`]
//! drops one column in place (later columns shift left, as `Vec::remove`
//! does on the roster), and receivers appended after the stored ones are
//! misses while every stored column keeps its hit/partial/miss rule. So a
//! roster that gains or loses a receiver costs one column, not a rebuild.
//! Any other change of the receiver count re-primes every column.
//!
//! **Determinism contract:** matrix entries are pure per-pair functions
//! (no accumulation), so a recomputed column is bitwise identical to the
//! same column of a full [`ChannelMatrix::compute_with_blockage`] rebuild,
//! and a reused column is a verbatim copy of a previously recomputed one.
//! With `epsilon_m == 0.0` the updater therefore produces **bitwise
//! identical** matrices to a cold rebuild on every tick, for any worker
//! count (property-tested in `tests/cache_identity.rs`). A positive
//! `epsilon_m` deliberately trades staleness (bounded by ε) for speed.

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::fov::{COUNTER_FOV_CULLED, COUNTER_FOV_LIVE};
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics};
use crate::matrix::{append_rx_columns, remove_rx_column, ChannelMatrix};
use vlc_geom::{Pose, TxGrid};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// What one [`ChannelUpdater::update`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelUpdate {
    /// The channel with blockage applied — what the controller plans on.
    pub matrix: ChannelMatrix,
    /// The clear (blockage-free) channel of the *same* tick.
    pub clear: ChannelMatrix,
    /// Links with positive clear gain currently occluded — computed
    /// against the same-tick clear gains, so a receiver that moved under
    /// a blocker between replans is counted once, not double-counted
    /// against a stale stored channel.
    pub blocked_links: usize,
    /// Columns copied verbatim from the previous tick.
    pub hits: usize,
    /// Columns whose occlusion mask was re-tested but LOS gains reused.
    pub partials: usize,
    /// Columns fully recomputed (receiver moved beyond ε, or first use).
    pub misses: usize,
}

/// Per-column state for the incremental channel engine.
///
/// One updater tracks one deployment's TX grid and optics; feed it the
/// receiver poses and blockers of each tick via [`ChannelUpdater::update`]
/// and it returns the full matrices while recomputing only what changed.
#[derive(Debug, Clone)]
pub struct ChannelUpdater {
    grid: TxGrid,
    lambertian_m: f64,
    optics: RxOptics,
    epsilon_m: f64,
    /// Pose each column was last *computed* for (within ε of the true one).
    poses: Vec<Pose>,
    blockers: Vec<CylinderBlocker>,
    /// Clear LOS gains, row-major `n_tx × n_rx` (same layout as the matrix).
    clear: Vec<f64>,
    /// Occlusion mask, row-major `n_tx × n_rx`.
    blocked: Vec<bool>,
    /// Per-column ascending live-TX lists: the indices with nonzero clear
    /// gain, rebuilt whenever a column is recomputed. The partial path
    /// re-tests occlusion only for these links — a dead link masks to the
    /// same exact zero whether or not a blocker crosses it.
    live: Vec<Vec<u32>>,
    primed: bool,
}

impl ChannelUpdater {
    /// Creates an unprimed updater: the first [`Self::update`] recomputes
    /// every column (all misses).
    ///
    /// `epsilon_m` is the movement tolerance: a receiver whose position
    /// stays within `epsilon_m` of the pose its column was last computed
    /// for (and whose boresight is unchanged) keeps the cached column.
    /// `0.0` means *any* pose change recomputes — the exact mode the
    /// simulation uses.
    ///
    /// # Panics
    /// Panics if `epsilon_m` is negative or non-finite.
    pub fn new(
        grid: &TxGrid,
        half_power_semi_angle: f64,
        optics: &RxOptics,
        epsilon_m: f64,
    ) -> Self {
        assert!(
            epsilon_m.is_finite() && epsilon_m >= 0.0,
            "epsilon must be finite and non-negative"
        );
        ChannelUpdater {
            grid: grid.clone(),
            lambertian_m: lambertian_order(half_power_semi_angle),
            optics: *optics,
            epsilon_m,
            poses: Vec::new(),
            blockers: Vec::new(),
            clear: Vec::new(),
            blocked: Vec::new(),
            live: Vec::new(),
            primed: false,
        }
    }

    /// Advances the world one tick and returns the updated matrices,
    /// fanning dirty columns out over `DENSEVLC_JOBS` workers.
    pub fn update(&mut self, receivers: &[Pose], blockers: &[CylinderBlocker]) -> ChannelUpdate {
        self.update_traced(
            receivers,
            blockers,
            &Registry::noop(),
            &Pool::from_env(),
            &Span::noop(),
        )
    }

    /// [`Self::update`] on a caller-supplied pool, recording a
    /// `channel.update` span under `parent` with one `channel.update.col`
    /// child per *recomputed* column (indexed by RX, so the span tree
    /// depends only on what changed, never on the worker count), and
    /// bumping the `channel.cache.hit` / `channel.cache.partial` /
    /// `channel.cache.miss` counters.
    pub fn update_traced(
        &mut self,
        receivers: &[Pose],
        blockers: &[CylinderBlocker],
        telemetry: &Registry,
        pool: &Pool,
        parent: &Span,
    ) -> ChannelUpdate {
        let n_tx = self.grid.len();
        let n_rx = receivers.len();
        let span = parent.child("channel.update");
        if span.is_enabled() {
            span.attr("n_tx", &n_tx.to_string());
            span.attr("n_rx", &n_rx.to_string());
        }

        // Receivers appended after the stored columns get fresh (miss)
        // columns; any other count change invalidates the layout wholesale.
        let stored = self.poses.len();
        if self.primed && n_rx > stored {
            self.append_receivers(&receivers[stored..]);
        } else if n_rx != stored {
            self.primed = false;
        }
        if !self.primed {
            self.poses = receivers.to_vec();
            self.clear = vec![0.0; n_tx * n_rx];
            self.blocked = vec![false; n_tx * n_rx];
            self.live = vec![Vec::new(); n_rx];
        }
        let blockers_changed = !self.primed || self.blockers != blockers;

        /// Column classification, in increasing order of work.
        #[derive(Clone, Copy, PartialEq)]
        enum Col {
            Hit,
            Partial,
            Miss,
        }
        let classes: Vec<Col> = (0..n_rx)
            .map(|r| {
                let moved = !self.primed
                    || r >= stored
                    || self.poses[r].boresight != receivers[r].boresight
                    || self.poses[r].position.distance(receivers[r].position) > self.epsilon_m;
                if moved {
                    Col::Miss
                } else if blockers_changed {
                    Col::Partial
                } else {
                    Col::Hit
                }
            })
            .collect();

        // Recompute the dirty columns in parallel; each work item returns
        // the new LOS column (misses only) and occlusion column.
        let grid = &self.grid;
        let m = self.lambertian_m;
        let profile = self.optics.profile();
        let poses = &self.poses;
        let live = &self.live;
        // New LOS gains (misses only) plus the occlusion column.
        type DirtyCol = (Option<Vec<f64>>, Vec<bool>);
        let cols: Vec<Option<DirtyCol>> = pool.map_indexed(n_rx, |r| {
            match classes[r] {
                Col::Hit => None,
                Col::Partial => {
                    let _col = span.child_indexed("channel.update.col", r);
                    // Pose unchanged (within ε): keep the cached LOS gains,
                    // re-test occlusion against the pose they were computed
                    // for so gains and mask stay geometrically consistent.
                    // Only the live (nonzero-gain) links are re-tested: a
                    // dead link masks to the same exact zero either way and
                    // never counts as blocked.
                    let pose = poses[r];
                    let mut mask = vec![false; n_tx];
                    for &t in &live[r] {
                        let t = t as usize;
                        mask[t] = any_blocks(blockers, grid.pose(t).position, pose.position);
                    }
                    Some((None, mask))
                }
                Col::Miss => {
                    let _col = span.child_indexed("channel.update.col", r);
                    let pose = receivers[r];
                    let mut gains = Vec::with_capacity(n_tx);
                    for t in 0..n_tx {
                        gains.push(los_gain_profiled(&grid.pose(t), &pose, m, &profile));
                    }
                    // Occlusion only matters where the clear gain is
                    // nonzero; dead links keep a clear `false` mask.
                    let mask = gains
                        .iter()
                        .enumerate()
                        .map(|(t, &g)| {
                            g != 0.0 && any_blocks(blockers, grid.pose(t).position, pose.position)
                        })
                        .collect();
                    Some((Some(gains), mask))
                }
            }
        });

        // Scatter the recomputed columns into the row-major store.
        let mut hits = 0usize;
        let mut partials = 0usize;
        let mut misses = 0usize;
        for (r, col) in cols.into_iter().enumerate() {
            match (classes[r], col) {
                (Col::Hit, None) => hits += 1,
                (Col::Partial, Some((None, mask))) => {
                    partials += 1;
                    for (t, &blocked) in mask.iter().enumerate() {
                        self.blocked[t * n_rx + r] = blocked;
                    }
                }
                (Col::Miss, Some((Some(gains), mask))) => {
                    misses += 1;
                    self.poses[r] = receivers[r];
                    let mut col_live = Vec::new();
                    for (t, (&gain, &blocked)) in gains.iter().zip(mask.iter()).enumerate() {
                        self.clear[t * n_rx + r] = gain;
                        self.blocked[t * n_rx + r] = blocked;
                        if gain != 0.0 {
                            col_live.push(t as u32);
                        }
                    }
                    self.live[r] = col_live;
                }
                _ => unreachable!("column result matches its class"),
            }
        }
        self.blockers = blockers.to_vec();
        self.primed = true;

        let mut blocked_links = 0usize;
        let gains: Vec<f64> = self
            .clear
            .iter()
            .zip(self.blocked.iter())
            .map(|(&g, &b)| {
                if b {
                    if g > 0.0 {
                        blocked_links += 1;
                    }
                    0.0
                } else {
                    g
                }
            })
            .collect();

        if span.is_enabled() {
            span.attr("hits", &hits.to_string());
            span.attr("misses", &misses.to_string());
        }
        telemetry.counter("channel.cache.updates").inc();
        telemetry.counter("channel.cache.hit").add(hits as u64);
        telemetry
            .counter("channel.cache.partial")
            .add(partials as u64);
        telemetry.counter("channel.cache.miss").add(misses as u64);
        // FOV-culling effectiveness of this tick's occlusion re-tests:
        // live links were (or would be) tested, dead ones skipped.
        let live_links: usize = self.live.iter().map(Vec::len).sum();
        telemetry.counter(COUNTER_FOV_LIVE).add(live_links as u64);
        telemetry
            .counter(COUNTER_FOV_CULLED)
            .add((n_tx * n_rx - live_links) as u64);

        ChannelUpdate {
            matrix: ChannelMatrix::from_gains(n_tx, n_rx, gains),
            clear: ChannelMatrix::from_gains(n_tx, n_rx, self.clear.clone()),
            blocked_links,
            hits,
            partials,
            misses,
        }
    }

    /// Drops receiver column `idx`: its pose, clear gains, occlusion mask
    /// and live list. Later columns shift left, as `Vec::remove` does on
    /// the caller's receiver list, and keep their cached state, so the
    /// next [`Self::update`] on the shortened list recomputes nothing for
    /// them. An unprimed updater or an `idx` past the stored columns (a
    /// receiver never sounded) re-primes on the next update instead.
    pub fn remove_rx(&mut self, idx: usize) {
        let n_rx = self.poses.len();
        if !self.primed || idx >= n_rx {
            self.primed = false;
            return;
        }
        let n_tx = self.grid.len();
        remove_rx_column(&mut self.clear, n_tx, n_rx, idx);
        remove_rx_column(&mut self.blocked, n_tx, n_rx, idx);
        self.poses.remove(idx);
        self.live.remove(idx);
    }

    /// Widens the stored columns by one per entry of `appended`. The new
    /// columns are placeholders that the calling update recomputes as
    /// misses. Storage grows to the exact new size, never by doubling.
    fn append_receivers(&mut self, appended: &[Pose]) {
        let n_tx = self.grid.len();
        let old = self.poses.len();
        let n_rx = old + appended.len();
        append_rx_columns(&mut self.clear, n_tx, old, n_rx, 0.0);
        append_rx_columns(&mut self.blocked, n_tx, old, n_rx, false);
        self.poses.reserve_exact(appended.len());
        self.poses.extend_from_slice(appended);
        self.live.reserve_exact(appended.len());
        self.live.resize_with(n_rx, Vec::new);
    }

    /// The movement tolerance in meters.
    pub fn epsilon_m(&self) -> f64 {
        self.epsilon_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::Room;

    fn setup() -> (TxGrid, Vec<Pose>, RxOptics) {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        (grid, rxs, RxOptics::paper())
    }

    fn full(grid: &TxGrid, rxs: &[Pose], blockers: &[CylinderBlocker]) -> ChannelMatrix {
        ChannelMatrix::compute_with_blockage(
            grid,
            rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            blockers,
        )
    }

    #[test]
    fn first_update_is_all_misses_and_matches_full_build() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let u = up.update(&rxs, &[]);
        assert_eq!((u.hits, u.partials, u.misses), (0, 0, 4));
        assert_eq!(u.matrix, full(&grid, &rxs, &[]));
        assert_eq!(u.clear, u.matrix);
        assert_eq!(u.blocked_links, 0);
    }

    #[test]
    fn static_world_is_all_hits_and_identical() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let first = up.update(&rxs, &[]);
        let second = up.update(&rxs, &[]);
        assert_eq!((second.hits, second.partials, second.misses), (4, 0, 0));
        assert_eq!(second.matrix, first.matrix);
    }

    #[test]
    fn moving_one_receiver_recomputes_one_column() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update(&rxs, &[]);
        rxs[2] = Pose::face_up(1.0, 1.5, 0.8);
        let u = up.update(&rxs, &[]);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 1));
        assert_eq!(u.matrix, full(&grid, &rxs, &[]));
    }

    #[test]
    fn blocker_change_retests_masks_without_recomputing_gains() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update(&rxs, &[]);
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let u = up.update(&rxs, &blockers);
        assert_eq!((u.hits, u.partials, u.misses), (0, 4, 0));
        assert_eq!(u.matrix, full(&grid, &rxs, &blockers));
        assert!(u.blocked_links > 0);
        // The clear channel of the same tick is blockage-free.
        assert_eq!(u.clear, full(&grid, &rxs, &[]));
    }

    #[test]
    fn blocked_links_counts_against_same_tick_clear_gains() {
        // A receiver that moves *and* is occluded on the same tick must be
        // counted against its new clear gains, not a stale stored channel.
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update(&rxs, &[]);
        rxs[0] = Pose::face_up(1.2, 1.2, 0.8);
        let blockers = [CylinderBlocker::person(1.2, 1.2)];
        let u = up.update(&rxs, &blockers);
        let clear = full(&grid, &rxs, &[]);
        let masked = full(&grid, &rxs, &blockers);
        let expected = clear
            .iter()
            .filter(|&(t, r, g)| g > 0.0 && masked.gain(t, r) == 0.0)
            .count();
        assert_eq!(u.blocked_links, expected);
        assert!(u.blocked_links > 0);
    }

    #[test]
    fn epsilon_tolerates_sub_threshold_motion() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.05);
        let first = up.update(&rxs, &[]);
        rxs[1].position.x += 0.01; // 1 cm — under the 5 cm threshold
        let u = up.update(&rxs, &[]);
        assert_eq!((u.hits, u.partials, u.misses), (4, 0, 0));
        assert_eq!(u.matrix, first.matrix, "cached column retained under ε");
        rxs[1].position.x += 0.2; // now well past it
        let u = up.update(&rxs, &[]);
        assert_eq!(u.misses, 1);
        assert_eq!(u.matrix, full(&grid, &rxs, &[]));
    }

    #[test]
    fn receiver_count_change_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update(&rxs, &[]);
        rxs.pop();
        let u = up.update(&rxs, &[]);
        assert_eq!(u.misses, 3);
        assert_eq!(u.matrix, full(&grid, &rxs, &[]));
    }

    #[test]
    fn removed_and_appended_receivers_recompute_only_new_columns() {
        let (grid, mut rxs, optics) = setup();
        let blockers = [CylinderBlocker::person(1.65, 0.65)];
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update(&rxs, &blockers);
        up.remove_rx(1);
        rxs.remove(1);
        let u = up.update(&rxs, &blockers);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 0));
        assert_eq!(u.matrix, full(&grid, &rxs, &blockers));
        rxs.push(Pose::face_up(1.5, 1.5, 0.8));
        rxs.push(Pose::face_up(2.5, 0.5, 0.8));
        let u = up.update(&rxs, &blockers);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 2));
        assert_eq!(u.matrix, full(&grid, &rxs, &blockers));
        assert_eq!(u.clear, full(&grid, &rxs, &[]));
    }

    #[test]
    fn out_of_range_or_unprimed_remove_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.remove_rx(0);
        assert_eq!(up.update(&rxs, &[]).misses, 4);
        up.remove_rx(4);
        rxs.pop();
        let u = up.update(&rxs, &[]);
        assert_eq!(u.misses, 3);
        assert_eq!(u.matrix, full(&grid, &rxs, &[]));
    }

    #[test]
    fn telemetry_counts_hits_and_misses() {
        let (grid, mut rxs, optics) = setup();
        let registry = Registry::new();
        let pool = Pool::sequential();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        up.update_traced(&rxs, &[], &registry, &pool, &Span::noop());
        rxs[0] = Pose::face_up(1.4, 1.4, 0.8);
        up.update_traced(&rxs, &[], &registry, &pool, &Span::noop());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("channel.cache.updates"), Some(2));
        assert_eq!(snap.counter("channel.cache.miss"), Some(5));
        assert_eq!(snap.counter("channel.cache.hit"), Some(3));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_panics() {
        let (grid, _, optics) = setup();
        ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, -0.1);
    }
}
