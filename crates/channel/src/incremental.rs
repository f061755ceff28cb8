//! Dirty-column incremental updates of the [`ChannelMatrix`].
//!
//! The controller re-sounds the channel every adaptation period, but
//! between ticks most of the world is static: ceiling TXs never move, and
//! in a mobility run typically one receiver moves per tick while the rest
//! idle. [`ChannelUpdater`] exploits that: it remembers the per-RX poses
//! and blocker set of the previous update and recomputes only the matrix
//! *columns* whose receiver moved beyond `epsilon_m` (a **miss**) or whose
//! blockage geometry changed (a **partial** — the LOS gains are reused and
//! only the occlusion mask is re-tested); untouched columns are left as
//! they are (a **hit**).
//!
//! The caller owns the masked matrix it plans on and passes it to every
//! update; the updater writes the recomputed and re-masked columns into it
//! in place and reports whether any entry changed. The clear
//! (blockage-free) gains live in the updater
//! ([`ChannelUpdater::clear_channel`]). No update builds, clones or
//! compares a whole matrix.
//!
//! Columns follow the caller's receiver list. [`ChannelUpdater::remove_rx`]
//! drops one column in place from both the updater and the caller's matrix
//! (later columns shift left, as `Vec::remove` does on the roster), and
//! receivers appended after the stored ones are misses while every stored
//! column keeps its hit/partial/miss rule. So a roster that gains or loses
//! a receiver costs one column, not a rebuild. Any other change of the
//! receiver count, or a caller matrix whose shape does not match the
//! stored columns, re-primes every column.
//!
//! **Determinism contract:** matrix entries are pure per-pair functions
//! (no accumulation), so a recomputed column is bitwise identical to the
//! same column of a full [`ChannelMatrix::compute_with_blockage`] rebuild,
//! and a reused column is a previously recomputed one left in place.
//! With `epsilon_m == 0.0` the updater therefore produces **bitwise
//! identical** matrices to a cold rebuild on every tick, for any worker
//! count (property-tested in `tests/cache_identity.rs`). A positive
//! `epsilon_m` deliberately trades staleness (bounded by ε) for speed.

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::fov::{COUNTER_FOV_CULLED, COUNTER_FOV_LIVE};
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics};
use crate::matrix::{append_rx_columns, remove_rx_column, ChannelMatrix};
use std::mem;
use vlc_geom::{Pose, TxGrid};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// What one [`ChannelUpdater::update`] call did to the caller's matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelUpdate {
    /// Whether the masked matrix may differ from what the caller held
    /// before: a column was removed or appended since the last update, the
    /// layout re-primed, or a written entry changed (f64 `!=`). `false`
    /// means the matrix, and every column index in it, is as it was.
    pub changed: bool,
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

/// How much of a column one update must redo, in increasing order of work.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Col {
    Hit,
    Partial,
    Miss,
}

/// Per-column state for the incremental channel engine.
///
/// One updater tracks one deployment's TX grid and optics; feed it the
/// receiver poses and blockers of each tick via [`ChannelUpdater::update`]
/// and it brings the caller's masked matrix up to date while recomputing
/// only what changed.
#[derive(Debug, Clone)]
pub struct ChannelUpdater {
    grid: TxGrid,
    lambertian_m: f64,
    optics: RxOptics,
    epsilon_m: f64,
    /// Pose each column was last *computed* for (within ε of the true one).
    poses: Vec<Pose>,
    blockers: Vec<CylinderBlocker>,
    /// Clear LOS gains.
    clear: ChannelMatrix,
    /// Occlusion mask, row-major `n_tx × n_rx` (the matrix layout).
    blocked: Vec<bool>,
    /// Per-column count of occluded live links.
    col_blocked: Vec<usize>,
    /// Per-column ascending live-TX lists: the indices with nonzero clear
    /// gain, rebuilt whenever a column is recomputed. The partial path
    /// re-tests occlusion only for these links — a dead link masks to the
    /// same exact zero whether or not a blocker crosses it.
    live: Vec<Vec<u32>>,
    /// Per-column classification scratch, reused across updates.
    classes: Vec<Col>,
    primed: bool,
    /// A column was removed since the last update.
    removed: bool,
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
            clear: ChannelMatrix::from_gains(grid.len(), 0, Vec::new()),
            blocked: Vec::new(),
            col_blocked: Vec::new(),
            live: Vec::new(),
            classes: Vec::new(),
            primed: false,
            removed: false,
        }
    }

    /// Advances the world one tick, writing the masked channel into
    /// `channel` (the caller's copy, kept across updates) and fanning dirty
    /// columns out over `DENSEVLC_JOBS` workers.
    pub fn update(
        &mut self,
        receivers: &[Pose],
        blockers: &[CylinderBlocker],
        channel: &mut ChannelMatrix,
    ) -> ChannelUpdate {
        self.update_traced(
            receivers,
            blockers,
            channel,
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
        channel: &mut ChannelMatrix,
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
        // columns; any other count change, or a caller matrix that does not
        // hold the stored columns, invalidates the layout wholesale.
        let stored = self.poses.len();
        if channel.n_tx() != n_tx || channel.n_rx() != stored {
            self.primed = false;
        }
        let mut changed = self.removed || !self.primed;
        if self.primed && n_rx > stored {
            self.append_receivers(&receivers[stored..]);
            channel.append_rx(n_rx);
            changed = true;
        } else if n_rx != stored {
            self.primed = false;
        }
        if !self.primed {
            self.poses = receivers.to_vec();
            self.clear.reset_zeroed(n_tx, n_rx);
            self.blocked = vec![false; n_tx * n_rx];
            self.col_blocked = vec![0; n_rx];
            self.live = vec![Vec::new(); n_rx];
            channel.reset_zeroed(n_tx, n_rx);
        }
        let blockers_changed = !self.primed || self.blockers != blockers;

        let mut classes = mem::take(&mut self.classes);
        classes.clear();
        classes.extend((0..n_rx).map(|r| {
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
        }));

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

        // Scatter the recomputed columns into the row-major stores and
        // re-mask each into the caller's matrix, noting any entry that
        // changes. A partial column only re-masks its live links: a dead
        // link is an exact zero either way.
        let mut hits = 0usize;
        let mut partials = 0usize;
        let mut misses = 0usize;
        let clear = self.clear.gains_mut();
        let masked = channel.gains_mut();
        let mut write = |i: usize, gain: f64, blocked: bool| {
            let g = if blocked { 0.0 } else { gain };
            changed |= masked[i] != g;
            masked[i] = g;
        };
        for (r, col) in cols.into_iter().enumerate() {
            match (classes[r], col) {
                (Col::Hit, None) => hits += 1,
                (Col::Partial, Some((None, mask))) => {
                    partials += 1;
                    for (t, &blocked) in mask.iter().enumerate() {
                        self.blocked[t * n_rx + r] = blocked;
                    }
                    for &t in &self.live[r] {
                        let i = t as usize * n_rx + r;
                        write(i, clear[i], self.blocked[i]);
                    }
                    self.col_blocked[r] = mask.iter().filter(|&&b| b).count();
                }
                (Col::Miss, Some((Some(gains), mask))) => {
                    misses += 1;
                    self.poses[r] = receivers[r];
                    let col_live = &mut self.live[r];
                    col_live.clear();
                    col_live.reserve_exact(gains.iter().filter(|&&g| g != 0.0).count());
                    for (t, (&gain, &blocked)) in gains.iter().zip(mask.iter()).enumerate() {
                        let i = t * n_rx + r;
                        clear[i] = gain;
                        self.blocked[i] = blocked;
                        write(i, gain, blocked);
                        if gain != 0.0 {
                            col_live.push(t as u32);
                        }
                    }
                    self.col_blocked[r] = mask.iter().filter(|&&b| b).count();
                }
                _ => unreachable!("column result matches its class"),
            }
        }
        self.classes = classes;
        if blockers_changed {
            self.blockers.clear();
            self.blockers.extend_from_slice(blockers);
        }
        self.primed = true;
        self.removed = false;
        let blocked_links = self.col_blocked.iter().sum();

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
            changed,
            blocked_links,
            hits,
            partials,
            misses,
        }
    }

    /// Drops receiver column `idx`: its pose, clear gains, occlusion mask
    /// and live list, and the same column of the caller's masked
    /// `channel`, whose storage shrinks to the exact new size. Later
    /// columns shift left, as `Vec::remove` does on the caller's receiver
    /// list, and keep their cached state, so the next [`Self::update`] on
    /// the shortened list recomputes nothing for them (and reports
    /// `changed`). An unprimed updater, an `idx` past the stored columns (a
    /// receiver never sounded) or a `channel` that does not hold the stored
    /// columns re-primes on the next update instead.
    pub fn remove_rx(&mut self, idx: usize, channel: &mut ChannelMatrix) {
        let n_tx = self.grid.len();
        let n_rx = self.poses.len();
        if !self.primed || idx >= n_rx || channel.n_tx() != n_tx || channel.n_rx() != n_rx {
            self.primed = false;
            return;
        }
        self.clear.remove_rx(idx);
        remove_rx_column(&mut self.blocked, n_tx, n_rx, idx);
        self.col_blocked.remove(idx);
        self.poses.remove(idx);
        self.live.remove(idx);
        channel.remove_rx(idx);
        channel.shrink_to_fit();
        self.removed = true;
    }

    /// The clear (blockage-free) channel as of the last update: same
    /// receivers and tick as the caller's masked matrix.
    pub fn clear_channel(&self) -> &ChannelMatrix {
        &self.clear
    }

    /// Widens the stored columns by one per entry of `appended`. The new
    /// columns are placeholders that the calling update recomputes as
    /// misses. Storage grows to the exact new size, never by doubling.
    fn append_receivers(&mut self, appended: &[Pose]) {
        let n_tx = self.grid.len();
        let old = self.poses.len();
        let n_rx = old + appended.len();
        self.clear.append_rx(n_rx);
        append_rx_columns(&mut self.blocked, n_tx, old, n_rx, false);
        self.col_blocked.reserve_exact(appended.len());
        self.col_blocked.resize(n_rx, 0);
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

    /// An empty caller matrix: the first update re-primes it.
    fn empty(grid: &TxGrid) -> ChannelMatrix {
        ChannelMatrix::from_gains(grid.len(), 0, Vec::new())
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
        let mut h = empty(&grid);
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (0, 0, 4));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
        assert_eq!(up.clear_channel(), &h);
        assert_eq!(u.blocked_links, 0);
    }

    #[test]
    fn static_world_is_all_hits_and_identical() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        let first = h.clone();
        let second = up.update(&rxs, &[], &mut h);
        assert_eq!((second.hits, second.partials, second.misses), (4, 0, 0));
        assert!(!second.changed);
        assert_eq!(h, first);
    }

    #[test]
    fn moving_one_receiver_recomputes_one_column() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        rxs[2] = Pose::face_up(1.0, 1.5, 0.8);
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 1));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn blocker_change_retests_masks_without_recomputing_gains() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let u = up.update(&rxs, &blockers, &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (0, 4, 0));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &blockers));
        assert!(u.blocked_links > 0);
        // The clear channel of the same tick is blockage-free.
        assert_eq!(up.clear_channel(), &full(&grid, &rxs, &[]));
    }

    #[test]
    fn blocked_links_counts_against_same_tick_clear_gains() {
        // A receiver that moves *and* is occluded on the same tick must be
        // counted against its new clear gains, not a stale stored channel.
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        rxs[0] = Pose::face_up(1.2, 1.2, 0.8);
        let blockers = [CylinderBlocker::person(1.2, 1.2)];
        let u = up.update(&rxs, &blockers, &mut h);
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
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        let first = h.clone();
        rxs[1].position.x += 0.01; // 1 cm — under the 5 cm threshold
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (4, 0, 0));
        assert_eq!(h, first, "cached column retained under ε");
        rxs[1].position.x += 0.2; // now well past it
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!(u.misses, 1);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn receiver_count_change_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        rxs.pop();
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!(u.misses, 3);
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn removed_and_appended_receivers_recompute_only_new_columns() {
        let (grid, mut rxs, optics) = setup();
        let blockers = [CylinderBlocker::person(1.65, 0.65)];
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &blockers, &mut h);
        up.remove_rx(1, &mut h);
        rxs.remove(1);
        let u = up.update(&rxs, &blockers, &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 0));
        assert!(u.changed, "a removed column always reports a change");
        assert_eq!(h, full(&grid, &rxs, &blockers));
        rxs.push(Pose::face_up(1.5, 1.5, 0.8));
        rxs.push(Pose::face_up(2.5, 0.5, 0.8));
        let u = up.update(&rxs, &blockers, &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 2));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &blockers));
        assert_eq!(up.clear_channel(), &full(&grid, &rxs, &[]));
    }

    #[test]
    fn out_of_range_or_unprimed_remove_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.remove_rx(0, &mut h);
        assert_eq!(up.update(&rxs, &[], &mut h).misses, 4);
        up.remove_rx(4, &mut h);
        rxs.pop();
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!(u.misses, 3);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn remove_then_identical_append_still_reports_a_change() {
        // The roster swaps one receiver for another at the same pose: the
        // masked matrix comes out bitwise as before, but its columns now
        // belong to different receivers.
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        let before = h.clone();
        up.remove_rx(3, &mut h);
        let pose = rxs.pop().expect("four receivers");
        rxs.push(pose);
        let u = up.update(&rxs, &[], &mut h);
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 1));
        assert!(u.changed);
        assert_eq!(h, before);
        assert!(!up.update(&rxs, &[], &mut h).changed);
    }

    #[test]
    fn removal_shrinks_the_callers_matrix_to_exact_size() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h);
        up.remove_rx(0, &mut h);
        rxs.remove(0);
        assert_eq!((h.n_tx(), h.n_rx()), (grid.len(), 3));
        assert_eq!(h.capacity(), grid.len() * 3);
        up.update(&rxs, &[], &mut h);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn telemetry_counts_hits_and_misses() {
        let (grid, mut rxs, optics) = setup();
        let registry = Registry::new();
        let pool = Pool::sequential();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics, 0.0);
        let mut h = empty(&grid);
        up.update_traced(&rxs, &[], &mut h, &registry, &pool, &Span::noop());
        rxs[0] = Pose::face_up(1.4, 1.4, 0.8);
        up.update_traced(&rxs, &[], &mut h, &registry, &pool, &Span::noop());
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
