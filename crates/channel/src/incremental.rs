//! Dirty-column incremental updates of the [`ChannelMatrix`].
//!
//! The controller re-sounds the channel every adaptation period, but
//! between ticks most of the world is static: ceiling TXs never move, and
//! in a mobility run typically one receiver moves per tick while the rest
//! idle. [`ChannelUpdater`] exploits that: it remembers the per-RX poses
//! and blocker set of the previous update and recomputes only the matrix
//! *columns* whose receiver moved (a **miss**) or whose blockage geometry
//! changed (a **partial** — the LOS gains are reused and only the
//! occlusion mask is re-tested); untouched columns are left as they are
//! (a **hit**).
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
//! same column of a full [`ChannelMatrix::compute`] rebuild,
//! and a reused column is a previously recomputed one left in place.
//! The updater therefore produces **bitwise identical** matrices to a
//! cold rebuild on every tick (property-tested in `tests/cache_identity.rs`).
//!
//! An update runs on the calling thread. A column is a few microseconds
//! of work, too little to pay for handing it to a worker, and a building
//! already runs one updater per shard on its own worker.

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics, RxProfile};
use crate::matrix::ChannelMatrix;
use vlc_geom::{Pose, TxGrid};
use vlc_trace::Probe;

/// Telemetry counter: links with nonzero clear gain that the updater
/// holds after an update, summed over updates.
pub const COUNTER_FOV_LIVE: &str = "channel.fov.live";
/// Telemetry counter: links with zero clear gain that the updater holds
/// after an update, summed over updates.
pub const COUNTER_FOV_CULLED: &str = "channel.fov.culled";

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
    /// Columns fully recomputed (receiver moved, or first use).
    pub misses: usize,
}

/// One receiver column's cached state.
#[derive(Debug, Clone)]
struct Column {
    /// The pose the column was last computed for.
    pose: Pose,
    /// Ascending live-TX list: the indices with nonzero clear gain, rebuilt
    /// whenever the column is recomputed. The partial path re-tests
    /// occlusion only for these links — a dead link masks to the same exact
    /// zero whether or not a blocker crosses it.
    live: Vec<u32>,
    /// Occluded live links.
    occluded: usize,
}

impl Column {
    /// A column for `pose` that the calling update recomputes.
    fn new(pose: Pose) -> Self {
        Column {
            pose,
            live: Vec::new(),
            occluded: 0,
        }
    }
}

/// Stores one masked entry (zero when `blocked`) and reports whether it
/// changed.
fn store_masked(entry: &mut f64, gain: f64, blocked: bool) -> bool {
    let g = if blocked { 0.0 } else { gain };
    let changed = *entry != g;
    *entry = g;
    changed
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
    /// The receiver optics' kernel constants, derived once (the FOV
    /// threshold is a bisection).
    profile: RxProfile,
    /// One entry per receiver column.
    cols: Vec<Column>,
    blockers: Vec<CylinderBlocker>,
    /// Clear LOS gains.
    clear: ChannelMatrix,
    primed: bool,
    /// A column was removed since the last update.
    removed: bool,
}

impl ChannelUpdater {
    /// Creates an unprimed updater: the first [`Self::update`] recomputes
    /// every column (all misses). Afterwards any change of a receiver's
    /// pose recomputes its column.
    pub fn new(grid: &TxGrid, half_power_semi_angle: f64, optics: &RxOptics) -> Self {
        ChannelUpdater {
            grid: grid.clone(),
            lambertian_m: lambertian_order(half_power_semi_angle),
            profile: optics.profile(),
            cols: Vec::new(),
            blockers: Vec::new(),
            clear: ChannelMatrix::from_gains(grid.len(), 0, Vec::new()),
            primed: false,
            removed: false,
        }
    }

    /// Advances the world one tick, writing the masked channel into
    /// `channel` (the caller's copy, kept across updates). Records a
    /// `channel.update` span under `probe.span` with one
    /// `channel.update.col` child per *recomputed* column (indexed by RX,
    /// so the span tree depends only on what changed), and bumps the
    /// `channel.cache.hit` / `channel.cache.partial` / `channel.cache.miss`
    /// counters. Dirty columns are computed straight into the stored clear
    /// gains and the caller's matrix, so an update that keeps the receiver
    /// count allocates nothing once warm.
    pub fn update(
        &mut self,
        receivers: &[Pose],
        blockers: &[CylinderBlocker],
        channel: &mut ChannelMatrix,
        probe: Probe<'_>,
    ) -> ChannelUpdate {
        let (telemetry, parent) = (probe.telemetry, probe.span);
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
        let stored = self.cols.len();
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
            self.cols.clear();
            self.cols.reserve_exact(n_rx);
            self.cols
                .extend(receivers.iter().map(|&pose| Column::new(pose)));
            self.clear.reset_zeroed(n_tx, n_rx);
            channel.reset_zeroed(n_tx, n_rx);
        }
        let blockers_changed = !self.primed || self.blockers != blockers;

        // Each column is a hit (left as it is), a partial (pose unchanged,
        // blockers changed: re-mask the live links) or a miss (recomputed).
        let (mut hits, mut partials, mut misses) = (0, 0, 0);
        let grid = &self.grid;
        let m = self.lambertian_m;
        let profile = &self.profile;
        let clear = self.clear.gains_mut();
        let masked = channel.gains_mut();
        for (r, (col, pose)) in self.cols.iter_mut().zip(receivers).enumerate() {
            let moved = !self.primed
                || r >= stored
                || col.pose.boresight != pose.boresight
                || col.pose.position.distance(pose.position) > 0.0;
            if moved {
                misses += 1;
                let _col = span.child_indexed("channel.update.col", r);
                // Occlusion only matters where the clear gain is nonzero;
                // dead links are never blocked.
                let (mut n_live, mut occluded) = (0, 0);
                for t in 0..n_tx {
                    let i = t * n_rx + r;
                    let tx = grid.pose(t);
                    let g = los_gain_profiled(&tx, pose, m, profile);
                    let blocked = g != 0.0 && any_blocks(blockers, tx.position, pose.position);
                    clear[i] = g;
                    changed |= store_masked(&mut masked[i], g, blocked);
                    n_live += usize::from(g != 0.0);
                    occluded += usize::from(blocked);
                }
                col.live.clear();
                col.live.reserve_exact(n_live);
                col.live
                    .extend((0..n_tx as u32).filter(|&t| clear[t as usize * n_rx + r] != 0.0));
                col.pose = *pose;
                col.occluded = occluded;
            } else if blockers_changed {
                partials += 1;
                let _col = span.child_indexed("channel.update.col", r);
                // Pose unchanged: keep the cached LOS gains and re-test
                // occlusion against the pose they were computed for, so
                // gains and mask stay geometrically consistent.
                col.occluded = 0;
                for &t in &col.live {
                    let i = t as usize * n_rx + r;
                    let tx = grid.pose(t as usize).position;
                    let blocked = any_blocks(blockers, tx, col.pose.position);
                    changed |= store_masked(&mut masked[i], clear[i], blocked);
                    col.occluded += usize::from(blocked);
                }
            } else {
                hits += 1;
            }
        }
        if blockers_changed {
            self.blockers.clear();
            self.blockers.extend_from_slice(blockers);
        }
        self.primed = true;
        self.removed = false;
        let blocked_links = self.cols.iter().map(|c| c.occluded).sum();

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
        // Links with nonzero clear gain (the ones a blocker change
        // re-tests) and the exact zeros it skips.
        let live_links: usize = self.cols.iter().map(|c| c.live.len()).sum();
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

    /// Drops receiver column `idx`: its pose, clear gains and live list,
    /// and the same column of the caller's masked `channel`, whose storage
    /// shrinks to the exact new size. Later columns shift left, as
    /// `Vec::remove` does on the caller's receiver list, and keep their
    /// cached state, so the next [`Self::update`] on the shortened list
    /// recomputes nothing for them (and reports `changed`). An unprimed
    /// updater, an `idx` past the stored columns (a receiver never
    /// sounded) or a `channel` that does not hold the stored columns
    /// re-primes on the next update instead.
    pub fn remove_rx(&mut self, idx: usize, channel: &mut ChannelMatrix) {
        let n_tx = self.grid.len();
        let n_rx = self.cols.len();
        if !self.primed || idx >= n_rx || channel.n_tx() != n_tx || channel.n_rx() != n_rx {
            self.primed = false;
            return;
        }
        self.clear.remove_rx(idx);
        self.cols.remove(idx);
        channel.remove_rx(idx);
        // One `realloc` per departure or handover, which a later arrival
        // may grow back; kept on purpose. Without it every shard holds its
        // peak column storage, and `peak_heap_mb` rises 3.6 % on
        // `building-crowd` (3.275 → 3.394 MB) and 9.0 % on `building-sparse`
        // (3.247 → 3.540 MB), near the benchmark's 10 % bound.
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
        self.clear.append_rx(self.cols.len() + appended.len());
        self.cols.reserve_exact(appended.len());
        self.cols
            .extend(appended.iter().map(|&pose| Column::new(pose)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::Room;
    use vlc_telemetry::Registry;

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
        ChannelMatrix::compute(
            grid,
            rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            blockers,
            Probe::off(),
        )
    }

    #[test]
    fn first_update_is_all_misses_and_matches_full_build() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        let u = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!((u.hits, u.partials, u.misses), (0, 0, 4));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
        assert_eq!(up.clear_channel(), &h);
        assert_eq!(u.blocked_links, 0);
    }

    #[test]
    fn static_world_is_all_hits_and_identical() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        let first = h.clone();
        let second = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!((second.hits, second.partials, second.misses), (4, 0, 0));
        assert!(!second.changed);
        assert_eq!(h, first);
    }

    #[test]
    fn moving_one_receiver_recomputes_one_column() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        rxs[2] = Pose::face_up(1.0, 1.5, 0.8);
        let u = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 1));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn blocker_change_retests_masks_without_recomputing_gains() {
        let (grid, rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let u = up.update(&rxs, &blockers, &mut h, Probe::off());
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        rxs[0] = Pose::face_up(1.2, 1.2, 0.8);
        let blockers = [CylinderBlocker::person(1.2, 1.2)];
        let u = up.update(&rxs, &blockers, &mut h, Probe::off());
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
    fn receiver_count_change_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        rxs.pop();
        let u = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!(u.misses, 3);
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn removed_and_appended_receivers_recompute_only_new_columns() {
        let (grid, mut rxs, optics) = setup();
        let blockers = [CylinderBlocker::person(1.65, 0.65)];
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &blockers, &mut h, Probe::off());
        up.remove_rx(1, &mut h);
        rxs.remove(1);
        let u = up.update(&rxs, &blockers, &mut h, Probe::off());
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 0));
        assert!(u.changed, "a removed column always reports a change");
        assert_eq!(h, full(&grid, &rxs, &blockers));
        rxs.push(Pose::face_up(1.5, 1.5, 0.8));
        rxs.push(Pose::face_up(2.5, 0.5, 0.8));
        let u = up.update(&rxs, &blockers, &mut h, Probe::off());
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 2));
        assert!(u.changed);
        assert_eq!(h, full(&grid, &rxs, &blockers));
        assert_eq!(up.clear_channel(), &full(&grid, &rxs, &[]));
    }

    #[test]
    fn out_of_range_or_unprimed_remove_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.remove_rx(0, &mut h);
        assert_eq!(up.update(&rxs, &[], &mut h, Probe::off()).misses, 4);
        up.remove_rx(4, &mut h);
        rxs.pop();
        let u = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!(u.misses, 3);
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn remove_then_identical_append_still_reports_a_change() {
        // The roster swaps one receiver for another at the same pose: the
        // masked matrix comes out bitwise as before, but its columns now
        // belong to different receivers.
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        let before = h.clone();
        up.remove_rx(3, &mut h);
        let pose = rxs.pop().expect("four receivers");
        rxs.push(pose);
        let u = up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!((u.hits, u.partials, u.misses), (3, 0, 1));
        assert!(u.changed);
        assert_eq!(h, before);
        assert!(!up.update(&rxs, &[], &mut h, Probe::off()).changed);
    }

    #[test]
    fn removal_shrinks_the_callers_matrix_to_exact_size() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        up.update(&rxs, &[], &mut h, Probe::off());
        up.remove_rx(0, &mut h);
        rxs.remove(0);
        assert_eq!((h.n_tx(), h.n_rx()), (grid.len(), 3));
        assert_eq!(h.capacity(), grid.len() * 3);
        up.update(&rxs, &[], &mut h, Probe::off());
        assert_eq!(h, full(&grid, &rxs, &[]));
    }

    #[test]
    fn telemetry_counts_hits_and_misses() {
        let (grid, mut rxs, optics) = setup();
        let registry = Registry::new();
        // After each update, `channel.fov.live` grows by the nonzero clear
        // gains the updater holds and `live + culled` by `n_tx · n_rx`.
        let fov_delta = |before: (u64, u64)| {
            let snap = registry.snapshot();
            let live = snap.counter(COUNTER_FOV_LIVE).unwrap_or(0);
            let culled = snap.counter(COUNTER_FOV_CULLED).unwrap_or(0);
            ((live, culled), (live - before.0, culled - before.1))
        };
        let nonzero = |up: &ChannelUpdater| {
            up.clear_channel()
                .iter()
                .filter(|&(_, _, g)| g != 0.0)
                .count() as u64
        };
        let links = (grid.len() * rxs.len()) as u64;
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
        let mut h = empty(&grid);
        let mut fov = (0, 0);
        up.update(
            &rxs,
            &[],
            &mut h,
            Probe {
                telemetry: &registry,
                ..Probe::off()
            },
        );
        let (now, (live, culled)) = fov_delta(fov);
        assert_eq!((live, live + culled), (nonzero(&up), links));
        fov = now;
        rxs[0] = Pose::face_up(1.4, 1.4, 0.8);
        up.update(
            &rxs,
            &[],
            &mut h,
            Probe {
                telemetry: &registry,
                ..Probe::off()
            },
        );
        let (now, (live, culled)) = fov_delta(fov);
        assert_eq!((live, live + culled), (nonzero(&up), links));
        fov = now;
        let snap = registry.snapshot();
        assert_eq!(snap.counter("channel.cache.updates"), Some(2));
        assert_eq!(snap.counter("channel.cache.miss"), Some(5));
        assert_eq!(snap.counter("channel.cache.hit"), Some(3));

        // A 30° receiver FOV zeroes the far links, so `culled` is nonzero;
        // the split still follows the clear gains across a blocker change.
        let narrow = RxOptics {
            fov_half_angle: 30f64.to_radians(),
            ..optics
        };
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &narrow);
        let mut h = empty(&grid);
        for blockers in [vec![], vec![CylinderBlocker::person(0.92, 0.92)]] {
            up.update(
                &rxs,
                &blockers,
                &mut h,
                Probe {
                    telemetry: &registry,
                    ..Probe::off()
                },
            );
            let (now, (live, culled)) = fov_delta(fov);
            assert!(culled > 0, "a 30° FOV zeroes some links");
            assert_eq!((live, live + culled), (nonzero(&up), links));
            fov = now;
        }
    }
}
