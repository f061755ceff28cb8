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
//! same column of a full [`ChannelMatrix::compute_with_blockage`] rebuild,
//! and a reused column is a previously recomputed one left in place.
//! The updater therefore produces **bitwise identical** matrices to a
//! cold rebuild on every tick, for any worker count (property-tested in
//! `tests/cache_identity.rs`).

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics, RxProfile};
use crate::matrix::ChannelMatrix;
use std::mem;
use std::sync::Mutex;
use vlc_geom::{Pose, TxGrid};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

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

/// What one update redoes for a dirty column; every other column is a
/// hit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Redo {
    /// Re-test the occlusion of the live links; keep the LOS gains.
    Partial,
    /// Recompute the column.
    Miss,
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

/// One lane's column buffer: the miss path's LOS gains, the partial path's
/// copy of the live-TX list, and the occluded TXs (ascending) of either.
/// Each holds at most `n_tx` entries and keeps its capacity across updates.
#[derive(Debug, Default)]
struct ColumnBuf {
    gains: Vec<f64>,
    live: Vec<u32>,
    occluded: Vec<u32>,
}

/// The per-lane column buffers. Their contents never outlive an update, so
/// a clone starts with none.
#[derive(Debug, Default)]
struct Lanes(Vec<Mutex<ColumnBuf>>);

impl Clone for Lanes {
    fn clone(&self) -> Self {
        Lanes::default()
    }
}

impl Lanes {
    /// Grows to at least `n` lanes, to the exact size.
    fn ensure(&mut self, n: usize) {
        if self.0.len() < n {
            self.0.reserve_exact(n - self.0.len());
            self.0.resize_with(n, Mutex::default);
        }
    }
}

/// The updater's columns and clear gains and the caller's masked matrix,
/// borrowed for one update; lanes write their columns through it one at a
/// time.
struct Scatter<'a> {
    n_rx: usize,
    cols: &'a mut [Column],
    clear: &'a mut [f64],
    masked: &'a mut [f64],
    changed: bool,
    partials: usize,
    misses: usize,
}

impl Scatter<'_> {
    /// Writes one masked entry, noting whether it changed.
    fn write(&mut self, i: usize, gain: f64, occluded: bool) {
        let g = if occluded { 0.0 } else { gain };
        self.changed |= self.masked[i] != g;
        self.masked[i] = g;
    }

    /// Copies column `r`'s live-TX list into `out` and returns the pose its
    /// gains were computed for.
    fn read_live(&self, r: usize, out: &mut Vec<u32>) -> Pose {
        out.clear();
        out.extend_from_slice(&self.cols[r].live);
        self.cols[r].pose
    }

    /// A partial: re-masks column `r`'s live links, of which `occluded`
    /// (an ascending subset) are blocked. Dead links stay exact zeros.
    fn partial(&mut self, r: usize, occluded: &[u32]) {
        self.partials += 1;
        let live = mem::take(&mut self.cols[r].live);
        let mut next = occluded.iter().peekable();
        for &t in &live {
            let i = t as usize * self.n_rx + r;
            self.write(i, self.clear[i], next.next_if_eq(&&t).is_some());
        }
        let col = &mut self.cols[r];
        col.live = live;
        col.occluded = occluded.len();
    }

    /// A miss: stores column `r`'s new pose, clear gains and live list,
    /// and masks it into the caller's matrix, blocking the `occluded` TXs
    /// (ascending).
    fn miss(&mut self, r: usize, pose: Pose, gains: &[f64], occluded: &[u32]) {
        self.misses += 1;
        let mut live = mem::take(&mut self.cols[r].live);
        live.clear();
        live.reserve_exact(gains.iter().filter(|&&g| g != 0.0).count());
        let mut next = occluded.iter().peekable();
        for (t, &gain) in gains.iter().enumerate() {
            let i = t * self.n_rx + r;
            self.clear[i] = gain;
            self.write(i, gain, next.next_if_eq(&&(t as u32)).is_some());
            if gain != 0.0 {
                live.push(t as u32);
            }
        }
        self.cols[r] = Column {
            pose,
            live,
            occluded: occluded.len(),
        };
    }
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
    /// The current update's dirty columns, reused across updates.
    dirty: Vec<(usize, Redo)>,
    /// One column buffer per worker lane, reused across updates.
    lanes: Lanes,
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
            dirty: Vec::new(),
            lanes: Lanes::default(),
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
    /// `channel.cache.miss` counters. Dirty columns are computed into
    /// buffers the updater keeps (one per worker lane), so an update that
    /// keeps the receiver count allocates nothing once warm.
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

        let mut dirty = mem::take(&mut self.dirty);
        dirty.clear();
        dirty.reserve_exact(n_rx);
        dirty.extend(
            self.cols
                .iter()
                .zip(receivers)
                .enumerate()
                .filter_map(|(r, (col, rx))| {
                    let moved = !self.primed
                        || r >= stored
                        || col.pose.boresight != rx.boresight
                        || col.pose.position.distance(rx.position) > 0.0;
                    if moved {
                        Some((r, Redo::Miss))
                    } else if blockers_changed {
                        Some((r, Redo::Partial))
                    } else {
                        None
                    }
                }),
        );
        let hits = n_rx - dirty.len();

        // Recompute the dirty columns on up to one lane per worker: lane `k`
        // takes dirty columns `k`, `k + lanes`, …, computes each into its
        // own buffer and writes it into the stores under the scatter lock.
        // Columns are disjoint and `changed` is an OR, so the stores come
        // out the same whichever lane writes first.
        let n_lanes = pool.jobs().get().min(dirty.len());
        self.lanes.ensure(n_lanes);
        let scatter = Mutex::new(Scatter {
            n_rx,
            cols: &mut self.cols,
            clear: self.clear.gains_mut(),
            masked: channel.gains_mut(),
            changed,
            partials: 0,
            misses: 0,
        });
        let store = || scatter.lock().expect("a column write never panics");
        let grid = &self.grid;
        let m = self.lambertian_m;
        let profile = &self.profile;
        let lanes = &self.lanes.0;
        pool.map_indexed(n_lanes, |lane| {
            let mut buf = lanes[lane].lock().expect("each lane is one item");
            let ColumnBuf {
                gains,
                live,
                occluded,
            } = &mut *buf;
            for &(r, redo) in dirty[lane..].iter().step_by(n_lanes) {
                let _col = span.child_indexed("channel.update.col", r);
                occluded.clear();
                match redo {
                    Redo::Partial => {
                        // Pose unchanged: keep the cached LOS gains and
                        // re-test occlusion against the pose they were
                        // computed for, so gains and mask stay
                        // geometrically consistent.
                        let pose = store().read_live(r, live);
                        for &t in live.iter() {
                            let tx = grid.pose(t as usize).position;
                            if any_blocks(blockers, tx, pose.position) {
                                occluded.push(t);
                            }
                        }
                        store().partial(r, occluded);
                    }
                    Redo::Miss => {
                        // Occlusion only matters where the clear gain is
                        // nonzero; dead links are never blocked.
                        let pose = receivers[r];
                        gains.clear();
                        gains.reserve_exact(n_tx);
                        for t in 0..n_tx {
                            let tx = grid.pose(t);
                            let g = los_gain_profiled(&tx, &pose, m, profile);
                            gains.push(g);
                            if g != 0.0 && any_blocks(blockers, tx.position, pose.position) {
                                occluded.push(t as u32);
                            }
                        }
                        store().miss(r, pose, gains, occluded);
                    }
                }
            }
        });
        let Scatter {
            changed,
            partials,
            misses,
            ..
        } = scatter.into_inner().expect("a column write never panics");
        self.dirty = dirty;
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
    fn receiver_count_change_reprimes() {
        let (grid, mut rxs, optics) = setup();
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        let mut up = ChannelUpdater::new(&grid, 15f64.to_radians(), &optics);
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
        up.update_traced(&rxs, &[], &mut h, &registry, &pool, &Span::noop());
        let (now, (live, culled)) = fov_delta(fov);
        assert_eq!((live, live + culled), (nonzero(&up), links));
        fov = now;
        rxs[0] = Pose::face_up(1.4, 1.4, 0.8);
        up.update_traced(&rxs, &[], &mut h, &registry, &pool, &Span::noop());
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
            up.update_traced(&rxs, &blockers, &mut h, &registry, &pool, &Span::noop());
            let (now, (live, culled)) = fov_delta(fov);
            assert!(culled > 0, "a 30° FOV zeroes some links");
            assert_eq!((live, live + culled), (nonzero(&up), links));
            fov = now;
        }
    }
}
