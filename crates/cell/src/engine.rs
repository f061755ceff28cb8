//! The building coordinator: session placement, handover, and batched
//! dirty-shard replans.
//!
//! [`BuildingEngine`] is an event-driven control plane. Between control
//! ticks the caller feeds it [`Command`]s (arrive / move / leave, in
//! global building coordinates); each command is O(roster lookup) and
//! marks the touched shard(s) dirty. [`BuildingEngine::control_tick`]
//! then batches every dirty shard's replan through **one** caller-owned
//! `vlc-par` pool — untouched shards are not visited at all, so a tick
//! that touches `k` of `N` shards costs O(k · replan), and a tick that
//! touches nothing is O(1) and allocation-free (proven by
//! `tests/zero_alloc_tick.rs`). The shards live in one shared slice, a
//! lock each, with the tick's dirty list beside them. On a multi-worker
//! pool the tick hands that slice to the pool's resident workers through
//! [`Pool::map_owned`]: each worker locks the dirty shards it claims, in
//! place, and leaves each replan's outcome in its shard for the tick to
//! fold. The hand-off moves nothing and allocates nothing, and it reaches
//! helpers that are still awake from the previous tick instead of
//! spawning new ones. Outside a tick the engine holds the only handle on
//! the slice, so commands reach their shards without taking a lock.
//!
//! Determinism: dirty shards are replanned in ascending cell order, each
//! under a `cell.replan` span indexed by its position in that order, and
//! the building throughput is folded by delta in the same order — so
//! timelines, obs streams, and metrics derived from tick reports are
//! bitwise identical for any `DENSEVLC_JOBS` (workers race only over
//! *disjoint* shards, and reduction order is fixed).
//!
//! A cross-cell move is a **beamspot handover**: the source shard exports
//! the session's current allocation column, and the destination shard
//! uses it to warm-start its next solve (optimal policy; the heuristic
//! planner is a pure function of the channel and ignores seeds, which is
//! what the handover identity test relies on).

use crate::building::BuildingMap;
use crate::shard::{CellShard, SessionId};
use crate::BuildingConfig;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, PoisonError, RwLock};
use vlc_geom::Pose;
use vlc_par::Pool;
use vlc_telemetry::{Counter, Gauge, Histogram, Registry};
use vlc_trace::Span;

/// A session event, in global building coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// A new session appears at `(x, y)`.
    Arrive {
        /// Building-unique session id.
        session: SessionId,
        /// Global X, metres.
        x: f64,
        /// Global Y, metres.
        y: f64,
    },
    /// An existing session moves to `(x, y)` (possibly crossing rooms).
    Move {
        /// The moving session.
        session: SessionId,
        /// Global X, metres.
        x: f64,
        /// Global Y, metres.
        y: f64,
    },
    /// A session ends.
    Leave {
        /// The departing session.
        session: SessionId,
    },
}

/// What one control tick did — the engine's obs/timeline surface.
/// Everything here is a pure function of the command stream, never of
/// worker scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickReport {
    /// The tick index (from 0).
    pub tick: u64,
    /// Commands applied since the previous tick.
    pub events: u64,
    /// Arrivals among them.
    pub arrivals: u64,
    /// Departures among them.
    pub departures: u64,
    /// Moves among them (within-room and cross-room).
    pub moves: u64,
    /// Cross-room moves (beamspot handovers).
    pub handovers: u64,
    /// Shards visited this tick.
    pub dirty_shards: u64,
    /// Visited shards that actually recomputed a plan.
    pub replans: u64,
    /// Visited shards whose channel was bitwise unchanged, so the previous
    /// plan stood.
    pub plan_hits: u64,
    /// Live sessions after the tick.
    pub sessions: u64,
    /// Building throughput under the current plans, bit/s.
    pub system_bps: f64,
}

/// Pre-resolved metric handles so the steady-state tick path performs no
/// name lookups (and therefore no allocations) against a live registry.
struct CellMetrics {
    ticks: Counter,
    events: Counter,
    arrivals: Counter,
    departures: Counter,
    moves: Counter,
    handovers: Counter,
    dirty_shards: Counter,
    replans: Counter,
    plan_hits: Counter,
    commands_ignored: Counter,
    sessions: Gauge,
    system_bps: Gauge,
    tick_s: Histogram,
}

impl CellMetrics {
    fn new(registry: &Registry) -> Self {
        CellMetrics {
            ticks: registry.counter("cell.ticks"),
            events: registry.counter("cell.events"),
            arrivals: registry.counter("cell.arrivals"),
            departures: registry.counter("cell.departures"),
            moves: registry.counter("cell.moves"),
            handovers: registry.counter("cell.handovers"),
            dirty_shards: registry.counter("cell.dirty_shards"),
            replans: registry.counter("cell.replans"),
            plan_hits: registry.counter("cell.plan.hits"),
            commands_ignored: registry.counter("cell.commands_ignored"),
            sessions: registry.gauge("cell.sessions"),
            system_bps: registry.gauge("cell.system_bps"),
            tick_s: registry.histogram("cell.tick_s"),
        }
    }
}

/// What a fanned-out tick shares with the pool's workers.
struct Cells {
    /// One shard per cell. Only a tick's workers take the write lock; a
    /// lock is poisoned only by a panicking replan, and its shard stays
    /// in use as the panic left it.
    shards: Box<[RwLock<CellShard>]>,
    /// Cells dirtied since the last tick (unsorted until the tick sorts
    /// it; deduped via the per-shard flag). Capacity persists across
    /// ticks.
    dirty: Vec<usize>,
}

impl Cells {
    fn shard_mut(&mut self, cell: usize) -> &mut CellShard {
        unpoisoned(self.shards[cell].get_mut())
    }

    fn mark_dirty(&mut self, cell: usize) {
        let shard = self.shard_mut(cell);
        if !shard.dirty {
            shard.dirty = true;
            self.dirty.push(cell);
        }
    }
}

/// Exclusive access to the cells. A tick's workers drop their handles
/// before `Pool::map_owned` returns, so the engine's is the only one
/// whenever it holds `&mut self`.
fn cells_mut(cells: &mut Arc<Cells>) -> &mut Cells {
    Arc::get_mut(cells).expect("a tick's workers release the cells before it returns")
}

/// A shard's guard or contents, poisoned or not (see [`Cells::shards`]).
fn unpoisoned<T>(shard: Result<T, PoisonError<T>>) -> T {
    shard.unwrap_or_else(PoisonError::into_inner)
}

/// The sharded multi-cell engine. See the module docs.
pub struct BuildingEngine {
    map: BuildingMap,
    rx_height: f64,
    cells: Arc<Cells>,
    /// session → owning cell. Never iterated, so hash order is moot.
    locations: HashMap<SessionId, usize>,
    tick: u64,
    sum_bps: f64,
    metrics: CellMetrics,
    telemetry: Registry,
    // Per-tick event tallies, reset by `control_tick`.
    pend_events: u64,
    pend_arrivals: u64,
    pend_departures: u64,
    pend_moves: u64,
    pend_handovers: u64,
}

impl BuildingEngine {
    /// Builds an engine with one empty shard per room.
    ///
    /// Metric handles are resolved against `registry` once, here; pass
    /// the same registry (or `Registry::noop()`) that the driving loop
    /// snapshots at the end.
    pub fn new(config: &BuildingConfig, registry: &Registry) -> Self {
        let map = config.map();
        let shards = (0..map.cells())
            .map(|cell| {
                RwLock::new(CellShard::new(
                    cell,
                    &config.grid,
                    config.half_power_semi_angle,
                    &config.optics,
                    config.noise,
                    config.budget_w,
                    config.policy.clone(),
                    config.record_timelines,
                ))
            })
            .collect();
        BuildingEngine {
            map,
            rx_height: config.rx_height,
            cells: Arc::new(Cells {
                shards,
                dirty: Vec::new(),
            }),
            locations: HashMap::new(),
            tick: 0,
            sum_bps: 0.0,
            metrics: CellMetrics::new(registry),
            telemetry: registry.clone(),
            pend_events: 0,
            pend_arrivals: 0,
            pend_departures: 0,
            pend_moves: 0,
            pend_handovers: 0,
        }
    }

    /// The building layout.
    pub fn map(&self) -> &BuildingMap {
        &self.map
    }

    /// The shard owning `cell` (timelines, rosters, allocations), behind
    /// a read guard that never waits: only a tick, which borrows the
    /// engine mutably, writes to a shard.
    pub fn shard(&self, cell: usize) -> impl Deref<Target = CellShard> + '_ {
        unpoisoned(self.cells.shards[cell].read())
    }

    /// Live sessions across the building.
    pub fn sessions(&self) -> u64 {
        self.locations.len() as u64
    }

    /// Building throughput under the current plans, bit/s.
    pub fn system_bps(&self) -> f64 {
        self.sum_bps
    }

    /// Control ticks run so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The cell a session currently lives in.
    pub fn locate(&self, session: SessionId) -> Option<usize> {
        self.locations.get(&session).copied()
    }

    /// Applies one session event. Commands that cannot apply are ignored
    /// and counted in `cell.commands_ignored`: `Move`/`Leave` for an
    /// unknown session, a duplicate `Arrive`, and any command with a
    /// non-finite coordinate (which would otherwise put a NaN pose into a
    /// shard's channel and solver).
    pub fn apply(&mut self, cmd: &Command) {
        self.pend_events += 1;
        if !self.try_apply(cmd) {
            self.metrics.commands_ignored.inc();
        }
    }

    /// [`Self::apply`] minus the ignore counter: `false` when the command
    /// was ignored.
    fn try_apply(&mut self, cmd: &Command) -> bool {
        let cells = cells_mut(&mut self.cells);
        match *cmd {
            Command::Arrive { session, x, y } => {
                if !(x.is_finite() && y.is_finite()) || self.locations.contains_key(&session) {
                    return false;
                }
                let (x, y) = self.map.clamp(x, y);
                let cell = self.map.cell_of(x, y);
                let (lx, ly) = self.map.to_local(cell, x, y);
                let pose = Pose::face_up(lx, ly, self.rx_height);
                cells.shard_mut(cell).arrive(session, pose);
                self.locations.insert(session, cell);
                cells.mark_dirty(cell);
                self.pend_arrivals += 1;
            }
            Command::Move { session, x, y } => {
                if !(x.is_finite() && y.is_finite()) {
                    return false;
                }
                let Some(&src) = self.locations.get(&session) else {
                    return false;
                };
                let (x, y) = self.map.clamp(x, y);
                let dst = self.map.cell_of(x, y);
                let (lx, ly) = self.map.to_local(dst, x, y);
                let pose = Pose::face_up(lx, ly, self.rx_height);
                if dst == src {
                    cells.shard_mut(src).move_to(session, pose);
                    cells.mark_dirty(src);
                } else {
                    // Beamspot handover: carry the allocation column so the
                    // destination's solver can warm-start from it.
                    let carried = cells.shard_mut(src).depart(session);
                    cells.shard_mut(dst).import(session, pose, carried);
                    self.locations.insert(session, dst);
                    cells.mark_dirty(src);
                    cells.mark_dirty(dst);
                    self.pend_handovers += 1;
                }
                self.pend_moves += 1;
            }
            Command::Leave { session } => {
                let Some(cell) = self.locations.remove(&session) else {
                    return false;
                };
                cells.shard_mut(cell).depart(session);
                cells.mark_dirty(cell);
                self.pend_departures += 1;
            }
        }
        true
    }

    /// Replans every dirty shard in one batch over `pool` and returns the
    /// tick report. A tick with no dirty shards does O(1) bookkeeping and
    /// allocates nothing.
    pub fn control_tick(&mut self, pool: &Pool, parent: &Span) -> TickReport {
        let t0 = self.telemetry.now_s();
        let tick = self.tick;
        self.tick += 1;

        let mut report = TickReport {
            tick,
            events: self.pend_events,
            arrivals: self.pend_arrivals,
            departures: self.pend_departures,
            moves: self.pend_moves,
            handovers: self.pend_handovers,
            dirty_shards: self.cells.dirty.len() as u64,
            ..TickReport::default()
        };
        self.pend_events = 0;
        self.pend_arrivals = 0;
        self.pend_departures = 0;
        self.pend_moves = 0;
        self.pend_handovers = 0;

        if report.dirty_shards > 0 {
            let cells = cells_mut(&mut self.cells);
            // Ascending cell order fixes the span indexing and the
            // throughput fold, independent of which worker runs what.
            cells.dirty.sort_unstable();
            let span = parent.child("cell.tick");
            if span.is_enabled() {
                span.attr("tick", &tick.to_string());
                span.attr("dirty", &cells.dirty.len().to_string());
            }
            self.replan_dirty(pool, tick, span);
            self.settle(&mut report);
        }

        report.sessions = self.locations.len() as u64;
        report.system_bps = self.sum_bps;

        let m = &self.metrics;
        m.ticks.inc();
        m.events.add(report.events);
        m.arrivals.add(report.arrivals);
        m.departures.add(report.departures);
        m.moves.add(report.moves);
        m.handovers.add(report.handovers);
        m.dirty_shards.add(report.dirty_shards);
        m.replans.add(report.replans);
        m.plan_hits.add(report.plan_hits);
        m.sessions.set(report.sessions as f64);
        m.system_bps.set(report.system_bps);
        m.tick_s.record(self.telemetry.now_s() - t0);
        report
    }

    /// Replans the dirty shards under the tick span `span`, which closes
    /// when they are done: in place and in order on a one-worker pool or
    /// for a lone dirty shard, else on `pool`'s resident workers. A
    /// replan's panic is re-raised once every worker has let go of the
    /// shards.
    fn replan_dirty(&mut self, pool: &Pool, tick: u64, span: Span) {
        let n = self.cells.dirty.len();
        if pool.jobs().is_serial() || n == 1 {
            let cells = cells_mut(&mut self.cells);
            for (i, &cell) in cells.dirty.iter().enumerate() {
                let child = span.child_indexed("cell.replan", i);
                unpoisoned(cells.shards[cell].get_mut()).replan(tick, &self.telemetry, &child);
            }
        } else {
            let cells = Arc::clone(&self.cells);
            let telemetry = self.telemetry.clone();
            pool.map_owned(n, move |i| {
                let child = span.child_indexed("cell.replan", i);
                unpoisoned(cells.shards[cells.dirty[i]].write()).replan(tick, &telemetry, &child);
            });
        }
    }

    /// Folds the dirty shards' replan outcomes, in cell order, into the
    /// building throughput and the tick report, and clears the dirty list.
    fn settle(&mut self, report: &mut TickReport) {
        let cells = cells_mut(&mut self.cells);
        for &cell in &cells.dirty {
            let outcome = unpoisoned(cells.shards[cell].get_mut()).outcome;
            self.sum_bps += outcome.new_bps - outcome.old_bps;
            if outcome.replanned {
                report.replans += 1;
            } else {
                report.plan_hits += 1;
            }
        }
        cells.dirty.clear();
    }
}
