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
//! `tests/zero_alloc_tick.rs`).
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
use std::sync::Mutex;
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

/// The sharded multi-cell engine. See the module docs.
pub struct BuildingEngine {
    map: BuildingMap,
    rx_height: f64,
    shards: Vec<CellShard>,
    /// session → owning cell. Never iterated, so hash order is moot.
    locations: HashMap<SessionId, usize>,
    /// Cells dirtied since the last tick (unsorted; deduped via the
    /// per-shard flag). Capacity persists across ticks.
    dirty: Vec<usize>,
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
                CellShard::new(
                    cell,
                    &config.grid,
                    config.half_power_semi_angle,
                    &config.optics,
                    config.noise,
                    config.budget_w,
                    config.policy.clone(),
                    config.record_timelines,
                )
            })
            .collect();
        BuildingEngine {
            map,
            rx_height: config.rx_height,
            shards,
            locations: HashMap::new(),
            dirty: Vec::new(),
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

    /// The shard owning `cell` (timelines, rosters, allocations).
    pub fn shard(&self, cell: usize) -> &CellShard {
        &self.shards[cell]
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

    fn mark_dirty(&mut self, cell: usize) {
        if !self.shards[cell].dirty {
            self.shards[cell].dirty = true;
            self.dirty.push(cell);
        }
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
        match *cmd {
            Command::Arrive { session, x, y } => {
                if !(x.is_finite() && y.is_finite()) || self.locations.contains_key(&session) {
                    return false;
                }
                let (x, y) = self.map.clamp(x, y);
                let cell = self.map.cell_of(x, y);
                let (lx, ly) = self.map.to_local(cell, x, y);
                self.shards[cell].arrive(session, Pose::face_up(lx, ly, self.rx_height));
                self.locations.insert(session, cell);
                self.mark_dirty(cell);
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
                    self.shards[src].move_to(session, pose);
                    self.mark_dirty(src);
                } else {
                    // Beamspot handover: carry the allocation column so the
                    // destination's solver can warm-start from it.
                    let carried = self.shards[src].depart(session);
                    self.shards[dst].import(session, pose, carried);
                    self.locations.insert(session, dst);
                    self.mark_dirty(src);
                    self.mark_dirty(dst);
                    self.pend_handovers += 1;
                }
                self.pend_moves += 1;
            }
            Command::Leave { session } => {
                let Some(cell) = self.locations.remove(&session) else {
                    return false;
                };
                self.shards[cell].depart(session);
                self.mark_dirty(cell);
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
            dirty_shards: self.dirty.len() as u64,
            ..TickReport::default()
        };
        self.pend_events = 0;
        self.pend_arrivals = 0;
        self.pend_departures = 0;
        self.pend_moves = 0;
        self.pend_handovers = 0;

        if !self.dirty.is_empty() {
            // Ascending cell order fixes the span indexing and the
            // throughput fold, independent of which worker runs what.
            self.dirty.sort_unstable();
            let span = parent.child("cell.tick");
            if span.is_enabled() {
                span.attr("tick", &tick.to_string());
                span.attr("dirty", &self.dirty.len().to_string());
            }
            let telemetry = &self.telemetry;
            let outcomes = if pool.jobs().is_serial() || self.dirty.len() == 1 {
                // Thread-free path: replan in place, in order.
                let mut out = Vec::with_capacity(self.dirty.len());
                for (i, &cell) in self.dirty.iter().enumerate() {
                    let child = span.child_indexed("cell.replan", i);
                    out.push(self.shards[cell].replan(tick, telemetry, &child));
                }
                out
            } else {
                // Fan the disjoint dirty shards out over the pool. Each
                // index owns exactly one shard, so every lock is
                // uncontended; the Mutex exists only to hand a `&mut`
                // across the scoped workers without unsafe code.
                let mut slots: Vec<Mutex<&mut CellShard>> = Vec::with_capacity(self.dirty.len());
                {
                    let mut rest: &mut [CellShard] = &mut self.shards;
                    let mut taken = 0usize;
                    for &cell in &self.dirty {
                        let (_, tail) = rest.split_at_mut(cell - taken);
                        let (shard, tail) = tail.split_first_mut().expect("dirty cell in range");
                        slots.push(Mutex::new(shard));
                        rest = tail;
                        taken = cell + 1;
                    }
                }
                pool.map_indexed(slots.len(), |i| {
                    let child = span.child_indexed("cell.replan", i);
                    let mut shard = slots[i].lock().expect("shard slot poisoned");
                    shard.replan(tick, telemetry, &child)
                })
            };
            for outcome in &outcomes {
                self.sum_bps += outcome.new_bps - outcome.old_bps;
                if outcome.replanned {
                    report.replans += 1;
                } else {
                    report.plan_hits += 1;
                }
            }
            self.dirty.clear();
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
}
