//! One cell shard: a room's channel and MAC state.
//!
//! A [`CellShard`] owns everything needed to replan its room in
//! isolation: the session roster (ids + local poses), the incremental
//! [`ChannelUpdater`] (one column per session, edited in place as
//! sessions arrive and leave), the controller, and — under the
//! optimal policy — the warm-start seed carried from the previous plan
//! (and, on handover, from the source cell's allocation). Replans run on
//! the calling worker, and the optimal solver on the shard's own
//! *sequential* inner pool: the coordinator parallelises **across**
//! shards, never inside one, so the per-shard computation is the exact
//! `jobs = 1` code path regardless of `DENSEVLC_JOBS`.
//!
//! A shard never allocates on a tick that doesn't touch it; all state
//! below persists across ticks and is reused in place. A replan's cost
//! follows what changed since the last plan: a departure drops its
//! channel and allocation columns, an arrival or handover appends one
//! column that the next update sounds, and an in-room move re-sounds
//! only the mover's column. The updater writes those columns straight
//! into the model's channel; a tick whose channel comes out unchanged,
//! with no session arriving or leaving, skips the replan.

use crate::ReplanPolicy;
use vlc_alloc::model::{Allocation, SystemModel};
use vlc_alloc::OptimalSolver;
use vlc_channel::incremental::ChannelUpdater;
use vlc_channel::{ChannelMatrix, NoiseParams, RxOptics};
use vlc_geom::{Pose, TxGrid};
use vlc_mac::controller::{Controller, ControllerConfig};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// A session identifier (unique across the building).
pub type SessionId = u64;

/// One entry of a shard's replan timeline (recorded only when
/// [`crate::BuildingConfig::record_timelines`] is set — identity tests
/// compare these bitwise).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// Control tick the replan ran on.
    pub tick: u64,
    /// `false` when the previous plan stood (channel bitwise unchanged).
    pub replanned: bool,
    /// Session roster at replan time, in shard order.
    pub sessions: Vec<SessionId>,
    /// Per-session throughput under the plan, bit/s, in shard order.
    pub bps: Vec<f64>,
}

/// What the latest `CellShard::replan` produced, left in the shard for the
/// coordinator's bookkeeping. `old_bps`/`new_bps` let the coordinator
/// maintain the building throughput by delta in deterministic
/// (cell-index) order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplanOutcome {
    /// `false` when the previous plan stood (channel bitwise unchanged).
    pub replanned: bool,
    /// Shard throughput before the replan, bit/s.
    pub old_bps: f64,
    /// Shard throughput after the replan, bit/s.
    pub new_bps: f64,
}

/// One room's sessions, channel state, and planner.
#[derive(Debug, Clone)]
pub struct CellShard {
    cell: usize,
    budget_w: f64,
    policy: ReplanPolicy,
    record_timeline: bool,
    sessions: Vec<SessionId>,
    poses: Vec<Pose>,
    updater: ChannelUpdater,
    /// The heuristic planner. It ingests no reports, so one serves every
    /// roster size.
    controller: Controller,
    model: SystemModel,
    /// Warm seed for the optimal policy: the previous allocation with
    /// columns remapped as sessions arrive/leave/hand over.
    warm: Option<Allocation>,
    /// The most recent allocation (either policy) — the handover export.
    last_alloc: Option<Allocation>,
    /// Per-session throughput of the current plan, shard order.
    bps: Vec<f64>,
    sum_bps: f64,
    timeline: Vec<ShardTick>,
    /// Sequential inner pool for the optimal solver: across-shard
    /// parallelism only.
    inner: Pool,
    pub(crate) dirty: bool,
    /// What the latest replan produced.
    pub(crate) outcome: ReplanOutcome,
}

impl CellShard {
    /// A shard for `cell` with an empty roster.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cell: usize,
        grid: &TxGrid,
        half_power_semi_angle: f64,
        optics: &RxOptics,
        noise: NoiseParams,
        budget_w: f64,
        policy: ReplanPolicy,
        record_timeline: bool,
    ) -> Self {
        let mut model = SystemModel::paper(ChannelMatrix::from_gains(grid.len(), 0, Vec::new()));
        model.noise = noise;
        CellShard {
            cell,
            budget_w,
            policy,
            record_timeline,
            sessions: Vec::new(),
            poses: Vec::new(),
            updater: ChannelUpdater::new(grid, half_power_semi_angle, optics),
            controller: Controller::new(ControllerConfig::paper(budget_w), grid.len(), 0),
            model,
            warm: None,
            last_alloc: None,
            bps: Vec::new(),
            sum_bps: 0.0,
            timeline: Vec::new(),
            inner: Pool::sequential(),
            dirty: false,
            outcome: ReplanOutcome::default(),
        }
    }

    /// The cell index this shard owns.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Sessions currently in the cell, shard order.
    pub fn sessions(&self) -> &[SessionId] {
        &self.sessions
    }

    /// Local poses, parallel to [`Self::sessions`].
    pub fn poses(&self) -> &[Pose] {
        &self.poses
    }

    /// Per-session throughput of the current plan, shard order.
    pub fn bps(&self) -> &[f64] {
        &self.bps
    }

    /// Shard throughput under the current plan, bit/s.
    pub fn sum_bps(&self) -> f64 {
        self.sum_bps
    }

    /// The recorded replan timeline (empty unless recording is on).
    pub fn timeline(&self) -> &[ShardTick] {
        &self.timeline
    }

    /// The current allocation, if the shard has ever planned.
    pub fn allocation(&self) -> Option<&Allocation> {
        self.last_alloc.as_ref()
    }

    fn index_of(&self, id: SessionId) -> Option<usize> {
        self.sessions.iter().position(|&s| s == id)
    }

    /// Adds a session with no warm-start column.
    pub(crate) fn arrive(&mut self, id: SessionId, pose: Pose) {
        self.import(id, pose, None);
    }

    /// Adds a session, optionally seeding its warm-start column with the
    /// allocation it carried over from the source cell of a handover.
    pub(crate) fn import(&mut self, id: SessionId, pose: Pose, carried: Option<Vec<f64>>) {
        debug_assert!(self.index_of(id).is_none(), "session {id} already here");
        self.sessions.push(id);
        self.poses.push(pose);
        let col = carried.unwrap_or_default();
        if let Some(w) = &mut self.warm {
            w.push_rx(&col);
        } else if matches!(self.policy, ReplanPolicy::Optimal(_)) && !col.is_empty() {
            // First import into an unplanned cell: the carried column alone
            // is still a better seed than nothing.
            let mut w = Allocation::zeros(self.model.n_tx(), self.sessions.len());
            for (tx, &v) in col.iter().enumerate() {
                w.set_swing(tx, self.sessions.len() - 1, v);
            }
            self.warm = Some(w);
        }
        if let Some(a) = &mut self.last_alloc {
            a.push_rx(&col);
        }
    }

    /// Removes a session; returns its current allocation column (the
    /// handover payload) if the shard has a plan.
    pub(crate) fn depart(&mut self, id: SessionId) -> Option<Vec<f64>> {
        let idx = self.index_of(id).expect("departing session not in shard");
        let column = self
            .last_alloc
            .as_ref()
            .map(|a| (0..a.n_tx()).map(|tx| a.swing(tx, idx)).collect());
        self.sessions.remove(idx);
        self.poses.remove(idx);
        self.updater.remove_rx(idx, &mut self.model.channel);
        if self.sessions.is_empty() {
            self.warm = None;
            self.last_alloc = None;
        } else {
            for a in self.warm.iter_mut().chain(self.last_alloc.iter_mut()) {
                a.remove_rx(idx);
            }
        }
        column
    }

    /// Moves a session within the room.
    pub(crate) fn move_to(&mut self, id: SessionId, pose: Pose) {
        let idx = self.index_of(id).expect("moving session not in shard");
        self.poses[idx] = pose;
    }

    /// Recomputes the room's channel and plan, leaving what it did in
    /// `outcome`. Called by the coordinator only when the shard is dirty;
    /// runs entirely on the calling worker.
    pub(crate) fn replan(&mut self, tick: u64, telemetry: &Registry, parent: &Span) {
        self.dirty = false;
        let old_bps = self.sum_bps;
        if self.sessions.is_empty() {
            self.bps.clear();
            self.sum_bps = 0.0;
            self.warm = None;
            self.last_alloc = None;
            if self.record_timeline {
                self.timeline.push(ShardTick {
                    tick,
                    replanned: true,
                    sessions: Vec::new(),
                    bps: Vec::new(),
                });
            }
            self.outcome = ReplanOutcome {
                replanned: true,
                old_bps,
                new_bps: 0.0,
            };
            return;
        }

        let update = self.updater.update_traced(
            &self.poses,
            &[],
            &mut self.model.channel,
            telemetry,
            parent,
        );
        // An unchanged channel over an unchanged roster means the previous
        // plan is still the answer (planning is a pure function of the
        // channel), so the replan is skipped. A roster edit always replans:
        // its allocation columns were edited in place and no longer match
        // a plan, and the updater reports the added or removed column as a
        // change.
        let hit = !update.changed && self.last_alloc.is_some();
        if !hit {
            let allocation = match &self.policy {
                ReplanPolicy::Heuristic => {
                    self.controller
                        .plan_traced(&self.model.channel, telemetry, parent)
                        .allocation
                }
                ReplanPolicy::Optimal(solver) => self.solve_optimal(solver, telemetry, parent),
            };
            self.bps = self.model.throughput(&allocation);
            self.sum_bps = self.bps.iter().sum();
            self.last_alloc = Some(allocation);
            if matches!(self.policy, ReplanPolicy::Optimal(_)) {
                // Reuses the seed's storage when it has one.
                self.warm.clone_from(&self.last_alloc);
            }
        }
        if self.record_timeline {
            self.timeline.push(ShardTick {
                tick,
                replanned: !hit,
                sessions: self.sessions.clone(),
                bps: self.bps.clone(),
            });
        }
        self.outcome = ReplanOutcome {
            replanned: !hit,
            old_bps,
            new_bps: self.sum_bps,
        };
    }

    fn solve_optimal(
        &self,
        solver: &OptimalSolver,
        telemetry: &Registry,
        parent: &Span,
    ) -> Allocation {
        let warm = self
            .warm
            .as_ref()
            .filter(|w| w.n_rx() == self.sessions.len());
        solver
            .solve_traced(
                &self.model,
                self.budget_w,
                warm,
                telemetry,
                &self.inner,
                parent,
            )
            .allocation
    }
}
