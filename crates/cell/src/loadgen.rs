//! Deterministic synthetic-session load generation and the drive loop.
//!
//! [`LoadGenConfig::schedule`] pre-computes the whole command stream:
//! every cell draws its sessions from its own `StdRng` seeded with
//! [`vlc_par::cell_seed`] (the `codec_campaign` per-cell pattern), so the
//! schedule is a pure function of `(config)` — independent of worker
//! count, wall clock, and iteration order. Sessions are born in a cell,
//! random-walk from there, and hand over whenever a step crosses a room
//! boundary; the generator keeps adding sessions to a cell until that
//! cell's share of [`LoadGenConfig::target_events`] is met, so the total
//! event count is guaranteed ≥ the target.
//!
//! [`drive`] pumps a schedule through a [`BuildingEngine`] tick by tick,
//! timing each control tick with the wall clock (report only — never in
//! the obs stream) and returning throughput/latency figures.

use crate::engine::{BuildingEngine, Command, TickReport};
use crate::obs::BuildingObs;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io;
use std::time::Instant;
use vlc_par::{cell_seed, Pool};
use vlc_trace::Span;

/// Shape of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenConfig {
    /// Rooms along X.
    pub cols: usize,
    /// Rooms along Y.
    pub rows: usize,
    /// Control ticks to schedule over.
    pub ticks: u64,
    /// Minimum total session events (arrive + move + leave) to generate;
    /// spread evenly across cells.
    pub target_events: u64,
    /// Campaign seed; cell `c` uses `cell_seed(seed, c)`.
    pub seed: u64,
    /// Mean session lifetime in ticks (actual lifetimes draw uniformly
    /// from `[mean/2, 3·mean/2]`).
    pub mean_lifetime_ticks: u64,
    /// Mean ticks between a session's moves (uniform `[1, 2·mean)`).
    pub move_period_ticks: u64,
    /// Maximum per-axis step of the random walk, metres. Steps larger
    /// than the room pitch make cross-room handovers common.
    pub step_m: f64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            cols: 20,
            rows: 10,
            ticks: 2000,
            target_events: 1_200_000,
            seed: 42,
            mean_lifetime_ticks: 400,
            move_period_ticks: 10,
            step_m: 1.0,
        }
    }
}

/// A pre-computed command stream, bucketed by tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `per_tick[t]` holds tick `t`'s commands in application order.
    pub per_tick: Vec<Vec<Command>>,
    /// Total commands scheduled.
    pub events: u64,
    /// Distinct sessions scheduled.
    pub sessions: u64,
}

impl LoadGenConfig {
    /// Generates the full deterministic schedule (see the module docs).
    pub fn schedule(&self) -> Schedule {
        let cells = self.cols * self.rows;
        assert!(cells > 0 && self.ticks > 0, "empty workload");
        let (room_w, room_d) = {
            let room = vlc_geom::Room::paper_testbed();
            (room.width, room.depth)
        };
        let (width, depth) = (
            room_w * self.cols as f64 - 1e-9,
            room_d * self.rows as f64 - 1e-9,
        );
        let per_cell_target = self.target_events.div_ceil(cells as u64);
        let mut per_tick: Vec<Vec<Command>> = vec![Vec::new(); self.ticks as usize];
        let mut events = 0u64;
        let mut sessions = 0u64;
        for cell in 0..cells {
            let mut rng = StdRng::seed_from_u64(cell_seed(self.seed, cell as u64));
            let (col, row) = (cell % self.cols, cell / self.cols);
            let (ox, oy) = (col as f64 * room_w, row as f64 * room_d);
            let mut cell_events = 0u64;
            let mut k = 0u64;
            while cell_events < per_cell_target {
                let session = ((cell as u64) << 32) | k;
                k += 1;
                sessions += 1;
                let born = rng.gen_range(0..self.ticks);
                let life =
                    rng.gen_range(self.mean_lifetime_ticks / 2..=self.mean_lifetime_ticks * 3 / 2);
                let died = (born + life.max(1)).min(self.ticks);
                let mut x = ox + rng.gen_range(0.0..room_w);
                let mut y = oy + rng.gen_range(0.0..room_d);
                per_tick[born as usize].push(Command::Arrive { session, x, y });
                cell_events += 1;
                let mut t = born + rng.gen_range(1..self.move_period_ticks.max(1) * 2);
                while t < died {
                    x = (x + rng.gen_range(-self.step_m..self.step_m)).clamp(0.0, width);
                    y = (y + rng.gen_range(-self.step_m..self.step_m)).clamp(0.0, depth);
                    per_tick[t as usize].push(Command::Move { session, x, y });
                    cell_events += 1;
                    t += rng.gen_range(1..self.move_period_ticks.max(1) * 2);
                }
                if died < self.ticks {
                    per_tick[died as usize].push(Command::Leave { session });
                    cell_events += 1;
                }
            }
            events += cell_events;
        }
        Schedule {
            per_tick,
            events,
            sessions,
        }
    }
}

/// What [`drive`] measured. Latency figures are wall-clock and therefore
/// machine-dependent; everything else is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveReport {
    /// Control ticks run.
    pub ticks: u64,
    /// Session events applied.
    pub events: u64,
    /// Distinct sessions driven.
    pub sessions: u64,
    /// Shard replans performed.
    pub replans: u64,
    /// Dirty visits whose channel was bitwise unchanged (no replan).
    pub plan_hits: u64,
    /// Cross-room handovers.
    pub handovers: u64,
    /// Largest live-session count seen after any tick.
    pub peak_sessions: u64,
    /// Building throughput after the final tick, bit/s.
    pub final_system_bps: f64,
    /// Wall time of the drive loop, seconds.
    pub wall_s: f64,
    /// Events applied per wall second.
    pub events_per_s: f64,
    /// Replans per wall second.
    pub replans_per_s: f64,
    /// Median control-tick latency, microseconds.
    pub tick_p50_us: f64,
    /// 99th-percentile control-tick latency, microseconds.
    pub tick_p99_us: f64,
    /// Worst control-tick latency, microseconds.
    pub tick_max_us: f64,
}

/// Pumps `schedule` through `engine` on `pool`, streaming to `obs` when
/// given. Returns the throughput/latency report.
pub fn drive(
    engine: &mut BuildingEngine,
    schedule: &Schedule,
    pool: &Pool,
    mut obs: Option<&mut BuildingObs>,
    parent: &Span,
) -> io::Result<DriveReport> {
    let mut tick_us: Vec<f64> = Vec::with_capacity(schedule.per_tick.len());
    let mut applied = 0u64;
    let (mut replans, mut plan_hits, mut handovers, mut peak) = (0u64, 0u64, 0u64, 0u64);
    let mut last = TickReport::default();
    let wall = Instant::now();
    for commands in &schedule.per_tick {
        for cmd in commands {
            engine.apply(cmd);
        }
        applied += commands.len() as u64;
        let t0 = Instant::now();
        let report = engine.control_tick(pool, parent);
        tick_us.push(t0.elapsed().as_secs_f64() * 1e6);
        replans += report.replans;
        plan_hits += report.plan_hits;
        handovers += report.handovers;
        peak = peak.max(report.sessions);
        if let Some(obs) = obs.as_deref_mut() {
            obs.observe(&report)?;
        }
        last = report;
    }
    let wall_s = wall.elapsed().as_secs_f64();
    tick_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| -> f64 {
        if tick_us.is_empty() {
            return 0.0;
        }
        let rank = ((q * tick_us.len() as f64).ceil() as usize).clamp(1, tick_us.len());
        tick_us[rank - 1]
    };
    Ok(DriveReport {
        ticks: schedule.per_tick.len() as u64,
        events: applied,
        sessions: schedule.sessions,
        replans,
        plan_hits,
        handovers,
        peak_sessions: peak,
        final_system_bps: last.system_bps,
        wall_s,
        events_per_s: applied as f64 / wall_s.max(1e-12),
        replans_per_s: replans as f64 / wall_s.max(1e-12),
        tick_p50_us: quantile(0.50),
        tick_p99_us: quantile(0.99),
        tick_max_us: tick_us.last().copied().unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LoadGenConfig {
        LoadGenConfig {
            cols: 3,
            rows: 2,
            ticks: 60,
            target_events: 3_000,
            seed: 7,
            mean_lifetime_ticks: 20,
            move_period_ticks: 3,
            step_m: 1.5,
        }
    }

    #[test]
    fn schedule_is_reproducible_and_meets_target() {
        let a = small().schedule();
        let b = small().schedule();
        assert_eq!(a, b);
        assert!(a.events >= 3_000, "events {} below target", a.events);
        assert_eq!(
            a.per_tick.iter().map(|t| t.len() as u64).sum::<u64>(),
            a.events
        );
    }

    #[test]
    fn sessions_arrive_before_they_move_or_leave() {
        let s = small().schedule();
        let mut alive = std::collections::HashSet::new();
        for bucket in &s.per_tick {
            for cmd in bucket {
                match cmd {
                    Command::Arrive { session, .. } => assert!(alive.insert(*session)),
                    Command::Move { session, .. } => assert!(alive.contains(session)),
                    Command::Leave { session } => assert!(alive.remove(session)),
                }
            }
        }
    }
}
