//! Seeded workload generation: the benchmark's own RNG, the workload
//! catalogue, and the building command schedules.
//!
//! The generator is deliberately independent of `vlc_cell::LoadGenConfig`:
//! that generator's mix is expected to change, and a benchmark whose
//! inputs move with the code under test has no stable baseline.

use vlc_cell::{BuildingMap, Command, SessionId};

/// Keeps generated positions this far inside room and building edges, so
/// the room a position falls in never depends on float rounding at a wall.
pub const MARGIN_M: f64 = 0.05;

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u128 + 1;
        lo + ((self.next_u64() as u128 * span) >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.between(0, n as u64 - 1) as usize
    }
}

/// One seed per purpose, so workloads never share a random stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Crowded building, heuristic planner: replan compute dominates.
    BuildingCrowd,
    /// Large sparse building with the obs stream on: fixed per-tick cost
    /// dominates.
    BuildingSparse,
    /// Small building under the optimal solver at the paper's 4 RX/room.
    BuildingOptimal,
    /// Table 5's three rows through one frame pipeline.
    FrameE2e,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::BuildingCrowd,
        Workload::BuildingSparse,
        Workload::BuildingOptimal,
        Workload::FrameE2e,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildingCrowd => "building-crowd",
            Workload::BuildingSparse => "building-sparse",
            Workload::BuildingOptimal => "building-optimal",
            Workload::FrameE2e => "frame-e2e",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool workers when `--jobs` is not given. `building-sparse` runs
    /// the 2-worker fan-out, since its per-tick dispatch cost is the
    /// point. The replan-heavy workloads run on the main thread: on a
    /// 2-vCPU machine their run-to-run spread was 11–22 % at 2 workers
    /// and 2–9 % at 1. Their determinism check still replays at 2.
    pub fn default_jobs(self) -> usize {
        match self {
            Workload::BuildingSparse => 2,
            _ => 1,
        }
    }

    /// The building shape of a `building-*` workload (`None` for
    /// `frame-e2e`). `smoke` shrinks it to a few rooms and ticks.
    pub fn building(self, smoke: bool) -> Option<BuildingSpec> {
        let spec = match (self, smoke) {
            (Workload::BuildingCrowd, false) => BuildingSpec {
                cols: 7,
                rows: 7,
                per_room: 27.0,
                ticks: 200,
                motion: Motion::Walk {
                    lifetime: 200,
                    move_period: 10,
                    step_m: 1.0,
                },
                optimal: false,
                obs_every: None,
            },
            (Workload::BuildingCrowd, true) => BuildingSpec {
                cols: 2,
                rows: 2,
                per_room: 5.0,
                ticks: 30,
                motion: Motion::Walk {
                    lifetime: 20,
                    move_period: 3,
                    step_m: 1.0,
                },
                optimal: false,
                obs_every: None,
            },
            (Workload::BuildingSparse, false) => BuildingSpec {
                cols: 20,
                rows: 20,
                per_room: 1.5,
                ticks: 5_000,
                motion: Motion::Walk {
                    lifetime: 3_000,
                    move_period: 100,
                    step_m: 1.0,
                },
                optimal: false,
                obs_every: Some(50),
            },
            (Workload::BuildingSparse, true) => BuildingSpec {
                cols: 3,
                rows: 3,
                per_room: 1.5,
                ticks: 300,
                motion: Motion::Walk {
                    lifetime: 200,
                    move_period: 20,
                    step_m: 1.0,
                },
                optimal: false,
                obs_every: Some(50),
            },
            (Workload::BuildingOptimal, false) => BuildingSpec {
                cols: 4,
                rows: 4,
                per_room: OPTIMAL_PER_ROOM as f64,
                ticks: 200,
                motion: Motion::Fixed {
                    move_prob: 0.2,
                    swaps: 1,
                },
                optimal: true,
                obs_every: None,
            },
            (Workload::BuildingOptimal, true) => BuildingSpec {
                cols: 2,
                rows: 2,
                per_room: OPTIMAL_PER_ROOM as f64,
                ticks: 8,
                motion: Motion::Fixed {
                    move_prob: 0.2,
                    swaps: 1,
                },
                optimal: true,
                obs_every: None,
            },
            (Workload::FrameE2e, _) => return None,
        };
        Some(spec)
    }

    /// The frame shape of `frame-e2e` (`None` for building workloads).
    pub fn frames(self, smoke: bool) -> Option<FrameSpec> {
        match (self, smoke) {
            (Workload::FrameE2e, false) => Some(FrameSpec {
                frames_per_batch: 5,
                batches: 70,
            }),
            (Workload::FrameE2e, true) => Some(FrameSpec {
                frames_per_batch: 5,
                batches: 2,
            }),
            _ => None,
        }
    }
}

/// Sessions per room under the optimal policy: the paper's 4-RX regime.
/// `OptimalSolver` panics ("no start yields a finite objective") once a
/// room holds about 10 sessions, so this workload never exceeds it.
pub const OPTIMAL_PER_ROOM: usize = 4;

/// How sessions move between ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Motion {
    /// Sessions random-walk with steps uniform in `±step_m` per axis,
    /// moving every `[1, 2·move_period)` ticks, and leave after a lifetime
    /// uniform in `[lifetime/2, 3·lifetime/2]`; every departure is replaced
    /// by an arrival in a random room, so the population is constant.
    Walk {
        /// Mean session lifetime, ticks.
        lifetime: u64,
        /// Mean ticks between moves.
        move_period: u64,
        /// Largest per-axis step, metres.
        step_m: f64,
    },
    /// Occupancy stays exactly `per_room`: each tick every session moves
    /// within its room with probability `move_prob`, and `swaps` pairs of
    /// sessions in different rooms trade rooms (two handovers each).
    Fixed {
        /// Per-tick probability of an in-room move.
        move_prob: f64,
        /// Cross-room swaps attempted per tick.
        swaps: usize,
    },
}

/// Shape of one building workload round.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingSpec {
    /// Rooms along X.
    pub cols: usize,
    /// Rooms along Y.
    pub rows: usize,
    /// Mean sessions per room at steady state.
    pub per_room: f64,
    /// Ticks per round after the set-up tick.
    pub ticks: usize,
    /// Session motion.
    pub motion: Motion,
    /// `ReplanPolicy::Optimal(OptimalSolver::quick())` instead of the
    /// heuristic.
    pub optimal: bool,
    /// Stream `BuildingObs` into a `NoopSink`, flushing every this many
    /// ticks.
    pub obs_every: Option<u64>,
}

/// Shape of one `frame-e2e` round: every Table 5 row runs `batches`
/// pipeline calls of `frames_per_batch` frames, rows interleaved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    /// Frames per `FramePipeline::run` call (one latency sample).
    pub frames_per_batch: usize,
    /// Calls per row per round.
    pub batches: usize,
}

/// A round's command stream: the set-up population, then one command
/// batch per tick. No session gets two commands in one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Arrivals applied before the set-up tick.
    pub prepopulate: Vec<Command>,
    /// `ticks[t]` is applied before control tick `t + 1`.
    pub ticks: Vec<Vec<Command>>,
}

/// The room holding global position `(x, y)`, computed independently of
/// the engine so the benchmark can check where the engine placed a
/// session.
pub fn room_of(map: &BuildingMap, x: f64, y: f64) -> usize {
    let room = map.room();
    let col = ((x / room.width).floor() as usize).min(map.cols() - 1);
    let row = ((y / room.depth).floor() as usize).min(map.rows() - 1);
    row * map.cols() + col
}

/// Generates one round of `spec` from `seed`.
pub fn schedule(spec: &BuildingSpec, map: &BuildingMap, seed: u64) -> Schedule {
    let mut rng = SplitMix64::new(derive_seed(seed, 0xB11D));
    match spec.motion {
        Motion::Walk {
            lifetime,
            move_period,
            step_m,
        } => walk(spec, map, &mut rng, lifetime, move_period, step_m),
        Motion::Fixed { move_prob, swaps } => fixed(spec, map, &mut rng, move_prob, swaps),
    }
}

/// A random position inside `room`, global coordinates.
fn place(map: &BuildingMap, rng: &mut SplitMix64, room: usize) -> (f64, f64) {
    let (ox, oy) = map.origin(room);
    let r = map.room();
    (
        ox + rng.uniform(MARGIN_M, r.width - MARGIN_M),
        oy + rng.uniform(MARGIN_M, r.depth - MARGIN_M),
    )
}

struct Walker {
    id: SessionId,
    x: f64,
    y: f64,
    next_move: u64,
    leave: u64,
}

fn walk(
    spec: &BuildingSpec,
    map: &BuildingMap,
    rng: &mut SplitMix64,
    lifetime: u64,
    move_period: u64,
    step_m: f64,
) -> Schedule {
    let population = (spec.per_room * map.cells() as f64).round() as usize;
    let gap_hi = (2 * move_period).saturating_sub(1).max(1);
    let (life_lo, life_hi) = ((lifetime / 2).max(1), (3 * lifetime / 2).max(1));
    let mut next_id: SessionId = 0;
    let mut spawn = |rng: &mut SplitMix64, now: u64, residual: bool| {
        let room = rng.index(map.cells());
        let (x, y) = place(map, rng, room);
        let id = next_id;
        next_id += 1;
        // Set-up sessions are already part-way through their lives.
        let life = if residual {
            rng.between(1, life_hi)
        } else {
            rng.between(life_lo, life_hi)
        };
        Walker {
            id,
            x,
            y,
            next_move: now + rng.between(1, gap_hi),
            leave: now + life,
        }
    };

    let mut live: Vec<Walker> = (0..population).map(|_| spawn(rng, 0, true)).collect();
    let arrive = |w: &Walker| Command::Arrive {
        session: w.id,
        x: w.x,
        y: w.y,
    };
    let prepopulate = live.iter().map(arrive).collect();
    let (x_hi, y_hi) = (map.width() - MARGIN_M, map.depth() - MARGIN_M);
    let mut ticks = Vec::with_capacity(spec.ticks);
    for t in 1..=spec.ticks as u64 {
        let mut cmds = Vec::new();
        let mut left = 0;
        let mut i = 0;
        while i < live.len() {
            let w = &mut live[i];
            if w.leave == t {
                cmds.push(Command::Leave { session: w.id });
                live.swap_remove(i);
                left += 1;
                continue;
            }
            if w.next_move == t {
                w.x = (w.x + rng.uniform(-step_m, step_m)).clamp(MARGIN_M, x_hi);
                w.y = (w.y + rng.uniform(-step_m, step_m)).clamp(MARGIN_M, y_hi);
                w.next_move = t + rng.between(1, gap_hi);
                cmds.push(Command::Move {
                    session: w.id,
                    x: w.x,
                    y: w.y,
                });
            }
            i += 1;
        }
        for _ in 0..left {
            let w = spawn(rng, t, false);
            cmds.push(arrive(&w));
            live.push(w);
        }
        ticks.push(cmds);
    }
    Schedule { prepopulate, ticks }
}

struct Seat {
    id: SessionId,
    room: usize,
    x: f64,
    y: f64,
}

fn fixed(
    spec: &BuildingSpec,
    map: &BuildingMap,
    rng: &mut SplitMix64,
    move_prob: f64,
    swaps: usize,
) -> Schedule {
    let per_room = spec.per_room as usize;
    let mut seats: Vec<Seat> = Vec::with_capacity(per_room * map.cells());
    for room in 0..map.cells() {
        for _ in 0..per_room {
            let (x, y) = place(map, rng, room);
            seats.push(Seat {
                id: seats.len() as SessionId,
                room,
                x,
                y,
            });
        }
    }
    let to_move = |s: &Seat| Command::Move {
        session: s.id,
        x: s.x,
        y: s.y,
    };
    let prepopulate = seats
        .iter()
        .map(|s| Command::Arrive {
            session: s.id,
            x: s.x,
            y: s.y,
        })
        .collect();
    let room = *map.room();
    let mut busy = vec![false; seats.len()];
    let mut ticks = Vec::with_capacity(spec.ticks);
    for _ in 0..spec.ticks {
        let mut cmds = Vec::new();
        busy.fill(false);
        for _ in 0..swaps {
            let (a, b) = (rng.index(seats.len()), rng.index(seats.len()));
            if busy[a] || busy[b] || seats[a].room == seats[b].room {
                continue;
            }
            let (room_a, room_b) = (seats[a].room, seats[b].room);
            for (s, dst) in [(a, room_b), (b, room_a)] {
                let (x, y) = place(map, rng, dst);
                seats[s] = Seat {
                    id: seats[s].id,
                    room: dst,
                    x,
                    y,
                };
                busy[s] = true;
                cmds.push(to_move(&seats[s]));
            }
        }
        for (s, seat) in seats.iter_mut().enumerate() {
            if busy[s] || rng.unit() >= move_prob {
                continue;
            }
            let (ox, oy) = map.origin(seat.room);
            seat.x =
                (seat.x + rng.uniform(-0.5, 0.5)).clamp(ox + MARGIN_M, ox + room.width - MARGIN_M);
            seat.y =
                (seat.y + rng.uniform(-0.5, 0.5)).clamp(oy + MARGIN_M, oy + room.depth - MARGIN_M);
            cmds.push(to_move(seat));
        }
        ticks.push(cmds);
    }
    Schedule { prepopulate, ticks }
}
