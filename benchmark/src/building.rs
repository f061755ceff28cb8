//! The `building-*` workloads: one main thread applies tick *t*'s
//! commands through `BuildingEngine::apply`, then calls
//! `BuildingEngine::control_tick`; the next tick starts when that returns.

use std::collections::BTreeMap;
use std::time::Instant;

use densevlc::alloc::OptimalSolver;
use vlc_cell::{
    BuildingConfig, BuildingEngine, BuildingObs, BuildingObsConfig, Command, ReplanPolicy,
    TickReport,
};
use vlc_obs::NoopSink;
use vlc_par::{Jobs, Pool};
use vlc_prof::{alloc_counter, Profile};
use vlc_telemetry::{MetricsSnapshot, Registry};
use vlc_trace::{Span, Tracer};

use crate::gen::{room_of, schedule, BuildingSpec, Schedule};
use crate::metrics::Outcome;
use crate::profile::ProfileSum;
use crate::{save_profile, untraced_budget_s, Rounds, RunOpts, Timing, MIN_SETUPS};

/// Ticks (set-up tick included) over which a run at the other worker
/// count must reproduce the timed run's tick reports bit for bit.
pub const CHECK_TICKS: usize = 200;

/// Share of traced `control_tick` time that must fall inside the
/// `cell.tick` span, whose subtree the per-layer self times partition.
pub const MIN_TICK_COVERAGE: f64 = 0.95;

/// What one round ends with; every field is a pure function of the
/// workload and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// `system_bps` after the last tick, as bits.
    pub system_bps_bits: u64,
    /// Shard replans over the timed ticks.
    pub replans: u64,
    /// Beamspot handovers over the timed ticks.
    pub handovers: u64,
    /// Live sessions after the last tick.
    pub sessions: u64,
    /// FNV-1a over every tick report of the round.
    pub hash: u64,
}

/// A building workload with its generated schedule.
pub struct BuildingBench {
    spec: BuildingSpec,
    config: BuildingConfig,
    schedule: Schedule,
}

/// One round: fresh engine, set-up, then the schedule's ticks.
struct Round {
    timing: Timing,
    calls: CallTimes,
    failures: u64,
    /// Running report hash after each of the first `CHECK_TICKS` ticks.
    prefix: Vec<u64>,
    digest: Digest,
}

/// Time in each public call, timed from outside, and the main
/// thread's allocations inside `apply`.
#[derive(Debug, Clone, Copy, Default)]
struct CallTimes {
    apply_s: f64,
    tick_s: f64,
    observe_s: f64,
    apply_allocs: u64,
}

impl CallTimes {
    fn add(&mut self, other: &CallTimes) {
        self.apply_s += other.apply_s;
        self.tick_s += other.tick_s;
        self.observe_s += other.observe_s;
        self.apply_allocs += other.apply_allocs;
    }
}

/// Per-layer sums over the traced rounds.
#[derive(Default)]
struct Traced {
    profile: ProfileSum,
    /// The current round's profile.
    round: ProfileSum,
    /// The first traced round's profile: the committed baseline.
    first: Option<Profile>,
    /// The traced rounds' timings.
    rounds: Rounds,
    counters: BTreeMap<String, u64>,
    worker_busy_s: f64,
    worker_idle_s: f64,
    dropped: u64,
    /// Σ wall time inside `cell.tick` with no replan running.
    tick_self_s: f64,
    cell_tick_s: f64,
    control_tick_s: f64,
}

impl BuildingBench {
    /// Generates the workload for `seed`.
    pub fn new(spec: BuildingSpec, seed: u64) -> Self {
        let mut config = BuildingConfig::paper(spec.cols, spec.rows);
        if spec.optimal {
            config.policy = ReplanPolicy::Optimal(OptimalSolver::quick());
        }
        let schedule = schedule(&spec, &config.map(), seed);
        BuildingBench {
            spec,
            config,
            schedule,
        }
    }

    /// Runs the workload for `opts.seconds` and reports the end-to-end
    /// metrics, or with `opts.trace` the per-layer metrics.
    pub fn run(&self, opts: &RunOpts, pin: Option<Digest>) -> Outcome {
        let mut out = Outcome::default();
        // The other worker count replays the first ticks: tick reports must
        // not depend on it.
        let other = if opts.jobs.is_serial() {
            Jobs::of(2)
        } else {
            Jobs::serial()
        };
        let check = self.round(other, CHECK_TICKS, None);
        out.failed += check.failures;
        let mut rounds = Rounds::default();
        let mut calls = CallTimes::default();
        let mut digest = None;
        let start = Instant::now();
        while rounds.count < 2 || start.elapsed().as_secs_f64() < untraced_budget_s(opts) {
            let round = self.round(opts.jobs, usize::MAX, None);
            if rounds.count == 0 {
                out.check(
                    check.prefix[..] == round.prefix[..check.prefix.len()],
                    format_args!("tick reports differ at jobs {other} and {}", opts.jobs),
                );
                if let Some(pin) = pin {
                    out.check(
                        round.digest == pin,
                        format_args!("digest {:?}, pinned {pin:?}", round.digest),
                    );
                }
            }
            let first = *digest.get_or_insert(round.digest);
            out.check(
                round.digest == first,
                format_args!("round digest {:?} differs from the first", round.digest),
            );
            out.failed += round.failures;
            calls.add(&round.calls);
            rounds.add(&round.timing);
        }
        out.attempted = rounds.attempted;
        if !opts.trace {
            while rounds.setups_s.len() < MIN_SETUPS {
                let setup = self.round(opts.jobs, 0, None);
                out.failed += setup.failures;
                rounds.setups_s.push(setup.timing.setup_s);
            }
            rounds.end_to_end(&mut out);
            return out;
        }

        let mut traced = Traced::default();
        for _ in 0..rounds.count {
            let round = self.round(opts.jobs, usize::MAX, Some(&mut traced));
            out.check(
                Some(round.digest) == digest,
                format_args!("traced round digest {:?} differs", round.digest),
            );
            out.failed += round.failures;
        }
        save_profile(opts, traced.first.as_ref(), &mut out);
        per_layer(&rounds, &calls, &traced, opts, &mut out);
        out
    }

    /// One round on `jobs` workers, stopping after `max_ticks` timed ticks.
    fn round(&self, jobs: Jobs, max_ticks: usize, mut traced: Option<&mut Traced>) -> Round {
        let registry = match traced {
            Some(_) => Registry::new(),
            None => Registry::noop(),
        };
        let pool = Pool::new(jobs).with_telemetry(&registry);
        let start = Instant::now();
        let mut engine = BuildingEngine::new(&self.config, &registry);
        for cmd in &self.schedule.prepopulate {
            engine.apply(cmd);
        }
        let report = engine.control_tick(&pool, &Span::noop());
        let setup_s = start.elapsed().as_secs_f64();

        let mut check = Checker {
            hash: FNV_OFFSET,
            ..Checker::default()
        };
        check.tick(&engine, &self.schedule.prepopulate, &report);
        let mut obs = self.spec.obs_every.map(|every| {
            let cfg = BuildingObsConfig {
                every,
                ..BuildingObsConfig::default()
            };
            BuildingObs::new(&cfg, engine.map(), Box::new(NoopSink))
                .expect("a noop sink cannot fail")
        });
        let base = registry.snapshot();
        let mut timing = Timing {
            setup_s,
            ..Timing::default()
        };
        let mut calls = CallTimes::default();
        for cmds in self.schedule.ticks.iter().take(max_ticks) {
            let tracer = match traced {
                Some(_) => Tracer::new(),
                None => Tracer::noop(),
            };
            let pool_before = pool_counts(&registry);
            let root = tracer.root("bench.tick");
            let t0 = Instant::now();
            let allocs = alloc_counter::counts().allocs;
            {
                let _apply = root.child("cell.apply");
                for cmd in cmds {
                    engine.apply(cmd);
                }
            }
            calls.apply_allocs += alloc_counter::counts().allocs - allocs;
            let t1 = Instant::now();
            let report = engine.control_tick(&pool, &root);
            let t2 = Instant::now();
            let observed = obs.as_mut().map(|obs| {
                let _observe = root.child("obs.observe");
                obs.observe(&report)
            });
            let t3 = Instant::now();
            drop(root);

            let tick_s = (t2 - t1).as_secs_f64();
            calls.apply_s += (t1 - t0).as_secs_f64();
            calls.tick_s += tick_s;
            calls.observe_s += (t3 - t2).as_secs_f64();
            timing.latencies_s.push(tick_s);
            timing.steps_s.push((t3 - t0).as_secs_f64());
            timing.events += cmds.len() as u64;
            if let Some(Err(e)) = observed {
                check.fail(&format!("observe failed: {e}"));
            }
            check.tick(&engine, cmds, &report);
            if let Some(acc) = traced.as_deref_mut() {
                acc.tick(&tracer, &registry, pool_before, tick_s, jobs);
            }
        }
        if let Some(Err(e)) = obs.map(BuildingObs::finish) {
            check.fail(&format!("finishing the obs stream failed: {e}"));
        }
        timing.attempted = timing.events + timing.latencies_s.len() as u64;
        if let Some(acc) = traced {
            acc.rounds.add(&timing);
            acc.finish_round(&registry.snapshot(), &base, jobs);
        }
        Round {
            timing,
            calls,
            failures: check.failures,
            digest: check.digest(&engine),
            prefix: check.prefix,
        }
    }
}

/// The per-layer metrics: untraced call times per round, traced self
/// times and counters per round.
fn per_layer(
    rounds: &Rounds,
    calls: &CallTimes,
    traced: &Traced,
    opts: &RunOpts,
    out: &mut Outcome,
) {
    let n = rounds.count as f64;
    let count = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p = &traced.profile;
    out.set(
        "cell.apply.allocs_per_event",
        ratio(calls.apply_allocs as f64, rounds.events() as f64),
    );
    out.set("cell.apply.busy_s", calls.apply_s / n);
    out.set("cell.tick.busy_s", calls.tick_s / n);
    out.set("obs.observe.busy_s", calls.observe_s / n);
    out.set("cell.tick.self_s", traced.tick_self_s / n);
    for (metric, leaf) in [
        ("cell.replan.self_s", "cell.replan"),
        ("channel.update.self_s", "channel.update"),
        ("channel.update.col.self_s", "channel.update.col"),
        ("mac.plan.self_s", "mac.plan"),
        ("mac.rank.self_s", "mac.rank"),
        ("mac.allocate.self_s", "mac.allocate"),
        ("alloc.optimal.start.self_s", "alloc.optimal.start"),
        ("alloc.optimal.iters.self_s", "alloc.optimal.iters"),
    ] {
        out.set(metric, p.self_s(leaf) / n);
    }
    out.set(
        "alloc.optimal.solve.incl_s",
        p.incl_s("alloc.optimal.solve") / n,
    );
    for (metric, counter) in [
        ("cell.replans", "cell.replans"),
        ("cell.handovers", "cell.handovers"),
        ("alloc.optimal.iterations", "alloc.optimal.iterations"),
        ("alloc.optimal.obj_evals", "alloc.optimal.obj_evals"),
        ("alloc.optimal.warm_starts", "alloc.optimal.warm_starts"),
        ("par.spawns", "par.spawns"),
    ] {
        out.set(metric, count(counter) / n);
    }
    out.set(
        "cell.dirty_per_tick",
        ratio(count("cell.dirty_shards"), count("cell.ticks")),
    );
    out.set(
        "cell.plan_hit_ratio",
        ratio(
            count("cell.plan.hits"),
            count("cell.plan.hits") + count("cell.replans"),
        ),
    );
    let (hit, partial, miss) = (
        count("channel.cache.hit"),
        count("channel.cache.partial"),
        count("channel.cache.miss"),
    );
    out.set("channel.cols_recomputed", (partial + miss) / n);
    out.set("channel.col_reuse_ratio", ratio(hit, hit + partial + miss));
    out.set(
        "alloc.optimal.iters_per_solve",
        ratio(
            count("alloc.optimal.iterations"),
            count("alloc.optimal.solves"),
        ),
    );
    out.set("par.worker.busy_s", traced.worker_busy_s / n);
    out.set("par.worker.idle_s", traced.worker_idle_s / n);
    let items: Vec<f64> = (0..opts.jobs.get())
        .map(|w| count(&format!("par.worker{w}.items")))
        .collect();
    let mean = items.iter().sum::<f64>() / items.len() as f64;
    out.set(
        "par.imbalance",
        ratio(items.iter().copied().fold(0.0, f64::max), mean),
    );
    out.set(
        "trace.overhead_ratio",
        traced.rounds.fastest_busy_s() / rounds.fastest_busy_s() - 1.0,
    );
    out.set("trace.dropped_spans", traced.dropped as f64);
    out.check(
        traced.dropped == 0,
        format_args!("the traced pass dropped {} spans", traced.dropped),
    );
    let coverage = ratio(traced.cell_tick_s, traced.control_tick_s);
    out.set("trace.tick_coverage", coverage);
    out.check(
        opts.smoke || coverage >= MIN_TICK_COVERAGE,
        format_args!("cell.tick covers {coverage:.3} of traced control_tick time"),
    );
}

/// `par.spawns` and Σ `par.worker.busy_s` so far.
fn pool_counts(registry: &Registry) -> (u64, f64) {
    if !registry.is_enabled() {
        return (0, 0.0);
    }
    (
        registry.counter("par.spawns").get(),
        registry.histogram("par.worker.busy_s").snapshot().sum,
    )
}

impl Traced {
    fn tick(
        &mut self,
        tracer: &Tracer,
        registry: &Registry,
        (spawns0, busy0): (u64, f64),
        control_tick_s: f64,
        jobs: Jobs,
    ) {
        let snap = tracer.snapshot();
        self.dropped += snap.dropped;
        let mut cell_tick = 0.0;
        if let Some(span) = snap.find("cell.tick") {
            cell_tick = span.duration_s();
            // Replans overlap on the workers, so the profile's self time
            // (span minus Σ children) goes negative; the dispatch cost is
            // the span's wall time with no replan running.
            let mut replans: Vec<(f64, f64)> = snap
                .children_of(span.id)
                .iter()
                .map(|s| (s.start_s, s.end_s))
                .collect();
            replans.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, span.start_s);
            for (start, end) in replans {
                covered += (end - start.max(reach)).max(0.0);
                reach = reach.max(end);
            }
            self.tick_self_s += cell_tick - covered;
        }
        self.cell_tick_s += cell_tick;
        self.control_tick_s += control_tick_s;
        // Workers spawned for this tick's dispatch sat idle for the part of
        // the dispatch wall time they were not running replans.
        let (spawns, busy) = pool_counts(registry);
        if spawns > spawns0 {
            self.worker_idle_s += (spawns - spawns0) as f64 * cell_tick - (busy - busy0);
        }
        self.worker_busy_s += busy - busy0;
        self.round.add(&Profile::from_snapshot(&snap, jobs.get()));
    }

    fn finish_round(&mut self, end: &MetricsSnapshot, base: &MetricsSnapshot, jobs: Jobs) {
        for (name, value) in &end.counters {
            let before = base.counter(name).unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += value - before;
        }
        let round = std::mem::take(&mut self.round).to_profile(jobs.get());
        self.profile.add(&round);
        self.first.get_or_insert(round);
    }
}

/// Checks every tick against the schedule, from outside the engine, and
/// hashes the tick reports.
#[derive(Default)]
struct Checker {
    live: u64,
    failures: u64,
    hash: u64,
    replans: u64,
    handovers: u64,
    prefix: Vec<u64>,
    last_bps: f64,
}

impl Checker {
    /// Counts a failure; the first one of a round is also printed.
    fn fail(&mut self, what: &str) {
        if self.failures == 0 {
            eprintln!("check failed: {what}");
        }
        self.failures += 1;
    }

    fn tick(&mut self, engine: &BuildingEngine, cmds: &[Command], report: &TickReport) {
        let map = engine.map();
        for cmd in cmds {
            let (session, expect) = match *cmd {
                Command::Arrive { session, x, y } => {
                    self.live += 1;
                    (session, Some(room_of(map, x, y)))
                }
                Command::Move { session, x, y } => (session, Some(room_of(map, x, y))),
                Command::Leave { session } => {
                    self.live -= 1;
                    (session, None)
                }
            };
            let found = engine.locate(session);
            if found != expect {
                let tick = report.tick;
                self.fail(&format!(
                    "tick {tick}: {cmd:?} left the session in {found:?}, not {expect:?}"
                ));
            }
        }
        if engine.sessions() != self.live || report.sessions != self.live {
            self.fail(&format!(
                "tick {}: {} live sessions, {} expected",
                report.tick,
                engine.sessions(),
                self.live
            ));
        }
        if !report.system_bps.is_finite() {
            self.fail(&format!(
                "tick {}: system_bps {}",
                report.tick, report.system_bps
            ));
        }
        for word in [
            report.tick,
            report.events,
            report.arrivals,
            report.departures,
            report.moves,
            report.handovers,
            report.dirty_shards,
            report.replans,
            report.plan_hits,
            report.sessions,
            report.system_bps.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                self.hash = (self.hash ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        }
        if self.prefix.len() < CHECK_TICKS {
            self.prefix.push(self.hash);
        }
        if report.tick > 0 {
            self.replans += report.replans;
            self.handovers += report.handovers;
        }
        self.last_bps = report.system_bps;
    }

    fn digest(&self, engine: &BuildingEngine) -> Digest {
        Digest {
            system_bps_bits: self.last_bps.to_bits(),
            replans: self.replans,
            handovers: self.handovers,
            sessions: engine.sessions(),
            hash: self.hash,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
