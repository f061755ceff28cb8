//! Million-session load generator for the sharded building engine.
//!
//! Drives a deterministic synthetic workload (per-cell seeded random
//! walks with cross-room handovers) through [`vlc_cell::BuildingEngine`]
//! and reports sessions/sec, replans/sec, and control-tick latency
//! percentiles. `--smoke` runs the small fixed-seed building CI
//! validates with `obs_check`.
//!
//! ```text
//! load_gen [--rooms CxR] [--ticks N] [--events N] [--seed N]
//!          [--policy heuristic|optimal] [--jobs N] [--smoke]
//!          [--obs-stream PATH] [--obs-every N] [--telemetry]
//! ```

use std::io::Write as _;
use vlc_cell::{
    drive, BuildingConfig, BuildingEngine, BuildingObs, BuildingObsConfig, LoadGenConfig,
    ReplanPolicy,
};
use vlc_obs::{FileSink, ObsSink};
use vlc_par::{Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

struct Options {
    load: LoadGenConfig,
    policy: ReplanPolicy,
    jobs: Jobs,
    obs_stream: Option<String>,
    obs_every: u64,
    telemetry: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: load_gen [--rooms CxR] [--ticks N] [--events N] [--seed N] \
         [--policy heuristic|optimal] [--jobs N] [--smoke] \
         [--obs-stream PATH] [--obs-every N] [--telemetry]"
    );
    std::process::exit(2);
}

/// A positive count, or the usage message and exit code 2: a building
/// needs at least one room and a workload at least one tick.
fn positive<T: std::str::FromStr + Default + PartialEq>(v: &str) -> T {
    match v.parse() {
        Ok(n) if n != T::default() => n,
        _ => usage(),
    }
}

fn parse_options() -> Options {
    let mut load = LoadGenConfig::default();
    let mut policy = ReplanPolicy::Heuristic;
    let mut jobs = Jobs::from_env();
    let mut obs_stream = None;
    let mut obs_every = 50;
    let mut telemetry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--rooms" => {
                let v = value();
                let (c, r) = v.split_once('x').unwrap_or_else(|| usage());
                load.cols = positive(c);
                load.rows = positive(r);
            }
            "--ticks" => load.ticks = positive(&value()),
            "--events" => load.target_events = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => load.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => jobs = Jobs::parse(&value()).unwrap_or_else(|| usage()),
            "--policy" => {
                policy = match value().as_str() {
                    "heuristic" => ReplanPolicy::Heuristic,
                    "optimal" => ReplanPolicy::Optimal(vlc_alloc::OptimalSolver::quick()),
                    _ => usage(),
                }
            }
            "--smoke" => {
                load = LoadGenConfig {
                    cols: 5,
                    rows: 4,
                    ticks: 200,
                    target_events: 20_000,
                    seed: 42,
                    mean_lifetime_ticks: 60,
                    move_period_ticks: 5,
                    step_m: 1.5,
                };
            }
            "--obs-stream" => obs_stream = Some(value()),
            "--obs-every" => obs_every = value().parse().unwrap_or_else(|_| usage()),
            "--telemetry" => telemetry = true,
            _ => usage(),
        }
    }
    Options {
        load,
        policy,
        jobs,
        obs_stream,
        obs_every,
        telemetry,
    }
}

fn main() -> std::io::Result<()> {
    let opts = parse_options();
    let registry = Registry::new();
    let pool = Pool::new(opts.jobs).with_telemetry(&registry);

    let mut config = BuildingConfig::paper(opts.load.cols, opts.load.rows);
    config.policy = opts.policy.clone();
    let mut engine = BuildingEngine::new(&config, &registry);

    eprintln!(
        "load_gen: scheduling ≥{} events over {} rooms ({}x{}), {} ticks, seed {} …",
        opts.load.target_events,
        opts.load.cols * opts.load.rows,
        opts.load.cols,
        opts.load.rows,
        opts.load.ticks,
        opts.load.seed
    );
    let schedule = opts.load.schedule();

    let mut obs = match &opts.obs_stream {
        Some(path) => {
            let sink: Box<dyn ObsSink> = Box::new(FileSink::create(std::path::Path::new(path))?);
            let cfg = BuildingObsConfig {
                run: format!("load_gen seed{}", opts.load.seed),
                every: opts.obs_every,
                ..BuildingObsConfig::default()
            };
            Some(BuildingObs::new(&cfg, engine.map(), sink)?)
        }
        None => None,
    };

    let report = drive(&mut engine, &schedule, &pool, obs.as_mut(), &Span::noop())?;
    if let Some(obs) = obs {
        obs.finish()?;
    }

    let policy = match &opts.policy {
        ReplanPolicy::Heuristic => "heuristic",
        ReplanPolicy::Optimal(_) => "optimal",
    };
    let mut out = std::io::stdout().lock();
    writeln!(out, "==== load_gen · sharded building control plane ====")?;
    writeln!(
        out,
        "rooms {} ({}x{}) · policy {policy} · jobs {} · seed {}",
        opts.load.cols * opts.load.rows,
        opts.load.cols,
        opts.load.rows,
        opts.jobs.get(),
        opts.load.seed
    )?;
    writeln!(
        out,
        "ticks {} · events {} · sessions {} (peak concurrent {})",
        report.ticks, report.events, report.sessions, report.peak_sessions
    )?;
    writeln!(
        out,
        "replans {} · plan hits {} · handovers {}",
        report.replans, report.plan_hits, report.handovers
    )?;
    writeln!(
        out,
        "wall {:.2} s · events/s {:.0} · replans/s {:.0}",
        report.wall_s, report.events_per_s, report.replans_per_s
    )?;
    writeln!(
        out,
        "control tick: p50 {:.1} µs · p99 {:.1} µs · max {:.1} µs",
        report.tick_p50_us, report.tick_p99_us, report.tick_max_us
    )?;
    writeln!(
        out,
        "system throughput {:.3e} bit/s",
        report.final_system_bps
    )?;
    if opts.telemetry {
        writeln!(out, "{}", registry.snapshot().summary_table())?;
    }
    Ok(())
}
