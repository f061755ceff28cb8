//! Million-session load generator for the sharded building engine.
//!
//! Drives a deterministic synthetic workload (per-cell seeded random
//! walks with cross-room handovers) through [`vlc_cell::BuildingEngine`]
//! and reports sessions/sec, replans/sec, and control-tick latency
//! percentiles. `--smoke` selects the small fixed-seed building CI
//! validates with `obs_check`; an explicit `--rooms`, `--ticks`,
//! `--events` or `--seed` overrides its value wherever it stands. A flag
//! given twice is a usage error (exit 2) naming it.
//!
//! ```text
//! load_gen [--rooms CxR] [--ticks N] [--events N] [--seed N]
//!          [--policy heuristic|optimal] [--jobs N] [--smoke]
//!          [--obs-stream PATH] [--obs-every N] [--watch]
//!          [--telemetry json|csv|summary]
//! ```
//!
//! The observability flags go through the shared `vlc_obs::ObsOptions`;
//! the stream's cadence defaults to 50 ticks.

use vlc_cell::{
    drive_observed, BuildingConfig, BuildingEngine, BuildingObsConfig, LoadGenConfig, ReplanPolicy,
};
use vlc_obs::ObsOptions;
use vlc_par::{Jobs, Pool};
use vlc_trace::Span;

/// The observability flags `load_gen` honours: the building stream's and
/// the telemetry rendering on stdout.
const OBS_FLAGS: &str = "--obs-stream --obs-every --watch --telemetry";

struct Options {
    load: LoadGenConfig,
    policy: ReplanPolicy,
    jobs: Jobs,
    obs: ObsOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: load_gen [--rooms CxR] [--ticks N] [--events N] [--seed N] \
         [--policy heuristic|optimal] [--jobs N] [--smoke] [observability options]\n{}",
        ObsOptions::usage(OBS_FLAGS)
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

/// The `--smoke` preset: 20 rooms, 200 ticks, seed 42.
fn smoke() -> LoadGenConfig {
    LoadGenConfig {
        cols: 5,
        rows: 4,
        ticks: 200,
        target_events: 20_000,
        seed: 42,
        mean_lifetime_ticks: 60,
        move_period_ticks: 5,
        step_m: 1.5,
    }
}

fn parse_options() -> Options {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let obs = ObsOptions::parse(&mut argv, "load_gen", OBS_FLAGS).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let mut smoke_preset = false;
    let (mut rooms, mut ticks, mut events, mut seed) = (None, None, None, None);
    let mut policy = ReplanPolicy::Heuristic;
    let mut jobs = Jobs::from_env();
    let mut given: Vec<String> = Vec::new();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if given.contains(&arg) {
            eprintln!("error: {arg} given twice");
            usage();
        }
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--rooms" => {
                let v = value();
                let (c, r) = v.split_once('x').unwrap_or_else(|| usage());
                rooms = Some((positive(c), positive(r)));
            }
            "--ticks" => ticks = Some(positive(&value())),
            "--events" => events = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--jobs" => jobs = Jobs::parse(&value()).unwrap_or_else(|| usage()),
            "--policy" => {
                policy = match value().as_str() {
                    "heuristic" => ReplanPolicy::Heuristic,
                    "optimal" => ReplanPolicy::Optimal(vlc_alloc::OptimalSolver::quick()),
                    _ => usage(),
                }
            }
            "--smoke" => smoke_preset = true,
            _ => usage(),
        }
        given.push(arg);
    }
    let mut load = if smoke_preset {
        smoke()
    } else {
        LoadGenConfig::default()
    };
    if let Some((cols, rows)) = rooms {
        (load.cols, load.rows) = (cols, rows);
    }
    load.ticks = ticks.unwrap_or(load.ticks);
    load.target_events = events.unwrap_or(load.target_events);
    load.seed = seed.unwrap_or(load.seed);
    Options {
        load,
        policy,
        jobs,
        obs,
    }
}

fn main() {
    let opts = parse_options();
    let mut run = opts.obs.start("load_gen", opts.jobs.get());
    let pool = Pool::new(opts.jobs).with_telemetry(&run.registry);

    let mut config = BuildingConfig::paper(opts.load.cols, opts.load.rows);
    config.policy = opts.policy.clone();
    let mut engine = BuildingEngine::new(&config, &run.registry);

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

    let stream = BuildingObsConfig {
        run: format!("load_gen seed{}", opts.load.seed),
        ..BuildingObsConfig::default()
    };
    let report = drive_observed(
        &mut engine,
        &schedule,
        &pool,
        &mut run,
        stream,
        &Span::noop(),
    );

    let policy = match &opts.policy {
        ReplanPolicy::Heuristic => "heuristic",
        ReplanPolicy::Optimal(_) => "optimal",
    };
    println!("==== load_gen · sharded building control plane ====");
    println!(
        "rooms {} ({}x{}) · policy {policy} · jobs {} · seed {}",
        opts.load.cols * opts.load.rows,
        opts.load.cols,
        opts.load.rows,
        opts.jobs.get(),
        opts.load.seed
    );
    println!(
        "ticks {} · events {} · sessions {} (peak concurrent {})",
        report.ticks, report.events, report.sessions, report.peak_sessions
    );
    println!(
        "replans {} · plan hits {} · handovers {}",
        report.replans, report.plan_hits, report.handovers
    );
    println!(
        "wall {:.2} s · events/s {:.0} · replans/s {:.0}",
        report.wall_s, report.events_per_s, report.replans_per_s
    );
    println!(
        "control tick: p50 {:.1} µs · p99 {:.1} µs · max {:.1} µs",
        report.tick_p50_us, report.tick_p99_us, report.tick_max_us
    );
    println!("system throughput {:.3e} bit/s", report.final_system_bps);
    run.finish();
}
