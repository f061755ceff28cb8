//! Runs every experiment at a reduced scale and prints the full report —
//! a one-shot reproduction of the paper's evaluation section.
//! `run_all <id>…` instead runs only the named experiments, at the paper's
//! scale, and prints just their reports.
//!
//! Experiments execute as a parallel job set on the `vlc-par` pool:
//! reports are collected and printed in the fixed experiment order, so the
//! output is byte-identical for any worker count (`--jobs 1` is the exact
//! legacy sequential run). `--telemetry summary` appends the per-job span
//! table (`bench.<name>.run_s`) and the pool's per-worker metrics.
//!
//! `--bench-out FILE` additionally times the run with `vlc-trace` spans and
//! writes a `densevlc-bench/1` BENCH.json (per-phase median/MAD/min/max,
//! see `docs/BENCHMARKING.md`); `--bench-repeat N` repeats the workload to
//! tighten the medians. `--trace FILE` writes the same spans as a Chrome
//! Trace Event file loadable in Perfetto. Neither flag changes the printed
//! reports: repeats beyond the first only feed the timing statistics.
//!
//! All observability flags (including `--obs-stream FILE`, which records
//! each completed experiment job as an NDJSON stream, and `--watch`, which
//! renders the monitor dashboard after the run) are parsed by the shared
//! `vlc_obs::ObsOptions` — the exact flag set `densevlc-cli` takes.

use densevlc::experiments::*;
use vlc_bench::probes::{phase_probe, phy_probe, shard_probe, sparse_probe};
use vlc_bench::{budget_sweep, rate_sweep};
use vlc_led::LedParams;
use vlc_obs::{
    monitor, parse_stream, FileSink, MemorySink, ObsOptions, ObsRecord, ObsSink, TelemetryFormat,
    OBS_SCHEMA,
};
use vlc_par::{Jobs, Pool, JOBS_ENV};
use vlc_prof::{flamegraph_from_profile, to_folded, Profile};
use vlc_telemetry::Registry;
use vlc_testbed::Scenario;
use vlc_trace::{BenchReport, Tracer};

const USAGE: &str = "\
run_all — regenerate the full DenseVLC evaluation (every table and figure)

USAGE:
    run_all [ID...] [--jobs N] [--telemetry FORMAT] [--trace FILE]
            [--bench-out FILE] [--bench-repeat N]
            [--profile-out FILE] [--folded-out FILE] [--flame-out FILE]
            [--obs-stream FILE] [--watch]

ARGS:
    ID...               Run only these experiments, in the given order, at
                        the paper's scale (e.g. 100 random instances for
                        fig08/fig10/fig11), printing just their reports.
                        Without IDs every experiment runs at reduced
                        scale. IDs: fig04_taylor_error fig05_illuminance
                        fig08_throughput_vs_power fig09_swing_levels
                        fig10_swing_cdf fig11_heuristic_verification
                        fig12_sync_delay tab04_sync_error tab05_iperf
                        fig18_scenario1 fig19_scenario2 fig20_scenario3
                        fig21_baselines complexity ablations
                        ext_adaptive_kappa ext_density ext_orientation
                        ext_ofdm ext_dimming ext_blockage ext_adaptation
                        ext_concurrent ext_arq.

OPTIONS:
    --jobs N            Worker count for the experiment job set and the
                        parallel layers underneath it (channel sounding,
                        allocator search). N = a positive integer, or
                        `max`/`0` for all available cores. Defaults to the
                        DENSEVLC_JOBS environment variable, then to all
                        cores. `--jobs 1` is the exact sequential path;
                        reports are byte-identical for every worker count.
    --telemetry FORMAT  Append run telemetry: `summary` (per-job span and
                        per-worker tables), `json`, or `csv`.
    --trace FILE        Record causal spans for the whole run and write
                        them as Chrome Trace Event JSON (open in Perfetto
                        or chrome://tracing).
    --bench-out FILE    Write per-phase timing statistics (median/MAD/
                        min/max over repeats) as BENCH.json; compare two
                        such files with `bench_compare`.
    --bench-repeat N    Repeat the workload N times (default 1) to tighten
                        the BENCH medians. Reports print once; repeats
                        beyond the first only feed the statistics.
    --profile-out FILE  Build a densevlc-prof/1 self-time profile from the
                        run's spans and write it as JSON; diff two with
                        `prof_diff`, validate with `prof_check`.
    --folded-out FILE   Write the profile as folded stacks (Brendan Gregg
                        format, loadable by any flamegraph tool).
    --flame-out FILE    Write a self-contained SVG flamegraph.
    --obs-stream FILE   Write an NDJSON observability stream: one `job`
                        record per completed experiment (in the fixed
                        presentation order) plus a run summary, validated
                        by `obs_check` and rendered by `densevlc-cli
                        monitor`.
    --watch             Render the monitor dashboard from the stream after
                        the run (with or without --obs-stream).
    -h, --help          Print this help.
";

type Run = Box<dyn Fn() -> String + Send + Sync>;

/// One experiment: its ID (also its span label), the reduced-scale call
/// bare `run_all` makes, and the paper-scale call `run_all <id>` makes
/// when it differs from the reduced one.
struct Job {
    name: &'static str,
    reduced: Run,
    paper: Option<Run>,
}

/// A job whose paper-scale call differs from its reduced-scale one.
fn scaled(
    name: &'static str,
    reduced: impl Fn() -> String + Send + Sync + 'static,
    paper: impl Fn() -> String + Send + Sync + 'static,
) -> Job {
    Job {
        name,
        reduced: Box::new(reduced),
        paper: Some(Box::new(paper)),
    }
}

/// A job that runs at paper scale either way.
fn fixed(name: &'static str, run: impl Fn() -> String + Send + Sync + 'static) -> Job {
    Job {
        name,
        reduced: Box::new(run),
        paper: None,
    }
}

/// The evaluation job set, in the paper's presentation order.
/// Returns the jobs plus the index where the §9 extensions begin.
fn job_set() -> (Vec<Job>, usize) {
    let mut jobs = vec![
        fixed("fig04_taylor_error", || {
            fig04_taylor_error::run(&LedParams::cree_xte_paper(), 90).report()
        }),
        scaled(
            "fig05_illuminance",
            || fig05_illuminance::run(&LedParams::cree_xte_paper(), 1).report(),
            || fig05_illuminance::run(&LedParams::cree_xte_paper(), 0xF165).report(),
        ),
        scaled(
            "fig08_throughput_vs_power",
            || fig08_throughput_vs_power::run(&budget_sweep(), 20, 8).report(),
            || fig08_throughput_vs_power::run(&budget_sweep(), 100, 0xF168).report(),
        ),
        fixed("fig09_swing_levels", || {
            fig09_swing_levels::run(&budget_sweep()).report()
        }),
        // The paper's representative TXs: TX3, TX5, TX10, TX15 (zero-based).
        scaled(
            "fig10_swing_cdf",
            || fig10_swing_cdf::run(&[2, 4, 9, 14], 1.2, 20, 10).report(),
            || fig10_swing_cdf::run(&[2, 4, 9, 14], 1.2, 100, 0xF1610).report(),
        ),
        scaled(
            "fig11_heuristic_verification",
            || fig11_heuristic_verification::run(&budget_sweep(), 20, 1.2, 11).report(),
            || fig11_heuristic_verification::run(&budget_sweep(), 100, 1.2, 0xF1611).report(),
        ),
        scaled(
            "fig12_sync_delay",
            || fig12_sync_delay::run(&rate_sweep(), 10_001, 12).report(),
            || fig12_sync_delay::run(&rate_sweep(), 20_001, 0xF1612).report(),
        ),
        scaled(
            "tab04_sync_error",
            || tab04_sync_error::run(100, 4).report(),
            || tab04_sync_error::run(200, 0x7AB4).report(),
        ),
        scaled(
            "tab05_iperf",
            || tab05_iperf::run(50, 5).report(),
            || tab05_iperf::run(100, 0x7AB5).report(),
        ),
        fixed("fig18_scenario1", || {
            fig18_20_scenarios::run(Scenario::One).report()
        }),
        fixed("fig19_scenario2", || {
            fig18_20_scenarios::run(Scenario::Two).report()
        }),
        fixed("fig20_scenario3", || {
            fig18_20_scenarios::run(Scenario::Three).report()
        }),
        fixed("fig21_baselines", || {
            fig21_baselines::run(Scenario::Two).report()
        }),
        scaled(
            "complexity",
            || complexity::run(1.2, 3, 5_000).report(),
            || complexity::run(1.2, 5, 20_000).report(),
        ),
        fixed("ablations", || {
            ablations::run(&[1.0, 1.2, 1.3, 1.5], 1.2).report()
        }),
    ];
    let extensions_at = jobs.len();
    jobs.extend([
        scaled(
            "ext_adaptive_kappa",
            || ext_adaptive_kappa::run(&[0.6, 1.2], 1.0).report(),
            || {
                let budgets = [0.3, 0.6, 0.9, 1.2, 1.8];
                ext_adaptive_kappa::run(&budgets, 1.0).report()
                    + &ext_adaptive_kappa::run(&budgets, 1.3).report()
            },
        ),
        scaled(
            "ext_density",
            || ext_density::run(&[3, 4, 6], 1.2).report(),
            || ext_density::run(&[2, 3, 4, 5, 6, 8], 1.2).report(),
        ),
        scaled(
            "ext_orientation",
            || ext_orientation::run(&[0.0, 20.0, 45.0], 1.2).report(),
            || ext_orientation::run(&[0.0, 10.0, 20.0, 30.0, 45.0, 60.0], 1.2).report(),
        ),
        scaled(
            "ext_ofdm",
            || ext_ofdm::run(50_000, 0xE0FD).report(),
            || ext_ofdm::run(100_000, 0xE0FD).report(),
        ),
        scaled(
            "ext_dimming",
            || ext_dimming::run(&[0.15, 0.3, 0.45, 0.6, 0.75], 0.6).report(),
            || {
                let biases = [0.10, 0.15, 0.225, 0.30, 0.45, 0.60, 0.75, 0.85];
                ext_dimming::run(&biases, 0.6).report()
            },
        ),
        scaled(
            "ext_blockage",
            || ext_blockage::run(Scenario::Three, 6, 1.2).report(),
            || {
                [Scenario::One, Scenario::Two, Scenario::Three]
                    .map(|s| format!("{}\n{}\n", s.label(), ext_blockage::run(s, 8, 1.2).report()))
                    .concat()
            },
        ),
        scaled(
            "ext_adaptation",
            || ext_adaptation::run(&[0.5, 2.0], &[0.07, 2.0], 0xADA7).report(),
            || {
                let speeds = [0.25, 0.5, 1.0, 2.0, 4.0];
                ext_adaptation::run(&speeds, &[0.07, 0.5, 2.0, 10.0], 0xADA7).report()
            },
        ),
        scaled(
            "ext_concurrent",
            || ext_concurrent::run(Scenario::Two, 1.2, 15, 0xC0C).report(),
            || {
                [Scenario::One, Scenario::Two, Scenario::Three]
                    .map(|s| ext_concurrent::run(s, 1.2, 30, 0xC0C).report() + "\n")
                    .concat()
            },
        ),
        scaled(
            "ext_arq",
            || ext_arq::run_study(&[1.0, 0.05, 0.04], 20, 0xA2).report(),
            || ext_arq::run_study(&[1.0, 0.2, 0.08, 0.05, 0.045, 0.04], 40, 0xA2).report(),
        ),
    ]);
    (jobs, extensions_at)
}

struct Options {
    /// Experiment IDs to run at paper scale; empty runs every job reduced.
    ids: Vec<String>,
    jobs: Jobs,
    obs: ObsOptions,
}

fn parse_args() -> Result<Options, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        std::process::exit(0);
    }
    // The shared observability parser consumes its flags; only run_all's
    // own arguments may remain.
    let obs = ObsOptions::parse(&mut argv)?;
    let mut ids = Vec::new();
    let mut jobs: Option<Jobs> = None;
    let mut rest = argv.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = rest.next().ok_or("--jobs needs a value (N or `max`)")?;
                jobs = Some(Jobs::parse(&v).ok_or(format!("bad --jobs value `{v}`"))?);
            }
            other if other.starts_with('-') => return Err(format!("unknown argument `{other}`")),
            _ => ids.push(arg),
        }
    }
    Ok(Options {
        ids,
        jobs: jobs.unwrap_or_else(Jobs::from_env),
        obs,
    })
}

fn write_file(path: &str, contents: &str, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("error: cannot write {what} to {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Propagate the job count to the parallel layers underneath the
    // experiments (channel sounding, allocator candidate search).
    std::env::set_var(JOBS_ENV, opts.jobs.get().to_string());

    let (set, extensions_at) = job_set();
    if let Some(id) = opts.ids.iter().find(|id| set.iter().all(|j| j.name != *id)) {
        let valid: Vec<&str> = set.iter().map(|j| j.name).collect();
        eprintln!(
            "error: unknown experiment `{id}`; valid IDs: {}",
            valid.join(" ")
        );
        std::process::exit(2);
    }
    // Named jobs run their paper-scale call, in the order given.
    let named = !opts.ids.is_empty();
    let selected: Vec<(&str, &Run)> = if named {
        opts.ids
            .iter()
            .filter_map(|id| set.iter().find(|j| j.name == id))
            .map(|j| (j.name, j.paper.as_ref().unwrap_or(&j.reduced)))
            .collect()
    } else {
        set.iter().map(|j| (j.name, &j.reduced)).collect()
    };
    let registry = Registry::new();
    let pool = Pool::new(opts.jobs).with_telemetry(&registry);
    let timing = opts.obs.wants_tracer();
    let tracer = if timing {
        Tracer::new()
    } else {
        Tracer::noop()
    };
    let repeats = if timing { opts.obs.bench_repeat } else { 1 };

    if !named {
        println!(
            "==== DenseVLC (CoNEXT '18) — full evaluation reproduction ({} jobs, {} workers) ====\n",
            set.len(),
            opts.jobs
        );
    }
    let _wall = registry.span("bench.run_all_s");
    let mut first_reports: Option<Vec<String>> = None;
    for _rep in 0..repeats {
        let root = tracer.root("bench.run_all");
        root.attr("jobs", &opts.jobs.get().to_string());
        let reports = pool.map_indexed(selected.len(), |i| {
            let (name, run) = selected[i];
            let trace_span = root.child_indexed(&format!("experiment.{name}"), i);
            let _span = registry.span(&format!("bench.{name}.run_s"));
            let report = run();
            registry.counter("bench.jobs_done").inc();
            drop(trace_span);
            report
        });
        drop(root);
        if timing {
            // The probes share the experiment pool — one `par.pool.created`
            // for the whole run (pinned by `tests/pool_hoist.rs`).
            phase_probe(&tracer, &pool);
            phy_probe(&tracer);
            sparse_probe(&tracer, &pool);
            shard_probe(&tracer, &pool);
        }
        first_reports.get_or_insert(reports);
    }
    drop(_wall);

    let reports = first_reports.expect("at least one repeat ran");
    for (i, report) in reports.iter().enumerate() {
        if named {
            // Named jobs print just their reports, back to back.
            print!("{report}");
            continue;
        }
        if i == extensions_at {
            println!("---- extensions (paper §9 future work) ----\n");
        }
        println!("{report}");
    }

    // Surface span-ring health before snapshotting, so the summary
    // exporter's rings line can report it (see export::summary).
    if timing {
        registry
            .counter("trace.spans_dropped")
            .add(tracer.snapshot().dropped);
    }

    if let Some(format) = opts.obs.telemetry {
        let snap = registry.snapshot();
        match format {
            TelemetryFormat::Json => println!("{}", snap.to_json()),
            TelemetryFormat::Csv => println!("{}", snap.to_csv()),
            TelemetryFormat::Summary => println!("{}", snap.summary_table()),
        }
    }

    // Observability stream: jobs complete in pool order, but records are
    // emitted in the fixed presentation order after collection, so the
    // stream is byte-identical for any worker count (the same contract
    // the printed reports honor).
    if opts.obs.wants_stream() {
        let snap = registry.snapshot();
        let mut records = vec![ObsRecord::Meta {
            schema: OBS_SCHEMA.into(),
            run: "run_all".into(),
            tick_s: 0.0,
            n_rx: 0,
            every: opts.obs.obs_every,
        }];
        for (i, (name, _)) in selected.iter().enumerate() {
            records.push(ObsRecord::Job {
                index: i as u64,
                name: (*name).to_string(),
            });
        }
        // A profiled run digests its profile into the stream, ahead of
        // the summary trailer (obs_check requires summary-last).
        if timing && opts.obs.wants_profile() {
            let profile = Profile::from_snapshot(&tracer.snapshot(), opts.jobs.get());
            records.push(ObsRecord::profile_summary(&profile));
        }
        records.push(ObsRecord::Summary {
            ticks: 0,
            mean_system_bps: 0.0,
            alerts_fired: 0,
            alerts_cleared: 0,
            events_dropped: snap.events_dropped,
            spans_dropped: if timing { tracer.snapshot().dropped } else { 0 },
        });
        let mem = MemorySink::new();
        let mut sink: Box<dyn ObsSink> = match &opts.obs.obs_stream {
            Some(path) => match FileSink::create(std::path::Path::new(path)) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot create stream file {path}: {e}");
                    std::process::exit(2);
                }
            },
            None => Box::new(mem.clone()),
        };
        for r in &records {
            let _ = sink.write_line(&r.to_line());
        }
        let _ = sink.flush();
        drop(sink);
        if let Some(path) = &opts.obs.obs_stream {
            eprintln!("wrote observability stream to {path}");
        }
        if opts.obs.watch {
            let text = match &opts.obs.obs_stream {
                Some(path) => std::fs::read_to_string(path).unwrap_or_default(),
                None => mem.text(),
            };
            match parse_stream(&text) {
                Ok(parsed) => print!("\n{}", monitor::render(&parsed)),
                Err(e) => eprintln!("error: stream failed validation: {e}"),
            }
        }
    }

    if timing {
        let snapshot = tracer.snapshot();
        if let Some(path) = &opts.obs.bench_out {
            let report = BenchReport::from_snapshot(&snapshot, opts.jobs.get(), repeats);
            write_file(path, &report.to_json(), "BENCH.json");
        }
        if let Some(path) = &opts.obs.trace {
            write_file(path, &snapshot.to_chrome_json(), "Chrome trace");
        }
        if opts.obs.wants_profile() {
            let profile = Profile::from_snapshot(&snapshot, opts.jobs.get());
            if let Some(path) = &opts.obs.profile_out {
                write_file(path, &profile.to_json(), "self-time profile");
            }
            if let Some(path) = &opts.obs.folded_out {
                write_file(path, &to_folded(&profile), "folded stacks");
            }
            if let Some(path) = &opts.obs.flame_out {
                match flamegraph_from_profile("run_all", &profile) {
                    Ok(svg) => write_file(path, &svg, "flamegraph"),
                    Err(e) => {
                        eprintln!("error: flamegraph rendering failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_job_id() {
        let (set, _) = job_set();
        for job in &set {
            assert!(
                USAGE.contains(&format!(" {}", job.name)),
                "{} missing from USAGE",
                job.name
            );
        }
    }
}
