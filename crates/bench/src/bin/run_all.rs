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
//! `--obs-stream FILE` records each experiment job as an NDJSON stream and
//! `--watch` renders the monitor dashboard after the run. The shared
//! `vlc_obs::ObsOptions` parses and writes every observability flag;
//! `run_all` takes all of them but the flight recorder's.

use densevlc::experiments::*;
use vlc_bench::probes::{phase_probe, phy_probe, shard_probe, sparse_probe};
use vlc_bench::{budget_sweep, rate_sweep};
use vlc_led::LedParams;
use vlc_obs::ObsOptions;
use vlc_par::{Jobs, Pool, JOBS_ENV};
use vlc_testbed::Scenario;
use vlc_trace::Probe;

const USAGE: &str = "\
run_all — regenerate the full DenseVLC evaluation (every table and figure)

USAGE:
    run_all [ID...] [--jobs N] [observability options]

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
                        parallel layers underneath it (NLOS quadratures,
                        allocator search). N = a positive integer, or
                        `max`/`0` for all available cores. Defaults to the
                        DENSEVLC_JOBS environment variable, then to all
                        cores. `--jobs 1` is the exact sequential path;
                        reports are byte-identical for every worker count.
    -h, --help          Print this help.

The tracer flags time the run and the probes behind it; reports print
once, and repeats beyond the first only feed the statistics. The stream
holds one `job` record per experiment, in the fixed presentation order.

OBSERVABILITY OPTIONS:
";

/// The observability flags `run_all` honours: every one but the flight
/// recorder's.
const OBS_FLAGS: &str = "--telemetry --telemetry-out --trace --bench-out --bench-repeat \
                         --profile-out --folded-out --flame-out --obs-stream --obs-every --watch";

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
            || tab04_sync_error::run(100, 4, Probe::off()).report(),
            || tab04_sync_error::run(200, 0x7AB4, Probe::off()).report(),
        ),
        scaled(
            "tab05_iperf",
            || tab05_iperf::run(50, 5, Probe::off()).report(),
            || tab05_iperf::run(100, 0x7AB5, Probe::off()).report(),
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
        print!("{USAGE}{}", ObsOptions::usage(OBS_FLAGS));
        std::process::exit(0);
    }
    // The shared observability parser consumes its flags; only run_all's
    // own arguments may remain.
    let obs = ObsOptions::parse(&mut argv, "run_all", OBS_FLAGS)?;
    let mut ids = Vec::new();
    let mut jobs: Option<Jobs> = None;
    let mut rest = argv.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--jobs" if jobs.is_some() => return Err("--jobs given twice".to_string()),
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

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}{}", ObsOptions::usage(OBS_FLAGS));
            std::process::exit(2);
        }
    };
    // Propagate the job count to the parallel layers underneath the
    // experiments (NLOS quadratures, allocator candidate search).
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
    let mut run = opts.obs.start("run_all", opts.jobs.get());
    let (registry, tracer) = (&run.registry, &run.tracer);
    let pool = Pool::new(opts.jobs).with_telemetry(registry);

    if !named {
        println!(
            "==== DenseVLC (CoNEXT '18) — full evaluation reproduction ({} jobs, {} workers) ====\n",
            set.len(),
            opts.jobs
        );
    }
    let _wall = registry.span("bench.run_all_s");
    let mut first_reports: Option<Vec<String>> = None;
    // `--bench-repeat` is an error without a tracer flag, so an untimed
    // run makes one pass.
    for _rep in 0..run.options.bench_repeat.unwrap_or(1) {
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
        if tracer.is_enabled() {
            // The probes share the experiment pool — one `par.pool.created`
            // for the whole run (pinned by `tests/pool_hoist.rs`).
            phase_probe(tracer, &pool);
            phy_probe(tracer);
            sparse_probe(tracer, &pool);
            shard_probe(tracer, &pool);
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

    // Jobs complete in pool order, but the stream records them in the
    // fixed presentation order, so it is byte-identical for any worker
    // count (the same contract the printed reports honor).
    run.write_job_stream("run_all", selected.iter().map(|(name, _)| name.to_string()));
    run.finish();
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
