//! Command line of the DenseVLC benchmark; see `README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use densevlc_benchmark::gen::Workload;
use densevlc_benchmark::metrics::{median, quartiles, Metric, END_TO_END, PER_LAYER};
use densevlc_benchmark::{run, RunOpts, PINNED_SEED};
use vlc_par::Jobs;
use vlc_telemetry::export::value::{field, parse_json, JsonValue};

// Counts the main thread's allocations inside `BuildingEngine::apply`
// (`cell.apply.allocs_per_event`) and the heap peak (`peak_heap_mb`).
#[global_allocator]
static GLOBAL: densevlc_benchmark::heap::HeapTracker = densevlc_benchmark::heap::HeapTracker;

const USAGE: &str = "usage: densevlc-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--jobs N] [--profile-out DIR]
       densevlc-benchmark --smoke [--workload <name>]
       densevlc-benchmark --repeat-check N [--workload <name>] [--seed N] [--seconds S] [--jobs N]
workloads: building-crowd, building-sparse, building-optimal, frame-e2e";

/// Run length when `--seconds` is not given (BENCHMARK.json's run_seconds).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: Option<Jobs>,
    smoke: bool,
    repeat_check: Option<usize>,
    profile_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        jobs: None,
        smoke: false,
        repeat_check: None,
        profile_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--jobs" => {
                args.jobs = Some(Jobs::of(
                    value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
                ));
            }
            "--repeat-check" => {
                args.repeat_check = Some(value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?);
            }
            "--profile-out" => args.profile_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.smoke && args.repeat_check.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let ok = if let Some(n) = args.repeat_check {
        repeat_check(&args, &workloads, n)
    } else if args.smoke {
        workloads.iter().all(|&w| {
            [false, true]
                .into_iter()
                .all(|trace| run_one(&args, w, trace, 0.0))
        })
    } else {
        run_one(&args, workloads[0], args.trace, args.seconds)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run: a readable table on stderr, the JSON result line on stdout.
fn run_one(args: &Args, workload: Workload, trace: bool, seconds: f64) -> bool {
    let opts = RunOpts {
        workload,
        seed: args.seed,
        seconds,
        trace,
        jobs: args.jobs.unwrap_or(Jobs::of(workload.default_jobs())),
        smoke: args.smoke,
        profile_out: args.profile_out.clone(),
    };
    let outcome = run(&opts);
    let catalogue: &[Metric] = if trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{} seed {} jobs {} trace {}: {} attempted, {} failed",
        workload.name(),
        args.seed,
        opts.jobs,
        u8::from(trace),
        outcome.attempted,
        outcome.failed
    );
    for metric in catalogue {
        let value = outcome.get(metric.name).unwrap_or(f64::NAN);
        eprintln!("  {:<32} {value:>14.6} {}", metric.name, metric.unit);
    }
    let line = outcome.to_json(catalogue);
    println!("{line}");
    line.starts_with("{\"correct\": true")
}

/// Runs each workload `n` times in child processes (seeds `seed..seed+n`)
/// and prints every end-to-end metric's quartile spread against its bound
/// in `BENCHMARK.json`. Fails when a run fails or a spread other than
/// `setup_s`'s exceeds its bound.
fn repeat_check(args: &Args, workloads: &[Workload], n: usize) -> bool {
    let bounds = match read_bounds("BENCHMARK.json") {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read BENCHMARK.json: {e}");
            return false;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    println!(
        "workload          metric            median        q1            q3        spread  bound"
    );
    for &workload in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n as u64 {
            let seed = args.seed + i;
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", "0"]);
            if let Some(jobs) = args.jobs {
                child.args(["--jobs", &jobs.to_string()]);
            }
            let output = child.output();
            let values = output
                .map_err(|e| e.to_string())
                .and_then(|o| parse_result(&String::from_utf8_lossy(&o.stdout)));
            match values {
                Ok(values) => {
                    for (s, v) in samples.iter_mut().zip(values) {
                        s.push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", workload.name());
                    ok = false;
                }
            }
        }
        for (metric, values) in END_TO_END.iter().zip(&samples) {
            if values.len() < 2 {
                continue;
            }
            let (q1, q3) = quartiles(values);
            let mid = median(values);
            let spread = (q3 - q1) / mid;
            let bound = bounds
                .iter()
                .find(|(name, _)| name == metric.name)
                .map_or(f64::NAN, |&(_, b)| b);
            let verdict = if spread > bound {
                if metric.name != "setup_s" {
                    ok = false;
                }
                "OVER BOUND"
            } else if spread > bound / 3.0 {
                "over a third of the bound"
            } else {
                "ok"
            };
            println!(
                "{:<17} {:<15} {mid:>12.6} {q1:>12.6} {q3:>12.6} {spread:>8.4} {bound:>6.3}  {verdict}",
                workload.name(),
                metric.name
            );
        }
    }
    ok
}

/// `(name, bound)` of every end-to-end metric in a `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    let metrics = field(
        doc.as_obj("document").map_err(|e| e.to_string())?,
        "end_to_end",
    )
    .and_then(|v| v.as_arr("end_to_end").map(<[JsonValue]>::to_vec))
    .map_err(|e| e.to_string())?;
    metrics
        .iter()
        .map(|m| {
            let obj = m.as_obj("metric")?;
            Ok((
                field(obj, "name")?.as_str("name")?.to_string(),
                field(obj, "bound")?.as_f64("bound")?,
            ))
        })
        .collect::<Result<_, vlc_telemetry::export::ParseError>>()
        .map_err(|e| e.to_string())
}

/// The end-to-end values of a correct run's result line, in catalogue
/// order.
fn parse_result(stdout: &str) -> Result<Vec<f64>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = parse_json(line).map_err(|e| e.to_string())?;
    let obj = doc.as_obj("result").map_err(|e| e.to_string())?;
    let correct = field(obj, "correct")
        .and_then(|v| v.as_bool("correct"))
        .map_err(|e| e.to_string())?;
    if !correct {
        return Err("run reported itself incorrect".to_string());
    }
    let metrics = field(obj, "metrics")
        .and_then(|v| v.as_obj("metrics"))
        .map_err(|e| e.to_string())?;
    END_TO_END
        .iter()
        .map(|m| {
            field(metrics, m.name)
                .and_then(|v| v.as_obj(m.name))
                .and_then(|v| field(v, "value"))
                .and_then(|v| v.as_f64(m.name))
                .map_err(|e| e.to_string())
        })
        .collect()
}
