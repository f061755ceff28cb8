//! Compares two BENCH.json files (written by `run_all --bench-out`) and
//! exits nonzero when the new run regresses past the noise band — the CI
//! perf-regression gate.
//!
//! A phase regresses when its new median exceeds the old median by more
//! than `max(rel·old_median, mad_k·old_MAD, abs_floor)`; phases present in
//! only one file are skipped, and improvements never flag. Exit status:
//! 0 = no regression, 1 = at least one phase regressed, 2 = usage, spawn
//! or parse error.
//!
//! Given only the baseline, it first benchmarks the working tree itself:
//! it spawns `cargo run --release -p vlc-bench --bin run_all --
//! --bench-out` at 5 repeats and gates that fresh report. `cargo bench-gate`
//! (aliased in `.cargo/config.toml`) is this form against the committed
//! `BENCH.json`.
//!
//! With `--explain`, a failed gate additionally cross-references each
//! flagged phase against the `densevlc-prof/1` self-time profile of the
//! new run and prints the call paths that own the regression — see
//! `docs/BENCHMARKING.md` §Explaining a gate failure. The two-file form
//! takes that profile as `--new-profile`; the one-file form profiles its
//! fresh run.

use std::path::PathBuf;
use std::process::Command;

use vlc_prof::{explain_regressions, Profile};
use vlc_trace::{format_regressions, BenchReport, CompareTolerance};

const USAGE: &str = "\
bench_compare — BENCH.json perf-regression gate

USAGE:
    bench_compare OLD.json NEW.json [--rel F] [--mad-k F] [--abs-floor S]
                  [--explain --new-profile FILE [--old-profile FILE] [--top N]]
    bench_compare OLD.json [--rel F] [--mad-k F] [--abs-floor S]
                  [--explain [--old-profile FILE] [--top N]]

ARGS:
    OLD.json        Baseline BENCH.json (e.g. the committed BENCH.json).
    NEW.json        Candidate BENCH.json to gate. Without it, the working
                    tree is benchmarked first (`run_all --bench-out`,
                    5 samples per phase) and that fresh report is gated.

OPTIONS:
    --rel F         Relative tolerance on the old median (default 0.2).
    --mad-k F       Multiples of the old MAD tolerated (default 5.0).
    --abs-floor S   Absolute noise floor in seconds (default 0.002);
                    shields micro-phases from flagging on scheduler noise.
    --explain       On failure, name the call paths that own each flagged
                    phase, using the new run's self-time profile. Without
                    NEW.json the fresh run is profiled for this.
    --new-profile FILE  densevlc-prof/1 profile of the NEW run (from
                    `run_all --profile-out`); required by --explain when
                    NEW.json is given.
    --old-profile FILE  Profile of the OLD run; with it, --explain ranks
                    paths by self-time *delta* instead of absolute self.
    --top N         Call paths printed per regressed phase (default 5).
    -h, --help      Print this help.

EXIT STATUS:
    0  no phase regressed beyond the noise band
    1  at least one phase regressed (each is printed)
    2  usage error, spawn failure, or unreadable/invalid BENCH.json
";

/// Samples per phase when benchmarking the working tree.
const FRESH_REPEATS: u32 = 5;

struct Options {
    old_path: String,
    /// `None` benchmarks the working tree.
    new_path: Option<String>,
    tol: CompareTolerance,
    explain: bool,
    new_profile: Option<String>,
    old_profile: Option<String>,
    top: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut tol = CompareTolerance::default();
    let mut explain = false;
    let mut new_profile: Option<String> = None;
    let mut old_profile: Option<String> = None;
    let mut top = 5usize;
    let mut args = std::env::args().skip(1);
    let float = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<f64, String> {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite() && *f >= 0.0)
            .ok_or(format!("bad {flag} value `{v}`"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--rel" => tol.rel = float(&mut args, "--rel")?,
            "--mad-k" => tol.mad_k = float(&mut args, "--mad-k")?,
            "--abs-floor" => tol.abs_floor_s = float(&mut args, "--abs-floor")?,
            "--explain" => explain = true,
            "--new-profile" => {
                new_profile = Some(args.next().ok_or("--new-profile needs a file")?);
            }
            "--old-profile" => {
                old_profile = Some(args.next().ok_or("--old-profile needs a file")?);
            }
            "--top" => {
                let v = args.next().ok_or("--top needs a value")?;
                top = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --top value `{v}`"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            _ => paths.push(arg),
        }
    }
    let mut paths = paths.into_iter();
    let (Some(old_path), new_path, None) = (paths.next(), paths.next(), paths.next()) else {
        return Err("expected one or two BENCH.json paths".to_string());
    };
    match (&new_path, &new_profile) {
        (Some(_), None) if explain => {
            return Err(
                "--explain needs --new-profile FILE (from run_all --profile-out)".to_string(),
            )
        }
        (None, Some(_)) => {
            return Err("--new-profile needs NEW.json; without it the fresh run is profiled".into())
        }
        _ => {}
    }
    Ok(Options {
        old_path,
        new_path,
        tol,
        explain,
        new_profile,
        old_profile,
        top,
    })
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_profile(path: &str) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Profile::from_json(&text).map_err(|e| format!("{path} is not a valid profile: {e}"))
}

/// The fresh run's temp files, removed however the gate exits.
struct TempFiles {
    bench: PathBuf,
    profile: PathBuf,
}

impl TempFiles {
    fn new() -> Self {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        Self {
            bench: dir.join(format!("bench_compare_{pid}.json")),
            profile: dir.join(format!("bench_compare_{pid}.profile.json")),
        }
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.bench);
        let _ = std::fs::remove_file(&self.profile);
    }
}

/// Benchmarks the working tree with `run_all --bench-out` (profiled when
/// `explain`) and returns its report and profile.
fn bench_working_tree(explain: bool) -> Result<(BenchReport, Option<Profile>), String> {
    let fresh = TempFiles::new();
    println!(
        "==== bench_compare: benchmarking working tree ({FRESH_REPEATS} samples/phase{}) ====",
        if explain { ", profiled" } else { "" }
    );
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(&cargo);
    cmd.args([
        "run",
        "--release",
        "-p",
        "vlc-bench",
        "--bin",
        "run_all",
        "--",
    ])
    .arg("--bench-out")
    .arg(&fresh.bench)
    .args(["--bench-repeat", &FRESH_REPEATS.to_string()]);
    if explain {
        cmd.arg("--profile-out").arg(&fresh.profile);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn `{cargo} run`: {e}"))?;
    if !status.success() {
        return Err("run_all --bench-out failed".to_string());
    }
    let report = load(&fresh.bench.to_string_lossy())?;
    let profile = if explain {
        Some(load_profile(&fresh.profile.to_string_lossy())?)
    } else {
        None
    };
    Ok((report, profile))
}

/// Runs the gate; `Ok(true)` means at least one phase regressed.
fn gate(opts: &Options) -> Result<bool, String> {
    // Read the baseline first: a bad path must not cost a benchmark run.
    let old = load(&opts.old_path)?;
    let (new, new_label, fresh_profile) = match &opts.new_path {
        Some(path) => (load(path)?, path.as_str(), None),
        None => {
            let (new, profile) = bench_working_tree(opts.explain)?;
            (new, "working tree", profile)
        }
    };
    let regressions = old.compare(&new, &opts.tol);
    if regressions.is_empty() {
        println!(
            "bench_compare: OK — no phase regressed ({} vs {new_label})",
            opts.old_path
        );
        return Ok(false);
    }
    println!(
        "bench_compare: {} phase(s) regressed ({} vs {new_label}):",
        regressions.len(),
        opts.old_path
    );
    print!("{}", format_regressions(&regressions));
    if opts.explain {
        let new_profile = match fresh_profile {
            Some(p) => p,
            None => load_profile(opts.new_profile.as_deref().expect("validated in parse"))?,
        };
        let old_profile = opts.old_profile.as_deref().map(load_profile).transpose()?;
        print!(
            "{}",
            explain_regressions(&regressions, &new_profile, old_profile.as_ref(), opts.top)
        );
    }
    Ok(true)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match gate(&opts) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
