//! End-to-end tests of the perf-regression gate: `run_all --bench-out`
//! writes a parseable `densevlc-bench/1` report, `bench_compare` exits
//! 0 / 1 / 2 for pass / regression / usage error, and `--explain` names
//! the call paths that own a flagged phase from a profile sidecar. Also
//! `run_all <id>…`, the paper-scale path for named experiments.

use densevlc::experiments::{fig04_taylor_error, fig21_baselines};
use std::path::PathBuf;
use std::process::Command;
use vlc_led::LedParams;
use vlc_prof::Profile;
use vlc_telemetry::ManualClock;
use vlc_testbed::Scenario;
use vlc_trace::{parse_chrome_json, BenchReport, Tracer};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("densevlc-bench-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A synthetic two-phase BENCH.json where `phase.a` takes `a_s` seconds.
fn synthetic_bench(a_s: f64) -> String {
    bench_of(&[("phase.a", a_s), ("phase.b", 0.05)])
}

/// A BENCH.json with one single-sample row per `(phase, seconds)`.
fn bench_of(phases: &[(&str, f64)]) -> String {
    let clock = ManualClock::new();
    let tracer = Tracer::with_clock(clock.clone());
    for &(name, secs) in phases {
        let span = tracer.root(name);
        clock.advance(secs);
        drop(span);
    }
    BenchReport::from_snapshot(&tracer.snapshot(), 1, 1).to_json()
}

fn compare(old: &PathBuf, new: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(old)
        .arg(new)
        .output()
        .expect("bench_compare runs")
}

#[test]
fn same_file_passes_the_gate() {
    let path = tmp("same.json");
    std::fs::write(&path, synthetic_bench(0.1)).unwrap();
    let out = compare(&path, &path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
}

#[test]
fn synthetic_regression_fails_the_gate() {
    let old = tmp("old.json");
    let new = tmp("new.json");
    std::fs::write(&old, synthetic_bench(0.1)).unwrap();
    std::fs::write(&new, synthetic_bench(1.0)).unwrap();
    let out = compare(&old, &new);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("phase.a"),
        "regressed phase named: {stdout}"
    );
    assert!(!stdout.contains("phase.b"), "unchanged phase not flagged");
}

#[test]
fn improvements_never_flag() {
    let old = tmp("imp_old.json");
    let new = tmp("imp_new.json");
    std::fs::write(&old, synthetic_bench(1.0)).unwrap();
    std::fs::write(&new, synthetic_bench(0.1)).unwrap();
    assert_eq!(compare(&old, &new).status.code(), Some(0));
}

#[test]
fn baseline_phases_the_new_run_lacks_are_named_not_measured() {
    let old = tmp("unmeasured_old.json");
    let same = tmp("unmeasured_same.json");
    let slow = tmp("unmeasured_slow.json");
    std::fs::write(&old, synthetic_bench(0.1)).unwrap();
    std::fs::write(&same, bench_of(&[("phase.a", 0.1), ("phase.new", 0.1)])).unwrap();
    std::fs::write(&slow, bench_of(&[("phase.a", 1.0)])).unwrap();
    for (new, code) in [(&same, 0), (&slow, 1)] {
        let out = compare(&old, new);
        assert_eq!(out.status.code(), Some(code), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("1 baseline phase(s) not measured: phase.b\n"),
            "{stdout}"
        );
        assert!(!stdout.contains("phase.new"), "new-only phases stay silent");
    }
}

#[test]
fn usage_and_parse_errors_exit_2() {
    let no_args = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .output()
        .unwrap();
    assert_eq!(no_args.status.code(), Some(2));

    let garbage = tmp("garbage.json");
    std::fs::write(&garbage, "{\"schema\": \"wrong/9\"}").unwrap();
    let out = compare(&garbage, &garbage);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let missing = tmp("does-not-exist.json");
    let ok = tmp("ok.json");
    std::fs::write(&ok, synthetic_bench(0.1)).unwrap();
    assert_eq!(compare(&missing, &ok).status.code(), Some(2));
}

/// A synthetic profile matching [`synthetic_bench`]'s phases: `phase.a`
/// spends most of its time in a `solver.inner` child (the guilty path an
/// explanation should name), `phase.b` is flat.
fn synthetic_profile(a_s: f64) -> String {
    let clock = ManualClock::new();
    let tracer = Tracer::with_clock(clock.clone());
    let a = tracer.root("phase.a");
    {
        let hot = a.child("solver.inner");
        clock.advance(a_s * 0.75);
        drop(hot);
    }
    clock.advance(a_s * 0.25);
    drop(a);
    let b = tracer.root("phase.b");
    clock.advance(0.05);
    drop(b);
    Profile::from_snapshot(&tracer.snapshot(), 1).to_json()
}

#[test]
fn explain_without_a_profile_is_a_usage_error() {
    let path = tmp("explain_usage.json");
    std::fs::write(&path, synthetic_bench(0.1)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&path)
        .arg(&path)
        .arg("--explain")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--new-profile"));
}

#[test]
fn explain_names_the_guilty_call_path() {
    let old = tmp("explain_old.json");
    let new = tmp("explain_new.json");
    let prof = tmp("explain_new_profile.json");
    std::fs::write(&old, synthetic_bench(0.1)).unwrap();
    std::fs::write(&new, synthetic_bench(1.0)).unwrap();
    std::fs::write(&prof, synthetic_profile(1.0)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&old)
        .arg(&new)
        .args(["--explain", "--new-profile"])
        .arg(&prof)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Shape: the regression table row, then the explanation header, then
    // the guilty call path ranked first with calls/allocs columns.
    assert!(
        stdout.contains("explain: phase.a regressed +0.9"),
        "{stdout}"
    );
    let hot = stdout
        .find("phase.a;solver.inner")
        .expect("guilty path named");
    let own = stdout.rfind("s self").expect("self-time rows present");
    assert!(own > 0, "{stdout}");
    assert!(
        stdout.contains("calls"),
        "no-baseline rows carry calls: {stdout}"
    );
    // The unregressed phase must not be explained.
    assert!(!stdout.contains("explain: phase.b"), "{stdout}");
    let _ = hot;
}

#[test]
fn explain_with_a_baseline_ranks_by_delta() {
    let old = tmp("delta_old.json");
    let new = tmp("delta_new.json");
    let old_prof = tmp("delta_old_profile.json");
    let new_prof = tmp("delta_new_profile.json");
    std::fs::write(&old, synthetic_bench(0.1)).unwrap();
    std::fs::write(&new, synthetic_bench(1.0)).unwrap();
    std::fs::write(&old_prof, synthetic_profile(0.1)).unwrap();
    std::fs::write(&new_prof, synthetic_profile(1.0)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&old)
        .arg(&new)
        .args(["--explain", "--new-profile"])
        .arg(&new_prof)
        .arg("--old-profile")
        .arg(&old_prof)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Baseline rows show old -> new self times and the alloc delta.
    assert!(stdout.contains("s self (0.0"), "delta row shape: {stdout}");
    assert!(stdout.contains("allocs +0"), "{stdout}");
    assert!(stdout.contains("phase.a;solver.inner"), "{stdout}");
}

#[test]
fn explain_reports_phases_missing_from_the_profile() {
    let old = tmp("missing_old.json");
    let new = tmp("missing_new.json");
    let prof = tmp("missing_profile.json");
    std::fs::write(&old, synthetic_bench(0.1)).unwrap();
    std::fs::write(&new, synthetic_bench(1.0)).unwrap();
    // A profile that never traced phase.a at all.
    let clock = ManualClock::new();
    let tracer = Tracer::with_clock(clock.clone());
    let other = tracer.root("unrelated");
    clock.advance(0.2);
    drop(other);
    std::fs::write(
        &prof,
        Profile::from_snapshot(&tracer.snapshot(), 1).to_json(),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&old)
        .arg(&new)
        .args(["--explain", "--new-profile"])
        .arg(&prof)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("no span named `phase.a`"),
        "{out:?}"
    );
}

#[test]
fn run_all_bench_out_is_parseable_and_gates_itself() {
    let bench = tmp("run_all_bench.json");
    let trace = tmp("run_all_trace.json");
    let prof = tmp("run_all_profile.json");
    let folded = tmp("run_all_profile.folded");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--jobs", "1", "--bench-out"])
        .arg(&bench)
        .arg("--trace")
        .arg(&trace)
        .arg("--profile-out")
        .arg(&prof)
        .arg("--folded-out")
        .arg(&folded)
        .output()
        .expect("run_all runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The printed reports stay on stdout, untouched by the bench flags.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("full evaluation reproduction"));
    assert!(
        !stdout.contains("densevlc-bench/1"),
        "BENCH goes to the file"
    );

    let report = BenchReport::from_json(&std::fs::read_to_string(&bench).unwrap())
        .expect("BENCH.json parses");
    // Whole-run, per-experiment, and probe phases are all present.
    for phase in [
        "bench.run_all",
        "bench.phase_probe",
        "experiment.complexity",
        "channel.sound",
        "alloc.heuristic.solve",
        "alloc.optimal.solve",
        "sim.adapt",
        "sync.pilot_detect",
    ] {
        assert!(report.stats(phase).is_some(), "missing phase {phase}");
    }

    let events = parse_chrome_json(&std::fs::read_to_string(&trace).unwrap())
        .expect("trace is valid Chrome Trace JSON");
    assert!(events.iter().any(|e| e.name == "mac.plan"));

    // A report always passes the gate against itself.
    assert_eq!(compare(&bench, &bench).status.code(), Some(0));

    // The profile artifacts validate: schema, the Σ self == Σ roots
    // invariant, and the byte-level folded cross-check.
    let profile =
        Profile::from_json(&std::fs::read_to_string(&prof).unwrap()).expect("profile parses");
    assert!(
        profile.node("bench.phase_probe").is_some(),
        "probe root profiled"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_prof_check"))
        .arg(&prof)
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("prof_check runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("byte for byte"),
        "{out:?}"
    );
}

#[test]
fn a_bad_baseline_exits_2_before_benchmarking() {
    let missing = tmp("missing-baseline.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("benchmarking"), "{stdout}");
}

#[test]
fn run_all_named_ids_print_exactly_their_paper_scale_reports() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["fig04_taylor_error", "fig21_baselines"])
        .output()
        .expect("run_all runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = fig04_taylor_error::run(&LedParams::cree_xte_paper(), 90).report()
        + &fig21_baselines::run(Scenario::Two).report();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn run_all_unknown_id_exits_2_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("nope")
        .output()
        .expect("run_all runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`nope`"), "{stderr}");
    for id in ["fig04_taylor_error", "tab05_iperf", "ablations", "ext_arq"] {
        assert!(stderr.contains(id), "{id} not listed: {stderr}");
    }
    assert!(out.stdout.is_empty(), "nothing runs");
}
