//! Command-line tests of the `load_gen` binary: a degenerate building or
//! workload size is a usage error (exit code 2), not a panic, a crowded
//! room under the optimal planner runs to completion, explicit sizes
//! override the `--smoke` preset, a repeated flag exits 2 naming it, and
//! every observability flag either writes its artifact or exits 2 first.

use std::process::Command;

fn load_gen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_load_gen"))
        .args(args)
        .env_remove("DENSEVLC_JOBS")
        .output()
        .expect("load_gen runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = load_gen(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: load_gen"), "{args:?}: {stderr}");
}

#[test]
fn a_room_side_of_zero_exits_2() {
    assert_usage_error(&["--rooms", "0x3", "--ticks", "5"]);
    assert_usage_error(&["--rooms", "3x0", "--ticks", "5"]);
}

#[test]
fn zero_ticks_exits_2() {
    assert_usage_error(&["--rooms", "3x3", "--ticks", "0"]);
}

#[test]
fn a_crowded_room_under_the_optimal_policy_exits_0() {
    // The smoke workload squeezed into one room peaks at 14 concurrent
    // sessions. Receivers there share best TXs, which made the optimal
    // planner panic ("no start yields a finite objective") before its
    // crowded-room start. The full 20-room `--smoke --policy optimal` run
    // is the same path at ~29 sessions per room; it takes minutes
    // unoptimized, so CI runs it on the release binary.
    let args = [
        "--smoke", "--policy", "optimal", "--rooms", "1x1", "--events", "400", "--jobs", "1",
    ];
    let out = load_gen(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let peak: usize = stdout
        .split("peak concurrent ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no session peak in: {stdout}"));
    assert!(peak >= 10, "the room is not crowded: {stdout}");
}

/// A one-room workload small enough for an unoptimized build.
const TINY: [&str; 6] = ["--rooms", "1x1", "--ticks", "20", "--events", "40"];

fn tiny(extra: &[&str]) -> std::process::Output {
    load_gen(&[&TINY[..], extra].concat())
}

/// `--smoke` is a preset: explicit sizes and seed win wherever they
/// stand, before or after it.
#[test]
fn explicit_sizes_override_the_smoke_preset_in_any_position() {
    for args in [
        [&TINY[..], &["--seed", "7", "--smoke"]].concat(),
        [&["--smoke", "--seed", "7"], &TINY[..]].concat(),
    ] {
        let out = load_gen(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(
            stdout.contains("rooms 1 (1x1)") && stdout.contains("seed 7"),
            "{args:?}: {stdout}"
        );
        assert!(stdout.contains("ticks 20 ·"), "{args:?}: {stdout}");
    }
}

#[test]
fn a_repeated_flag_exits_2_naming_it() {
    for (sizes, repeat) in [
        (&TINY[..], &["--ticks", "5"][..]),
        (&TINY, &["--rooms", "2x1"]),
        (&TINY, &["--events", "10"]),
        (&TINY, &["--seed", "3", "--seed", "4"]),
        (&TINY, &["--jobs", "1", "--jobs", "2"]),
        (&TINY, &["--policy", "heuristic", "--policy", "optimal"]),
        (&TINY, &["--smoke", "--smoke"]),
        (&["--smoke"], &["--ticks", "5", "--ticks", "6"]),
    ] {
        let args = [sizes, repeat].concat();
        let out = load_gen(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_usage_error(&args);
        assert!(
            stderr.contains(&format!("{} given twice", repeat[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn telemetry_summary_replaces_the_bare_switch() {
    let out = tiny(&["--telemetry", "summary"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report_end = stdout.find("system throughput").expect("report printed");
    assert!(
        stdout[report_end..].contains("rings: event ring dropped"),
        "summary table follows the report: {stdout}"
    );
    // The bare switch now lacks its value.
    assert_usage_error(&[&TINY[..], &["--telemetry"]].concat());
}

#[test]
fn flags_load_gen_does_not_honour_exit_2_naming_them() {
    let dir = std::env::temp_dir().join(format!("load-gen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let unmade = dir.join("never_written");
    let path = unmade.to_str().unwrap();
    for flag in [
        "--telemetry-out",
        "--trace",
        "--bench-out",
        "--profile-out",
        "--folded-out",
        "--flame-out",
        "--flight-recorder",
    ] {
        let out = tiny(&[flag, path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_usage_error(&[&TINY[..], &[flag, path]].concat());
        assert!(
            stderr.contains(flag) && stderr.contains("load_gen does not take"),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty() && !unmade.exists(), "{flag} ran");
    }
    assert_usage_error(&[&TINY[..], &["--obs-every", "5"]].concat());
}

#[test]
fn the_stream_validates_renders_and_fails_the_run_on_a_full_disk() {
    let out = tiny(&["--watch", "--obs-every", "5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("densevlc monitor — load_gen seed"),
        "{stdout}"
    );
    assert!(stdout.contains("run complete: 20 ticks"), "{stdout}");

    let out = tiny(&["--obs-stream", "/dev/full"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/dev/full"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
