//! Command-line tests of the `load_gen` binary: a degenerate building or
//! workload size is a usage error (exit code 2), not a panic, and a
//! crowded room under the optimal planner runs to completion.

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
