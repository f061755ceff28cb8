//! Command-line tests of the `load_gen` binary: a degenerate building or
//! workload size is a usage error (exit code 2), not a panic.

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
