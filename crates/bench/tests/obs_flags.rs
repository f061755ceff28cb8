//! The observability flags of `run_all` and `codec_campaign`: each one
//! either writes its artifact or exits 2 naming itself and the binary
//! before any report is printed, and a stream that cannot be written
//! fails the run with exit 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("densevlc-obs-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("run_all runs")
}

fn codec_campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_codec_campaign"))
        .args(args)
        .env_remove("DENSEVLC_JOBS")
        .output()
        .expect("codec_campaign runs")
}

/// Exit 2 naming `flag` and `binary`, with nothing printed or written.
fn assert_refused(out: &Output, binary: &str, flag: &str, unmade: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
    assert!(
        stderr.contains(&format!("{binary} does not take {flag}")),
        "{flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{flag}: a report was printed");
    assert!(!unmade.exists(), "{flag}: a file was written");
}

#[test]
fn run_all_writes_telemetry_out_and_refuses_the_flight_flags() {
    let telemetry = tmp("run_all_telemetry.json");
    let out = run_all(&[
        "fig04_taylor_error",
        "--telemetry-out",
        telemetry.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&telemetry).expect("telemetry written");
    assert!(json.contains("\"counters\"") && json.contains("bench.jobs_done"));
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"counters\""),
        "telemetry off stdout"
    );

    let unmade = tmp("run_all_never_written");
    for flag in ["--flight-recorder", "--flight-last"] {
        let out = run_all(&["fig04_taylor_error", flag, unmade.to_str().unwrap()]);
        assert_refused(&out, "run_all", flag, &unmade);
    }
    // `--bench-repeat` tunes the tracer flags and means nothing alone.
    let out = run_all(&["fig04_taylor_error", "--bench-repeat", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
}

#[test]
fn codec_campaign_refuses_every_flag_but_the_stream() {
    let unmade = tmp("codec_never_written");
    let path = unmade.to_str().unwrap();
    for (flag, value) in [
        ("--telemetry", "summary"),
        ("--telemetry-out", path),
        ("--trace", path),
        ("--bench-out", path),
        ("--profile-out", path),
        ("--folded-out", path),
        ("--flame-out", path),
        ("--flight-recorder", path),
    ] {
        let out = codec_campaign(&["--reduced", "--frames", "1", flag, value]);
        assert_refused(&out, "codec_campaign", flag, &unmade);
    }
    // All three at once exit 2 on the first.
    let out = codec_campaign(&[
        "--reduced",
        "--trace",
        path,
        "--profile-out",
        path,
        "--telemetry",
        "summary",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_stream_that_cannot_be_written_fails_the_run() {
    for out in [
        run_all(&["fig04_taylor_error", "--obs-stream", "/dev/full"]),
        codec_campaign(&["--reduced", "--frames", "1", "--obs-stream", "/dev/full"]),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("cannot write observability stream to /dev/full"),
            "{stderr}"
        );
    }
}

/// A repeated `--jobs` is a usage error naming it, before anything runs:
/// the last value silently winning hid a mistyped command line.
#[test]
fn a_repeated_jobs_flag_exits_2_naming_it() {
    for out in [
        run_all(&["fig04_taylor_error", "--jobs", "1", "--jobs", "2"]),
        codec_campaign(&["--reduced", "--jobs", "1", "--jobs", "2"]),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("--jobs given twice"), "{stderr}");
        assert!(out.stdout.is_empty(), "a report was printed");
    }
}
