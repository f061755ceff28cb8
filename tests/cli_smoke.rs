//! Smoke tests of the `densevlc-cli` binary's observability flags:
//! `--trace` writes Perfetto-loadable Chrome Trace JSON with the
//! plan→rank→allocate tree and per-worker lanes, `--telemetry-out`
//! redirects the telemetry rendering to a file without touching stdout.

use std::path::PathBuf;
use std::process::Command;
use vlc_trace::parse_chrome_json;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("densevlc-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_densevlc-cli"))
}

#[test]
fn adapt_trace_writes_a_perfetto_loadable_span_tree() {
    let trace = tmp("adapt_trace.json");
    let out = cli()
        .args(["adapt", "--trace"])
        .arg(&trace)
        // Force two workers so the optimal solver's fan-out exercises the
        // per-worker lanes even on a single-core machine.
        .env("DENSEVLC_JOBS", "2")
        .output()
        .expect("densevlc-cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The trace goes to the file; stdout keeps the normal report.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("system:"), "normal report intact: {stdout}");
    assert!(!stdout.contains("traceEvents"));

    let events = parse_chrome_json(&std::fs::read_to_string(&trace).unwrap())
        .expect("valid Chrome Trace JSON");
    let complete: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();

    // The causal tree: cli.adapt → sim.adapt → mac.plan → {mac.rank,
    // mac.allocate}, each child nested inside its parent's ids.
    let find = |name: &str| {
        complete
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("span {name} in trace"))
    };
    let cli_root = find("cli.adapt");
    let sim = find("sim.adapt");
    let plan = find("mac.plan");
    let rank = find("mac.rank");
    let alloc = find("mac.allocate");
    assert_eq!(sim.arg("parent_id"), cli_root.arg("span_id"));
    assert_eq!(plan.arg("parent_id"), sim.arg("span_id"));
    assert_eq!(rank.arg("parent_id"), plan.arg("span_id"));
    assert_eq!(alloc.arg("parent_id"), plan.arg("span_id"));

    // Per-worker lanes: the solver's multi-start fan-out runs on worker
    // tids (≥1), with thread-name metadata rows declaring each lane.
    let starts: Vec<_> = complete
        .iter()
        .filter(|e| e.name == "alloc.optimal.start")
        .collect();
    assert!(!starts.is_empty(), "solver probe traced");
    assert!(
        starts.iter().any(|e| e.tid >= 1),
        "solver starts land on worker lanes"
    );
    assert!(events
        .iter()
        .any(|e| e.ph == "M" && e.name == "thread_name"));
}

#[test]
fn telemetry_out_writes_the_chosen_format_off_stdout() {
    // Default format: JSON.
    let json_path = tmp("telemetry.json");
    let out = cli()
        .args(["adapt", "--telemetry-out"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("counters"), "telemetry off stdout");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"counters\"") && json.contains("mac.rounds_planned"));

    // Explicit format applies to the file: csv.
    let csv_path = tmp("telemetry.csv");
    let out = cli()
        .args(["adapt", "--telemetry", "csv", "--telemetry-out"])
        .arg(&csv_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.lines().count() > 3, "csv has rows: {csv}");
    assert!(csv.contains("mac.rounds_planned"));
}

#[test]
fn codecs_lists_the_stack_catalogue() {
    let out = cli().arg("codecs").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["rs", "rs+il16", "conv_k7+crc32", "crc32"] {
        assert!(text.contains(name), "missing stack `{name}`: {text}");
    }
    assert!(text.contains("codec_campaign"), "{text}");
}

#[test]
fn default_run_emits_no_observability_artifacts() {
    let out = cli().arg("adapt").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("traceEvents"));
    assert!(!stdout.contains("\"counters\""));
    assert!(String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn short_run_reports_zero_ring_drops_in_the_summary() {
    // Regression: the summary exporter surfaces both bounded-ring drop
    // counts, and a short run must not drop anything from either ring.
    let trace = tmp("drops_trace.json");
    let out = cli()
        .args([
            "sim",
            "--duration",
            "0.5",
            "--telemetry",
            "summary",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("event ring dropped 0, span ring dropped 0"),
        "summary must report zero drops for a short run: {stdout}"
    );
}

#[test]
fn profile_subcommand_prints_tables_and_writes_valid_artifacts() {
    use vlc_prof::{parse_folded, to_folded, Profile};

    let prof = tmp("cli_profile.json");
    let folded = tmp("cli_profile.folded");
    let flame = tmp("cli_profile.svg");
    let out = cli()
        .args(["profile", "adapt", "--profile-out"])
        .arg(&prof)
        .arg("--folded-out")
        .arg(&folded)
        .arg("--flame-out")
        .arg(&flame)
        .output()
        .expect("densevlc-cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The normal report survives, followed by both profiler tables.
    assert!(stdout.contains("system:"), "{stdout}");
    assert!(stdout.contains("self time (top 10)"), "{stdout}");
    assert!(stdout.contains("inclusive time (top 10)"), "{stdout}");
    assert!(
        stdout.contains("cli.adapt"),
        "root path in tables: {stdout}"
    );

    // The JSON artifact parses, covers the command's call tree, and — with
    // the CLI's counting allocator installed — attributes allocations.
    let profile =
        Profile::from_json(&std::fs::read_to_string(&prof).unwrap()).expect("profile parses");
    let root = profile.node("cli.adapt").expect("root path present");
    assert!(root.allocs > 0, "allocation attribution on the root span");
    assert!(
        profile.node("cli.adapt;sim.adapt;mac.plan").is_some(),
        "planner path profiled"
    );

    // Folded output matches the profile byte for byte and parses.
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    assert_eq!(folded_text, to_folded(&profile));
    parse_folded(&folded_text).expect("folded output parses");

    // The flamegraph is a self-contained SVG naming real frames.
    let svg = std::fs::read_to_string(&flame).unwrap();
    assert!(
        svg.starts_with("<svg xmlns="),
        "svg preamble: {}",
        &svg[..40]
    );
    assert!(svg.contains("</svg>"));
    assert!(svg.contains("mac.plan"), "frames labelled");
}

#[test]
fn profiled_sim_stream_carries_a_profile_record() {
    let stream = tmp("profiled_stream.ndjson");
    let out = cli()
        .args(["profile", "sim", "--duration", "0.5", "--obs-stream"])
        .arg(&stream)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&stream).unwrap();
    let records = vlc_obs::parse_stream_strict(&text).expect("valid NDJSON stream");
    let profile_at = records
        .iter()
        .position(|r| matches!(r, vlc_obs::ObsRecord::Profile { .. }))
        .expect("profile record in the stream");
    let summary_at = records
        .iter()
        .position(|r| matches!(r, vlc_obs::ObsRecord::Summary { .. }))
        .expect("summary record in the stream");
    assert!(
        profile_at < summary_at,
        "profile digest precedes the summary"
    );
    match &records[profile_at] {
        vlc_obs::ObsRecord::Profile {
            nodes,
            calls,
            top_path,
            ..
        } => {
            assert!(*nodes > 0 && *calls > 0);
            assert!(!top_path.is_empty(), "hottest path digested");
        }
        _ => unreachable!(),
    }
}

#[test]
fn streamed_sim_validates_and_the_monitor_renders_it() {
    let stream = tmp("sim_stream.ndjson");
    let out = cli()
        .args(["sim", "--duration", "1.0", "--obs-stream"])
        .arg(&stream)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every line parses; the stream is a complete run.
    let text = std::fs::read_to_string(&stream).unwrap();
    let records = vlc_obs::parse_stream_strict(&text).expect("valid NDJSON stream");
    assert!(matches!(
        records.first(),
        Some(vlc_obs::ObsRecord::Meta { .. })
    ));
    assert!(matches!(
        records.last(),
        Some(vlc_obs::ObsRecord::Summary { .. })
    ));

    // The monitor subcommand renders the same file.
    let out = cli().arg("monitor").arg(&stream).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let view = String::from_utf8_lossy(&out.stdout);
    assert!(view.contains("densevlc monitor"), "{view}");
    assert!(view.contains("run complete"), "{view}");

    // An invalid stream is rejected with a diagnostic.
    let bad = tmp("bad_stream.ndjson");
    std::fs::write(&bad, "{\"type\":\"nope\"}\n").unwrap();
    let out = cli().arg("monitor").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_numbers_exit_2_naming_the_flag() {
    for args in [
        &["sim", "--duration", "inf"][..],
        &["sim", "--duration", "0"],
        &["sim", "--duration", "-1"],
        &["sim", "--period", "0"],
        &["sim", "--period", "nan"],
        &["sim", "--budget", "nan"],
        &["adapt", "--budget", "inf"],
    ] {
        let out = cli().args(args).output().expect("densevlc-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(args[1]),
            "{args:?} names the flag: {stderr}"
        );
    }
}
