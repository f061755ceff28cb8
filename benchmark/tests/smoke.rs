//! `--smoke` runs every workload at a tiny size, untraced and traced, and
//! prints every metric `BENCHMARK.json` names.

use std::collections::HashSet;
use std::process::Command;
use std::time::{Duration, Instant};

use densevlc_benchmark::metrics::{END_TO_END, PER_LAYER};
use vlc_telemetry::export::value::{field, parse_json};

#[test]
fn smoke_run_is_fast_correct_and_complete() {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_densevlc-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark runs");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "smoke run took {elapsed:?}"
    );

    let mut printed = HashSet::new();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "two result lines per workload");
    for line in lines {
        let doc = parse_json(line).expect("each line is JSON");
        let obj = doc.as_obj("result").unwrap();
        assert!(
            field(obj, "correct").unwrap().as_bool("correct").unwrap(),
            "{line}"
        );
        assert!(
            field(obj, "attempted")
                .unwrap()
                .as_u64("attempted")
                .unwrap()
                >= 1
        );
        assert_eq!(field(obj, "failed").unwrap().as_u64("failed").unwrap(), 0);
        for (name, value) in field(obj, "metrics").unwrap().as_obj("metrics").unwrap() {
            let value = value.as_obj(name).unwrap();
            assert!(field(value, "unit").is_ok() && field(value, "value").is_ok());
            printed.insert(name.clone());
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(printed.contains(m.name), "{} never printed", m.name);
    }
}
