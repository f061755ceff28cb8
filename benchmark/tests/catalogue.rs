//! `BENCHMARK.json` agrees with the metric and workload catalogue in the
//! code, and stays inside the format's limits.

use std::collections::HashSet;

use densevlc_benchmark::gen::Workload;
use densevlc_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use vlc_telemetry::export::value::{field, parse_json, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    let obj = doc.as_obj("document").unwrap();
    field(obj, key).unwrap().as_arr(key).unwrap()
}

fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    field(entry.as_obj("entry").unwrap(), key)
        .unwrap()
        .as_str(key)
        .unwrap()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_matches(doc: &JsonValue, key: &str, catalogue: &[Metric]) {
    let entries = list(doc, key);
    let listed: Vec<(&str, &str)> = entries
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect();
    let code: Vec<(&str, &str)> = catalogue.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(listed, code, "{key} differs from the code's catalogue");
    for e in entries {
        assert!(matches!(text(e, "better"), "higher" | "lower"));
    }
}

#[test]
fn metric_names_follow_the_grammar_and_are_unique() {
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "metric {} listed twice", m.name);
        assert!(m.unit.len() <= 16 && !m.unit.is_empty());
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    assert_matches(&doc, "end_to_end", END_TO_END);
    assert_matches(&doc, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, code);
}

#[test]
fn bounds_are_in_range_and_setup_has_the_largest() {
    let doc = benchmark_json();
    let bound = |e: &JsonValue| {
        field(e.as_obj("metric").unwrap(), "bound")
            .unwrap()
            .as_f64("bound")
            .unwrap()
    };
    let metrics = list(&doc, "end_to_end");
    let setup = metrics
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for e in metrics {
        assert!(bound(e) > 0.0 && bound(e) <= 0.25);
        assert!(bound(e) <= bound(setup));
    }
}
