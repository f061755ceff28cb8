//! The metric catalogue, the statistics the benchmark reports, and the
//! one-line JSON result.

use vlc_telemetry::export::value::{push_f64, push_json_string};

/// A reported metric: its name and unit, exactly as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("events_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p95_ms", "ms"),
    m("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). Times and counts are per round; `_s`
/// rows marked "busy" are timed around the public calls on untraced
/// rounds, `self_s`/`incl_s` rows come from the traced rounds' profile.
pub const PER_LAYER: &[Metric] = &[
    m("cell.apply.busy_s", "s"),
    m("cell.apply.allocs_per_event", "count"),
    m("cell.tick.busy_s", "s"),
    m("cell.tick.self_s", "s"),
    m("cell.replan.self_s", "s"),
    m("cell.replans", "count"),
    m("cell.dirty_per_tick", "count"),
    m("cell.handovers", "count"),
    m("cell.plan_hit_ratio", "ratio"),
    m("channel.update.self_s", "s"),
    m("channel.update.col.self_s", "s"),
    m("channel.cols_recomputed", "count"),
    m("channel.col_reuse_ratio", "ratio"),
    m("mac.plan.self_s", "s"),
    m("mac.rank.self_s", "s"),
    m("mac.allocate.self_s", "s"),
    m("alloc.optimal.solve.incl_s", "s"),
    m("alloc.optimal.start.self_s", "s"),
    m("alloc.optimal.iters.self_s", "s"),
    m("alloc.optimal.iterations", "count"),
    m("alloc.optimal.obj_evals", "count"),
    m("alloc.optimal.warm_starts", "count"),
    m("alloc.optimal.iters_per_solve", "count"),
    m("par.spawns", "count"),
    m("par.worker.busy_s", "s"),
    m("par.worker.idle_s", "s"),
    m("par.imbalance", "ratio"),
    m("obs.observe.busy_s", "s"),
    m("phy.encode.busy_s", "s"),
    m("phy.decode.busy_s", "s"),
    m("phy.rs.busy_s", "s"),
    m("phy.frames_decoded", "count"),
    m("phy.preamble_misses", "count"),
    m("phy.frame_sync_errors", "count"),
    m("phy.rs_symbols_corrected", "count"),
    m("phy.rs_uncorrectable", "count"),
    m("e2e.waveform.self_s", "s"),
    m("trace.overhead_ratio", "ratio"),
    m("trace.dropped_spans", "count"),
    m("trace.tick_coverage", "ratio"),
];

/// What one run reports: the counts for the result line plus the metric
/// values by name.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (commands + ticks, or frames).
    pub attempted: u64,
    /// Failed checks and operations.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records `value` under `name`, replacing any earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Counts a failed check unless `ok`, and names it on stderr.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line for `catalogue`: every metric in it, with its unit.
    /// The run is correct when nothing failed and every value is present
    /// and finite (a missing or non-finite value also counts as failed).
    pub fn to_json(&self, catalogue: &[Metric]) -> String {
        let mut failed = self.failed;
        let mut metrics = String::new();
        for (i, metric) in catalogue.iter().enumerate() {
            let value = match self.get(metric.name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    failed += 1;
                    0.0
                }
            };
            metrics.push_str(if i == 0 { "" } else { ", " });
            push_json_string(&mut metrics, metric.name);
            metrics.push_str(": {\"value\": ");
            push_f64(&mut metrics, value);
            metrics.push_str(", \"unit\": ");
            push_json_string(&mut metrics, metric.unit);
            metrics.push('}');
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            failed == 0,
            self.attempted,
            failed
        )
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile (`ceil(q·n)`-th smallest) of sorted `values`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.99), 198.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn missing_or_non_finite_values_fail_the_run() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        out.set("events_per_s", f64::NAN);
        let line = out.to_json(&END_TO_END[..3]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
