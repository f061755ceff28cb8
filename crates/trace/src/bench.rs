//! BENCH.json: per-span-name duration statistics and the regression rule
//! behind the `bench-compare` gate.
//!
//! A [`BenchReport`] aggregates every span in a [`TraceSnapshot`] by name
//! into robust statistics — median, MAD (median absolute deviation), min,
//! max, sample count — and serializes to the versioned BENCH.json format
//! (`docs/BENCHMARKING.md` documents the schema). Two reports are diffed
//! with [`BenchReport::compare`]: a phase regresses when its new median
//! exceeds the old median by *both* a relative factor and the larger of a
//! MAD-scaled noise band and an absolute floor, so sub-millisecond jitter
//! on fast phases never trips the gate.

use crate::snapshot::TraceSnapshot;
use vlc_telemetry::export::value::{field, parse_json, push_json_string, JsonValue};

/// Schema tag written into every BENCH.json file.
pub const BENCH_SCHEMA: &str = "densevlc-bench/1";

/// Robust duration statistics for one span name, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Number of spans aggregated.
    pub samples: u64,
    /// Median duration.
    pub median_s: f64,
    /// Median absolute deviation from the median.
    pub mad_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Slowest sample.
    pub max_s: f64,
}

/// A BENCH.json document: per-span-name statistics plus run provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Worker count the run used.
    pub jobs: usize,
    /// How many times the workload was repeated.
    pub repeats: usize,
    /// `(span name, stats)` sorted by name.
    pub entries: Vec<(String, BenchStats)>,
}

/// Noise tolerance for [`BenchReport::compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareTolerance {
    /// Minimum relative slowdown to flag (0.2 = 20 %).
    pub rel: f64,
    /// Noise band width in MADs of the old distribution.
    pub mad_k: f64,
    /// Absolute floor in seconds: deltas below this never flag.
    pub abs_floor_s: f64,
}

impl Default for CompareTolerance {
    fn default() -> Self {
        CompareTolerance {
            rel: 0.2,
            mad_k: 5.0,
            abs_floor_s: 0.002,
        }
    }
}

/// One flagged regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed span name.
    pub name: String,
    /// Baseline median, seconds.
    pub old_median_s: f64,
    /// New median, seconds.
    pub new_median_s: f64,
    /// The threshold the new median had to stay under.
    pub threshold_s: f64,
}

/// Renders flagged regressions as the aligned table `bench_compare`
/// prints, one row per regressed phase.
pub fn format_regressions(regressions: &[Regression]) -> String {
    let mut out = String::new();
    for r in regressions {
        out.push_str(&format!(
            "  {:<32} {:>12.6}s -> {:>12.6}s (threshold {:+.6}s)\n",
            r.name, r.old_median_s, r.new_median_s, r.threshold_s
        ));
    }
    out
}

/// Median of a sorted slice (mean of the middle pair for even lengths).
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

impl BenchStats {
    /// Computes the statistics from raw durations.
    pub fn from_durations(mut durations: Vec<f64>) -> Self {
        durations.sort_by(f64::total_cmp);
        let median = median_sorted(&durations);
        let mut deviations: Vec<f64> = durations.iter().map(|d| (d - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        BenchStats {
            samples: durations.len() as u64,
            median_s: median,
            mad_s: median_sorted(&deviations),
            min_s: durations.first().copied().unwrap_or(0.0),
            max_s: durations.last().copied().unwrap_or(0.0),
        }
    }
}

impl BenchReport {
    /// Aggregates a trace snapshot: one entry per distinct span name.
    pub fn from_snapshot(snapshot: &TraceSnapshot, jobs: usize, repeats: usize) -> Self {
        let mut by_name: Vec<(String, Vec<f64>)> = Vec::new();
        for span in &snapshot.spans {
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, durations)) => durations.push(span.duration_s()),
                None => by_name.push((span.name.clone(), vec![span.duration_s()])),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(&b.0));
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            jobs,
            repeats,
            entries: by_name
                .into_iter()
                .map(|(name, durations)| (name, BenchStats::from_durations(durations)))
                .collect(),
        }
    }

    /// The stats for one span name, if present.
    pub fn stats(&self, name: &str) -> Option<&BenchStats> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Serializes to the BENCH.json format (deterministic: entries are
    /// name-sorted and floats use shortest-roundtrip formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": ");
        push_json_string(&mut out, &self.schema);
        out.push_str(&format!(
            ",\n  \"jobs\": {},\n  \"repeats\": {},\n  \"phases\": {{\n",
            self.jobs, self.repeats
        ));
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|(name, s)| {
                let mut key = String::new();
                push_json_string(&mut key, name);
                format!(
                    "    {key}: {{\"samples\": {}, \"median_s\": {:?}, \"mad_s\": {:?}, \"min_s\": {:?}, \"max_s\": {:?}}}",
                    s.samples,
                    s.median_s,
                    s.mad_s,
                    s.min_s,
                    s.max_s
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a BENCH.json document, validating the schema tag.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let root = doc.as_obj("BENCH.json").map_err(|e| e.to_string())?;
        let schema = field(root, "schema")
            .and_then(|v| v.as_str("schema"))
            .map_err(|e| e.to_string())?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (expected `{BENCH_SCHEMA}`)"
            ));
        }
        let num = |obj: &[(String, JsonValue)], key: &str| -> Result<f64, String> {
            field(obj, key)
                .and_then(|v| v.as_f64(key))
                .map_err(|e| e.to_string())
        };
        let phases = field(root, "phases")
            .and_then(|v| v.as_obj("phases"))
            .map_err(|e| e.to_string())?;
        let mut entries = Vec::with_capacity(phases.len());
        for (name, stats) in phases {
            let stats = stats.as_obj(name).map_err(|e| e.to_string())?;
            entries.push((
                name.clone(),
                BenchStats {
                    samples: num(stats, "samples")? as u64,
                    median_s: num(stats, "median_s")?,
                    mad_s: num(stats, "mad_s")?,
                    min_s: num(stats, "min_s")?,
                    max_s: num(stats, "max_s")?,
                },
            ));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(BenchReport {
            schema: schema.to_string(),
            jobs: num(root, "jobs").unwrap_or(0.0) as usize,
            repeats: num(root, "repeats").unwrap_or(0.0) as usize,
            entries,
        })
    }

    /// Diffs `new` against `self` (the baseline): a phase is flagged when
    /// its new median exceeds
    /// `old median + max(rel · old median, mad_k · old MAD, abs floor)`.
    /// Phases present in only one report are skipped (the workload set may
    /// legitimately evolve across PRs); [`Self::unmeasured`] names the
    /// baseline phases `new` lacks. Improvements never flag.
    pub fn compare(&self, new: &BenchReport, tol: &CompareTolerance) -> Vec<Regression> {
        let mut regressions = Vec::new();
        for (name, old) in &self.entries {
            let Some(fresh) = new.stats(name) else {
                continue;
            };
            let band = (tol.rel * old.median_s)
                .max(tol.mad_k * old.mad_s)
                .max(tol.abs_floor_s);
            let threshold = old.median_s + band;
            if fresh.median_s > threshold {
                regressions.push(Regression {
                    name: name.clone(),
                    old_median_s: old.median_s,
                    new_median_s: fresh.median_s,
                    threshold_s: threshold,
                });
            }
        }
        regressions
    }

    /// Baseline phases that `new` did not measure, in name order: rows
    /// [`Self::compare`] cannot gate, such as a renamed or deleted span.
    pub fn unmeasured<'a>(&'a self, new: &BenchReport) -> Vec<&'a str> {
        self.entries
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| new.stats(name).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use vlc_telemetry::ManualClock;

    fn report_with(name: &str, medians: &[f64]) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            jobs: 1,
            repeats: medians.len(),
            entries: vec![(
                name.to_string(),
                BenchStats::from_durations(medians.to_vec()),
            )],
        }
    }

    #[test]
    fn stats_are_robust_medians() {
        let s = BenchStats::from_durations(vec![3.0, 1.0, 2.0, 100.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.median_s, 2.5);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.max_s, 100.0);
        // Deviations from 2.5, sorted: [0.5, 0.5, 1.5, 97.5] → median 1.0.
        assert_eq!(s.mad_s, 1.0);
        let empty = BenchStats::from_durations(vec![]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.median_s, 0.0);
    }

    #[test]
    fn from_snapshot_groups_by_name() {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("run");
        for i in 0..3 {
            let child = root.child_indexed("phase", i);
            clock.advance(0.1 * (i + 1) as f64);
            drop(child);
        }
        drop(root);
        let report = BenchReport::from_snapshot(&tracer.snapshot(), 2, 1);
        assert_eq!(report.jobs, 2);
        let phase = report.stats("phase").expect("aggregated");
        assert_eq!(phase.samples, 3);
        assert!((phase.median_s - 0.2).abs() < 1e-12);
        assert_eq!(report.stats("run").unwrap().samples, 1);
        // Entries are name-sorted.
        assert!(report.entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = report_with("mac.plan", &[0.001, 0.0015, 0.0012]);
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let text = r#"{"schema": "something-else/9", "phases": {}}"#;
        assert!(BenchReport::from_json(text).is_err());
        assert!(BenchReport::from_json("{}").is_err());
    }

    #[test]
    fn identical_reports_never_regress() {
        let report = report_with("mac.plan", &[0.010, 0.011, 0.012]);
        assert!(report
            .compare(&report, &CompareTolerance::default())
            .is_empty());
    }

    #[test]
    fn large_slowdowns_flag_and_improvements_do_not() {
        let old = report_with("alloc.optimal.solve", &[0.100, 0.101, 0.102]);
        let slow = report_with("alloc.optimal.solve", &[0.200, 0.201, 0.202]);
        let fast = report_with("alloc.optimal.solve", &[0.010, 0.011, 0.012]);
        let tol = CompareTolerance::default();
        let found = old.compare(&slow, &tol);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "alloc.optimal.solve");
        assert!(found[0].new_median_s > found[0].threshold_s);
        assert!(old.compare(&fast, &tol).is_empty());
    }

    #[test]
    fn abs_floor_shields_micro_phases() {
        // A 3× slowdown on a 0.1 ms phase stays under the 2 ms floor.
        let old = report_with("tiny", &[0.0001]);
        let slow = report_with("tiny", &[0.0003]);
        assert!(old.compare(&slow, &CompareTolerance::default()).is_empty());
    }

    #[test]
    fn mad_band_shields_noisy_phases() {
        // Median 10 ms with 4 ms MAD: 5·MAD = 20 ms of headroom, so a
        // 25 ms median (2.5×) is still inside the noise band.
        let old = report_with("noisy", &[0.006, 0.010, 0.014, 0.002, 0.018]);
        let wobble = report_with("noisy", &[0.025]);
        assert!(old
            .compare(&wobble, &CompareTolerance::default())
            .is_empty());
        // 35 ms is beyond both the relative and MAD bands: flagged.
        let bad = report_with("noisy", &[0.035]);
        assert_eq!(old.compare(&bad, &CompareTolerance::default()).len(), 1);
    }

    #[test]
    fn phases_unique_to_one_report_are_skipped() {
        let old = report_with("gone", &[0.5]);
        let new = report_with("fresh", &[0.5]);
        assert!(old.compare(&new, &CompareTolerance::default()).is_empty());
    }
}
