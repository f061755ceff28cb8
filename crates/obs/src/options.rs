//! The one observability front-end every binary shares: it parses the
//! flags, builds what they need, and writes what they ask for.
//!
//! [`ObsOptions::parse`] takes the [`FLAGS`] out of an argument list,
//! from anywhere in it, and checks them against the ones the binary
//! honours: a flag the binary would ignore is an error naming it and the
//! binary, so is a tuning flag given without the flag it tunes
//! (`--bench-repeat` needs a tracer flag, `--obs-every` a stream,
//! `--flight-last` the flight recorder). [`ObsOptions::start`] builds the
//! [`ObsRun`]: the registry, tracer and stream sink the flags need. The
//! binary keeps only its own records (an [`ObsPlane`], a building stream
//! or a job list); [`ObsRun::end_stream`] reports how the stream ended
//! and renders `--watch`, and [`ObsRun::finish`] writes the telemetry,
//! trace, BENCH.json and profile artifacts.
//!
//! Parse errors are returned, not printed: callers decide between
//! `exit(2)` (binaries) and assertions (tests). The run's writers end the
//! process themselves: exit 2 when a file cannot be created or written,
//! exit 1 when a stream write failed during the run.

use std::io;
use std::path::Path;
use std::str::FromStr;

use vlc_prof::{flamegraph_from_profile, to_folded, Profile};
use vlc_telemetry::Registry;
use vlc_trace::{BenchReport, Tracer};

use crate::flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::monitor::dashboard;
use crate::plane::{ObsConfig, ObsPlane};
use crate::record::{ObsRecord, OBS_SCHEMA};
use crate::sink::{FileSink, MemorySink, ObsSink};

/// Every observability flag as its usage line: the flag, its value
/// placeholder (none for a switch), then its help. A binary lists the
/// names of the flags it honours in one space-separated string.
pub const FLAGS: [&str; 13] = [
    "--telemetry <json|csv|summary>   record metrics and append them at exit",
    "--telemetry-out <file>           write the telemetry to a file (default json)",
    "--trace <file>                   Chrome Trace JSON of the causal spans",
    "--bench-out <file>               BENCH.json per-phase timing statistics",
    "--bench-repeat <n>               repeat the workload n times for the timings",
    "--obs-stream <file>              live NDJSON observability stream",
    "--obs-every <n>                  stream flush cadence in ticks",
    "--flight-recorder <file>         crash dump of the last stream records",
    "--flight-last <k>                flight ring capacity in lines (default 256)",
    "--watch                          render the monitor dashboard from the stream",
    "--profile-out <file>             densevlc-prof/1 self-time profile",
    "--folded-out <file>              folded stacks (flamegraph input)",
    "--flame-out <file>               self-contained SVG flamegraph",
];

/// A usage line's flag name.
fn name(line: &'static str) -> &'static str {
    line.split(' ').next().unwrap_or(line)
}

/// Telemetry rendering requested on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryFormat {
    /// Machine-readable snapshot JSON.
    Json,
    /// Per-instrument CSV.
    Csv,
    /// Human-readable summary table.
    Summary,
}

/// The parsed observability flags; `None` where a flag was not given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// `--telemetry`: snapshot rendering appended at exit.
    pub telemetry: Option<TelemetryFormat>,
    /// `--telemetry-out`: write the rendering here instead of stdout.
    pub telemetry_out: Option<String>,
    /// `--trace`: Chrome Trace JSON output path.
    pub trace: Option<String>,
    /// `--bench-out`: BENCH.json output path.
    pub bench_out: Option<String>,
    /// `--bench-repeat`: workload repeats for the BENCH medians (≥ 1).
    pub bench_repeat: Option<usize>,
    /// `--obs-stream`: NDJSON stream output path.
    pub obs_stream: Option<String>,
    /// `--obs-every`: stream flush cadence in ticks (≥ 1).
    pub obs_every: Option<u64>,
    /// `--flight-recorder`: crash-dump output path.
    pub flight_recorder: Option<String>,
    /// `--flight-last`: flight ring capacity in stream lines (≥ 1).
    pub flight_last: Option<usize>,
    /// `--watch`: render the monitor view from the stream.
    pub watch: bool,
    /// `--profile-out`: self-time profile JSON (`densevlc-prof/1`) path.
    pub profile_out: Option<String>,
    /// `--folded-out`: folded-stack (Brendan-Gregg format) output path.
    pub folded_out: Option<String>,
    /// `--flame-out`: SVG flamegraph output path.
    pub flame_out: Option<String>,
    /// The flags given, in [`FLAGS`] order.
    given: Vec<&'static str>,
}

/// A positive count, or an error naming the flag.
fn count<T: FromStr + PartialEq + From<u8>>(flag: &str, v: &str) -> Result<Option<T>, String> {
    match v.parse::<T>() {
        Ok(n) if n != T::from(0) => Ok(Some(n)),
        _ => Err(format!("bad {flag} value `{v}`")),
    }
}

impl ObsOptions {
    /// Extracts every observability flag from `args`, removing the tokens
    /// it consumes; unrelated arguments are left in place for the
    /// caller's own parser. A flag missing from `honoured` is an error
    /// naming it and `binary`, as is a repeated flag, a missing or bad
    /// value, and a tuning flag without the flag it tunes.
    pub fn parse(args: &mut Vec<String>, binary: &str, honoured: &str) -> Result<Self, String> {
        let mut o = ObsOptions::default();
        for line in FLAGS {
            let name = name(line);
            let Some(i) = args.iter().position(|a| a == name) else {
                continue;
            };
            if !honoured.split_whitespace().any(|h| h == name) {
                return Err(format!("{binary} does not take {name}"));
            }
            args.remove(i);
            let value = if line.contains(" <") {
                match args.get(i) {
                    Some(v) if !v.starts_with("--") => args.remove(i),
                    _ => return Err(format!("{name} needs a value")),
                }
            } else {
                String::new()
            };
            if args.iter().any(|a| a == name) {
                return Err(format!("{name} given twice"));
            }
            o.set(name, value)?;
            o.given.push(name);
        }
        let recorder = o.flight_recorder.is_some();
        let tuned = [
            ("--bench-repeat", o.wants_tracer(), "a tracer flag"),
            ("--obs-every", o.wants_stream(), "a stream"),
            ("--flight-last", recorder, "--flight-recorder"),
        ];
        for (name, subject, what) in tuned {
            if o.given.contains(&name) && !subject {
                return Err(format!("{name} has no effect without {what}"));
            }
        }
        Ok(o)
    }

    fn set(&mut self, name: &str, v: String) -> Result<(), String> {
        match name {
            "--telemetry" => {
                self.telemetry = Some(match v.as_str() {
                    "json" => TelemetryFormat::Json,
                    "csv" => TelemetryFormat::Csv,
                    "summary" => TelemetryFormat::Summary,
                    _ => return Err(format!("{name} expects json, csv or summary (got `{v}`)")),
                });
            }
            "--telemetry-out" => self.telemetry_out = Some(v),
            "--trace" => self.trace = Some(v),
            "--bench-out" => self.bench_out = Some(v),
            "--bench-repeat" => self.bench_repeat = count(name, &v)?,
            "--obs-stream" => self.obs_stream = Some(v),
            "--obs-every" => self.obs_every = count(name, &v)?,
            "--flight-recorder" => self.flight_recorder = Some(v),
            "--flight-last" => self.flight_last = count(name, &v)?,
            "--watch" => self.watch = true,
            "--profile-out" => self.profile_out = Some(v),
            "--folded-out" => self.folded_out = Some(v),
            "--flame-out" => self.flame_out = Some(v),
            _ => unreachable!("{name} is not in FLAGS"),
        }
        Ok(())
    }

    /// `Err` naming the first given flag `binary` does not honour. The
    /// CLI parses its whole vocabulary first and calls this again with
    /// the list of the command it runs.
    pub fn honours(&self, binary: &str, honoured: &str) -> Result<(), String> {
        match self
            .given
            .iter()
            .find(|f| !honoured.split_whitespace().any(|h| h == **f))
        {
            Some(f) => Err(format!("{binary} does not take {f}")),
            None => Ok(()),
        }
    }

    /// One usage line per flag in `honoured`, in [`FLAGS`] order.
    pub fn usage(honoured: &str) -> String {
        let lines = FLAGS
            .iter()
            .filter(|f| honoured.split_whitespace().any(|h| h == name(f)));
        lines.map(|line| format!("  {line}\n")).collect()
    }

    /// Whether the run needs a live (non-noop) telemetry registry.
    pub fn wants_registry(&self) -> bool {
        self.telemetry.is_some() || self.telemetry_out.is_some() || self.wants_stream()
    }

    /// Whether the run needs a live tracer.
    pub fn wants_tracer(&self) -> bool {
        self.trace.is_some() || self.bench_out.is_some() || self.wants_profile()
    }

    /// Whether the run builds a self-time profile from its trace.
    pub fn wants_profile(&self) -> bool {
        self.profile_out.is_some() || self.folded_out.is_some() || self.flame_out.is_some()
    }

    /// Whether the run streams observability records at all.
    pub fn wants_stream(&self) -> bool {
        self.obs_stream.is_some() || self.flight_recorder.is_some() || self.watch
    }

    /// Builds the run the flags ask for. `title` names the run in the
    /// flamegraph; `workers` is the worker count the profile and
    /// BENCH.json record. Exits 2 when the stream file cannot be created.
    pub fn start(self, title: &str, workers: usize) -> ObsRun {
        let registry = self.wants_registry().then(Registry::new);
        let tracer = self.wants_tracer().then(Tracer::new);
        let mem = MemorySink::new();
        let sink: Option<Box<dyn ObsSink>> = match &self.obs_stream {
            Some(path) => match FileSink::create(Path::new(path)) {
                Ok(f) => Some(Box::new(f)),
                Err(e) => fail(2, format!("cannot create stream file {path}: {e}")),
            },
            None if self.wants_stream() => Some(Box::new(mem.clone())),
            None => None,
        };
        ObsRun {
            options: self,
            title: title.to_string(),
            workers,
            registry: registry.unwrap_or_else(Registry::noop),
            tracer: tracer.unwrap_or_else(Tracer::noop),
            sink,
            mem,
        }
    }
}

/// One run's observability: what its flags asked for, and the registry,
/// tracer and stream sink that feed it. See the module docs.
pub struct ObsRun {
    /// The flags this run was started from.
    pub options: ObsOptions,
    title: String,
    workers: usize,
    /// The run's metrics: live when a flag reads them, else a no-op.
    pub registry: Registry,
    /// The run's spans: live when a flag reads them, else a no-op.
    pub tracer: Tracer,
    sink: Option<Box<dyn ObsSink>>,
    /// Read back for `--watch` when there is no stream file.
    mem: MemorySink,
}

/// Reports `message` and ends the process with `code`.
fn fail(code: i32, message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

/// Writes `contents` to `path` and says so on stderr; exits 2 naming
/// `what` and the path when it cannot.
pub fn write_file(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(2, format!("cannot write {what} to {path}: {e}"));
    }
    eprintln!("wrote {what} to {path}");
}

impl ObsRun {
    /// The stream sink, once; `None` when no flag asks for a stream.
    pub fn take_sink(&mut self) -> Option<Box<dyn ObsSink>> {
        self.sink.take()
    }

    /// An observability plane on the stream sink, with the flight
    /// recorder attached when one is asked for; `None` when no flag asks
    /// for a stream. `--obs-every` overrides `cfg.every`.
    pub fn plane(&mut self, mut cfg: ObsConfig) -> Option<ObsPlane> {
        let sink = self.take_sink()?;
        cfg.every = self.options.obs_every.unwrap_or(cfg.every);
        let plane = ObsPlane::new(sink, cfg);
        Some(match &self.options.flight_recorder {
            Some(path) => plane.with_flight(FlightRecorder::new(
                Path::new(path),
                self.options.flight_last.unwrap_or(DEFAULT_FLIGHT_CAPACITY),
            )),
            None => plane,
        })
    }

    /// The self-time profile of the spans traced so far.
    pub fn profile(&self) -> Profile {
        Profile::from_snapshot(&self.tracer.snapshot(), self.workers)
    }

    /// The value of a stream write, or exit 1 naming the stream and the
    /// error.
    pub fn check_stream<T>(&self, written: io::Result<T>) -> T {
        written.unwrap_or_else(|e| {
            let path = self.options.obs_stream.as_deref().unwrap_or("memory");
            fail(
                1,
                format!("cannot write observability stream to {path}: {e}"),
            )
        })
    }

    /// Ends the stream with the outcome of its last write: exit 1 on an
    /// error, else say where the stream went and render the `--watch`
    /// dashboard from what was written.
    pub fn end_stream<T>(&self, written: io::Result<T>) -> T {
        let value = self.check_stream(written);
        if let Some(path) = &self.options.obs_stream {
            eprintln!("wrote observability stream to {path}");
        }
        if self.options.watch {
            let text = match &self.options.obs_stream {
                Some(path) => std::fs::read_to_string(path).unwrap_or_default(),
                None => self.mem.text(),
            };
            match dashboard(&text) {
                Ok(d) => print!("\n{}", d.view),
                Err(e) => eprintln!("error: stream failed validation: {e}"),
            }
        }
        value
    }

    /// Writes and ends a job stream: the meta record, one `job` record
    /// per name in the order given, a profiled run's digest, then the
    /// summary (`obs_check --expect-summary` wants it last). Does nothing
    /// when no flag asks for a stream.
    pub fn write_job_stream(&mut self, run: &str, jobs: impl IntoIterator<Item = String>) {
        let Some(mut sink) = self.take_sink() else {
            return;
        };
        let mut records = vec![ObsRecord::Meta {
            schema: OBS_SCHEMA.into(),
            run: run.into(),
            tick_s: 0.0,
            n_rx: 0,
            every: self.options.obs_every.unwrap_or(ObsConfig::default().every),
        }];
        records.extend(
            jobs.into_iter()
                .enumerate()
                .map(|(i, name)| ObsRecord::Job {
                    index: i as u64,
                    name,
                }),
        );
        if self.options.wants_profile() {
            records.push(ObsRecord::profile_summary(&self.profile()));
        }
        records.push(ObsRecord::Summary {
            ticks: 0,
            mean_system_bps: 0.0,
            alerts_fired: 0,
            alerts_cleared: 0,
            events_dropped: self.registry.snapshot().events_dropped,
            spans_dropped: self.tracer.snapshot().dropped,
        });
        let written = records
            .iter()
            .try_for_each(|r| sink.write_line(&r.to_line()))
            .and_then(|()| sink.flush());
        drop(sink);
        self.end_stream(written);
    }

    /// The end-of-run writer: the span-ring drop count into the registry,
    /// the telemetry rendering (stdout or `--telemetry-out`), and every
    /// requested trace, BENCH.json and profile file.
    pub fn finish(self) {
        let o = &self.options;
        let spans = self.tracer.snapshot();
        // Span-ring health next to event-ring health: the summary
        // exporter's rings line reads this counter (see export::summary).
        if o.wants_tracer() && self.registry.is_enabled() {
            self.registry
                .counter("trace.spans_dropped")
                .add(spans.dropped);
        }
        if o.telemetry.is_some() || o.telemetry_out.is_some() {
            let snapshot = self.registry.snapshot();
            // A bare `--telemetry-out FILE` means JSON; an explicit format
            // applies to the file just as it would to stdout.
            let format = o.telemetry.unwrap_or(TelemetryFormat::Json);
            let rendered = match format {
                TelemetryFormat::Json => snapshot.to_json() + "\n",
                TelemetryFormat::Csv => snapshot.to_csv(),
                TelemetryFormat::Summary => snapshot.summary_table(),
            };
            match &o.telemetry_out {
                Some(path) => write_file(path, &rendered, "telemetry"),
                None if format == TelemetryFormat::Json => print!("{rendered}"),
                // A blank line closes a csv or summary block.
                None => println!("{rendered}"),
            }
        }
        if let Some(path) = &o.trace {
            write_file(path, &spans.to_chrome_json(), "Chrome trace");
        }
        if let Some(path) = &o.bench_out {
            let report =
                BenchReport::from_snapshot(&spans, self.workers, o.bench_repeat.unwrap_or(1));
            write_file(path, &report.to_json(), "BENCH.json");
        }
        if !o.wants_profile() {
            return;
        }
        let profile = Profile::from_snapshot(&spans, self.workers);
        if let Some(path) = &o.profile_out {
            write_file(path, &profile.to_json(), "self-time profile");
        }
        if let Some(path) = &o.folded_out {
            write_file(path, &to_folded(&profile), "folded stacks");
        }
        if let Some(path) = &o.flame_out {
            match flamegraph_from_profile(&self.title, &profile) {
                Ok(svg) => write_file(path, &svg, "flamegraph"),
                Err(e) => fail(2, format!("flamegraph rendering failed: {e}")),
            }
        }
    }
}

/// The tick index at which to inject a panic, from the
/// `DENSEVLC_INJECT_PANIC` environment variable (CI's flight-recorder
/// check). Unset or unparseable means no injection.
pub fn inject_panic_from_env() -> Option<u64> {
    std::env::var("DENSEVLC_INJECT_PANIC")
        .ok()
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn parse_all(args: &mut Vec<String>) -> Result<ObsOptions, String> {
        ObsOptions::parse(args, "test", &FLAGS.map(name).join(" "))
    }

    #[test]
    fn parses_the_full_flag_set_from_anywhere() {
        let mut args = argv(&[
            "sim",
            "--obs-stream",
            "out.ndjson",
            "--scenario",
            "2",
            "--telemetry",
            "summary",
            "--flight-recorder",
            "flight.ndjson",
            "--obs-every",
            "5",
            "--flight-last",
            "64",
            "--watch",
            "--trace",
            "trace.json",
        ]);
        let o = parse_all(&mut args).unwrap();
        assert_eq!(o.telemetry, Some(TelemetryFormat::Summary));
        assert_eq!(o.obs_stream.as_deref(), Some("out.ndjson"));
        assert_eq!(o.flight_recorder.as_deref(), Some("flight.ndjson"));
        assert_eq!(o.obs_every, Some(5));
        assert_eq!(o.flight_last, Some(64));
        assert!(o.watch);
        assert_eq!(o.trace.as_deref(), Some("trace.json"));
        // Only the unrelated arguments remain, in order.
        assert_eq!(args, argv(&["sim", "--scenario", "2"]));
        assert!(o.wants_registry());
        assert!(o.wants_tracer());
        assert!(o.wants_stream());
    }

    #[test]
    fn defaults_match_the_historical_flags() {
        let mut args = argv(&["adapt"]);
        let o = parse_all(&mut args).unwrap();
        assert_eq!(o, ObsOptions::default());
        assert_eq!(
            (o.bench_repeat, o.obs_every, o.flight_last),
            (None, None, None)
        );
        assert!(!o.wants_registry());
        assert!(!o.wants_tracer());
        assert!(!o.wants_stream());
    }

    #[test]
    fn missing_or_bad_values_are_errors_not_exits() {
        for bad in [
            vec!["--telemetry"],
            vec!["--telemetry", "yaml"],
            vec!["--obs-stream"],
            vec!["--watch", "--obs-every", "0"],
            vec!["--watch", "--obs-every", "soon"],
            vec!["--trace", "t", "--bench-repeat", "0"],
            vec!["--flight-recorder", "f", "--flight-last", "-1"],
            vec!["--obs-stream", "--watch"],
            vec!["--profile-out"],
            vec!["--folded-out", "--watch"],
            vec!["--trace", "a", "--trace", "b"],
            vec!["--watch", "--watch"],
        ] {
            let mut args = argv(&bad);
            assert!(parse_all(&mut args).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn a_flag_the_binary_does_not_honour_is_an_error_naming_both() {
        let honoured = "--obs-stream --obs-every --watch";
        let mut args = argv(&["--reduced", "--trace", "t.json", "--watch"]);
        let err = ObsOptions::parse(&mut args, "codec_campaign", honoured).unwrap_err();
        assert!(
            err.contains("codec_campaign") && err.contains("--trace"),
            "{err}"
        );
        let mut args = argv(&["--reduced", "--watch"]);
        let o = ObsOptions::parse(&mut args, "codec_campaign", honoured).unwrap();
        assert!(o.watch);
        // A second, narrower check names the narrower binary.
        let err = o.honours("densevlc-cli adapt", "").unwrap_err();
        assert!(err.contains("densevlc-cli adapt") && err.contains("--watch"));
    }

    #[test]
    fn a_tuning_flag_without_its_subject_is_an_error() {
        for (bad, names) in [
            (vec!["--bench-repeat", "3"], "--bench-repeat"),
            (vec!["--obs-every", "5", "--trace", "t"], "--obs-every"),
            (
                vec!["--flight-last", "8", "--obs-stream", "s"],
                "--flight-last",
            ),
        ] {
            let err = parse_all(&mut argv(&bad)).unwrap_err();
            assert!(err.contains(names), "{bad:?}: {err}");
        }
        for good in [
            vec!["--bench-repeat", "3", "--profile-out", "p"],
            vec!["--obs-every", "5", "--flight-recorder", "f"],
            vec!["--flight-last", "8", "--flight-recorder", "f"],
        ] {
            assert!(parse_all(&mut argv(&good)).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn usage_lists_exactly_the_honoured_flags_in_table_order() {
        let text = ObsOptions::usage("--watch --telemetry");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("--telemetry <json|csv|summary>"));
        assert!(lines[1].trim_start().starts_with("--watch "));
    }

    #[test]
    fn profile_flags_enable_the_tracer_without_bench_out() {
        for flag in ["--profile-out", "--folded-out", "--flame-out"] {
            let mut args = argv(&["sim", flag, "p.out"]);
            let o = parse_all(&mut args).unwrap();
            assert!(o.wants_profile(), "{flag}");
            assert!(o.wants_tracer(), "{flag} implies a live tracer");
            assert!(!o.wants_stream(), "{flag} alone does not stream");
            assert_eq!(args, argv(&["sim"]));
        }
        assert!(!ObsOptions::default().wants_profile());
    }

    #[test]
    fn telemetry_out_alone_still_enables_the_registry() {
        let mut args = argv(&["--telemetry-out", "snap.json"]);
        let o = parse_all(&mut args).unwrap();
        assert_eq!(o.telemetry, None);
        assert!(o.wants_registry());
        assert!(!o.wants_stream());
    }

    #[test]
    fn a_job_stream_is_meta_jobs_then_summary() {
        let mut args = argv(&["--watch"]);
        let mut run = parse_all(&mut args).unwrap().start("test", 1);
        let mem = run.mem.clone();
        run.write_job_stream("unit", ["a".to_string(), "b".to_string()]);
        let records = crate::record::parse_stream_strict(&mem.text()).unwrap();
        assert_eq!(records.len(), 4);
        assert!(matches!(&records[0], ObsRecord::Meta { run, every: 10, .. } if run == "unit"));
        assert!(matches!(&records[2], ObsRecord::Job { index: 1, name } if name == "b"));
        assert!(matches!(records[3], ObsRecord::Summary { .. }));
        assert!(run.take_sink().is_none(), "the sink is used once");
    }

    #[test]
    fn no_stream_flag_means_no_sink_and_no_plane() {
        let mut run = ObsOptions::default().start("test", 1);
        assert!(run.plane(ObsConfig::default()).is_none());
        assert!(!run.registry.is_enabled());
        assert!(!run.tracer.is_enabled());
    }
}
