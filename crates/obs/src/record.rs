//! The NDJSON stream records and their validating parser.
//!
//! Every line of an observability stream is one JSON object whose `type`
//! field selects the record shape. The writer emits keys in a fixed order
//! and floats in Rust's shortest round-trip formatting, so
//! `parse_line(to_line(r)) == r` exactly — the parser is the same one the
//! round-trip tests, the `obs_check` CI validator, and the monitor view
//! run on, built on `vlc_telemetry::export::value`.
//!
//! Record kinds (`type` values):
//!
//! | type      | emitted                                      |
//! |-----------|----------------------------------------------|
//! | `meta`    | once, at stream start                        |
//! | `tick`    | every simulation tick                        |
//! | `window`  | one per signal every flush interval          |
//! | `event`   | each telemetry event, forwarded at flushes   |
//! | `alert`   | SLO state transitions (fire / clear)         |
//! | `job`     | one per completed `run_all` experiment job   |
//! | `panic`   | written by the flight recorder's crash dump  |
//! | `profile` | self-time profile digest, before the summary |
//! | `summary` | once, at stream end                          |

use crate::window::WindowStats;
use vlc_prof::{Profile, PROF_SCHEMA};
use vlc_telemetry::export::json::{event_from_value, event_to_json};
use vlc_telemetry::export::value::{
    field, field_opt, parse_json, push_f64, push_json_string, JsonValue,
};
use vlc_telemetry::export::ParseError;
use vlc_telemetry::Event;

/// Stream schema identifier carried by every `meta` record.
pub const OBS_SCHEMA: &str = "densevlc-obs/1";

/// Whether an alert transitioned into or out of breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule's breach streak reached `for_windows`.
    Firing,
    /// The rule's recovery streak reached `clear_windows`.
    Cleared,
}

impl AlertState {
    fn as_str(self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Cleared => "cleared",
        }
    }
}

/// One line of an observability stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsRecord {
    /// Stream header: schema, run label, and cadence parameters.
    Meta {
        /// Always [`OBS_SCHEMA`]; the parser rejects anything else.
        schema: String,
        /// Human label of the producing run (e.g. `sim scenario2`).
        run: String,
        /// Simulation tick length in seconds (0 when not tick-driven).
        tick_s: f64,
        /// Receivers observed (0 when not a simulation stream).
        n_rx: u64,
        /// Flush / window-emit cadence in ticks.
        every: u64,
    },
    /// One simulation tick.
    Tick {
        /// Tick index from 0.
        tick: u64,
        /// Simulation time, seconds.
        t_s: f64,
        /// Per-receiver throughput under the current plan, bit/s.
        per_rx_bps: Vec<f64>,
        /// Per-receiver SINR (dimensionless).
        per_rx_sinr: Vec<f64>,
        /// LOS links currently blocked by occluders.
        blocked_links: u64,
        /// Whether the controller re-planned this tick.
        replanned: bool,
    },
    /// Rolling-window statistics for one signal.
    Window {
        /// Tick the window ends at (inclusive).
        tick: u64,
        /// Signal name (e.g. `rx0.bps`, `alloc.solve_s`).
        signal: String,
        /// Exact statistics over the window.
        stats: WindowStats,
    },
    /// A telemetry event forwarded into the stream.
    Event(Event),
    /// An SLO rule changed state.
    Alert {
        /// Tick of the evaluation that transitioned the rule.
        tick: u64,
        /// Rule name (e.g. `rx0.throughput`).
        rule: String,
        /// Signal the rule watches.
        signal: String,
        /// Fire or clear.
        state: AlertState,
        /// The statistic value that triggered the transition.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    },
    /// One completed `run_all` experiment job.
    Job {
        /// Job index in the fixed experiment order.
        index: u64,
        /// Experiment name (e.g. `fig21_baselines`).
        name: String,
    },
    /// Crash marker appended by the flight recorder's dump.
    Panic {
        /// The panic message (as formatted by the panic hook).
        message: String,
        /// Tick records retained in the dump.
        retained: u64,
        /// Older lines the flight ring had already evicted.
        dropped: u64,
    },
    /// Digest of a self-time profile built from the run's trace. The full
    /// profile goes to `--profile-out`; the stream carries the headline so
    /// dashboards and `obs_check` can see profiling happened.
    Profile {
        /// Always [`vlc_prof::PROF_SCHEMA`]; the parser rejects others.
        schema: String,
        /// Distinct call paths in the profile.
        nodes: u64,
        /// Total span calls across all paths.
        calls: u64,
        /// Σ inclusive over root paths — total traced wall time, seconds.
        root_s: f64,
        /// Call path with the most self time.
        top_path: String,
        /// That path's self time, seconds.
        top_self_s: f64,
    },
    /// Stream trailer with end-of-run totals.
    Summary {
        /// Ticks streamed.
        ticks: u64,
        /// Mean system throughput over the run, bit/s.
        mean_system_bps: f64,
        /// Alerts fired.
        alerts_fired: u64,
        /// Alerts cleared.
        alerts_cleared: u64,
        /// Telemetry event-ring drops at the end of the run.
        events_dropped: u64,
        /// Trace span-ring drops at the end of the run.
        spans_dropped: u64,
    },
}

fn push_f64_slice(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

fn stats_to_json(out: &mut String, s: &WindowStats) {
    out.push_str("{\"count\":");
    out.push_str(&s.count.to_string());
    for (k, v) in [
        ("sum", s.sum),
        ("min", s.min),
        ("max", s.max),
        ("p50", s.p50),
        ("p95", s.p95),
        ("p99", s.p99),
    ] {
        out.push_str(",\"");
        out.push_str(k);
        out.push_str("\":");
        push_f64(out, v);
    }
    out.push_str(",\"dropped\":");
    out.push_str(&s.dropped.to_string());
    out.push('}');
}

impl ObsRecord {
    /// Writes this record as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            ObsRecord::Meta {
                schema,
                run,
                tick_s,
                n_rx,
                every,
            } => {
                out.push_str("{\"type\":\"meta\",\"schema\":");
                push_json_string(&mut out, schema);
                out.push_str(",\"run\":");
                push_json_string(&mut out, run);
                out.push_str(",\"tick_s\":");
                push_f64(&mut out, *tick_s);
                out.push_str(&format!(",\"n_rx\":{n_rx},\"every\":{every}}}"));
            }
            ObsRecord::Tick {
                tick,
                t_s,
                per_rx_bps,
                per_rx_sinr,
                blocked_links,
                replanned,
            } => {
                out.push_str(&format!("{{\"type\":\"tick\",\"tick\":{tick},\"t_s\":"));
                push_f64(&mut out, *t_s);
                out.push_str(",\"per_rx_bps\":");
                push_f64_slice(&mut out, per_rx_bps);
                out.push_str(",\"per_rx_sinr\":");
                push_f64_slice(&mut out, per_rx_sinr);
                out.push_str(&format!(
                    ",\"blocked_links\":{blocked_links},\"replanned\":{replanned}}}"
                ));
            }
            ObsRecord::Window {
                tick,
                signal,
                stats,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"window\",\"tick\":{tick},\"signal\":"
                ));
                push_json_string(&mut out, signal);
                out.push_str(",\"stats\":");
                stats_to_json(&mut out, stats);
                out.push('}');
            }
            ObsRecord::Event(e) => {
                out.push_str("{\"type\":\"event\",\"event\":");
                out.push_str(&event_to_json(e));
                out.push('}');
            }
            ObsRecord::Alert {
                tick,
                rule,
                signal,
                state,
                value,
                threshold,
            } => {
                out.push_str(&format!("{{\"type\":\"alert\",\"tick\":{tick},\"rule\":"));
                push_json_string(&mut out, rule);
                out.push_str(",\"signal\":");
                push_json_string(&mut out, signal);
                out.push_str(",\"state\":\"");
                out.push_str(state.as_str());
                out.push_str("\",\"value\":");
                push_f64(&mut out, *value);
                out.push_str(",\"threshold\":");
                push_f64(&mut out, *threshold);
                out.push('}');
            }
            ObsRecord::Job { index, name } => {
                out.push_str(&format!("{{\"type\":\"job\",\"index\":{index},\"name\":"));
                push_json_string(&mut out, name);
                out.push('}');
            }
            ObsRecord::Panic {
                message,
                retained,
                dropped,
            } => {
                out.push_str("{\"type\":\"panic\",\"message\":");
                push_json_string(&mut out, message);
                out.push_str(&format!(",\"retained\":{retained},\"dropped\":{dropped}}}"));
            }
            ObsRecord::Profile {
                schema,
                nodes,
                calls,
                root_s,
                top_path,
                top_self_s,
            } => {
                out.push_str("{\"type\":\"profile\",\"schema\":");
                push_json_string(&mut out, schema);
                out.push_str(&format!(",\"nodes\":{nodes},\"calls\":{calls},\"root_s\":"));
                push_f64(&mut out, *root_s);
                out.push_str(",\"top_path\":");
                push_json_string(&mut out, top_path);
                out.push_str(",\"top_self_s\":");
                push_f64(&mut out, *top_self_s);
                out.push('}');
            }
            ObsRecord::Summary {
                ticks,
                mean_system_bps,
                alerts_fired,
                alerts_cleared,
                events_dropped,
                spans_dropped,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"summary\",\"ticks\":{ticks},\"mean_system_bps\":"
                ));
                push_f64(&mut out, *mean_system_bps);
                out.push_str(&format!(
                    ",\"alerts_fired\":{alerts_fired},\"alerts_cleared\":{alerts_cleared},\"events_dropped\":{events_dropped},\"spans_dropped\":{spans_dropped}}}"
                ));
            }
        }
        out
    }

    /// Builds the stream digest of a full profile: node/call totals, the
    /// traced root wall time, and the hottest path by self time (empty
    /// when the profile is — e.g. tracing produced no closed spans).
    pub fn profile_summary(profile: &Profile) -> ObsRecord {
        let top = profile.by_self().into_iter().next();
        ObsRecord::Profile {
            schema: profile.schema.clone(),
            nodes: profile.nodes.len() as u64,
            calls: profile.nodes.iter().map(|n| n.calls).sum(),
            root_s: profile.total_root_s(),
            top_path: top.map(|n| n.path.clone()).unwrap_or_default(),
            top_self_s: top.map(|n| n.self_s).unwrap_or(0.0),
        }
    }

    /// Parses and validates one NDJSON line.
    pub fn parse_line(line: &str) -> Result<ObsRecord, ParseError> {
        let root = parse_json(line)?;
        let obj = root.as_obj("stream record")?;
        let kind = field(obj, "type")?.as_str("type")?;
        match kind {
            "meta" => {
                let schema = field(obj, "schema")?.as_str("schema")?.to_string();
                if schema != OBS_SCHEMA {
                    return Err(ParseError::new(
                        0,
                        format!(
                            "unsupported stream schema \"{schema}\" (expected \"{OBS_SCHEMA}\")"
                        ),
                    ));
                }
                Ok(ObsRecord::Meta {
                    schema,
                    run: field(obj, "run")?.as_str("run")?.to_string(),
                    tick_s: field(obj, "tick_s")?.as_f64("tick_s")?,
                    n_rx: field(obj, "n_rx")?.as_u64("n_rx")?,
                    every: field(obj, "every")?.as_u64("every")?,
                })
            }
            "tick" => Ok(ObsRecord::Tick {
                tick: field(obj, "tick")?.as_u64("tick")?,
                t_s: field(obj, "t_s")?.as_f64("t_s")?,
                per_rx_bps: parse_f64_arr(field(obj, "per_rx_bps")?, "per_rx_bps")?,
                per_rx_sinr: parse_f64_arr(field(obj, "per_rx_sinr")?, "per_rx_sinr")?,
                blocked_links: field(obj, "blocked_links")?.as_u64("blocked_links")?,
                replanned: field(obj, "replanned")?.as_bool("replanned")?,
            }),
            "window" => Ok(ObsRecord::Window {
                tick: field(obj, "tick")?.as_u64("tick")?,
                signal: field(obj, "signal")?.as_str("signal")?.to_string(),
                stats: parse_stats(field(obj, "stats")?)?,
            }),
            "event" => Ok(ObsRecord::Event(event_from_value(field(obj, "event")?)?)),
            "alert" => {
                let state = match field(obj, "state")?.as_str("state")? {
                    "firing" => AlertState::Firing,
                    "cleared" => AlertState::Cleared,
                    other => {
                        return Err(ParseError::new(
                            0,
                            format!("unknown alert state \"{other}\""),
                        ))
                    }
                };
                Ok(ObsRecord::Alert {
                    tick: field(obj, "tick")?.as_u64("tick")?,
                    rule: field(obj, "rule")?.as_str("rule")?.to_string(),
                    signal: field(obj, "signal")?.as_str("signal")?.to_string(),
                    state,
                    value: field(obj, "value")?.as_f64("value")?,
                    threshold: field(obj, "threshold")?.as_f64("threshold")?,
                })
            }
            "job" => Ok(ObsRecord::Job {
                index: field(obj, "index")?.as_u64("index")?,
                name: field(obj, "name")?.as_str("name")?.to_string(),
            }),
            "panic" => Ok(ObsRecord::Panic {
                message: field(obj, "message")?.as_str("message")?.to_string(),
                retained: field(obj, "retained")?.as_u64("retained")?,
                dropped: field(obj, "dropped")?.as_u64("dropped")?,
            }),
            "profile" => {
                let schema = field(obj, "schema")?.as_str("schema")?.to_string();
                if schema != PROF_SCHEMA {
                    return Err(ParseError::new(
                        0,
                        format!(
                            "unsupported profile schema \"{schema}\" (expected \"{PROF_SCHEMA}\")"
                        ),
                    ));
                }
                Ok(ObsRecord::Profile {
                    schema,
                    nodes: field(obj, "nodes")?.as_u64("nodes")?,
                    calls: field(obj, "calls")?.as_u64("calls")?,
                    root_s: field(obj, "root_s")?.as_f64("root_s")?,
                    top_path: field(obj, "top_path")?.as_str("top_path")?.to_string(),
                    top_self_s: field(obj, "top_self_s")?.as_f64("top_self_s")?,
                })
            }
            "summary" => Ok(ObsRecord::Summary {
                ticks: field(obj, "ticks")?.as_u64("ticks")?,
                mean_system_bps: field(obj, "mean_system_bps")?.as_f64("mean_system_bps")?,
                alerts_fired: field(obj, "alerts_fired")?.as_u64("alerts_fired")?,
                alerts_cleared: field(obj, "alerts_cleared")?.as_u64("alerts_cleared")?,
                events_dropped: field(obj, "events_dropped")?.as_u64("events_dropped")?,
                spans_dropped: field_opt(obj, "spans_dropped")
                    .map_or(Ok(0), |v| v.as_u64("spans_dropped"))?,
            }),
            other => Err(ParseError::new(
                0,
                format!("unknown record type \"{other}\""),
            )),
        }
    }
}

fn parse_f64_arr(v: &JsonValue, what: &str) -> Result<Vec<f64>, ParseError> {
    v.as_arr(what)?.iter().map(|x| x.as_f64(what)).collect()
}

fn parse_stats(v: &JsonValue) -> Result<WindowStats, ParseError> {
    let s = v.as_obj("stats")?;
    Ok(WindowStats {
        count: field(s, "count")?.as_u64("count")?,
        sum: field(s, "sum")?.as_f64("sum")?,
        min: field(s, "min")?.as_f64("min")?,
        max: field(s, "max")?.as_f64("max")?,
        p50: field(s, "p50")?.as_f64("p50")?,
        p95: field(s, "p95")?.as_f64("p95")?,
        p99: field(s, "p99")?.as_f64("p99")?,
        dropped: field(s, "dropped")?.as_u64("dropped")?,
    })
}

/// Failure while validating a stream: which line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The underlying parse failure.
    pub source: ParseError,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.source)
    }
}

impl std::error::Error for StreamError {}

/// Parses and validates a whole NDJSON stream (empty lines are skipped, a
/// trailing partial line — no terminating newline — is ignored so a live
/// file mid-write can still be tailed).
pub fn parse_stream(text: &str) -> Result<Vec<ObsRecord>, StreamError> {
    parse_lines(text, text.ends_with('\n'))
}

/// [`parse_stream`] that also rejects a trailing unterminated line — the
/// strict form `obs_check` runs on completed streams.
pub fn parse_stream_strict(text: &str) -> Result<Vec<ObsRecord>, StreamError> {
    parse_lines(text, true)
}

fn parse_lines(text: &str, include_last: bool) -> Result<Vec<ObsRecord>, StreamError> {
    let lines: Vec<&str> = text.lines().collect();
    let take = if include_last {
        lines.len()
    } else {
        lines.len().saturating_sub(1)
    };
    lines[..take]
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            ObsRecord::parse_line(l).map_err(|source| StreamError {
                line: i + 1,
                source,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ObsRecord> {
        vec![
            ObsRecord::Meta {
                schema: OBS_SCHEMA.into(),
                run: "sim scenario2".into(),
                tick_s: 0.1,
                n_rx: 4,
                every: 10,
            },
            ObsRecord::Tick {
                tick: 3,
                t_s: 0.30000000000000004,
                per_rx_bps: vec![1.5e6, 0.0],
                per_rx_sinr: vec![12.25, 0.0],
                blocked_links: 2,
                replanned: true,
            },
            ObsRecord::Window {
                tick: 9,
                signal: "rx0.bps".into(),
                stats: WindowStats {
                    count: 10,
                    sum: 1.5e7,
                    min: 1.4e6,
                    max: 1.6e6,
                    p50: 1.5e6,
                    p95: 1.6e6,
                    p99: 1.6e6,
                    dropped: 0,
                },
            },
            ObsRecord::Event(Event {
                t_s: 0.9,
                target: "mac.controller".into(),
                kind: "infeasible_round".into(),
                fields: vec![("budget_w".into(), "0".into())],
            }),
            ObsRecord::Alert {
                tick: 19,
                rule: "rx0.throughput".into(),
                signal: "rx0.bps".into(),
                state: AlertState::Firing,
                value: 0.0,
                threshold: 1e6,
            },
            ObsRecord::Job {
                index: 2,
                name: "fig08_throughput_vs_power".into(),
            },
            ObsRecord::Panic {
                message: "injected panic at tick 5".into(),
                retained: 6,
                dropped: 0,
            },
            ObsRecord::Profile {
                schema: PROF_SCHEMA.into(),
                nodes: 42,
                calls: 128,
                root_s: 1.2500000000000002,
                top_path: "bench.run_all;experiment.fig21_baselines".into(),
                top_self_s: 0.325,
            },
            ObsRecord::Summary {
                ticks: 20,
                mean_system_bps: 5.2e6,
                alerts_fired: 1,
                alerts_cleared: 1,
                events_dropped: 0,
                spans_dropped: 0,
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips_exactly() {
        for r in samples() {
            let line = r.to_line();
            assert!(!line.contains('\n'), "one line per record: {line}");
            assert_eq!(ObsRecord::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn a_stream_round_trips_line_by_line() {
        let text: String = samples().iter().map(|r| r.to_line() + "\n").collect();
        assert_eq!(parse_stream(&text).unwrap(), samples());
        assert_eq!(parse_stream_strict(&text).unwrap(), samples());
    }

    #[test]
    fn a_partial_trailing_line_is_tolerated_only_in_lenient_mode() {
        let mut text: String = samples().iter().map(|r| r.to_line() + "\n").collect();
        text.push_str("{\"type\":\"tick\",\"tick\":99,"); // mid-write
        assert_eq!(parse_stream(&text).unwrap().len(), samples().len());
        let err = parse_stream_strict(&text).unwrap_err();
        assert_eq!(err.line, samples().len() + 1);
    }

    #[test]
    fn bad_lines_are_rejected_with_their_line_number() {
        let good = samples()[0].to_line();
        let text = format!("{good}\nnot json\n");
        let err = parse_stream(&text).unwrap_err();
        assert_eq!(err.line, 2);

        assert!(ObsRecord::parse_line("{\"type\":\"nope\"}").is_err());
        assert!(ObsRecord::parse_line("{}").is_err());
        // A meta record with a foreign schema is rejected up front.
        let foreign = "{\"type\":\"meta\",\"schema\":\"other/9\",\"run\":\"x\",\"tick_s\":0.1,\"n_rx\":1,\"every\":1}";
        assert!(ObsRecord::parse_line(foreign).is_err());
        // So is a profile record with one.
        let foreign = "{\"type\":\"profile\",\"schema\":\"other/9\",\"nodes\":1,\"calls\":1,\"root_s\":0.1,\"top_path\":\"r\",\"top_self_s\":0.1}";
        assert!(ObsRecord::parse_line(foreign).is_err());
    }

    #[test]
    fn profile_summary_digests_the_hottest_path() {
        use vlc_telemetry::ManualClock;
        use vlc_trace::Tracer;
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("run");
        let hot = root.child("hot");
        clock.advance(0.75);
        drop(hot);
        clock.advance(0.25);
        drop(root);
        let profile = Profile::from_snapshot(&tracer.snapshot(), 2);
        let r = ObsRecord::profile_summary(&profile);
        let ObsRecord::Profile {
            ref schema,
            nodes,
            calls,
            root_s,
            ref top_path,
            top_self_s,
        } = r
        else {
            panic!("profile record expected");
        };
        assert_eq!(schema, PROF_SCHEMA);
        assert_eq!((nodes, calls), (2, 2));
        assert_eq!(root_s, 1.0);
        assert_eq!(top_path, "run;hot");
        assert_eq!(top_self_s, 0.75);
        // And it round-trips like every other record.
        assert_eq!(ObsRecord::parse_line(&r.to_line()).unwrap(), r);
    }
}
