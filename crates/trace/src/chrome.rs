//! Chrome Trace Event JSON export (Perfetto / `chrome://tracing`) and a
//! validating parser for tests and tooling.
//!
//! Each finished span becomes one complete event (`"ph": "X"`) with
//! microsecond timestamps; the span's worker lane is the `tid`, so
//! Perfetto shows one horizontal lane per `vlc-par` worker. Metadata
//! events name the process and every lane. Span attributes and the
//! structural span/parent ids ride in `args`, so the causal tree survives
//! the export even though the Chrome format itself is flat.

use crate::snapshot::TraceSnapshot;
use vlc_telemetry::export::value::{field, field_opt, parse_json, push_json_string, JsonValue};
use vlc_telemetry::export::ParseError;

/// One event read back from a Chrome Trace Event file (the subset this
/// crate emits: complete `X` events and `M` metadata events).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (span name, or `process_name`/`thread_name` metadata).
    pub name: String,
    /// Phase: `X` for spans, `M` for metadata.
    pub ph: String,
    /// Start timestamp in microseconds (0 for metadata).
    pub ts_us: f64,
    /// Duration in microseconds (0 for metadata).
    pub dur_us: f64,
    /// Process id (always 1 here).
    pub pid: u64,
    /// Thread id — the span's worker lane.
    pub tid: u64,
    /// `args` fields as strings (numbers keep their source text).
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    /// The value of an `args` field, if present.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl TraceSnapshot {
    /// Renders the snapshot as Chrome Trace Event JSON (the
    /// `{"traceEvents": [...]}` object form Perfetto loads directly).
    /// Events appear in snapshot order, so the output is byte-identical
    /// for identical snapshots.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + 4);
        events.push(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"densevlc"}}"#
                .to_string(),
        );
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let lane = if track == 0 {
                "main".to_string()
            } else {
                format!("worker {track}")
            };
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{track},"args":{{"name":"{lane}"}}}}"#
            ));
        }
        for span in &self.spans {
            let mut args = format!(
                r#""span_id":"{:#018x}","parent_id":"{:#018x}""#,
                span.id, span.parent_id
            );
            for (k, v) in &span.attrs {
                args.push(',');
                push_json_string(&mut args, k);
                args.push(':');
                push_json_string(&mut args, v);
            }
            let mut name = String::new();
            push_json_string(&mut name, &span.name);
            events.push(format!(
                r#"{{"name":{name},"cat":"densevlc","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{},"args":{{{args}}}}}"#,
                span.start_s * 1e6,
                span.duration_s() * 1e6,
                span.track,
            ));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"");
        if self.dropped > 0 {
            out.push_str(&format!(",\"spansDropped\":{}", self.dropped));
        }
        out.push_str("}\n");
        out
    }
}

/// Parses a Chrome Trace Event document (either the object form with
/// `traceEvents` or a bare event array) into its events, validating the
/// fields this crate's exporter guarantees.
pub fn parse_chrome_json(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let events = match &doc {
        JsonValue::Obj(fields) => field(fields, "traceEvents").map_err(|e| e.to_string())?,
        _ => &doc,
    };
    let items = events.as_arr("traceEvents").map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let event = |e: ParseError| format!("event {i}: {e}");
        let fields = item.as_obj("event").map_err(event)?;
        let string = |key: &str| -> Result<String, String> {
            field(fields, key)
                .and_then(|v| v.as_str(key))
                .map(str::to_string)
                .map_err(event)
        };
        let num = |key: &str| -> Result<Option<f64>, String> {
            field_opt(fields, key)
                .map(|v| v.as_f64(key))
                .transpose()
                .map_err(event)
        };
        let ph = string("ph")?;
        let dur = num("dur")?;
        if ph == "X" && dur.is_none() {
            return Err(format!("event {i}: complete event without `dur`"));
        }
        let args = match field_opt(fields, "args") {
            Some(JsonValue::Obj(args)) => args
                .iter()
                .map(|(k, v)| {
                    let rendered = match v {
                        JsonValue::Str(s) | JsonValue::Num(s) => s.clone(),
                        JsonValue::Bool(b) => format!("{b}"),
                        other => format!("{other:?}"),
                    };
                    (k.clone(), rendered)
                })
                .collect(),
            _ => Vec::new(),
        };
        out.push(ChromeEvent {
            name: string("name")?,
            ph,
            ts_us: num("ts")?.unwrap_or(0.0),
            dur_us: dur.unwrap_or(0.0),
            pid: num("pid")?.unwrap_or(0.0) as u64,
            tid: num("tid")?.unwrap_or(0.0) as u64,
            args,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use vlc_telemetry::ManualClock;

    fn sample() -> TraceSnapshot {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("round");
        root.attr("budget_w", "1.2");
        clock.advance(0.5);
        let child = root.child("plan");
        clock.advance(0.25);
        drop(child);
        drop(root);
        tracer.snapshot()
    }

    #[test]
    fn export_parses_back_with_ids_and_lanes() {
        let snap = sample();
        let json = snap.to_chrome_json();
        let events = parse_chrome_json(&json).expect("valid Chrome JSON");
        // process_name + thread_name(track 0) + two spans.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "process_name");
        assert_eq!(events[1].name, "thread_name");
        assert_eq!(events[1].arg("name"), Some("main"));
        let round = events.iter().find(|e| e.name == "round").expect("round");
        let plan = events.iter().find(|e| e.name == "plan").expect("plan");
        assert_eq!(round.ph, "X");
        assert_eq!(round.ts_us, 0.0);
        assert_eq!(round.dur_us, 750_000.0);
        assert_eq!(plan.ts_us, 500_000.0);
        assert_eq!(round.arg("budget_w"), Some("1.2"));
        // The parent link survives the flat format through args.
        assert_eq!(plan.arg("parent_id"), round.arg("span_id"));
        assert_eq!(round.arg("parent_id"), Some("0x0000000000000000"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(sample().to_chrome_json(), sample().to_chrome_json());
    }

    #[test]
    fn names_and_attrs_are_escaped() {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock);
        let root = tracer.root("odd \"name\"\n");
        root.attr("k\\ey", "v\"al\tue");
        drop(root);
        let json = tracer.snapshot().to_chrome_json();
        let events = parse_chrome_json(&json).expect("still valid JSON");
        let span = events.iter().find(|e| e.ph == "X").expect("span event");
        assert_eq!(span.name, "odd \"name\"\n");
        assert_eq!(span.arg("k\\ey"), Some("v\"al\tue"));
    }

    #[test]
    fn parser_rejects_malformed_traces() {
        assert!(parse_chrome_json("{}").is_err());
        assert!(parse_chrome_json(r#"{"traceEvents": 3}"#).is_err());
        assert!(parse_chrome_json(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
        assert!(parse_chrome_json("12").is_err());
    }

    #[test]
    fn bare_array_form_is_accepted() {
        let events = parse_chrome_json(r#"[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":0}]"#)
            .expect("array form parses");
        assert_eq!(events[0].dur_us, 2.0);
    }
}
