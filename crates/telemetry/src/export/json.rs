//! JSON export and import.
//!
//! Document shape (one object, key order fixed):
//!
//! ```json
//! {
//!   "counters":       { "name": 42, ... },
//!   "gauges":         { "name": 0.5, ... },
//!   "histograms":     { "name": { "count": 2, "sum": 3.0, "min": 1.0,
//!                                  "max": 2.0, "p50": 1.0, "p95": 2.0,
//!                                  "p99": 2.0 }, ... },
//!   "events":         [ { "t_s": 0.0, "target": "mac", "kind": "replan",
//!                         "fields": { "round": "3" } }, ... ],
//!   "events_dropped": 0
//! }
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! `from_json(to_json(s)) == s` exactly. Non-finite floats (which no
//! instrument produces) serialize as `null` and parse back as 0.
//!
//! The value model and parser live in [`super::value`], shared with the
//! `vlc-obs` streaming exporter.

use super::value::{field, parse_json, push_f64, push_json_string, JsonValue};
use super::ParseError;
use crate::event::Event;
use crate::histogram::HistogramSnapshot;
use crate::snapshot::MetricsSnapshot;

/// Writes a snapshot; see the module docs for the document shape.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        push_f64(&mut out, *v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push_str(":{\"count\":");
        out.push_str(&h.count.to_string());
        for (key, v) in [
            ("sum", h.sum),
            ("min", h.min),
            ("max", h.max),
            ("p50", h.p50),
            ("p95", h.p95),
            ("p99", h.p99),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_f64(&mut out, v);
        }
        out.push('}');
    }
    out.push_str("},\"events\":[");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_to_json(e));
    }
    out.push_str("],\"events_dropped\":");
    out.push_str(&snap.events_dropped.to_string());
    out.push('}');
    out
}

/// Writes one event as a standalone JSON object
/// (`{"t_s":…,"target":…,"kind":…,"fields":{…}}`) — the element shape of
/// the snapshot's `events` array, also embedded in `vlc-obs` stream lines.
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"t_s\":");
    push_f64(&mut out, e.t_s);
    out.push_str(",\"target\":");
    push_json_string(&mut out, &e.target);
    out.push_str(",\"kind\":");
    push_json_string(&mut out, &e.kind);
    out.push_str(",\"fields\":{");
    for (j, (k, v)) in e.fields.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        push_json_string(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// Reconstructs an event from the object shape written by
/// [`event_to_json`].
pub fn event_from_value(v: &JsonValue) -> Result<Event, ParseError> {
    let e = v.as_obj("event")?;
    let fields = field(e, "fields")?
        .as_obj("event fields")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_str("event field value")?.to_string())))
        .collect::<Result<Vec<_>, ParseError>>()?;
    Ok(Event {
        t_s: field(e, "t_s")?.as_f64("t_s")?,
        target: field(e, "target")?.as_str("target")?.to_string(),
        kind: field(e, "kind")?.as_str("kind")?.to_string(),
        fields,
    })
}

/// Parses a snapshot from [`to_json`] output.
pub fn from_json(text: &str) -> Result<MetricsSnapshot, ParseError> {
    let root = parse_json(text)?;
    let root = root.as_obj("document root")?;

    let counters = field(root, "counters")?
        .as_obj("counters")?
        .iter()
        .map(|(name, v)| Ok((name.clone(), v.as_u64("counter value")?)))
        .collect::<Result<Vec<_>, ParseError>>()?;

    let gauges = field(root, "gauges")?
        .as_obj("gauges")?
        .iter()
        .map(|(name, v)| Ok((name.clone(), v.as_f64("gauge value")?)))
        .collect::<Result<Vec<_>, ParseError>>()?;

    let histograms = field(root, "histograms")?
        .as_obj("histograms")?
        .iter()
        .map(|(name, v)| {
            let h = v.as_obj("histogram")?;
            Ok((
                name.clone(),
                HistogramSnapshot {
                    count: field(h, "count")?.as_u64("count")?,
                    sum: field(h, "sum")?.as_f64("sum")?,
                    min: field(h, "min")?.as_f64("min")?,
                    max: field(h, "max")?.as_f64("max")?,
                    p50: field(h, "p50")?.as_f64("p50")?,
                    p95: field(h, "p95")?.as_f64("p95")?,
                    p99: field(h, "p99")?.as_f64("p99")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, ParseError>>()?;

    let events = field(root, "events")?
        .as_arr("events")?
        .iter()
        .map(event_from_value)
        .collect::<Result<Vec<_>, ParseError>>()?;

    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        events,
        events_dropped: field(root, "events_dropped")?.as_u64("events_dropped")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_round_trips() {
        let s = MetricsSnapshot::default();
        assert_eq!(from_json(&to_json(&s)).unwrap(), s);
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let s = MetricsSnapshot {
            events: vec![Event {
                t_s: 1e-9,
                target: "a \"quoted\"\\path".into(),
                kind: "line\nbreak\ttab".into(),
                fields: vec![("köln".into(), "value, with; punct=chars".into())],
            }],
            ..Default::default()
        };
        assert_eq!(from_json(&to_json(&s)).unwrap(), s);
    }

    #[test]
    fn rejects_truncated_document() {
        let s = MetricsSnapshot {
            counters: vec![("a".into(), 1)],
            ..Default::default()
        };
        let json = to_json(&s);
        assert!(from_json(&json[..json.len() - 1]).is_err());
        assert!(from_json("").is_err());
        assert!(from_json("[]").is_err());
    }

    #[test]
    fn large_counters_survive() {
        let s = MetricsSnapshot {
            counters: vec![("big".into(), u64::MAX)],
            ..Default::default()
        };
        assert_eq!(
            from_json(&to_json(&s)).unwrap().counter("big"),
            Some(u64::MAX)
        );
    }

    #[test]
    fn standalone_events_round_trip() {
        let e = Event {
            t_s: 2.5,
            target: "phy.frame".into(),
            kind: "rs_uncorrectable".into(),
            fields: vec![("frame".into(), "7".into())],
        };
        let parsed = event_from_value(&parse_json(&event_to_json(&e)).unwrap()).unwrap();
        assert_eq!(parsed, e);
    }
}
