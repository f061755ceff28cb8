//! CSV export and import.
//!
//! One record per line, first field is the record type:
//!
//! ```text
//! # densevlc telemetry v1
//! counter,<name>,<value>
//! gauge,<name>,<value>
//! histogram,<name>,<count>,<sum>,<min>,<max>,<p50>,<p95>,<p99>
//! event,<t_s>,<target>,<kind>,<k=v;k=v;...>
//! events_dropped,<n>
//! ```
//!
//! Text fields are percent-encoded so `,`, `;`, `=`, `%`, and newlines
//! never collide with the record syntax; floats use Rust's shortest
//! round-trip formatting. `from_csv(to_csv(s)) == s` exactly.

use super::ParseError;
use crate::event::Event;
use crate::histogram::HistogramSnapshot;
use crate::snapshot::MetricsSnapshot;

const HEADER: &str = "# densevlc telemetry v1";

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2c"),
            ';' => out.push_str("%3b"),
            '=' => out.push_str("%3d"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        let code = u8::from_str_radix(&hex, 16)
            .map_err(|_| ParseError::new(line, format!("bad percent escape %{hex}")))?;
        out.push(code as char);
    }
    Ok(out)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Writes a snapshot; see the module docs for the line format.
pub fn to_csv(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(HEADER);
    out.push('\n');
    for (name, v) in &snap.counters {
        out.push_str(&format!("counter,{},{v}\n", esc(name)));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("gauge,{},{}\n", esc(name), fmt_f64(*v)));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "histogram,{},{},{},{},{},{},{},{}\n",
            esc(name),
            h.count,
            fmt_f64(h.sum),
            fmt_f64(h.min),
            fmt_f64(h.max),
            fmt_f64(h.p50),
            fmt_f64(h.p95),
            fmt_f64(h.p99),
        ));
    }
    for e in &snap.events {
        let fields: Vec<String> = e
            .fields
            .iter()
            .map(|(k, v)| format!("{}={}", esc(k), esc(v)))
            .collect();
        out.push_str(&format!(
            "event,{},{},{},{}\n",
            fmt_f64(e.t_s),
            esc(&e.target),
            esc(&e.kind),
            fields.join(";"),
        ));
    }
    out.push_str(&format!("events_dropped,{}\n", snap.events_dropped));
    out
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| ParseError::new(line, format!("{what} is not a u64: {s:?}")))
}

fn parse_f64(s: &str, line: usize, what: &str) -> Result<f64, ParseError> {
    s.parse()
        .map_err(|_| ParseError::new(line, format!("{what} is not an f64: {s:?}")))
}

fn expect_fields<'a>(
    parts: &'a [&'a str],
    n: usize,
    line: usize,
    kind: &str,
) -> Result<&'a [&'a str], ParseError> {
    if parts.len() == n {
        Ok(&parts[1..])
    } else {
        Err(ParseError::new(
            line,
            format!("{kind} record needs {n} fields, got {}", parts.len()),
        ))
    }
}

/// Parses a snapshot from [`to_csv`] output.
pub fn from_csv(text: &str) -> Result<MetricsSnapshot, ParseError> {
    let mut snap = MetricsSnapshot::default();
    let mut saw_dropped = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = raw.split(',').collect();
        match parts[0] {
            "counter" => {
                let f = expect_fields(&parts, 3, line, "counter")?;
                snap.counters
                    .push((unesc(f[0], line)?, parse_u64(f[1], line, "counter value")?));
            }
            "gauge" => {
                let f = expect_fields(&parts, 3, line, "gauge")?;
                snap.gauges
                    .push((unesc(f[0], line)?, parse_f64(f[1], line, "gauge value")?));
            }
            "histogram" => {
                let f = expect_fields(&parts, 9, line, "histogram")?;
                snap.histograms.push((
                    unesc(f[0], line)?,
                    HistogramSnapshot {
                        count: parse_u64(f[1], line, "count")?,
                        sum: parse_f64(f[2], line, "sum")?,
                        min: parse_f64(f[3], line, "min")?,
                        max: parse_f64(f[4], line, "max")?,
                        p50: parse_f64(f[5], line, "p50")?,
                        p95: parse_f64(f[6], line, "p95")?,
                        p99: parse_f64(f[7], line, "p99")?,
                    },
                ));
            }
            "event" => {
                let f = expect_fields(&parts, 5, line, "event")?;
                let fields = if f[3].is_empty() {
                    Vec::new()
                } else {
                    f[3].split(';')
                        .map(|pair| {
                            let (k, v) = pair.split_once('=').ok_or_else(|| {
                                ParseError::new(line, format!("event field without '=': {pair:?}"))
                            })?;
                            Ok((unesc(k, line)?, unesc(v, line)?))
                        })
                        .collect::<Result<Vec<_>, ParseError>>()?
                };
                snap.events.push(Event {
                    t_s: parse_f64(f[0], line, "t_s")?,
                    target: unesc(f[1], line)?,
                    kind: unesc(f[2], line)?,
                    fields,
                });
            }
            "events_dropped" => {
                let f = expect_fields(&parts, 2, line, "events_dropped")?;
                snap.events_dropped = parse_u64(f[0], line, "events_dropped")?;
                saw_dropped = true;
            }
            other => {
                return Err(ParseError::new(
                    line,
                    format!("unknown record type {other:?}"),
                ));
            }
        }
    }
    if !saw_dropped {
        return Err(ParseError::new(0, "missing events_dropped record"));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_round_trips() {
        let s = MetricsSnapshot::default();
        assert_eq!(from_csv(&to_csv(&s)).unwrap(), s);
    }

    #[test]
    fn delimiters_in_text_round_trip() {
        let s = MetricsSnapshot {
            counters: vec![("name,with;delims=stuff".into(), 7)],
            events: vec![Event {
                t_s: 0.5,
                target: "100% target".into(),
                kind: "multi\nline".into(),
                fields: vec![
                    ("k=ey".into(), "v;alue".into()),
                    ("plain".into(), "x".into()),
                ],
            }],
            ..Default::default()
        };
        assert_eq!(from_csv(&to_csv(&s)).unwrap(), s);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(from_csv("bogus,1,2\nevents_dropped,0\n").is_err());
        assert!(from_csv("counter,only_two\nevents_dropped,0\n").is_err());
        assert!(from_csv("counter,a,1\n").is_err(), "missing events_dropped");
    }
}
