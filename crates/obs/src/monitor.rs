//! The terminal monitor view: a textual dashboard rendered from a parsed
//! observability stream. `densevlc-cli monitor` tails an NDJSON file and
//! re-renders this on every poll; `--watch` renders it once at the end
//! of a streamed run.

use std::collections::BTreeMap;

use crate::record::{parse_stream, AlertState, ObsRecord, StreamError};
use crate::window::WindowStats;

/// A stream's rendered dashboard and what a reader of it needs to know.
#[derive(Debug, Clone, PartialEq)]
pub struct Dashboard {
    /// The rendered view.
    pub view: String,
    /// How many complete records the stream holds.
    pub records: usize,
    /// Whether the stream ends the run (a summary or panic record).
    pub ended: bool,
}

/// Parses a stream's text (leniently: see [`parse_stream`]) and renders
/// its dashboard.
pub fn dashboard(stream: &str) -> Result<Dashboard, StreamError> {
    let records = parse_stream(stream)?;
    Ok(Dashboard {
        view: render(&records),
        records: records.len(),
        ended: records
            .iter()
            .any(|r| matches!(r, ObsRecord::Summary { .. } | ObsRecord::Panic { .. })),
    })
}

fn fmt_mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Renders the dashboard from the records seen so far. Tolerant of a
/// stream cut off anywhere (live tailing): missing sections are omitted.
pub fn render(records: &[ObsRecord]) -> String {
    let mut out = String::new();
    let mut run = String::new();
    let mut n_rx = 0usize;
    let mut last_tick: Option<&ObsRecord> = None;
    // Latest window snapshot per signal.
    let mut windows: BTreeMap<&str, (u64, &WindowStats)> = BTreeMap::new();
    // Rule name → latest state.
    let mut alerts: BTreeMap<&str, (u64, AlertState)> = BTreeMap::new();
    let mut events = 0usize;
    let mut jobs = 0usize;
    let mut summary: Option<&ObsRecord> = None;
    let mut panic: Option<&ObsRecord> = None;
    let mut profile: Option<&ObsRecord> = None;

    for r in records {
        match r {
            ObsRecord::Meta {
                run: rn, n_rx: n, ..
            } => {
                run = rn.clone();
                n_rx = *n as usize;
            }
            ObsRecord::Tick { .. } => last_tick = Some(r),
            ObsRecord::Window {
                tick,
                signal,
                stats,
            } => {
                windows.insert(signal.as_str(), (*tick, stats));
            }
            ObsRecord::Alert {
                tick, rule, state, ..
            } => {
                alerts.insert(rule.as_str(), (*tick, *state));
            }
            ObsRecord::Event(_) => events += 1,
            ObsRecord::Job { .. } => jobs += 1,
            ObsRecord::Panic { .. } => panic = Some(r),
            ObsRecord::Profile { .. } => profile = Some(r),
            ObsRecord::Summary { .. } => summary = Some(r),
        }
    }

    out.push_str(&format!("== densevlc monitor — {run} ==\n"));
    if let Some(ObsRecord::Tick {
        tick,
        t_s,
        per_rx_bps,
        blocked_links,
        replanned,
        ..
    }) = last_tick
    {
        out.push_str(&format!(
            "tick {tick} (t = {t_s:.2} s)  blocked links: {blocked_links}  replanned: {replanned}\n"
        ));
        out.push_str("  rx    now Mb/s    win p50    win p95    samples\n");
        for (i, bps) in per_rx_bps.iter().enumerate() {
            let signal = format!("rx{i}.bps");
            let (p50, p95, n) = windows
                .get(signal.as_str())
                .map(|(_, s)| (fmt_mbps(s.p50), fmt_mbps(s.p95), s.count.to_string()))
                .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
            out.push_str(&format!(
                "  rx{i}  {:>10}  {:>9}  {:>9}  {:>9}\n",
                fmt_mbps(*bps),
                p50,
                p95,
                n
            ));
        }
        // Receivers the meta promised but the tick lacks (defensive).
        for i in per_rx_bps.len()..n_rx {
            out.push_str(&format!("  rx{i}  (no data)\n"));
        }
    }

    for (signal, (_, s)) in &windows {
        if !signal.ends_with(".bps") && !signal.ends_with(".sinr") {
            out.push_str(&format!(
                "  {signal}: mean {:.4} p99 {:.4} over {} samples\n",
                s.mean(),
                s.p99,
                s.count
            ));
        }
    }

    let firing: Vec<String> = alerts
        .iter()
        .filter(|(_, (_, st))| *st == AlertState::Firing)
        .map(|(rule, (tick, _))| format!("{rule} (since tick {tick})"))
        .collect();
    if firing.is_empty() {
        out.push_str("alerts: none firing\n");
    } else {
        out.push_str(&format!("alerts FIRING: {}\n", firing.join(", ")));
    }
    if jobs > 0 {
        out.push_str(&format!("experiment jobs completed: {jobs}\n"));
    }
    if events > 0 {
        out.push_str(&format!("events streamed: {events}\n"));
    }
    if let Some(ObsRecord::Panic {
        message, retained, ..
    }) = panic
    {
        out.push_str(&format!(
            "PANIC: {message} (flight recorder retained {retained} lines)\n"
        ));
    }
    if let Some(ObsRecord::Profile {
        nodes,
        root_s,
        top_path,
        top_self_s,
        ..
    }) = profile
    {
        out.push_str(&format!(
            "profile: {nodes} paths over {root_s:.3} s traced; hottest {top_path} ({top_self_s:.3} s self)\n"
        ));
    }
    if let Some(ObsRecord::Summary {
        ticks,
        mean_system_bps,
        alerts_fired,
        alerts_cleared,
        events_dropped,
        spans_dropped,
    }) = summary
    {
        out.push_str(&format!(
            "run complete: {ticks} ticks, mean system {} Mb/s, alerts {alerts_fired} fired / {alerts_cleared} cleared, drops: {events_dropped} events, {spans_dropped} spans\n",
            fmt_mbps(*mean_system_bps),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OBS_SCHEMA;

    fn stream() -> Vec<ObsRecord> {
        vec![
            ObsRecord::Meta {
                schema: OBS_SCHEMA.into(),
                run: "sim scenario2".into(),
                tick_s: 0.1,
                n_rx: 2,
                every: 5,
            },
            ObsRecord::Tick {
                tick: 9,
                t_s: 0.9,
                per_rx_bps: vec![2.5e6, 0.0],
                per_rx_sinr: vec![12.0, 0.0],
                blocked_links: 1,
                replanned: true,
            },
            ObsRecord::Window {
                tick: 9,
                signal: "rx0.bps".into(),
                stats: WindowStats {
                    count: 10,
                    sum: 2.5e7,
                    min: 2.5e6,
                    max: 2.5e6,
                    p50: 2.5e6,
                    p95: 2.5e6,
                    p99: 2.5e6,
                    dropped: 0,
                },
            },
            ObsRecord::Alert {
                tick: 9,
                rule: "rx1.throughput".into(),
                signal: "rx1.bps".into(),
                state: AlertState::Firing,
                value: 0.0,
                threshold: 1e6,
            },
        ]
    }

    #[test]
    fn dashboard_shows_ticks_windows_and_firing_alerts() {
        let view = render(&stream());
        assert!(view.contains("sim scenario2"));
        assert!(view.contains("tick 9"));
        assert!(view.contains("rx0        2.50"));
        assert!(view.contains("alerts FIRING: rx1.throughput (since tick 9)"));
    }

    #[test]
    fn a_cleared_alert_leaves_the_firing_list() {
        let mut records = stream();
        records.push(ObsRecord::Alert {
            tick: 19,
            rule: "rx1.throughput".into(),
            signal: "rx1.bps".into(),
            state: AlertState::Cleared,
            value: 2e6,
            threshold: 1e6,
        });
        assert!(render(&records).contains("alerts: none firing"));
    }

    #[test]
    fn an_empty_stream_still_renders_a_header() {
        assert!(render(&[]).contains("densevlc monitor"));
    }

    #[test]
    fn a_dashboard_sees_the_run_end() {
        let mut text: String = stream().iter().map(|r| r.to_line() + "\n").collect();
        let view = dashboard(&text).unwrap();
        assert_eq!(view.view, render(&stream()));
        assert_eq!((view.records, view.ended), (stream().len(), false));
        let summary = ObsRecord::Summary {
            ticks: 10,
            mean_system_bps: 0.0,
            alerts_fired: 1,
            alerts_cleared: 0,
            events_dropped: 0,
            spans_dropped: 0,
        };
        text += &(summary.to_line() + "\n");
        assert!(dashboard(&text).unwrap().ended);
        assert!(dashboard("{\"type\":\"nope\"}\n").is_err());
        // A torn line is not a record yet.
        assert_eq!(dashboard("{\"type\":\"meta\"").unwrap().records, 0);
    }
}
