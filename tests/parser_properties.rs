//! Property tests of the repository's text parsers: the JSON value
//! reader, the `densevlc-obs/1` NDJSON stream, folded stacks, Chrome
//! trace JSON, profiles, `BENCH.json` and telemetry snapshots.
//!
//! Arbitrary input never panics (every parser answers with its error
//! type), and what the writers emit parses back exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use vlc_obs::{parse_stream, AlertState, ObsRecord, WindowStats, OBS_SCHEMA};
use vlc_prof::{parse_folded, to_folded, Profile, ProfileNode, PROF_SCHEMA};
use vlc_telemetry::export::value::parse_json;
use vlc_telemetry::{Event, HistogramSnapshot, ManualClock, MetricsSnapshot};
use vlc_trace::{parse_chrome_json, BenchReport, Tracer};

/// Runs every parser on `text`; any panic fails the calling property.
fn parse_everything(text: &str) {
    let _ = parse_json(text);
    let _ = ObsRecord::parse_line(text);
    let _ = parse_stream(text);
    let _ = parse_folded(text);
    let _ = parse_chrome_json(text);
    let _ = Profile::from_json(text);
    let _ = BenchReport::from_json(text);
    let _ = MetricsSnapshot::from_json(text);
    let _ = MetricsSnapshot::from_csv(text);
}

/// Characters the formats give meaning to, plus escapes, control
/// characters and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', '7', '9', '-', '+', '.', 'e', 'E', 'u', ' ', '\t', '\n', '\r', '"', '\\', '/',
    ',', ':', ';', '=', '%', '#', '{', '}', '[', ']', 'é', '€', '𝄞', '\u{0}', '\u{1f}', '\u{7f}',
];

/// Fragments of the formats' syntax and vocabulary.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\u+0ff",
    "\\ud800",
    "null",
    "true",
    "false",
    "-",
    "0",
    "-0.0",
    "1e999",
    "1.5e-300",
    "18446744073709551616",
    "\n",
    " ",
    ";",
    "=",
    "%",
    "%2c",
    "%zz",
    "%c3%a9",
    "\"type\":",
    "\"meta\"",
    "\"tick\"",
    "\"window\"",
    "\"event\"",
    "\"alert\"",
    "\"profile\"",
    "\"summary\"",
    "\"schema\":",
    "\"densevlc-obs/1\"",
    "\"densevlc-prof/1\"",
    "\"densevlc-bench/1\"",
    "\"traceEvents\":",
    "\"ph\":\"X\"",
    "\"dur\":",
    "\"args\":",
    "\"nodes\":",
    "\"phases\":",
    "\"counters\":",
    "\"events\":",
    "\"fields\":",
    "counter,",
    "histogram,",
    "event,",
    "events_dropped,",
    "# densevlc telemetry v1",
    "a;b 7",
    ";; 1",
];

/// Well-formed documents of every format, the starting points of the
/// mutation strategy.
fn seed_documents() -> Vec<String> {
    let clock = ManualClock::new();
    let tracer = Tracer::with_clock(clock.clone());
    {
        let root = tracer.root("round");
        root.attr("budget_w", "1.2");
        clock.advance(0.5);
        let _plan = root.child("plan");
        clock.advance(0.25);
    }
    let trace = tracer.snapshot();
    let profile = Profile::from_snapshot(&trace, 1);
    let snapshot = MetricsSnapshot {
        counters: vec![("phy.frames".into(), 7)],
        gauges: vec![("sim.system_bps".into(), 1.5e6)],
        histograms: vec![(
            "alloc.solve_s".into(),
            HistogramSnapshot {
                count: 2,
                sum: 0.5,
                min: 0.1,
                max: 0.4,
                p50: 0.1,
                p95: 0.4,
                p99: 0.4,
            },
        )],
        events: vec![Event {
            t_s: 0.25,
            target: "mac".into(),
            kind: "replan".into(),
            fields: vec![("rx".into(), "1".into())],
        }],
        events_dropped: 0,
    };
    let stream: String = sample_records()
        .iter()
        .map(|r| r.to_line() + "\n")
        .collect();
    vec![
        stream,
        trace.to_chrome_json(),
        profile.to_json(),
        to_folded(&profile),
        BenchReport::from_snapshot(&trace, 1, 1).to_json(),
        snapshot.to_json(),
        snapshot.to_csv(),
    ]
}

fn sample_records() -> Vec<ObsRecord> {
    (0..9)
        .map(|kind| record(kind, "rx0.bps".into(), "a \"b\"".into(), &[0.5; 8], &[3; 6]))
        .collect()
}

fn text(max_len: usize) -> impl Strategy<Value = String> {
    vec(0..CHARS.len(), 0..max_len).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn token_soup() -> impl Strategy<Value = String> {
    vec(0..TOKENS.len(), 0..40).prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

/// A seed document with up to four edits: cut at a point, insert a
/// token, or delete a span.
fn mutated_document() -> impl Strategy<Value = String> {
    let docs = seed_documents();
    let edits = vec((0u8..3, 0.0f64..1.0, 0.0f64..1.0, 0..TOKENS.len()), 1..5);
    (0..docs.len(), edits).prop_map(move |(doc, edits)| {
        let mut s = docs[doc].clone();
        for (op, at, span, token) in edits {
            let at = boundary(&s, at);
            match op {
                0 => s.truncate(at),
                1 => s.insert_str(at, TOKENS[token]),
                _ => {
                    let end = boundary(&s, span).max(at);
                    s.replace_range(at..end, "");
                }
            }
        }
        s
    })
}

/// The char boundary nearest below `frac` of the way through `s`.
fn boundary(s: &str, frac: f64) -> usize {
    let mut i = (s.len() as f64 * frac) as usize;
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn finite() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.0
        }
    })
}

/// Record kind `kind` (0..9) built from the given strings and numbers.
fn record(kind: usize, a: String, b: String, x: &[f64], n: &[u64]) -> ObsRecord {
    match kind {
        0 => ObsRecord::Meta {
            schema: OBS_SCHEMA.into(),
            run: a,
            tick_s: x[0],
            n_rx: n[0],
            every: n[1],
        },
        1 => ObsRecord::Tick {
            tick: n[0],
            t_s: x[0],
            per_rx_bps: x[1..4].to_vec(),
            per_rx_sinr: x[4..(4 + n[1] % 5) as usize].to_vec(),
            blocked_links: n[2],
            replanned: n[3] & 1 == 1,
        },
        2 => ObsRecord::Window {
            tick: n[0],
            signal: a,
            stats: WindowStats {
                count: n[1],
                sum: x[0],
                min: x[1],
                max: x[2],
                p50: x[3],
                p95: x[4],
                p99: x[5],
                dropped: n[2],
            },
        },
        3 => ObsRecord::Event(Event {
            t_s: x[0],
            target: a.clone(),
            kind: b.clone(),
            fields: vec![(a, b)],
        }),
        4 => ObsRecord::Alert {
            tick: n[0],
            rule: a,
            signal: b,
            state: if n[1] & 1 == 0 {
                AlertState::Firing
            } else {
                AlertState::Cleared
            },
            value: x[0],
            threshold: x[1],
        },
        5 => ObsRecord::Job {
            index: n[0],
            name: a,
        },
        6 => ObsRecord::Panic {
            message: a,
            retained: n[0],
            dropped: n[1],
        },
        7 => ObsRecord::Profile {
            schema: PROF_SCHEMA.into(),
            nodes: n[0],
            calls: n[1],
            root_s: x[0],
            top_path: a,
            top_self_s: x[1],
        },
        _ => ObsRecord::Summary {
            ticks: n[0],
            mean_system_bps: x[0],
            alerts_fired: n[1],
            alerts_cleared: n[2],
            events_dropped: n[3],
            spans_dropped: n[4],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_characters_never_panic_a_parser(s in text(64)) {
        parse_everything(&s);
    }

    #[test]
    fn token_soup_never_panics_a_parser(s in token_soup()) {
        parse_everything(&s);
    }

    #[test]
    fn mutated_documents_never_panic_a_parser(s in mutated_document()) {
        parse_everything(&s);
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_parser(bytes in vec(any::<u8>(), 0..96)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn obs_records_round_trip_exactly(
        kind in 0usize..9,
        a in text(16),
        b in text(16),
        x in vec(finite(), 8),
        n in vec(any::<u64>(), 6),
    ) {
        let rec = record(kind, a, b, &x, &n);
        let line = rec.to_line();
        prop_assert_eq!(ObsRecord::parse_line(&line).expect("own line parses"), rec.clone());
        prop_assert_eq!(parse_stream(&(line + "\n")).expect("own stream parses"), vec![rec]);
    }

    #[test]
    fn folded_stacks_round_trip(
        paths in vec(vec(vec(0..CHARS.len(), 1..8), 1..5), 0..6),
        weights in vec(-1_000_000_000_000i64..1_000_000_000_000, 6),
    ) {
        // Frames are non-empty and hold no `;` or line break: the span
        // names a profile can contain.
        let frame = |ix: &Vec<usize>| -> String {
            ix.iter()
                .map(|&i| match CHARS[i] {
                    ';' | '\n' | '\r' => 'x',
                    c => c,
                })
                .collect()
        };
        let frames: Vec<Vec<String>> =
            paths.iter().map(|p| p.iter().map(frame).collect()).collect();
        let profile = Profile {
            schema: PROF_SCHEMA.into(),
            jobs: 1,
            nodes: frames
                .iter()
                .zip(&weights)
                .map(|(f, &ns)| ProfileNode {
                    path: f.join(";"),
                    calls: 1,
                    incl_s: 0.0,
                    self_s: ns as f64 / 1e9,
                    allocs: 0,
                    deallocs: 0,
                })
                .collect(),
        };
        let lines = parse_folded(&to_folded(&profile)).expect("own folded stacks parse");
        prop_assert_eq!(lines.len(), frames.len());
        for ((line, f), &ns) in lines.iter().zip(&frames).zip(&weights) {
            prop_assert_eq!(&line.frames, f);
            prop_assert_eq!(line.value, ns.max(0) as u64);
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":", "{\"traceEvents\":"] {
        let text = open.repeat(200_000);
        assert!(parse_json(&text).is_err(), "{open}");
        parse_everything(&text);
    }
    // Documents as deep as the writers produce still parse.
    let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
    assert!(parse_json(&nested).is_ok());
}
