//! The observability plane: one object the simulation tick loop feeds.
//!
//! [`ObsPlane`] composes the four streaming pieces — rolling windows,
//! NDJSON export, the SLO engine, and the flight recorder — behind two
//! calls: [`ObsPlane::observe_tick`] per simulation tick and
//! [`ObsPlane::finish`] at the end of the run. A sink error never stops
//! the run: the plane stops writing, and `finish` returns the error. The plane only *reads*
//! the telemetry registry (snapshot deltas); it never mutates simulation
//! state, which is how the streamed and unstreamed code paths produce
//! byte-identical `Timeline`s.
//!
//! ## Signals
//!
//! Per tick, from the tick sample itself:
//!
//! * `rx{i}.bps` — per-receiver throughput under the live plan
//! * `rx{i}.sinr` — per-receiver SINR
//!
//! Per flush (every [`ObsConfig::every`] ticks), derived from registry
//! deltas since the previous flush:
//!
//! * `alloc.solve_s` — mean solver wall-time over the interval
//!   (`alloc.optimal.solve_s` + `alloc.heuristic.solve_s` +
//!   `mac.plan_s`, whichever the call path records). Wall-time is the
//!   one nondeterministic signal in the stream.
//! * `mac.plan.cache_hit_rate` — rounds that kept the stored plan
//!   (channel unchanged since the last plan) ÷ adaptation rounds
//! * `phy.rs_uncorrectable` — RS-uncorrectable blocks in the interval

use std::collections::BTreeMap;
use std::io;

use vlc_telemetry::{MetricsSnapshot, Registry};

use crate::alert::{SloEngine, SloRule};
use crate::flight::{FlightGuard, FlightRecorder};
use crate::record::{ObsRecord, OBS_SCHEMA};
use crate::sink::ObsSink;
use crate::window::{RollingWindow, WindowConfig};

/// Plane configuration.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Run label for the stream's meta record.
    pub run: String,
    /// Flush cadence in ticks: window snapshots, SLO evaluation, event
    /// forwarding, and sink flush happen every `every` ticks (min 1).
    pub every: u64,
    /// Shape of every rolling window.
    pub window: WindowConfig,
    /// SLO rules to evaluate at each flush.
    pub rules: Vec<SloRule>,
    /// Inject a panic after observing this tick (test / CI hook; wired to
    /// `DENSEVLC_INJECT_PANIC`).
    pub panic_at_tick: Option<u64>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            run: "sim".into(),
            every: 10,
            window: WindowConfig::default(),
            rules: Vec::new(),
            panic_at_tick: None,
        }
    }
}

/// Everything the plane needs to know about one simulation tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSample {
    /// Tick index from 0.
    pub tick: u64,
    /// Simulation time, seconds.
    pub t_s: f64,
    /// Per-receiver throughput, bit/s.
    pub per_rx_bps: Vec<f64>,
    /// Per-receiver SINR.
    pub per_rx_sinr: Vec<f64>,
    /// LOS links currently blocked.
    pub blocked_links: u64,
    /// Whether the controller re-planned this tick.
    pub replanned: bool,
}

#[derive(Debug, Default)]
struct Cursor {
    counters: BTreeMap<String, u64>,
    /// Histogram (count, sum) at the previous flush.
    hists: BTreeMap<String, (u64, f64)>,
    /// Absolute event count (dropped + retained) already forwarded.
    events: u64,
}

impl Cursor {
    fn counter_delta(&mut self, snap: &MetricsSnapshot, name: &str) -> u64 {
        let now = snap.counter(name).unwrap_or(0);
        let prev = self.counters.insert(name.to_string(), now).unwrap_or(0);
        now.saturating_sub(prev)
    }

    fn hist_delta(&mut self, snap: &MetricsSnapshot, name: &str) -> (u64, f64) {
        let now = snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| (h.count, h.sum))
            .unwrap_or((0, 0.0));
        let prev = self.hists.insert(name.to_string(), now).unwrap_or((0, 0.0));
        (now.0.saturating_sub(prev.0), now.1 - prev.1)
    }
}

/// The streaming observability plane; see the module docs.
pub struct ObsPlane {
    sink: Box<dyn ObsSink>,
    cfg: ObsConfig,
    windows: BTreeMap<String, RollingWindow>,
    engine: SloEngine,
    flight: Option<FlightRecorder>,
    _flight_guard: Option<FlightGuard>,
    cursor: Cursor,
    /// The first sink error disables further writes, so observability
    /// never takes the simulation down; `finish` reports it.
    sink_err: Option<io::Error>,
    ticks: u64,
    system_bps_sum: f64,
    last_flush_tick: Option<u64>,
}

impl ObsPlane {
    /// A plane writing to `sink` under `cfg`.
    pub fn new(sink: Box<dyn ObsSink>, cfg: ObsConfig) -> Self {
        let engine = SloEngine::new(cfg.rules.clone());
        ObsPlane {
            sink,
            cfg,
            windows: BTreeMap::new(),
            engine,
            flight: None,
            _flight_guard: None,
            cursor: Cursor::default(),
            sink_err: None,
            ticks: 0,
            system_bps_sum: 0.0,
            last_flush_tick: None,
        }
    }

    /// Attaches (and arms) a flight recorder: every stream line is also
    /// retained in its ring, and a panic dumps the ring.
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self._flight_guard = Some(flight.arm());
        self.flight = Some(flight);
        self
    }

    /// The SLO engine (inspection after a run).
    pub fn engine(&self) -> &SloEngine {
        &self.engine
    }

    fn emit(&mut self, record: &ObsRecord) {
        let line = record.to_line();
        if let Some(f) = &self.flight {
            f.record_line(&line);
        }
        self.write(&line);
    }

    /// Writes one line unless an earlier write failed; latches the first
    /// error.
    fn write(&mut self, line: &str) {
        if self.sink_err.is_none() {
            self.sink_err = self.sink.write_line(line).err();
        }
    }

    fn flush_sink(&mut self) {
        if self.sink_err.is_none() {
            self.sink_err = self.sink.flush().err();
        }
    }

    /// Injects one record into the stream out of band — the hook the CLI
    /// uses to place a profile digest (built from the run's trace) ahead
    /// of the summary trailer. Goes through the same path as every other
    /// record: the flight ring sees it and sink failure latches.
    pub fn emit_record(&mut self, record: &ObsRecord) {
        self.emit(record);
    }

    /// Starts the stream: writes the meta record (also pinned as flight
    /// context so every crash dump leads with it).
    pub fn begin(&mut self, tick_s: f64, n_rx: usize) {
        let meta = ObsRecord::Meta {
            schema: OBS_SCHEMA.into(),
            run: self.cfg.run.clone(),
            tick_s,
            n_rx: n_rx as u64,
            every: self.cfg.every.max(1),
        };
        if let Some(f) = &self.flight {
            f.push_context(&meta.to_line());
        }
        // Meta goes to the sink only — it is already flight context.
        self.write(&meta.to_line());
    }

    /// Observes one tick: emits the tick record, feeds the per-RX
    /// windows, and on the flush cadence emits window snapshots,
    /// evaluates SLOs, and forwards new telemetry events.
    pub fn observe_tick(&mut self, s: &TickSample, telemetry: &Registry) {
        self.emit(&ObsRecord::Tick {
            tick: s.tick,
            t_s: s.t_s,
            per_rx_bps: s.per_rx_bps.clone(),
            per_rx_sinr: s.per_rx_sinr.clone(),
            blocked_links: s.blocked_links,
            replanned: s.replanned,
        });
        for (i, v) in s.per_rx_bps.iter().enumerate() {
            self.window_mut(&format!("rx{i}.bps")).record(s.tick, *v);
        }
        for (i, v) in s.per_rx_sinr.iter().enumerate() {
            self.window_mut(&format!("rx{i}.sinr")).record(s.tick, *v);
        }
        self.ticks += 1;
        self.system_bps_sum += s.per_rx_bps.iter().sum::<f64>();
        if (s.tick + 1).is_multiple_of(self.cfg.every.max(1)) {
            self.flush(s.tick, telemetry);
        }
        if self.cfg.panic_at_tick == Some(s.tick) {
            panic!("injected panic at tick {}", s.tick);
        }
    }

    fn window_mut(&mut self, signal: &str) -> &mut RollingWindow {
        let cfg = self.cfg.window;
        self.windows
            .entry(signal.to_string())
            .or_insert_with(|| RollingWindow::new(cfg))
    }

    /// Window snapshots + SLO evaluation + event forwarding + sink flush.
    fn flush(&mut self, tick: u64, telemetry: &Registry) {
        let snap = telemetry.snapshot();
        self.record_derived(tick, &snap);

        // BTreeMap iteration order makes the stream deterministic.
        let signals: Vec<String> = self.windows.keys().cloned().collect();
        for signal in signals {
            let stats = self.windows[&signal].stats(tick);
            if stats.count == 0 && stats.dropped == 0 {
                continue;
            }
            self.emit(&ObsRecord::Window {
                tick,
                signal: signal.clone(),
                stats,
            });
            for alert in self.engine.evaluate(tick, &signal, &stats) {
                self.emit(&alert);
            }
        }
        self.forward_events(&snap);
        self.flush_sink();
        self.last_flush_tick = Some(tick);
    }

    /// Registry-delta signals, sampled once per flush interval.
    fn record_derived(&mut self, tick: u64, snap: &MetricsSnapshot) {
        // Solver wall-time arrives under different histograms depending on
        // the call path: the simulation times whole planning rounds under
        // the `mac.plan_s` span, while the instrumented allocator APIs
        // (experiments, benches) record `alloc.*.solve_s` directly. The
        // paths are disjoint — `Controller::plan` never calls the
        // instrumented allocators — so summing them never double-counts.
        let (oc, os) = self.cursor.hist_delta(snap, "alloc.optimal.solve_s");
        let (hc, hs) = self.cursor.hist_delta(snap, "alloc.heuristic.solve_s");
        let (mc, ms) = self.cursor.hist_delta(snap, "mac.plan_s");
        if oc + hc + mc > 0 {
            let mean = (os + hs + ms) / (oc + hc + mc) as f64;
            self.window_mut("alloc.solve_s").record(tick, mean);
        }

        let hits = self.cursor.counter_delta(snap, "mac.plan.cache_hits");
        let misses = self.cursor.counter_delta(snap, "mac.plan.cache_misses");
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            self.window_mut("mac.plan.cache_hit_rate")
                .record(tick, rate);
        }

        let uncorrectable = self.cursor.counter_delta(snap, "phy.rs_uncorrectable");
        self.window_mut("phy.rs_uncorrectable")
            .record(tick, uncorrectable as f64);
    }

    /// Forwards telemetry events not yet streamed. The event ring is
    /// bounded, so the watermark is the *absolute* count
    /// (`dropped + retained`); events evicted between flushes are lost to
    /// the stream exactly as they are lost to the ring.
    fn forward_events(&mut self, snap: &MetricsSnapshot) {
        let total = snap.events_dropped + snap.events.len() as u64;
        let new = total.saturating_sub(self.cursor.events) as usize;
        self.cursor.events = total;
        let start = snap.events.len().saturating_sub(new);
        let fresh: Vec<ObsRecord> = snap.events[start..]
            .iter()
            .map(|e| ObsRecord::Event(e.clone()))
            .collect();
        for r in &fresh {
            self.emit(r);
        }
    }

    /// Ends the stream: a final flush for any partial interval, then the
    /// summary trailer. Returns the first sink error of the run, if any.
    pub fn finish(&mut self, telemetry: &Registry, spans_dropped: u64) -> io::Result<()> {
        if self.ticks > 0 {
            let last_tick = self.ticks - 1;
            if self.last_flush_tick != Some(last_tick) {
                self.flush(last_tick, telemetry);
            }
        }
        let snap = telemetry.snapshot();
        let summary = ObsRecord::Summary {
            ticks: self.ticks,
            mean_system_bps: if self.ticks == 0 {
                0.0
            } else {
                self.system_bps_sum / self.ticks as f64
            },
            alerts_fired: self.engine.fired(),
            alerts_cleared: self.engine.cleared(),
            events_dropped: snap.events_dropped,
            spans_dropped,
        };
        self.emit(&summary);
        self.flush_sink();
        // Disarm the flight hook: the run ended normally.
        self._flight_guard = None;
        self.sink_err.take().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{Cmp, Stat};
    use crate::record::{parse_stream_strict, AlertState};
    use crate::sink::MemorySink;

    fn sample(tick: u64, bps: f64) -> TickSample {
        TickSample {
            tick,
            t_s: tick as f64 * 0.1,
            per_rx_bps: vec![bps, bps * 2.0],
            per_rx_sinr: vec![10.0, 20.0],
            blocked_links: 0,
            replanned: tick.is_multiple_of(5),
        }
    }

    fn plane(sink: &MemorySink, rules: Vec<SloRule>) -> ObsPlane {
        ObsPlane::new(
            Box::new(sink.clone()),
            ObsConfig {
                run: "unit".into(),
                every: 5,
                window: WindowConfig {
                    bucket_ticks: 5,
                    buckets: 2,
                    max_samples_per_bucket: 64,
                },
                rules,
                panic_at_tick: None,
            },
        )
    }

    #[test]
    fn stream_structure_meta_ticks_windows_summary() {
        let sink = MemorySink::new();
        let mut p = plane(&sink, Vec::new());
        let reg = Registry::noop();
        p.begin(0.1, 2);
        for t in 0..10 {
            p.observe_tick(&sample(t, 1e6), &reg);
        }
        p.finish(&reg, 0).unwrap();

        let records = parse_stream_strict(&sink.text()).unwrap();
        assert!(matches!(
            records[0],
            ObsRecord::Meta {
                n_rx: 2,
                every: 5,
                ..
            }
        ));
        let ticks = records
            .iter()
            .filter(|r| matches!(r, ObsRecord::Tick { .. }))
            .count();
        assert_eq!(ticks, 10);
        // Two flushes × 5 nonempty signals (rx0/rx1 × bps/sinr +
        // phy.rs_uncorrectable, which always records a delta sample).
        let windows = records
            .iter()
            .filter(|r| matches!(r, ObsRecord::Window { .. }))
            .count();
        assert_eq!(windows, 10);
        match records.last().unwrap() {
            ObsRecord::Summary {
                ticks,
                mean_system_bps,
                ..
            } => {
                assert_eq!(*ticks, 10);
                assert_eq!(*mean_system_bps, 3e6); // 1e6 + 2e6 per tick
            }
            other => panic!("stream must end in a summary, got {other:?}"),
        }
    }

    #[test]
    fn partial_final_interval_still_gets_windows_before_the_summary() {
        let sink = MemorySink::new();
        let mut p = plane(&sink, Vec::new());
        let reg = Registry::noop();
        p.begin(0.1, 2);
        for t in 0..7 {
            // 7 ticks, every=5: one cadence flush + one finish flush
            p.observe_tick(&sample(t, 1e6), &reg);
        }
        p.finish(&reg, 0).unwrap();
        let records = parse_stream_strict(&sink.text()).unwrap();
        let last_window_tick = records
            .iter()
            .filter_map(|r| match r {
                ObsRecord::Window { tick, .. } => Some(*tick),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(last_window_tick, 6, "finish must flush the partial tail");
    }

    #[test]
    fn slo_rules_fire_and_clear_through_the_plane() {
        let sink = MemorySink::new();
        let rules = vec![SloRule {
            name: "rx0.throughput".into(),
            signal: "rx0.bps".into(),
            stat: Stat::Mean,
            cmp: Cmp::Below,
            threshold: 1e6,
            for_windows: 2,
            clear_windows: 2,
        }];
        let mut p = plane(&sink, rules);
        let reg = Registry::noop();
        p.begin(0.1, 2);
        // 2 starved flush intervals → fire; 2 healthy → clear.
        for t in 0..10 {
            p.observe_tick(&sample(t, 0.0), &reg);
        }
        for t in 10..20 {
            p.observe_tick(&sample(t, 5e6), &reg);
        }
        p.finish(&reg, 0).unwrap();

        let alerts: Vec<(u64, AlertState)> = parse_stream_strict(&sink.text())
            .unwrap()
            .into_iter()
            .filter_map(|r| match r {
                ObsRecord::Alert {
                    tick, state, rule, ..
                } if rule == "rx0.throughput" => Some((tick, state)),
                _ => None,
            })
            .collect();
        assert_eq!(
            alerts,
            [(9, AlertState::Firing), (19, AlertState::Cleared)],
            "hysteresis: fire on 2nd breaching window, clear on 2nd healthy"
        );
    }

    #[test]
    fn telemetry_events_are_forwarded_exactly_once() {
        let sink = MemorySink::new();
        let mut p = plane(&sink, Vec::new());
        let reg = Registry::new();
        p.begin(0.1, 2);
        reg.event("mac.controller", "infeasible_round", &[("budget_w", "0")]);
        for t in 0..10 {
            p.observe_tick(&sample(t, 1e6), &reg);
        }
        p.finish(&reg, 0).unwrap();
        let events = parse_stream_strict(&sink.text())
            .unwrap()
            .into_iter()
            .filter(|r| matches!(r, ObsRecord::Event(_)))
            .count();
        assert_eq!(
            events, 1,
            "one event recorded, one forwarded, never re-sent"
        );
    }

    #[test]
    fn a_failing_sink_never_panics_the_plane() {
        struct Failing;
        impl crate::sink::ObsSink for Failing {
            fn write_line(&mut self, _: &str) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut p = ObsPlane::new(Box::new(Failing), ObsConfig::default());
        let reg = Registry::noop();
        p.begin(0.1, 1);
        for t in 0..20 {
            p.observe_tick(&sample(t, 1e6), &reg);
        }
        let err = p
            .finish(&reg, 0)
            .expect_err("the first sink error is reported");
        assert_eq!(err.to_string(), "disk full");
    }
}
