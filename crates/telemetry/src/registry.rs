//! The instrument registry and its typed handles.

use crate::clock::{Clock, MonotonicClock};
use crate::event::{Event, EventRing};
use crate::histogram::HistogramCore;
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default capacity of the structured-event ring buffer.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 1024;

struct Inner {
    clock: Box<dyn Clock>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    events: Mutex<EventRing>,
}

/// A handle to a set of named instruments plus an event ring.
///
/// Cloning is cheap (one `Arc`); clones observe the same instruments.
/// [`Registry::noop()`] — also the `Default` — is fully inert: every
/// instrument it hands out is a `None` wrapper, so uninstrumented call
/// paths pay one branch and zero allocation per operation.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Registry {
    /// An active registry on wall-clock time with the default event capacity.
    pub fn new() -> Self {
        Self::with_clock(MonotonicClock::new())
    }

    /// An active registry on an injected clock (use [`crate::ManualClock`]
    /// for deterministic simulations and tests).
    pub fn with_clock(clock: impl Clock + 'static) -> Self {
        Self::with_clock_and_capacity(clock, DEFAULT_EVENT_CAPACITY)
    }

    /// An active registry with an injected clock and event-ring capacity.
    pub fn with_clock_and_capacity(clock: impl Clock + 'static, event_capacity: usize) -> Self {
        Registry {
            inner: Some(Arc::new(Inner {
                clock: Box::new(clock),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing::new(event_capacity)),
            })),
        }
    }

    /// The inert registry: records nothing, allocates nothing.
    pub const fn noop() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the registry clock (0 for the no-op registry).
    pub fn now_s(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.clock.now_s())
    }

    /// Returns the counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|i| lookup(&i.counters, name, Arc::default)),
        )
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            lookup(&i.gauges, name, || {
                Arc::new(AtomicU64::new(0.0f64.to_bits()))
            })
        }))
    }

    /// Returns the histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(
            self.inner
                .as_ref()
                .map(|i| lookup(&i.histograms, name, || Arc::new(HistogramCore::new()))),
        )
    }

    /// Starts an RAII span; on drop, its duration (seconds) is recorded
    /// into the histogram named `name`.
    pub fn span(&self, name: &str) -> Span {
        Span(self.inner.as_ref().map(|i| SpanActive {
            inner: Arc::clone(i),
            hist: match self.histogram(name).0 {
                Some(h) => h,
                // `self.inner` is Some here, so the histogram handle is too.
                None => unreachable!(),
            },
            start_s: i.clock.now_s(),
        }))
    }

    /// Emits a structured event stamped with the registry clock.
    pub fn event(&self, target: &str, kind: &str, fields: &[(&str, &str)]) {
        if let Some(i) = &self.inner {
            let event = Event {
                t_s: i.clock.now_s(),
                target: target.to_string(),
                kind: kind.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            };
            i.events.lock().unwrap().push(event);
        }
    }

    /// Captures every instrument and the event ring as plain data.
    /// Instruments are listed in name order; events oldest first.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = i
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = i
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = i
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let ring = i.events.lock().unwrap();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: ring.events().cloned().collect(),
            events_dropped: ring.dropped(),
        }
    }
}

/// The instrument registered under `name`, created by `make` on first
/// use. The name is copied only on insert, so looking up an existing
/// instrument allocates nothing.
fn lookup<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    let mut map = map.lock().expect("metric map poisoned by a panic");
    match map.get(name) {
        Some(existing) => Arc::clone(existing),
        None => Arc::clone(map.entry(name.to_string()).or_insert_with(make)),
    }
}

/// Monotonically increasing integer metric.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-write-wins floating-point metric.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Stores a new value.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Log-bucketed distribution metric; see [`crate::HistogramSnapshot`].
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample. Negative values clamp to 0; NaN is ignored.
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Point-in-time statistics (all zeros for a no-op handle).
    pub fn snapshot(&self) -> crate::HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(Default::default, |h| h.snapshot())
    }
}

struct SpanActive {
    inner: Arc<Inner>,
    hist: Arc<HistogramCore>,
    start_s: f64,
}

/// RAII scope timer: created by [`Registry::span`], records its lifetime
/// (in seconds, on the registry clock) into a duration histogram on drop.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span(Option<SpanActive>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = &self.0 {
            s.hist.record(s.inner.clock.now_s() - s.start_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn noop_registry_records_nothing() {
        let reg = Registry::noop();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = reg.gauge("y");
        g.set(4.2);
        assert_eq!(g.get(), 0.0);
        reg.histogram("h").record(1.0);
        reg.event("t", "k", &[]);
        drop(reg.span("s"));
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
        assert_eq!(reg.now_s(), 0.0);
    }

    #[test]
    fn default_is_noop() {
        assert!(!Registry::default().is_enabled());
    }

    #[test]
    fn counter_and_gauge_share_storage_by_name() {
        let reg = Registry::new();
        reg.counter("hits").add(3);
        reg.counter("hits").inc();
        assert_eq!(reg.counter("hits").get(), 4);
        reg.gauge("level").set(-2.5);
        assert_eq!(reg.gauge("level").get(), -2.5);
    }

    #[test]
    fn span_with_manual_clock_is_deterministic() {
        let clock = ManualClock::new();
        let reg = Registry::with_clock(clock.clone());
        {
            let _span = reg.span("work_s");
            clock.advance(0.125);
        }
        {
            let _span = reg.span("work_s");
            clock.advance(0.250);
        }
        let snap = reg.histogram("work_s").snapshot();
        assert_eq!(snap.count, 2);
        assert!((snap.sum - 0.375).abs() < 1e-12);
        assert_eq!(snap.min, 0.125);
        assert_eq!(snap.max, 0.250);
    }

    #[test]
    fn events_are_stamped_with_registry_clock() {
        let clock = ManualClock::new();
        let reg = Registry::with_clock(clock.clone());
        clock.set(1.5);
        reg.event("mac", "replan", &[("round", "3")]);
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].t_s, 1.5);
        assert_eq!(snap.events[0].target, "mac");
        assert_eq!(snap.events[0].fields, vec![("round".into(), "3".into())]);
    }

    #[test]
    fn snapshot_orders_instruments_by_name() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn clones_share_instruments() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter("shared").add(7);
        assert_eq!(reg.counter("shared").get(), 7);
    }
}
