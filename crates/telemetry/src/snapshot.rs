//! Plain-data capture of a registry's state.

use crate::event::Event;
use crate::histogram::HistogramSnapshot;

/// Everything a [`crate::Registry`] knows, frozen at one instant.
///
/// Instruments are sorted by name and events are oldest-first, so two
/// snapshots of identical runs compare equal — the type derives
/// `PartialEq` precisely so it can ride inside simulation results
/// (e.g. `densevlc`'s `Timeline`) and be asserted on in tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, stats)` for every histogram, in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained trace events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this snapshot.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the gauge named `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Statistics of the histogram named `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Events whose `kind` matches, oldest first.
    pub fn events_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Writes to the JSON document described in [`crate::export::json`].
    pub fn to_json(&self) -> String {
        crate::export::json::to_json(self)
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, crate::export::ParseError> {
        crate::export::json::from_json(text)
    }

    /// Writes to the CSV document described in [`crate::export::csv`].
    pub fn to_csv(&self) -> String {
        crate::export::csv::to_csv(self)
    }

    /// Parses a snapshot back from [`Self::to_csv`] output.
    pub fn from_csv(text: &str) -> Result<Self, crate::export::ParseError> {
        crate::export::csv::from_csv(text)
    }

    /// Renders the human-readable summary table.
    pub fn summary_table(&self) -> String {
        crate::export::summary::summary_table(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
            gauges: vec![("g".into(), 0.5)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 1,
                    sum: 2.0,
                    min: 2.0,
                    max: 2.0,
                    p50: 2.0,
                    p95: 2.0,
                    p99: 2.0,
                },
            )],
            events: vec![Event {
                t_s: 0.0,
                target: "t".into(),
                kind: "k".into(),
                fields: vec![],
            }],
            events_dropped: 0,
        }
    }

    #[test]
    fn name_lookups_work() {
        let s = sample();
        assert_eq!(s.counter("b"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("g"), Some(0.5));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.events_of_kind("k").count(), 1);
        assert_eq!(s.events_of_kind("other").count(), 0);
    }
}
