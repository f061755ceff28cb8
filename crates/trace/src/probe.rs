//! The one instrumentation argument every instrumented operation takes.

use crate::Span;
use vlc_telemetry::Registry;

static OFF_REGISTRY: Registry = Registry::noop();
static OFF_SPAN: Span = Span::noop();

/// Where an operation records: the registry its counters, gauges and
/// timers go to, and the span its own span opens under. Instrumented
/// library calls take it as their last argument; uninstrumented callers
/// pass [`Probe::off()`]. A callee that nests work re-parents with struct
/// update syntax, keeping the registry: `Probe { span: &child, ..probe }`.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// Receives the operation's metrics.
    pub telemetry: &'a Registry,
    /// Parent of the operation's span.
    pub span: &'a Span,
}

impl Probe<'static> {
    /// The inert probe: a no-op registry and the no-op span, so the
    /// operation records nothing and every recording site is one branch.
    pub fn off() -> Self {
        Probe {
            telemetry: &OFF_REGISTRY,
            span: &OFF_SPAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use vlc_telemetry::ManualClock;

    #[test]
    fn off_records_nothing() {
        let probe = Probe::off();
        assert!(!probe.telemetry.is_enabled());
        assert!(!probe.span.is_enabled());
        let child = probe.span.child("c");
        child.attr("k", "v");
        assert!(!child.is_enabled());
        assert_eq!(child.id(), None);
        probe.telemetry.counter("n").inc();
        probe.telemetry.gauge("g").set(1.0);
        drop(probe.telemetry.span("t_s"));
        let snap = probe.telemetry.snapshot();
        assert_eq!(snap.counter("n"), None);
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(snap.histograms.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn struct_update_reparents_and_keeps_the_registry() {
        let registry = Registry::new();
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("root");
        let probe = Probe {
            telemetry: &registry,
            span: &root,
        };
        let phase = probe.span.child("phase");
        let nested = Probe {
            span: &phase,
            ..probe
        };
        assert!(std::ptr::eq(nested.telemetry, &registry));
        assert!(std::ptr::eq(nested.span, &phase));
        nested.telemetry.counter("phases").inc();
        drop(nested.span.child("leaf"));
        drop(phase);
        drop(root);
        assert_eq!(registry.snapshot().counter("phases"), Some(1));
        let snap = tracer.snapshot();
        let (root, phase, leaf) = (
            snap.find("root").expect("root recorded"),
            snap.find("phase").expect("phase recorded"),
            snap.find("leaf").expect("leaf recorded"),
        );
        assert_eq!(phase.parent_id, root.id);
        assert_eq!(leaf.parent_id, phase.id);
    }
}
