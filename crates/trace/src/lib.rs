//! Causal span tracing for the DenseVLC stack.
//!
//! Where `vlc-telemetry` answers *how much* (flat counters and duration
//! histograms), this crate answers *why and in what order*: a [`Tracer`]
//! records hierarchical [`Span`]s — each with an explicit span id, parent
//! id, and `key=value` attributes — into a bounded ring, and the resulting
//! [`TraceSnapshot`] exports to Chrome Trace Event JSON loadable in
//! Perfetto or `chrome://tracing` ([`TraceSnapshot::to_chrome_json`]).
//!
//! Three properties drive the design, mirroring the telemetry crate:
//!
//! 1. **Zero-cost opt-out.** [`Tracer::noop()`] hands out inert spans:
//!    every operation on the default path is one `Option` branch and
//!    allocates nothing. Library APIs take `&Span` so uninstrumented
//!    callers pass [`Span::noop()`].
//! 2. **Deterministic under [`ManualClock`](vlc_telemetry::ManualClock).**
//!    Span ids are *structural* — an FNV-1a hash of `(parent id, name,
//!    sibling sequence)` — so the id of a span does not depend on which
//!    worker thread created it or in what order threads ran. Fan-out call
//!    sites use [`Span::child_indexed`] with the work-item index as the
//!    sequence, making the whole tree identical for any `DENSEVLC_JOBS`
//!    (as long as the span ring does not overflow).
//! 3. **Per-worker lanes.** Each span carries the *track* of the thread
//!    that opened it; `vlc-par` workers tag their threads via
//!    [`set_current_track`], so the Chrome export shows one lane per
//!    worker. Which worker ran which item is inherently scheduling-
//!    dependent, so tracks are metadata *excluded* from the determinism
//!    contract (the canonical [`TraceSnapshot::tree_string`] omits them).
//!
//! The same span data doubles as the perf harness: [`bench::BenchReport`]
//! aggregates per-span-name duration statistics (median / MAD / min / max)
//! into the BENCH.json format consumed by the `bench-compare` regression
//! gate (see `docs/BENCHMARKING.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chrome;
mod snapshot;
mod span;

pub use bench::{
    format_regressions, BenchReport, BenchStats, CompareTolerance, Regression, BENCH_SCHEMA,
};
pub use chrome::{parse_chrome_json, ChromeEvent};
pub use snapshot::TraceSnapshot;
pub use span::{
    current_track, set_current_track, worker_track, Span, SpanRecord, Tracer, DEFAULT_SPAN_CAPACITY,
};
