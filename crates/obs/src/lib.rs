//! Streaming observability plane for the DenseVLC reproduction.
//!
//! `vlc-telemetry` answers "what happened over the whole run" (snapshot
//! at exit); `vlc-trace` answers "where did the time go" (spans). This
//! crate answers the operational questions in between — *what is the
//! system doing right now, and was it healthy just before it died* —
//! with four pieces composed behind one [`ObsPlane`]:
//!
//! * **Rolling windows** ([`window`]) — a fixed ring of tick buckets per
//!   signal with exact order statistics, deterministic for any
//!   `vlc-par` worker count.
//! * **NDJSON stream** ([`record`], [`sink`]) — one self-describing JSON
//!   record per line (`meta`/`tick`/`window`/`event`/`alert`/`panic`/
//!   `summary`), flushed every N ticks, with a validating parser used by
//!   tests, CI's `obs_check`, and the monitor view alike.
//! * **Flight recorder** ([`flight`]) — a bounded ring of the most
//!   recent stream lines dumped by a chained panic hook, so a crash
//!   mid-run still leaves a parseable post-mortem.
//! * **SLO alerts** ([`alert`]) — declarative threshold rules with
//!   hysteresis (fire after N breaching windows, clear after M healthy
//!   ones) evaluated at every flush.
//!
//! [`options::ObsOptions`] is the shared command-line front-end: every
//! binary parses its `--telemetry`/`--trace`/`--obs-stream`/… flags
//! through it, against the list of flags it honours, and its
//! [`options::ObsRun`] builds the registry, tracer and stream sink those
//! flags need and writes every artifact at exit. [`monitor::render`]
//! turns a parsed stream back into a terminal dashboard.
//!
//! The plane is strictly read-only with respect to the simulation: it
//! consumes tick samples and registry snapshots, so the streamed and
//! unstreamed code paths produce byte-identical results (enforced by
//! `crates/densevlc/tests/obs_stream.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod flight;
pub mod monitor;
pub mod options;
pub mod plane;
pub mod record;
pub mod sink;
pub mod window;

pub use alert::{densevlc_defaults, Cmp, SloEngine, SloRule, Stat};
pub use flight::{FlightGuard, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use options::{inject_panic_from_env, write_file, ObsOptions, ObsRun, TelemetryFormat};
pub use plane::{ObsConfig, ObsPlane, TickSample};
pub use record::{
    parse_stream, parse_stream_strict, AlertState, ObsRecord, StreamError, OBS_SCHEMA,
};
pub use sink::{FileSink, MemorySink, NoopSink, ObsSink};
pub use window::{RollingWindow, WindowConfig, WindowStats};
