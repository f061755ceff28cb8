//! End-to-end and per-layer benchmark of the DenseVLC reproduction.
//!
//! Four seeded workloads drive only public entry points:
//! `BuildingEngine::{new, apply, control_tick}`, `BuildingObs::observe`
//! and `densevlc::e2e::FramePipeline::run`. A run repeats fixed-size
//! *rounds* — a fresh engine or pipeline, its set-up, then the round's
//! ticks or frames — until `--seconds` have passed, checks every round's
//! output, and prints one JSON result line. With tracing off it reports
//! the end-to-end metrics; a traced run (`--trace 1`) repeats the same
//! rounds untraced and then traced and reports the per-layer metrics,
//! folded from `vlc-trace` spans with `vlc-prof`. See `README.md`.

#![warn(missing_docs)]

pub mod building;
pub mod frames;
pub mod gen;
pub mod heap;
pub mod metrics;
pub mod profile;

use std::path::PathBuf;

use building::{BuildingBench, Digest};
use frames::{FrameBench, FramePin};
use gen::Workload;
use heap::peak_heap_mb;
use metrics::{median, quantile, Outcome, PER_LAYER};
use vlc_par::Jobs;
use vlc_prof::Profile;

/// The seed whose full-size round outputs are pinned.
pub const PINNED_SEED: u64 = 42;

/// Set-ups timed per untraced run; runs with fewer rounds time extra
/// set-ups so the `setup_s` median rests on enough samples.
pub const MIN_SETUPS: usize = 15;

/// Steps per round in full-size workloads: with one fastest sample per
/// step, p95 is then the highest latency quantile with ten samples beyond.
pub const MIN_STEPS: usize = 200;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to keep starting rounds (at least two run).
    pub seconds: f64,
    /// Report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Pool workers for the building workloads.
    pub jobs: Jobs,
    /// Tiny workload sizes, for tests.
    pub smoke: bool,
    /// Where a traced run writes its first traced round's profile.
    pub profile_out: Option<PathBuf>,
}

/// What a round measured from outside the program.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Set-up time: building an engine, filling it and its first (cold)
    /// tick, or building a pipeline and sending one frame.
    pub setup_s: f64,
    /// One sample per step: the control tick, or the pipeline call.
    pub latencies_s: Vec<f64>,
    /// Closed-loop time of each step: apply + control tick + observe, or
    /// the pipeline call.
    pub steps_s: Vec<f64>,
    /// Session commands, or frames.
    pub events: u64,
    /// Operations attempted: commands + ticks, or frames.
    pub attempted: u64,
}

/// A run's rounds, folded as each one finishes so that memory does not
/// grow with the number of rounds.
///
/// Every full round replays the same steps, so each step is timed once
/// per round and only its fastest repeat is kept: other tenants of the
/// machine only ever add time, and the per-step minimum over repeats is
/// what stays steady from run to run. Throughput and latency quantiles are
/// computed over those per-step minima.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rounds {
    /// Full rounds folded in.
    pub count: usize,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// One sample per set-up.
    pub setups_s: Vec<f64>,
    fastest_latency_s: Vec<f64>,
    fastest_step_s: Vec<f64>,
    round_events: u64,
}

impl Rounds {
    /// Folds in a full round.
    pub fn add(&mut self, round: &Timing) {
        if self.count == 0 {
            self.fastest_latency_s = round.latencies_s.clone();
            self.fastest_step_s = round.steps_s.clone();
            self.round_events = round.events;
        }
        assert_eq!(
            round.steps_s.len(),
            self.fastest_step_s.len(),
            "rounds replay the same steps"
        );
        for (fast, s) in self.fastest_latency_s.iter_mut().zip(&round.latencies_s) {
            *fast = fast.min(*s);
        }
        for (fast, s) in self.fastest_step_s.iter_mut().zip(&round.steps_s) {
            *fast = fast.min(*s);
        }
        self.count += 1;
        self.attempted += round.attempted;
        self.setups_s.push(round.setup_s);
    }

    /// Session commands, or frames, over all rounds.
    pub fn events(&self) -> u64 {
        self.round_events * self.count as u64
    }

    /// Closed-loop time of a round made of every step's fastest repeat.
    pub fn fastest_busy_s(&self) -> f64 {
        self.fastest_step_s.iter().sum()
    }

    /// Sets the end-to-end metrics.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let mut latencies = self.fastest_latency_s.clone();
        latencies.sort_by(f64::total_cmp);
        out.set("setup_s", median(&self.setups_s));
        out.set(
            "events_per_s",
            self.round_events as f64 / self.fastest_busy_s(),
        );
        out.set("latency_p50_ms", quantile(&latencies, 0.50) * 1e3);
        out.set("latency_p95_ms", quantile(&latencies, 0.95) * 1e3);
        out.set("peak_heap_mb", peak_heap_mb());
    }
}

/// How long a run keeps starting untraced rounds: all of `--seconds`, or
/// half of it when a traced run replays as many rounds traced.
pub(crate) fn untraced_budget_s(opts: &RunOpts) -> f64 {
    if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    }
}

/// Runs one workload; the metric set follows `opts.trace`. Per-layer
/// metrics of layers the workload bypasses read 0.
pub fn run(opts: &RunOpts) -> Outcome {
    let pinned = opts.seed == PINNED_SEED && !opts.smoke;
    let mut out = if let Some(spec) = opts.workload.building(opts.smoke) {
        let pin = pinned.then(|| building_pin(opts.workload)).flatten();
        BuildingBench::new(spec, opts.seed).run(opts, pin)
    } else {
        let spec = opts
            .workload
            .frames(opts.smoke)
            .expect("every workload is a building or a frame workload");
        FrameBench::new(spec, opts.seed).run(opts, pinned.then_some(FRAME_PIN))
    };
    if opts.trace {
        for metric in PER_LAYER {
            if out.get(metric.name).is_none() {
                out.set(metric.name, 0.0);
            }
        }
    }
    out
}

/// Seed-42 round digests of the full-size building workloads.
fn building_pin(workload: Workload) -> Option<Digest> {
    let (system_bps_bits, replans, handovers, sessions, hash) = match workload {
        Workload::BuildingCrowd => (4741265814819759660, 9497, 6726, 1323, 10983867400443942690),
        Workload::BuildingSparse => (4748012804872876183, 39267, 8514, 600, 6880357000372052559),
        Workload::BuildingOptimal => (4732260647354401914, 2056, 372, 64, 6752691802062627210),
        Workload::FrameE2e => return None,
    };
    Some(Digest {
        system_bps_bits,
        replans,
        handovers,
        sessions,
        hash,
    })
}

/// Seed-42 row totals of the full-size frame workload.
const FRAME_PIN: FramePin = [
    (350, 0, 4702320084653577287),
    (0, 0, 0),
    (350, 0, 4702320084653577287),
];

/// With `--profile-out`, writes the first traced round's profile as
/// `<dir>/<workload>.prof.json` and `<dir>/<workload>.folded`.
pub(crate) fn save_profile(opts: &RunOpts, first: Option<&Profile>, out: &mut Outcome) {
    let Some(dir) = &opts.profile_out else {
        return;
    };
    let profile = first.expect("at least one traced round ran");
    let stem = dir.join(opts.workload.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(stem.with_extension("prof.json"), profile.to_json()))
        .and_then(|()| std::fs::write(stem.with_extension("folded"), vlc_prof::to_folded(profile)));
    if let Err(e) = written {
        out.check(false, format_args!("cannot write the profile: {e}"));
    }
}
