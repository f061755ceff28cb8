//! The `frame-e2e` workload: Table 5's three rows through one
//! `densevlc::e2e::FramePipeline`, on the calling thread.

use std::time::Instant;

use densevlc::e2e::{E2eConfig, E2eResult, E2eTx, FramePipeline};
use densevlc::sync::SyncScheme;
use densevlc::testbed::{BbbHostMap, Deployment};
use vlc_prof::{Profile, ProfileNode};
use vlc_telemetry::Registry;
use vlc_trace::Tracer;

use crate::gen::{derive_seed, FrameSpec, SplitMix64};
use crate::metrics::Outcome;
use crate::profile::ProfileSum;
use crate::{save_profile, untraced_budget_s, Rounds, RunOpts, Timing, MIN_SETUPS};

/// Span names of the three rows, in Table 5 order.
pub const ROWS: [&str; 3] = ["e2e.two_tx", "e2e.four_tx_no_sync", "e2e.four_tx_nlos"];

/// Duration histograms `FramePipeline::run` records into its registry,
/// with the per-layer metric each one feeds.
const PHY_TIMERS: [(&str, &str); 3] = [
    ("phy.packed.encode_s", "phy.encode.busy_s"),
    ("phy.packed.decode_s", "phy.decode.busy_s"),
    ("phy.rs.block_s", "phy.rs.busy_s"),
];

/// PHY counters reported per round.
const PHY_COUNTERS: [&str; 5] = [
    "phy.frames_decoded",
    "phy.preamble_misses",
    "phy.frame_sync_errors",
    "phy.rs_symbols_corrected",
    "phy.rs_uncorrectable",
];

/// One row's totals over a round; every field is a pure function of the
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowTotal {
    /// Frames sent.
    pub frames: usize,
    /// Frames delivered intact.
    pub frames_ok: usize,
    /// Reed–Solomon byte corrections on delivered frames.
    pub rs_corrections: usize,
    /// Σ per-call goodput, bit/s. Every call sends the same number of
    /// equal-length frames, so the row goodput is this over the calls.
    pub goodput_sum_bps: f64,
}

impl RowTotal {
    fn add(&mut self, r: &E2eResult) {
        self.frames += r.frames_total;
        self.frames_ok += r.frames_ok;
        self.rs_corrections += r.rs_corrections;
        self.goodput_sum_bps += r.goodput_bps;
    }

    fn per(&self) -> f64 {
        1.0 - self.frames_ok as f64 / self.frames as f64
    }
}

/// Values pinned for seed 42, full size: `(frames_ok, rs_corrections,
/// goodput_sum_bps bits)` per row.
pub type FramePin = [(usize, usize, u64); 3];

/// The frame workload: the three rows and every call's seed.
pub struct FrameBench {
    spec: FrameSpec,
    cfg: E2eConfig,
    rows: [(Vec<E2eTx>, SyncScheme); 3],
    /// `seeds[b][r]`: the seed of row `r`'s `b`-th call.
    seeds: Vec<[u64; 3]>,
    warm_seed: u64,
}

struct Round {
    timing: Timing,
    rows: [RowTotal; 3],
}

#[derive(Default)]
struct Traced {
    profile: ProfileSum,
    round: ProfileSum,
    first: Option<Profile>,
    rounds: Rounds,
    phy_s: [f64; 3],
    counters: [u64; 5],
    dropped: u64,
    rows_s: f64,
    roots_s: f64,
}

impl FrameBench {
    /// The workload for `seed`: the paper's RX between TX2/3/8/9, two TXs
    /// on one host, then four TXs on two hosts without and with NLOS sync.
    pub fn new(spec: FrameSpec, seed: u64) -> Self {
        let deployment = Deployment::testbed(&[(1.0, 0.5)]);
        let hosts = BbbHostMap::paper();
        let tx = |i: usize| E2eTx {
            gain: deployment.model.channel.gain(i, 0),
            host: hosts.host_of(i),
        };
        let two = vec![tx(1), tx(7)];
        let four = vec![tx(1), tx(7), tx(2), tx(8)];
        let mut rng = SplitMix64::new(derive_seed(seed, 0xF4A3E));
        let seeds = (0..spec.batches)
            .map(|_| [rng.next_u64(), rng.next_u64(), rng.next_u64()])
            .collect();
        FrameBench {
            spec,
            cfg: E2eConfig::default(),
            rows: [
                (two, SyncScheme::SyncOff),
                (four.clone(), SyncScheme::SyncOff),
                (four, SyncScheme::nlos_paper()),
            ],
            seeds,
            warm_seed: rng.next_u64(),
        }
    }

    /// Runs the workload for `opts.seconds` and reports the end-to-end
    /// metrics, or with `opts.trace` the per-layer metrics.
    pub fn run(&self, opts: &RunOpts, pin: Option<FramePin>) -> Outcome {
        let mut out = Outcome::default();
        let mut rounds = Rounds::default();
        let mut first = None;
        let start = Instant::now();
        while rounds.count < 2 || start.elapsed().as_secs_f64() < untraced_budget_s(opts) {
            let round = self.round(usize::MAX, None);
            if rounds.count == 0 {
                self.check(&round.rows, opts.smoke, pin, &mut out);
            }
            let rows = *first.get_or_insert(round.rows);
            out.check(
                round.rows == rows,
                format_args!("round totals {:?} differ from the first", round.rows),
            );
            rounds.add(&round.timing);
        }
        out.attempted = rounds.attempted;
        if !opts.trace {
            while rounds.setups_s.len() < MIN_SETUPS {
                rounds.setups_s.push(self.round(0, None).timing.setup_s);
            }
            rounds.end_to_end(&mut out);
            return out;
        }

        let mut traced = Traced::default();
        for _ in 0..rounds.count {
            let round = self.round(usize::MAX, Some(&mut traced));
            out.check(
                Some(round.rows) == first,
                format_args!("traced round totals {:?} differ", round.rows),
            );
        }
        save_profile(opts, traced.first.as_ref(), &mut out);
        let n = rounds.count as f64;
        for ((_, metric), s) in PHY_TIMERS.iter().zip(traced.phy_s) {
            out.set(metric, s / n);
        }
        for (name, c) in PHY_COUNTERS.iter().zip(traced.counters) {
            out.set(name, c as f64 / n);
        }
        let waveform: f64 = ROWS.iter().map(|row| traced.profile.self_s(row)).sum();
        out.set("e2e.waveform.self_s", waveform / n);
        out.set(
            "trace.overhead_ratio",
            traced.rounds.fastest_busy_s() / rounds.fastest_busy_s() - 1.0,
        );
        out.set("trace.dropped_spans", traced.dropped as f64);
        out.check(
            traced.dropped == 0,
            format_args!("the traced pass dropped {} spans", traced.dropped),
        );
        out.set("trace.tick_coverage", traced.rows_s / traced.roots_s);
        out
    }

    /// Table 5's anchors (rows 1 and 3 deliver ≥ 98 % of frames, row 3
    /// at ≥ 30 kb/s, row 2 delivers next to nothing) plus the seed-42 pin.
    /// Smoke runs send too few frames for the anchors.
    fn check(&self, rows: &[RowTotal; 3], smoke: bool, pin: Option<FramePin>, out: &mut Outcome) {
        if !smoke {
            let goodput = rows[2].goodput_sum_bps / self.spec.batches as f64;
            out.check(rows[0].per() <= 0.02, "row 1 PER above 2 %");
            out.check(rows[2].per() <= 0.02, "row 3 PER above 2 %");
            out.check(goodput >= 30e3, "row 3 goodput below 30 kb/s");
        }
        out.check(rows[1].per() >= 0.99, "row 2 (no sync) PER below 99 %");
        if let Some(pin) = pin {
            let got = rows.map(|r| (r.frames_ok, r.rs_corrections, r.goodput_sum_bps.to_bits()));
            out.check(
                got == pin,
                format_args!("row totals {got:?}, pinned {pin:?}"),
            );
        }
    }

    /// One round: a fresh pipeline and one warm-up frame (set-up), then
    /// up to `max_batches` calls per row, rows interleaved so drift hits
    /// all rows alike.
    fn round(&self, max_batches: usize, mut traced: Option<&mut Traced>) -> Round {
        let cfg = &self.cfg;
        let start = Instant::now();
        let mut pipeline = FramePipeline::new(cfg);
        let (txs, scheme) = &self.rows[0];
        pipeline.run(txs, scheme, cfg, 1, self.warm_seed, &Registry::noop());
        let mut round = Round {
            timing: Timing {
                setup_s: start.elapsed().as_secs_f64(),
                ..Timing::default()
            },
            rows: [RowTotal::default(); 3],
        };
        let frames = self.spec.frames_per_batch;
        for seeds in self.seeds.iter().take(max_batches) {
            let tracer = match traced {
                Some(_) => Tracer::new(),
                None => Tracer::noop(),
            };
            let root = tracer.root("bench.frames");
            let mut registries = Vec::new();
            for (r, (txs, scheme)) in self.rows.iter().enumerate() {
                let registry = match traced {
                    Some(_) => Registry::new(),
                    None => Registry::noop(),
                };
                let span = root.child(ROWS[r]);
                let t0 = Instant::now();
                let result = pipeline.run(txs, scheme, cfg, frames, seeds[r], &registry);
                let dt = t0.elapsed().as_secs_f64();
                drop(span);
                round.timing.latencies_s.push(dt);
                round.timing.steps_s.push(dt);
                round.rows[r].add(&result);
                registries.push(registry);
            }
            drop(root);
            if let Some(acc) = traced.as_deref_mut() {
                acc.batch(&tracer, &registries);
            }
        }
        round.timing.events = round.rows.iter().map(|r| r.frames as u64).sum();
        round.timing.attempted = round.timing.events;
        if let Some(acc) = traced {
            acc.rounds.add(&round.timing);
            let profile = std::mem::take(&mut acc.round).to_profile(1);
            acc.profile.add(&profile);
            acc.first.get_or_insert(profile);
        }
        round
    }
}

impl Traced {
    /// Folds one batch's trace and the rows' registries, in row order.
    /// `FramePipeline::run` takes no parent span, so its registry timers
    /// become the PHY children of each row's span.
    fn batch(&mut self, tracer: &Tracer, registries: &[Registry]) {
        let snap = tracer.snapshot();
        self.dropped += snap.dropped;
        self.roots_s += snap.roots().iter().map(|s| s.duration_s()).sum::<f64>();
        self.rows_s += ROWS
            .iter()
            .flat_map(|row| snap.spans_named(row))
            .map(|s| s.duration_s())
            .sum::<f64>();
        self.round.add(&Profile::from_snapshot(&snap, 1));
        for (row, registry) in ROWS.iter().zip(registries) {
            let metrics = registry.snapshot();
            let row_path = format!("bench.frames;{row}");
            for (i, (timer, _)) in PHY_TIMERS.iter().enumerate() {
                let Some(h) = metrics.histogram(timer) else {
                    continue;
                };
                self.phy_s[i] += h.sum;
                let node = |path: String, calls: u64, incl_s: f64, self_s: f64| ProfileNode {
                    path,
                    calls,
                    incl_s,
                    self_s,
                    allocs: 0,
                    deallocs: 0,
                };
                self.round
                    .add_node(&node(format!("{row_path};{timer}"), h.count, h.sum, h.sum));
                self.round.add_node(&node(row_path.clone(), 0, 0.0, -h.sum));
            }
            for (c, name) in PHY_COUNTERS.iter().enumerate() {
                self.counters[c] += metrics.counter(name).unwrap_or(0);
            }
        }
    }
}
