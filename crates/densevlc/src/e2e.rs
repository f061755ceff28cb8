//! Symbol-level end-to-end frame simulation (paper §8.1, Table 5).
//!
//! This is the reproduction of the paper's iperf experiment: a group of TXs
//! jointly transmits MAC frames to one receiver; each TX's waveform is
//! delayed by its host's synchronization error; the receiver sees the
//! superposition through the Lambertian channel, adds noise, runs the
//! analog front-end, detects the preamble, slices chips, Manchester-decodes,
//! and Reed–Solomon-corrects. Frames whose payload survives count toward
//! goodput; the rest are packet errors.
//!
//! The decisive physics: TXs hosted by the *same* BeagleBone share a clock
//! and superimpose perfectly; TXs on different hosts are offset by the sync
//! scheme's start error. At the testbed's 100 Ksymbols/s a chip lasts 10 µs,
//! so the no-synchronization skew (median ~10 µs — a full chip) garbles the
//! Manchester stream, while the NLOS-VLC residual (0.575 µs) is absorbed by
//! mid-chip slicing.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vlc_channel::{AwgnChannel, AwgnCursor, NoiseParams};
use vlc_led::power::optical_swing_amplitude;
use vlc_led::LedParams;
use vlc_phy::codec::RsStack;
use vlc_phy::frame::{protocol, Frame, FrameError, FrameHeader};
use vlc_phy::manchester::{manchester_decode, manchester_encode, Chip};
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::rs::ReedSolomon;
use vlc_phy::waveform::{
    correlate_pattern, mix_into, render, render_packed_into, slice_chips, slice_chips_packed_by,
    ChipDecider, ChipRuns, PreambleCorrelator, Sliced, Superposition, WaveformConfig, WindowBlock,
};
use vlc_sync::SyncScheme;
use vlc_telemetry::Registry;
use vlc_trace::Probe;

/// The preamble byte pattern (chips alternate at the chip rate, ideal for
/// correlation locking).
const PREAMBLE_BYTES: [u8; 4] = [0xAA, 0xAA, 0xAA, 0x55];

/// The preamble's chip encodings — scalar for the reference path, packed for
/// the fast path — computed once per process. Every `run*` entry point
/// shares this hoist (the encoding used to be recomputed per run and per
/// ARQ retry); the `preamble_hoist_matches_fresh_encoding` test pins both
/// call-site families to a fresh `manchester_encode`.
fn preamble() -> &'static (Vec<Chip>, PackedChips) {
    static PREAMBLE: OnceLock<(Vec<Chip>, PackedChips)> = OnceLock::new();
    PREAMBLE.get_or_init(|| {
        let scalar = manchester_encode(&PREAMBLE_BYTES);
        let packed = packed_encode(&PREAMBLE_BYTES);
        assert_eq!(packed.to_chips(), scalar, "preamble encodings diverge");
        (scalar, packed)
    })
}

/// Samples one frame of `chips` chips spans: a guard of `floor(8·spc)`
/// samples on each side (for start offsets and filter transients) around
/// `ceil(chips·spc)` samples of chips. The packed run paths and the ARQ
/// air-time charge all count a frame this way; the scalar oracles spell
/// out the same expression.
fn frame_samples(cfg: &E2eConfig, chips: usize) -> usize {
    let spc = cfg.sample_rate_hz / cfg.symbol_rate_hz;
    let guard = (8.0 * spc) as usize;
    guard + (chips as f64 * spc).ceil() as usize + guard
}

/// The chip decision on the slicing window `lo..hi` of a photocurrent
/// whose noise `noise` is still drawing — `true` exactly when the eager
/// slicer's fixed-order sum of the fully noised window, `Σ fl(c_i + z_i)`,
/// is `>= 0`. Samples noised already are final; the rest are clean and
/// would each get one draw `z_i` with `|z_i| < b` (`b` = `bound`, the noise
/// channel's [`AwgnChannel::bound`]). Three checks, cheapest first:
///
/// 1. Every sample beyond `b` on one side of zero: each `fl(c + z)` with
///    `|z| < |c|` is nonzero with the sign of `c`, so the noisy sum has
///    that sign too.
/// 2. The window sum rule: decide from the sign of the clean sum `S` when
///    `|S| > n·b + δ`, `δ` from [`sum_rule_threshold`].
/// 3. Otherwise the window gets its exact noise on the samples not noised
///    yet and is summed as the eager slicer sums it.
fn lazy_window_is_high<R: Rng + ?Sized>(
    samples: &mut [f64],
    noise: &mut AwgnCursor<'_, R>,
    bound: f64,
    lo: usize,
    hi: usize,
) -> bool {
    let window = &samples[lo..hi];
    if window.iter().all(|&s| s > bound) {
        return true;
    }
    if window.iter().all(|&s| s < -bound) {
        return false;
    }
    let (sum, abs_sum) = window
        .iter()
        .fold((0.0f64, 0.0f64), |(s, a), &x| (s + x, a + x.abs()));
    let threshold = sum_rule_threshold(window.len(), abs_sum, bound);
    if sum > threshold {
        return true;
    }
    if sum < -threshold {
        return false;
    }
    noise.add_to(samples, lo, hi);
    samples[lo..hi].iter().sum::<f64>() >= 0.0
}

/// The window sum rule's threshold `n·b + δ` for a window of `n` samples
/// `c_i` whose absolute values sum (left to right, in floating point) to
/// `abs_sum`, under noise bounded by `b`:
/// `δ = 2(n + 1)·ε·(abs_sum + n·b)`, `ε = 2⁻⁵²` ([`f64::EPSILON`]).
///
/// Why a clean sum `S` beyond it decides the window. Write `u = ε/2` for
/// the unit roundoff, `A = Σ|c_i|` exactly, and `γ = (n−1)u/(1−(n−1)u)`,
/// the bound on the relative error of an `n`-term left-to-right sum
/// against the sum of its absolute values. A clean sample becomes
/// `w_i = fl(c_i + z_i)`, a final one stays `w_i = c_i`, so
/// `|w_i − c_i| < b + u(|c_i| + b)` and `Σ|w_i| ≤ (1 + u)(A + n·b)`. The
/// eager slicer computes `N = fl(Σ w_i)`, this rule `S = fl(Σ c_i)`:
///
/// - `|S − Σc| ≤ γA`, `|N − Σw| ≤ γ(1 + u)(A + n·b)`,
///   `|Σw − Σc| < n·b + u(A + n·b)`;
/// - so `|N − S| < n·b + (u + (2 + u)γ)(A + n·b) ≤ n·b + 2.04·n·u·(A + n·b)`
///   for any window below 10¹³ samples.
///
/// The threshold as computed (`abs_sum ≥ (1 − γ)A`, four roundings) is at
/// least `n·b − 2u·n·b + (4n + 4)(1 − (1.01·n + 3)u)·u·(A + n·b)`, which
/// exceeds `n·b + 2.04·n·u·(A + n·b)` since `(1.96·n + 3.9)(A + n·b)`
/// exceeds `2·n·b`. Hence `S > threshold` gives
/// `N > 0` (a high chip, as `N >= 0` decides), and `S < −threshold` gives
/// `N < 0` (a low one), whatever the noise. Additions of finite values are
/// exact near zero (subnormals included), so the bound has no underflow
/// term.
fn sum_rule_threshold(n: usize, abs_sum: f64, bound: f64) -> f64 {
    let nb = n as f64 * bound;
    nb + 2.0 * (n + 1) as f64 * f64::EPSILON * (abs_sum + nb)
}

/// Where a locked frame's MAC chips sit: `n_chips` chips from sample
/// `mac_start` of a frame of `n_samples`.
struct MacSpan {
    mac_start: usize,
    n_chips: usize,
    n_samples: usize,
}

/// One receiver's photocurrent for the frame being decoded, rendered on
/// demand. The preamble search region `0..search_end` is rendered (and
/// noised) eagerly; past it, a slicing window is decided from its level
/// when every TX holds one chip over it (or is off the air there) and
/// that level is beyond the noise bound, and only the other windows are
/// rendered. On the integer sample grid a whole block of 64 windows is
/// decided from the streams' chip words at once when they agree and no
/// chip boundary cuts a window (`block_is_high`, the slicer's word path).
/// The buffer is indexed by absolute sample position, so the noise cursor
/// sees the same positions as on the eager path; samples no window reads
/// hold stale values and are never read.
#[derive(Debug, Default)]
struct Photodiode {
    samples: Vec<f64>,
    /// The TXs this receiver hears, in TX order.
    light: Superposition,
    search_end: usize,
    /// Samples before this are rendered (and some noised as well).
    rendered_to: usize,
    /// The sliced MAC chips and their Manchester-decoded bytes.
    sliced: PackedChips,
    rx_bytes: Vec<u8>,
}

impl Photodiode {
    /// Starts a frame of `n_samples` once `light` holds its TXs: renders
    /// the preamble search region `0..min(n_samples, search_len)`.
    fn begin(&mut self, runs: &[ChipRuns], n_samples: usize, search_len: usize) {
        self.light.rewind();
        self.samples.resize(n_samples, 0.0);
        self.search_end = search_len.min(n_samples);
        self.rendered_to = 0;
        self.render(runs, 0, self.search_end);
    }

    /// Renders `lo..hi`, skipping the samples rendered already: those may
    /// carry noise, and keep it.
    fn render(&mut self, runs: &[ChipRuns], lo: usize, hi: usize) {
        let from = lo.max(self.rendered_to);
        if from < hi {
            self.light.render(runs, &mut self.samples, from, hi);
            self.rendered_to = hi;
        }
    }

    /// The chip decision on window `lo..hi`, bit-identical to the eager
    /// render + noise + [`lazy_window_is_high`]. A window past the search
    /// region whose TXs each hold one chip (or are off the air) has one
    /// value `v` on every sample, bit for bit the eager render's (see
    /// [`Superposition::level`]); with `|v| > bound` every sample passes
    /// the first check of [`lazy_window_is_high`] with `v`'s sign, so `v`
    /// decides without a sample written. Every other window is rendered
    /// and goes through [`lazy_window_is_high`].
    fn window_is_high<R: Rng + ?Sized>(
        &mut self,
        runs: &[ChipRuns],
        noise: &mut AwgnCursor<'_, R>,
        bound: f64,
        lo: usize,
        hi: usize,
    ) -> bool {
        match (lo >= self.search_end)
            .then(|| self.light.level(runs, lo, hi))
            .flatten()
        {
            Some(v) if v > bound => return true,
            Some(v) if v < -bound => return false,
            // Every sample not rendered yet renders to `v`.
            Some(v) => {
                let from = lo.max(self.rendered_to);
                if from < hi {
                    self.samples[from..hi].fill(v);
                    self.rendered_to = hi;
                }
            }
            None => self.render(runs, lo, hi),
        }
        lazy_window_is_high(&mut self.samples, noise, bound, lo, hi)
    }

    /// The chips of a whole block of slicing windows, bit-identical to
    /// [`Self::window_is_high`] on each: a block past the search region
    /// whose TXs each hold one chip over every window, with the streams'
    /// chips agreeing (see [`Superposition::word`]), has the level `±p` on
    /// every window, `p` = [`Superposition::peak`]. With `p > bound`
    /// each window is decided by the sign alone, as `window_is_high`
    /// decides it, and none is rendered or noised. `None` for any other
    /// block.
    fn block_is_high(&mut self, runs: &[ChipRuns], bound: f64, block: WindowBlock) -> Option<u64> {
        if block.lo >= self.search_end && self.light.peak() > bound {
            self.light.word(runs, block)
        } else {
            None
        }
    }

    /// Slices a locked frame's MAC chips into `sliced` and
    /// Manchester-decodes them into `rx_bytes`: `true` when both succeed —
    /// the scalar path's `slice_chips` + `manchester_decode`, the middle of
    /// `Phy::receive`. Blocks of 64 windows that [`Self::block_is_high`]
    /// decides take the slicer's word path; every other window goes through
    /// [`Self::window_is_high`].
    ///
    /// Slicing stops at the first pair of equal chips: the decode rejects
    /// any stream holding one, and a window past the stream ends in the
    /// same `false`, so no later window can change the outcome. The noise
    /// left undrawn is drawn past when the caller finishes the cursor, as
    /// for every window that needed none.
    fn slice_and_decode<R: Rng + ?Sized>(
        &mut self,
        runs: &[ChipRuns],
        noise: &mut AwgnCursor<'_, R>,
        bound: f64,
        wave_cfg: &WaveformConfig,
        span: MacSpan,
    ) -> bool {
        let mut sliced = std::mem::take(&mut self.sliced);
        let outcome = slice_chips_packed_by(
            span.n_samples,
            wave_cfg,
            span.mac_start,
            span.n_chips,
            &mut sliced,
            Windows {
                pd: self,
                runs,
                noise,
                bound,
            },
        );
        self.sliced = sliced;
        outcome == Sliced::Whole && self.sliced.decode_bytes_into(&mut self.rx_bytes)
    }
}

/// A [`Photodiode`]'s slicing decisions over one frame.
struct Windows<'a, 'n, R: Rng + ?Sized> {
    pd: &'a mut Photodiode,
    runs: &'a [ChipRuns],
    noise: &'a mut AwgnCursor<'n, R>,
    bound: f64,
}

impl<R: Rng + ?Sized> ChipDecider for Windows<'_, '_, R> {
    fn decide(&mut self, lo: usize, hi: usize) -> bool {
        self.pd
            .window_is_high(self.runs, self.noise, self.bound, lo, hi)
    }

    fn decide_block(&mut self, block: WindowBlock) -> Option<u64> {
        self.pd.block_is_high(self.runs, self.bound, block)
    }
}

/// One transmitter participating in the joint transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct E2eTx {
    /// Line-of-sight gain to the receiver.
    pub gain: f64,
    /// Hosting BBB: TXs with the same host share one clock/start offset.
    pub host: usize,
}

/// Configuration of an end-to-end run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eConfig {
    /// Chip (symbol) rate in chips/s.
    pub symbol_rate_hz: f64,
    /// Receiver sampling rate in samples/s.
    pub sample_rate_hz: f64,
    /// Payload bytes per frame.
    pub payload_len: usize,
    /// MAC turnaround between frames in seconds (WiFi ACK round-trip plus
    /// controller processing; calibrated to the paper's measured goodput).
    pub turnaround_s: f64,
    /// Receiver noise parameters.
    pub noise: NoiseParams,
    /// LED parameters (for the physical optical swing amplitude).
    pub led: LedParams,
    /// Photodiode responsivity in A/W.
    pub responsivity: f64,
}

impl Default for E2eConfig {
    fn default() -> Self {
        E2eConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 1_000_000.0,
            payload_len: 200,
            turnaround_s: 9.4e-3,
            noise: NoiseParams::paper(),
            led: LedParams::cree_xte_paper(),
            responsivity: 0.40,
        }
    }
}

/// Result of an end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct E2eResult {
    /// Frames transmitted.
    pub frames_total: usize,
    /// Frames whose payload decoded intact.
    pub frames_ok: usize,
    /// Packet error rate in `[0, 1]`.
    pub per: f64,
    /// Application goodput in bit/s (payload bits over total air+gap time).
    pub goodput_bps: f64,
    /// Total Reed–Solomon byte corrections across delivered frames.
    pub rs_corrections: usize,
}

/// Runs `frames` joint transmissions of a fresh random payload each and
/// reports PER and goodput.
///
/// Every frame counts into `probe.telemetry`'s frame counters
/// (`phy.frames_encoded`, `phy.frames_decoded`,
/// `phy.rs_symbols_corrected`, `phy.rs_uncorrectable`,
/// `phy.frame_sync_errors`); failures to even reach the decoder count into
/// `phy.preamble_misses` (correlator never locks) or `phy.frame_sync_errors`
/// (chip slicing / Manchester decoding breaks); decodes whose payload does
/// not match the transmitted one count into `phy.frames_bad_payload`; and
/// the raw chip error fraction (sliced vs. transmitted MAC chips, before
/// FEC) of each frame whose chips Manchester-decode lands in the `phy.ber`
/// histogram. The frame path opens no span.
pub fn run(
    txs: &[E2eTx],
    scheme: &SyncScheme,
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
    probe: Probe<'_>,
) -> E2eResult {
    FramePipeline::new(cfg).run(txs, scheme, cfg, frames, seed, probe.telemetry)
}

/// The scalar reference implementation of [`run`]: `Vec<Chip>`
/// streams, per-call Reed–Solomon buffers, and fresh waveform allocations
/// per frame. The packed pipeline ([`FramePipeline`]) is pinned
/// bit-identical to this path — results and counters — by the
/// `packed_run_matches_scalar_reference` tests; keep the two in lockstep
/// when changing either.
pub fn run_scalar(
    txs: &[E2eTx],
    scheme: &SyncScheme,
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
    telemetry: &Registry,
) -> E2eResult {
    assert!(!txs.is_empty(), "need at least one transmitter");
    assert!(frames > 0, "need at least one frame");
    let mut rng = StdRng::seed_from_u64(seed);
    let rs = ReedSolomon::paper();
    let wave_cfg = WaveformConfig {
        symbol_rate_hz: cfg.symbol_rate_hz,
        sample_rate_hz: cfg.sample_rate_hz,
    };
    let preamble_chips = &preamble().0;
    let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
    let mut awgn = AwgnChannel::new(cfg.noise);

    // Hosts present in this transmission.
    let mut hosts: Vec<usize> = txs.iter().map(|t| t.host).collect();
    hosts.sort_unstable();
    hosts.dedup();

    // Without synchronization, nothing aligns the hosts' software transmit
    // loops: each BBB pushes the frame out with its own loop phase, an
    // offset that persists for the whole run and is uniform over a frame
    // duration. This — not the microsecond-scale per-frame jitter — is why
    // the paper's unsynchronized 4-TX row receives *zero* packets. The RX
    // locks onto the earliest copy, so phases are taken relative to the
    // earliest host.
    let chips_per_frame =
        (Frame::wire_len(cfg.payload_len, &rs) + PREAMBLE_BYTES.len()) as f64 * 16.0;
    let frame_duration_s = chips_per_frame / cfg.symbol_rate_hz;
    let loop_phase: Vec<(usize, f64)> = if matches!(scheme, SyncScheme::SyncOff) && hosts.len() > 1
    {
        let raw: Vec<f64> = hosts
            .iter()
            .map(|_| rng.gen_range(0.0..frame_duration_s))
            .collect();
        let min = raw.iter().copied().fold(f64::INFINITY, f64::min);
        hosts
            .iter()
            .copied()
            .zip(raw.into_iter().map(|p| p - min))
            .collect()
    } else {
        hosts.iter().map(|&h| (h, 0.0)).collect()
    };

    let mut frames_ok = 0;
    let mut rs_corrections = 0;
    let mut air_time_s = 0.0;
    for seq in 0..frames {
        // Fresh payload per frame.
        let payload: Vec<u8> = (0..cfg.payload_len).map(|_| rng.gen()).collect();
        let frame = Frame::new(
            u64::MAX,
            FrameHeader {
                dst: 1,
                src: 0,
                protocol: protocol::DATA,
            },
            payload.clone(),
        );
        telemetry.counter("phy.frames_encoded").inc();
        let bytes = frame.to_bytes(&rs);
        let mut chips: Vec<Chip> = preamble_chips.clone();
        chips.extend(manchester_encode(&bytes));
        let spc = wave_cfg.samples_per_chip();
        // Guard before and after for offsets and filter transients.
        let guard = (8.0 * spc) as usize;
        let n_samples = guard + (chips.len() as f64 * spc).ceil() as usize + guard;
        air_time_s += n_samples as f64 / cfg.sample_rate_hz;

        // Per-host start offsets for this frame: per-frame jitter plus the
        // persistent loop phase.
        let offsets: Vec<(usize, f64)> = hosts
            .iter()
            .map(|&h| {
                let phase = loop_phase
                    .iter()
                    .find(|(host, _)| *host == h)
                    .expect("host has a phase")
                    .1;
                (
                    h,
                    phase + scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng),
                )
            })
            .collect();

        // Superimpose every TX's light at the photodiode.
        let mut photocurrent = vec![0.0f64; n_samples];
        for tx in txs {
            let offset = offsets
                .iter()
                .find(|(h, _)| *h == tx.host)
                .expect("host offset exists")
                .1;
            let amp = cfg.responsivity * tx.gain * a_opt;
            let delay = guard as f64 / cfg.sample_rate_hz + offset;
            let w = render(&chips, &wave_cfg, amp, delay, n_samples);
            mix_into(&mut photocurrent, &w);
        }
        // Receiver noise.
        for s in photocurrent.iter_mut() {
            *s += awgn.sample(&mut rng);
        }

        // Preamble lock: search around the nominal start.
        let Some((start, score)) =
            correlate_pattern(&photocurrent, &wave_cfg, preamble_chips, 0, 3 * guard)
        else {
            telemetry.counter("phy.preamble_misses").inc();
            continue;
        };
        if score < 0.5 {
            telemetry.counter("phy.preamble_misses").inc();
            continue;
        }
        // Slice the MAC portion after the preamble.
        let mac_start = start + (preamble_chips.len() as f64 * spc).round() as usize;
        let n_mac_chips = bytes.len() * 16;
        let Some(mac_chips) = slice_chips(&photocurrent, &wave_cfg, mac_start, n_mac_chips) else {
            telemetry.counter("phy.frame_sync_errors").inc();
            continue;
        };
        let Some(decoded_bytes) = manchester_decode(&mac_chips) else {
            telemetry.counter("phy.frame_sync_errors").inc();
            continue;
        };
        // Raw (pre-FEC) chip error rate of a frame that reaches the RS
        // decoder: sliced chips vs. what was sent.
        let sent_chips = &chips[preamble_chips.len()..];
        let chip_errors = mac_chips
            .iter()
            .zip(sent_chips)
            .filter(|(got, sent)| got != sent)
            .count();
        telemetry
            .histogram("phy.ber")
            .record(chip_errors as f64 / sent_chips.len().max(1) as f64);
        // A decode counts into `phy.frames_decoded`, a Reed–Solomon
        // failure into `phy.rs_uncorrectable`, and any other parse failure
        // (bad SFD, truncation, length mismatch) into
        // `phy.frame_sync_errors`, as `FramePipeline` counts them.
        match Frame::from_bytes(&decoded_bytes, &rs) {
            Ok((decoded, fixed)) => {
                telemetry.counter("phy.frames_decoded").inc();
                telemetry
                    .counter("phy.rs_symbols_corrected")
                    .add(fixed as u64);
                if decoded.payload == payload {
                    frames_ok += 1;
                    rs_corrections += fixed;
                } else {
                    telemetry.counter("phy.frames_bad_payload").inc();
                }
            }
            Err(FrameError::Uncorrectable) => {
                telemetry.counter("phy.rs_uncorrectable").inc();
                telemetry.event("phy.frame", "rs_uncorrectable", &[]);
            }
            Err(_) => {
                telemetry.counter("phy.frame_sync_errors").inc();
            }
        }
        let _ = seq;
    }

    let total_time_s = air_time_s + frames as f64 * cfg.turnaround_s;
    let payload_bits = (cfg.payload_len * 8 * frames_ok) as f64;
    E2eResult {
        frames_total: frames,
        frames_ok,
        per: 1.0 - frames_ok as f64 / frames as f64,
        goodput_bps: payload_bits / total_time_s,
        rs_corrections,
    }
}

/// The header of every data frame the pipelines send.
const DATA_HEADER: FrameHeader = FrameHeader {
    dst: 1,
    src: 0,
    protocol: protocol::DATA,
};

/// One frame a [`FramePipeline`] sends: its payload, its MAC chips, and
/// the chips on air — the preamble, then the MAC chips.
#[derive(Debug, Default)]
struct TxFrame {
    payload: Vec<u8>,
    mac: PackedChips,
    chips: PackedChips,
}

/// The per-frame PHY that [`FramePipeline::run`] and
/// [`FramePipeline::run_concurrent`] share: one encode step and one
/// per-receiver receive step, with the FEC stack, the preamble search and
/// the receiver buffers they reuse.
#[derive(Debug)]
struct Phy {
    wave_cfg: WaveformConfig,
    /// The guard of `floor(8·spc)` samples before a frame's chips.
    guard: usize,
    stack: RsStack,
    /// The preamble search over the preamble rendered at unit amplitude,
    /// zero delay — exactly the template `correlate_pattern` re-renders
    /// per call on the scalar path.
    preamble: PreambleCorrelator,
    wire: Vec<u8>,
    pd: Photodiode,
    payload_rx: Vec<u8>,
}

impl Phy {
    /// Samples the preamble search renders and noises up front: every
    /// start the search scores, plus the template.
    fn search_len(&self) -> usize {
        3 * self.guard + self.preamble.template().len()
    }

    /// Starts the photodiode on a frame of `n_samples` once `pd.light`
    /// holds its TXs, rendering the preamble search region.
    fn begin(&mut self, runs: &[ChipRuns], n_samples: usize) {
        let search_len = self.search_len();
        self.pd.begin(runs, n_samples, search_len);
    }

    /// Draws `frame`'s fresh payload of `payload_len` bytes from `rng`,
    /// frames it through the stack and Manchester-codes it after the
    /// preamble, under `phy.packed.encode_s`.
    fn encode(
        &mut self,
        rng: &mut StdRng,
        payload_len: usize,
        frame: &mut TxFrame,
        telemetry: &Registry,
    ) {
        let _encode = telemetry.span("phy.packed.encode_s");
        frame.payload.clear();
        for _ in 0..payload_len {
            frame.payload.push(rng.gen());
        }
        telemetry.counter("phy.frames_encoded").inc();
        self.wire.clear();
        Frame::encode_parts_with(
            u64::MAX,
            &DATA_HEADER,
            &frame.payload,
            &mut self.stack,
            &mut self.wire,
        );
        frame.mac.clear();
        frame.mac.encode_bytes(&self.wire);
        frame.chips.clear();
        frame.chips.extend_from(&preamble().1);
        frame.chips.extend_from(&frame.mac);
    }

    /// One receiver's turn at `sent`, once [`Self::begin`] has started the
    /// frame: noise
    /// the preamble search region, lock the preamble (a best score below
    /// `min_score` is a miss), slice and Manchester-decode the MAC chips,
    /// draw out the frame's noise, and Reed–Solomon-decode. Returns the
    /// corrected byte count when the payload arrives intact. The spans and
    /// counters are the ones [`FramePipeline::run`] documents.
    fn receive(
        &mut self,
        runs: &[ChipRuns],
        awgn: &mut AwgnChannel,
        rng: &mut StdRng,
        sent: &TxFrame,
        min_score: f64,
        telemetry: &Registry,
    ) -> Option<usize> {
        let n_samples = self.pd.samples.len();
        let search_len = self.search_len();
        let bound = awgn.bound();
        let mut noise = awgn.cursor(rng, n_samples);
        {
            let _noise = telemetry.span("phy.noise_s");
            noise.add_to(&mut self.pd.samples, 0, search_len);
        }
        let lock = {
            let _lock = telemetry.span("phy.preamble.lock_s");
            self.preamble.search(&self.pd.samples, 0, 3 * self.guard)
        };
        let locked = match lock {
            Some((_, score)) if score < min_score => None,
            lock => lock,
        };
        // `Some(decoded)` once the preamble locked: whether slicing and
        // Manchester decoding both succeeded.
        let decoded = locked.map(|(start, _)| {
            let _decode = telemetry.span("phy.packed.decode_s");
            let spc = self.wave_cfg.samples_per_chip();
            let span = MacSpan {
                mac_start: start + (preamble().1.len() as f64 * spc).round() as usize,
                n_chips: sent.mac.len(),
                n_samples,
            };
            self.pd
                .slice_and_decode(runs, &mut noise, bound, &self.wave_cfg, span)
        });
        {
            let _noise = telemetry.span("phy.noise_s");
            noise.finish();
        }
        match decoded {
            None => {
                telemetry.counter("phy.preamble_misses").inc();
                return None;
            }
            Some(false) => {
                telemetry.counter("phy.frame_sync_errors").inc();
                return None;
            }
            Some(true) => {}
        }
        // The raw chip error fraction of a frame that reaches the RS
        // decoder, as `run_scalar` records it after `manchester_decode`.
        if telemetry.is_enabled() {
            let chip_errors = self.pd.sliced.diff_count(&sent.mac);
            telemetry
                .histogram("phy.ber")
                .record(chip_errors as f64 / sent.mac.len().max(1) as f64);
        }
        let parsed = {
            let _rs_block = telemetry.span("phy.rs.block_s");
            Frame::decode_parts_with(&self.pd.rx_bytes, &mut self.stack, &mut self.payload_rx)
        };
        match parsed {
            Ok((_, _, fixed)) => {
                telemetry.counter("phy.frames_decoded").inc();
                telemetry
                    .counter("phy.rs_symbols_corrected")
                    .add(fixed as u64);
                if self.payload_rx == sent.payload {
                    return Some(fixed);
                }
                telemetry.counter("phy.frames_bad_payload").inc();
            }
            Err(FrameError::Uncorrectable) => {
                telemetry.counter("phy.rs_uncorrectable").inc();
                telemetry.event("phy.frame", "rs_uncorrectable", &[]);
            }
            Err(_) => {
                telemetry.counter("phy.frame_sync_errors").inc();
            }
        }
        None
    }
}

/// The packed-chip fast path through the end-to-end simulation.
///
/// Owns every buffer the per-frame PHY cycle needs — the hoisted preamble
/// template, the FEC stack (the paper's Manchester+RS path as a
/// [`vlc_phy::codec::CodecStack`], routed through
/// [`Frame::encode_parts_with`] / [`Frame::decode_parts_with`]), packed
/// chip streams, and the chip-run/photocurrent/decode scratch — so that a
/// warmed pipeline runs frames (and ARQ retries) with **zero heap
/// allocations** in steady state (`crates/densevlc/tests/e2e_identity.rs`
/// pins this with a counting allocator). Its output is bit-identical to
/// the scalar reference ([`run_scalar`],
/// [`run_concurrent_scalar`]): identical RNG draw order, identical float
/// summation order, identical slicing predicates — so [`E2eResult`]
/// matches exactly, not just statistically (and the trait refactor is
/// pinned against hard-coded pre-refactor values by
/// `pipeline_results_are_pinned_to_pre_codec_stack_values`).
///
/// A frame pays only for work that can change its output:
/// - Render: each host's chip runs are resolved once per frame
///   ([`ChipRuns`]). Only the preamble search region is rendered up front;
///   past it, a slicing window that sits inside one chip of every TX is
///   decided from that one level, and only the other windows are
///   rendered (see `Photodiode`).
/// - Noise: an [`AwgnCursor`] leaves the RNG stream exactly where the
///   eager path does, but draws and evaluates Box–Muller only where a
///   sample is read — the preamble search region, then each slicing
///   window that noise could flip (see `lazy_window_is_high` and its
///   window sum rule). The RNG jumps past the rest when the frame ends,
///   so the next frame starts on the same stream.
/// - Preamble lock: [`PreambleCorrelator`] scores exactly only the start
///   offsets whose score bound can reach the best; the others cannot
///   win, so the lock is the exhaustive scan's.
/// - Slicing: a frame stops at its first pair of equal chips, which no
///   decode accepts, whatever the registry: a live one only adds the
///   `phy.ber` record of a frame that decodes (see `Phy::receive`). Where
///   every stream carries the same chips and no chip boundary cuts a
///   window (Table 5's one-host and NLOS-synced rows), a block of 64
///   windows past the search region is decided from one chip word and
///   pair-checked word-wide: no window is rendered, levelled or noised
///   (the word path of [`slice_chips_packed_by`], see `Photodiode`).
#[derive(Debug)]
pub struct FramePipeline {
    phy: Phy,
    /// The frames in flight: one for [`Self::run`], one per beamspot for
    /// [`Self::run_concurrent`] (capacities persist across frames and
    /// runs).
    sent: Vec<TxFrame>,
    // Per-run scratch, one slot per host in `hosts` order.
    hosts: Vec<usize>,
    loop_phase: Vec<f64>,
    offsets: Vec<f64>,
    /// Chip runs, one slot per host (per beamspot when concurrent).
    runs: Vec<ChipRuns>,
}

impl FramePipeline {
    /// Builds a pipeline for runs at `cfg`'s symbol and sample rates (the
    /// hoisted preamble template is rate-specific; [`Self::run`] asserts
    /// the rates match).
    pub fn new(cfg: &E2eConfig) -> Self {
        let wave_cfg = WaveformConfig {
            symbol_rate_hz: cfg.symbol_rate_hz,
            sample_rate_hz: cfg.sample_rate_hz,
        };
        let (_, pre) = preamble();
        let mut preamble_template = Vec::new();
        render_packed_into(
            pre,
            &wave_cfg,
            1.0,
            0.0,
            (pre.len() as f64 * wave_cfg.samples_per_chip()).round() as usize,
            &mut preamble_template,
        );
        FramePipeline {
            phy: Phy {
                wave_cfg,
                guard: (8.0 * wave_cfg.samples_per_chip()) as usize,
                stack: RsStack::paper(),
                preamble: PreambleCorrelator::new(preamble_template),
                wire: Vec::new(),
                pd: Photodiode::default(),
                payload_rx: Vec::new(),
            },
            sent: Vec::new(),
            hosts: Vec::new(),
            loop_phase: Vec::new(),
            offsets: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn assert_rates(&self, cfg: &E2eConfig) {
        let wave_cfg = &self.phy.wave_cfg;
        assert!(
            cfg.symbol_rate_hz == wave_cfg.symbol_rate_hz
                && cfg.sample_rate_hz == wave_cfg.sample_rate_hz,
            "pipeline was built for different rates"
        );
    }

    /// The packed twin of [`run_scalar`]: same RNG stream,
    /// same physics, same telemetry counters, bit-identical [`E2eResult`] —
    /// but through reusable packed buffers. Packed encode work runs under
    /// the `phy.packed.encode_s` span, chip-run resolution and the render
    /// of the preamble search region under `phy.waveform.render_s`, the
    /// preamble search under `phy.preamble.lock_s`, slice + Manchester
    /// decode (with the render and noise of the windows that need them)
    /// under `phy.packed.decode_s`, the rest of the noise (search region,
    /// then drawing out the frame) under `phy.noise_s`, and the
    /// Reed–Solomon block decode under `phy.rs.block_s`.
    pub fn run(
        &mut self,
        txs: &[E2eTx],
        scheme: &SyncScheme,
        cfg: &E2eConfig,
        frames: usize,
        seed: u64,
        telemetry: &Registry,
    ) -> E2eResult {
        assert!(!txs.is_empty(), "need at least one transmitter");
        assert!(frames > 0, "need at least one frame");
        self.assert_rates(cfg);
        let Self {
            phy,
            sent,
            hosts,
            loop_phase,
            offsets,
            runs,
        } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        let mut awgn = AwgnChannel::new(cfg.noise);

        hosts.clear();
        hosts.extend(txs.iter().map(|t| t.host));
        hosts.sort_unstable();
        hosts.dedup();
        if runs.len() < hosts.len() {
            runs.resize_with(hosts.len(), ChipRuns::new);
        }
        if sent.is_empty() {
            sent.push(TxFrame::default());
        }
        let frame = &mut sent[0];

        // Same persistent loop-phase model (and RNG draws) as the scalar
        // reference: one uniform phase per host, relative to the earliest.
        let chips_per_frame = (Frame::wire_len_with(cfg.payload_len, &phy.stack)
            + PREAMBLE_BYTES.len()) as f64
            * 16.0;
        let frame_duration_s = chips_per_frame / cfg.symbol_rate_hz;
        loop_phase.clear();
        if matches!(scheme, SyncScheme::SyncOff) && hosts.len() > 1 {
            loop_phase.extend(hosts.iter().map(|_| rng.gen_range(0.0..frame_duration_s)));
            let min = loop_phase.iter().copied().fold(f64::INFINITY, f64::min);
            for p in loop_phase.iter_mut() {
                *p -= min;
            }
        } else {
            loop_phase.resize(hosts.len(), 0.0);
        }

        // The TXs in TX order, each on its host's runs.
        phy.pd.light.clear();
        for tx in txs {
            let h = hosts
                .iter()
                .position(|&h| h == tx.host)
                .expect("every TX's host is listed");
            phy.pd.light.push(h, cfg.responsivity * tx.gain * a_opt);
        }
        let mut frames_ok = 0;
        let mut rs_corrections = 0;
        let mut air_time_s = 0.0;
        for _ in 0..frames {
            phy.encode(&mut rng, cfg.payload_len, frame, telemetry);
            let n_samples = frame_samples(cfg, frame.chips.len());
            air_time_s += n_samples as f64 / cfg.sample_rate_hz;

            offsets.clear();
            for &phase in loop_phase.iter() {
                offsets.push(phase + scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng));
            }

            {
                let _render = telemetry.span("phy.waveform.render_s");
                for (host_runs, &offset) in runs.iter_mut().zip(offsets.iter()) {
                    let delay = phy.guard as f64 / cfg.sample_rate_hz + offset;
                    host_runs.resolve(&frame.chips, &phy.wave_cfg, delay, n_samples);
                }
                phy.begin(runs, n_samples);
            }
            if let Some(fixed) = phy.receive(runs, &mut awgn, &mut rng, frame, 0.5, telemetry) {
                frames_ok += 1;
                rs_corrections += fixed;
            }
        }

        let total_time_s = air_time_s + frames as f64 * cfg.turnaround_s;
        let payload_bits = (cfg.payload_len * 8 * frames_ok) as f64;
        E2eResult {
            frames_total: frames,
            frames_ok,
            per: 1.0 - frames_ok as f64 / frames as f64,
            goodput_bps: payload_bits / total_time_s,
            rs_corrections,
        }
    }

    /// The packed twin of [`run_concurrent_scalar`] — bit-identical
    /// per-beamspot results through the reusable buffers.
    pub fn run_concurrent(
        &mut self,
        channel: &vlc_channel::ChannelMatrix,
        beamspots: &[E2eBeamspot],
        cfg: &E2eConfig,
        frames: usize,
        seed: u64,
    ) -> Vec<E2eResult> {
        assert!(!beamspots.is_empty(), "need at least one beamspot");
        assert!(frames > 0, "need at least one frame");
        for spot in beamspots {
            assert!(
                !spot.txs.is_empty(),
                "beamspot for RX{} has no TXs",
                spot.rx
            );
            assert!(
                spot.rx < channel.n_rx(),
                "RX {} outside the channel",
                spot.rx
            );
            for &t in &spot.txs {
                assert!(t < channel.n_tx(), "TX {t} outside the channel");
            }
        }
        self.assert_rates(cfg);
        let Self {
            phy, sent, runs, ..
        } = self;
        let noop = Registry::noop();
        let mut rng = StdRng::seed_from_u64(seed);
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        let mut awgn = AwgnChannel::new(cfg.noise);
        let scheme = SyncScheme::nlos_paper();

        let n = beamspots.len();
        if sent.len() < n {
            sent.resize_with(n, TxFrame::default);
        }
        if runs.len() < n {
            runs.resize_with(n, ChipRuns::new);
        }
        let mut results = vec![
            E2eResult {
                frames_total: frames,
                frames_ok: 0,
                per: 0.0,
                goodput_bps: 0.0,
                rs_corrections: 0,
            };
            n
        ];

        let mut air_time_s = 0.0;
        for _ in 0..frames {
            for frame in &mut sent[..n] {
                phy.encode(&mut rng, cfg.payload_len, frame, &noop);
            }
            let max_chips = sent[..n]
                .iter()
                .map(|frame| frame.chips.len())
                .max()
                .expect("non-empty plan");
            let n_samples = frame_samples(cfg, max_chips);
            air_time_s += n_samples as f64 / cfg.sample_rate_hz;

            // A beamspot's runs depend only on its own stream and offset,
            // so every receiver shares them.
            for (spot_runs, frame) in runs[..n].iter_mut().zip(&sent[..n]) {
                let offset = scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng);
                let delay = phy.guard as f64 / cfg.sample_rate_hz + offset;
                spot_runs.resolve(&frame.chips, &phy.wave_cfg, delay, n_samples);
            }

            for (b, spot) in beamspots.iter().enumerate() {
                phy.pd.light.clear();
                for (other, other_spot) in beamspots.iter().enumerate() {
                    let gain_sum: f64 = other_spot
                        .txs
                        .iter()
                        .map(|&t| channel.gain(t, spot.rx))
                        .sum();
                    if gain_sum > 0.0 {
                        phy.pd
                            .light
                            .push(other, cfg.responsivity * gain_sum * a_opt);
                    }
                }
                phy.begin(runs, n_samples);
                if let Some(fixed) = phy.receive(runs, &mut awgn, &mut rng, &sent[b], 0.3, &noop) {
                    results[b].frames_ok += 1;
                    results[b].rs_corrections += fixed;
                }
            }
        }

        let total_time_s = air_time_s + frames as f64 * cfg.turnaround_s;
        for result in &mut results {
            result.per = 1.0 - result.frames_ok as f64 / frames as f64;
            result.goodput_bps = (cfg.payload_len * 8 * result.frames_ok) as f64 / total_time_s;
        }
        results
    }
}

/// Result of an ARQ (stop-and-wait) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArqResult {
    /// Payloads the application submitted.
    pub payloads_total: usize,
    /// Payloads delivered (decoded and acknowledged) within the retry
    /// budget.
    pub delivered: usize,
    /// Total transmission attempts across all payloads.
    pub attempts: usize,
    /// Application goodput in bit/s, charged for every attempt's air time
    /// plus a WiFi-ACK turnaround per attempt.
    pub goodput_bps: f64,
}

impl ArqResult {
    /// Mean attempts per delivered payload.
    pub fn attempts_per_delivery(&self) -> f64 {
        if self.delivered == 0 {
            f64::INFINITY
        } else {
            self.attempts as f64 / self.delivered as f64
        }
    }
}

/// Runs stop-and-wait ARQ over the single-receiver link: each payload is
/// retransmitted until the frame decodes *and* its WiFi ACK arrives, or
/// `max_retries` retransmissions are spent (paper §7.2: the RX "sends a MAC
/// acknowledgement frame back to the controller using WiFi").
pub fn run_with_arq(
    txs: &[E2eTx],
    scheme: &SyncScheme,
    cfg: &E2eConfig,
    wifi: &vlc_mac::WifiUplink,
    payloads: usize,
    max_retries: usize,
    seed: u64,
) -> ArqResult {
    assert!(payloads > 0, "need at least one payload");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delivered = 0usize;
    let mut attempts = 0usize;
    let mut time_s = 0.0;
    // Frame air time (guard + chips + guard) matches `run`'s accounting.
    let rs = ReedSolomon::paper();
    let chips_per_frame = (Frame::wire_len(cfg.payload_len, &rs) + PREAMBLE_BYTES.len()) * 16;
    let air_s = frame_samples(cfg, chips_per_frame) as f64 / cfg.sample_rate_hz;

    // One pipeline reused across every payload and retry: after the first
    // attempt warms its buffers, retransmissions allocate nothing.
    let mut pipeline = FramePipeline::new(cfg);
    let noop = Registry::noop();
    for p in 0..payloads {
        for attempt in 0..=max_retries {
            attempts += 1;
            time_s += air_s + cfg.turnaround_s;
            // One frame through the physical pipeline (fresh seed per try).
            let try_seed = seed ^ ((p as u64) << 20) ^ (attempt as u64 + 1);
            let ok = pipeline.run(txs, scheme, cfg, 1, try_seed, &noop).frames_ok == 1;
            if !ok {
                continue;
            }
            // The decode succeeded; the ACK must survive the WiFi uplink,
            // otherwise the controller retransmits a delivered frame (a
            // duplicate — delivered either way, but the attempt is spent).
            if wifi.delivery_s(&mut rng).is_some() {
                delivered += 1;
                break;
            } else if attempt == max_retries {
                // Data arrived even though the last ACK was lost.
                delivered += 1;
            }
        }
    }
    ArqResult {
        payloads_total: payloads,
        delivered,
        attempts,
        goodput_bps: (cfg.payload_len * 8 * delivered) as f64 / time_s,
    }
}

/// One beamspot in a concurrent multi-receiver transmission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eBeamspot {
    /// The served receiver (column index of the channel matrix).
    pub rx: usize,
    /// Zero-based TX indices jointly carrying this receiver's stream.
    pub txs: Vec<usize>,
}

/// Runs `frames` *concurrent* transmissions: every beamspot radiates its
/// own frame simultaneously, and each receiver's photodiode sees the
/// superposition of all streams through the full channel matrix — the
/// symbol-level realization of the paper's cell-free MIMO claim, with
/// inter-beamspot interference emerging from the waveforms rather than
/// from Eq. 12.
///
/// Returns one [`E2eResult`] per beamspot, in input order. TXs within a
/// beamspot are assumed NLOS-synchronized; distinct beamspots are mutually
/// asynchronous (they carry different frames anyway).
///
/// # Panics
/// Panics on an empty plan, a beamspot without TXs, or indices outside the
/// channel matrix.
pub fn run_concurrent(
    channel: &vlc_channel::ChannelMatrix,
    beamspots: &[E2eBeamspot],
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
) -> Vec<E2eResult> {
    FramePipeline::new(cfg).run_concurrent(channel, beamspots, cfg, frames, seed)
}

/// The scalar reference implementation of [`run_concurrent`], pinned
/// bit-identical to the packed pipeline by
/// `packed_concurrent_matches_scalar_reference`.
pub fn run_concurrent_scalar(
    channel: &vlc_channel::ChannelMatrix,
    beamspots: &[E2eBeamspot],
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
) -> Vec<E2eResult> {
    assert!(!beamspots.is_empty(), "need at least one beamspot");
    assert!(frames > 0, "need at least one frame");
    for spot in beamspots {
        assert!(
            !spot.txs.is_empty(),
            "beamspot for RX{} has no TXs",
            spot.rx
        );
        assert!(
            spot.rx < channel.n_rx(),
            "RX {} outside the channel",
            spot.rx
        );
        for &t in &spot.txs {
            assert!(t < channel.n_tx(), "TX {t} outside the channel");
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let rs = ReedSolomon::paper();
    let wave_cfg = WaveformConfig {
        symbol_rate_hz: cfg.symbol_rate_hz,
        sample_rate_hz: cfg.sample_rate_hz,
    };
    let preamble_chips = &preamble().0;
    let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
    let mut awgn = AwgnChannel::new(cfg.noise);
    let scheme = SyncScheme::nlos_paper();

    let spc = wave_cfg.samples_per_chip();
    let guard = (8.0 * spc) as usize;
    let mut frames_ok = vec![0usize; beamspots.len()];
    let mut rs_corrections = vec![0usize; beamspots.len()];
    let mut air_time_s = 0.0;
    for _ in 0..frames {
        // Each beamspot gets its own fresh payload and chip stream.
        let mut payloads = Vec::with_capacity(beamspots.len());
        let mut chip_streams = Vec::with_capacity(beamspots.len());
        let mut wire_lens = Vec::with_capacity(beamspots.len());
        for _ in beamspots {
            let payload: Vec<u8> = (0..cfg.payload_len).map(|_| rng.gen()).collect();
            let frame = Frame::new(
                u64::MAX,
                FrameHeader {
                    dst: 1,
                    src: 0,
                    protocol: protocol::DATA,
                },
                payload.clone(),
            );
            let bytes = frame.to_bytes(&rs);
            let mut chips: Vec<Chip> = preamble_chips.clone();
            chips.extend(manchester_encode(&bytes));
            payloads.push(payload);
            wire_lens.push(bytes.len());
            chip_streams.push(chips);
        }
        let max_chips = chip_streams
            .iter()
            .map(Vec::len)
            .max()
            .expect("non-empty plan");
        let n_samples = guard + (max_chips as f64 * spc).ceil() as usize + guard;
        air_time_s += n_samples as f64 / cfg.sample_rate_hz;

        // Per-beamspot start offsets (beamspots are mutually asynchronous;
        // TXs inside one are synchronized by the NLOS pilot).
        let spot_offsets: Vec<f64> = beamspots
            .iter()
            .map(|_| scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng))
            .collect();

        // Each receiver sees every beamspot's waveform through its own
        // channel column.
        for (b, spot) in beamspots.iter().enumerate() {
            let mut photocurrent = vec![0.0f64; n_samples];
            for (other, other_spot) in beamspots.iter().enumerate() {
                let gain_sum: f64 = other_spot
                    .txs
                    .iter()
                    .map(|&t| channel.gain(t, spot.rx))
                    .sum();
                if gain_sum <= 0.0 {
                    continue;
                }
                let amp = cfg.responsivity * gain_sum * a_opt;
                let delay = guard as f64 / cfg.sample_rate_hz + spot_offsets[other];
                let w = render(&chip_streams[other], &wave_cfg, amp, delay, n_samples);
                mix_into(&mut photocurrent, &w);
            }
            for s in photocurrent.iter_mut() {
                *s += awgn.sample(&mut rng);
            }

            let Some((start, score)) =
                correlate_pattern(&photocurrent, &wave_cfg, preamble_chips, 0, 3 * guard)
            else {
                continue;
            };
            if score < 0.3 {
                continue;
            }
            let mac_start = start + (preamble_chips.len() as f64 * spc).round() as usize;
            let Some(mac_chips) =
                slice_chips(&photocurrent, &wave_cfg, mac_start, wire_lens[b] * 16)
            else {
                continue;
            };
            let Some(decoded_bytes) = manchester_decode(&mac_chips) else {
                continue;
            };
            if let Ok((decoded, fixed)) = Frame::from_bytes(&decoded_bytes, &rs) {
                if decoded.payload == payloads[b] {
                    frames_ok[b] += 1;
                    rs_corrections[b] += fixed;
                }
            }
        }
    }

    let total_time_s = air_time_s + frames as f64 * cfg.turnaround_s;
    beamspots
        .iter()
        .enumerate()
        .map(|(b, _)| E2eResult {
            frames_total: frames,
            frames_ok: frames_ok[b],
            per: 1.0 - frames_ok[b] as f64 / frames as f64,
            goodput_bps: (cfg.payload_len * 8 * frames_ok[b]) as f64 / total_time_s,
            rs_corrections: rs_corrections[b],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_testbed::{BbbHostMap, Deployment};

    /// The §8.1 geometry: one RX centered between TX2, TX3, TX8, TX9.
    fn table5_setup() -> (Vec<f64>, BbbHostMap) {
        // RX in the middle of the four TXs (zero-based 1, 2, 7, 8): the
        // grid's TX2 is at (0.75, 0.25), TX3 at (1.25, 0.25), TX8 at
        // (0.75, 0.75), TX9 at (1.25, 0.75) → center (1.0, 0.5).
        let d = Deployment::testbed(&[(1.0, 0.5)]);
        let gains: Vec<f64> = (0..36).map(|t| d.model.channel.gain(t, 0)).collect();
        (gains, BbbHostMap::paper())
    }

    fn two_tx() -> Vec<E2eTx> {
        let (gains, hosts) = table5_setup();
        // TX2 + TX8 (zero-based 1, 7): same BBB.
        vec![
            E2eTx {
                gain: gains[1],
                host: hosts.host_of(1),
            },
            E2eTx {
                gain: gains[7],
                host: hosts.host_of(7),
            },
        ]
    }

    fn four_tx() -> Vec<E2eTx> {
        let (gains, hosts) = table5_setup();
        // TX2, TX8 on one BBB; TX3, TX9 on another.
        vec![
            E2eTx {
                gain: gains[1],
                host: hosts.host_of(1),
            },
            E2eTx {
                gain: gains[7],
                host: hosts.host_of(7),
            },
            E2eTx {
                gain: gains[2],
                host: hosts.host_of(2),
            },
            E2eTx {
                gain: gains[8],
                host: hosts.host_of(8),
            },
        ]
    }

    #[test]
    fn same_host_txs_need_no_sync() {
        // Table 5, row 1: 2 TXs on one BBB — no sync required, low PER.
        let txs = two_tx();
        assert_eq!(txs[0].host, txs[1].host);
        let res = run(
            &txs,
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            30,
            1,
            Probe::off(),
        );
        assert!(res.per < 0.1, "PER {}", res.per);
        assert!(res.goodput_bps > 25e3, "goodput {}", res.goodput_bps);
    }

    #[test]
    fn cross_host_without_sync_destroys_frames() {
        // Table 5, row 2: 4 TXs across two BBBs, no synchronization →
        // (nearly) nothing decodes.
        let res = run(
            &four_tx(),
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            30,
            2,
            Probe::off(),
        );
        assert!(res.per > 0.6, "PER {}", res.per);
    }

    #[test]
    fn nlos_sync_restores_cross_host_transmission() {
        // Table 5, row 3: the same 4 TXs with NLOS-VLC sync → low PER and
        // goodput on par with the 2-TX row.
        let res = run(
            &four_tx(),
            &SyncScheme::nlos_paper(),
            &E2eConfig::default(),
            30,
            3,
            Probe::off(),
        );
        assert!(res.per < 0.1, "PER {}", res.per);
        assert!(res.goodput_bps > 25e3, "goodput {}", res.goodput_bps);
    }

    #[test]
    fn goodput_matches_paper_scale() {
        // Paper: ~33.9 kb/s at 100 Ksym/s after Manchester, RS, header and
        // MAC overheads.
        let res = run(
            &two_tx(),
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            30,
            4,
            Probe::off(),
        );
        assert!(
            (res.goodput_bps - 33_900.0).abs() < 4_000.0,
            "goodput {}",
            res.goodput_bps
        );
    }

    #[test]
    fn ntp_ptp_at_100ksym_is_marginal() {
        // §6.1: NTP/PTP cannot support 100 Ksym/s (max ≈ 14.28 Ksym/s at
        // 10 % overlap): its PER sits well above the NLOS scheme's.
        let ptp = run(
            &four_tx(),
            &SyncScheme::NtpPtp,
            &E2eConfig::default(),
            30,
            5,
            Probe::off(),
        );
        let nlos = run(
            &four_tx(),
            &SyncScheme::nlos_paper(),
            &E2eConfig::default(),
            30,
            5,
            Probe::off(),
        );
        assert!(
            ptp.per > nlos.per + 0.2,
            "ptp {} vs nlos {}",
            ptp.per,
            nlos.per
        );
    }

    #[test]
    fn single_weak_tx_fails_gracefully() {
        // A TX with (almost) no channel produces no decodable frames but
        // the harness still reports a result.
        let txs = vec![E2eTx {
            gain: 1e-12,
            host: 0,
        }];
        let res = run(
            &txs,
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            5,
            6,
            Probe::off(),
        );
        assert_eq!(res.frames_ok, 0);
        assert_eq!(res.per, 1.0);
        assert_eq!(res.goodput_bps, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one transmitter")]
    fn empty_tx_set_panics() {
        run(
            &[],
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            1,
            0,
            Probe::off(),
        );
    }

    #[test]
    fn arq_on_a_clean_link_uses_one_attempt_each() {
        let txs = two_tx();
        let wifi = vlc_mac::WifiUplink {
            loss_probability: 0.0,
            ..vlc_mac::WifiUplink::paper()
        };
        let res = crate::e2e::run_with_arq(
            &txs,
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            &wifi,
            10,
            3,
            201,
        );
        assert_eq!(res.delivered, 10);
        assert_eq!(res.attempts, 10);
        assert!((res.attempts_per_delivery() - 1.0).abs() < 1e-12);
        assert!(res.goodput_bps > 25e3, "goodput {}", res.goodput_bps);
    }

    #[test]
    fn arq_rescues_a_marginal_link_at_a_goodput_cost() {
        // Attenuate the link so single-shot delivery is unreliable; ARQ
        // must recover most payloads at the price of extra attempts.
        let (gains, hosts) = table5_setup();
        let txs = vec![E2eTx {
            // 0.040 puts the link on the PER cliff for the vendored RNG
            // stream (the upstream crates used 0.045; the xoshiro-based
            // stand-in draws a different noise sequence).
            gain: gains[7] * 0.040,
            host: hosts.host_of(7),
        }];
        let cfg = E2eConfig::default();
        let single = run(&txs, &SyncScheme::SyncOff, &cfg, 20, 202, Probe::off());
        let wifi = vlc_mac::WifiUplink::paper();
        let arq = crate::e2e::run_with_arq(&txs, &SyncScheme::SyncOff, &cfg, &wifi, 20, 5, 202);
        let arq_rate = arq.delivered as f64 / arq.payloads_total as f64;
        let single_rate = single.frames_ok as f64 / single.frames_total as f64;
        assert!(
            arq_rate > single_rate,
            "ARQ {arq_rate} vs single-shot {single_rate}"
        );
        assert!(
            arq.attempts > arq.payloads_total,
            "no retransmissions happened"
        );
    }

    #[test]
    fn lost_acks_cost_attempts_not_data() {
        // A very lossy ACK channel triggers duplicate transmissions, but a
        // clean downlink still delivers everything.
        let txs = two_tx();
        let lossy = vlc_mac::WifiUplink {
            loss_probability: 0.6,
            ..vlc_mac::WifiUplink::paper()
        };
        let res = crate::e2e::run_with_arq(
            &txs,
            &SyncScheme::SyncOff,
            &E2eConfig::default(),
            &lossy,
            10,
            4,
            203,
        );
        assert_eq!(res.delivered, 10, "ACK loss must not lose data");
        assert!(res.attempts > 10, "lost ACKs should cost retransmissions");
    }

    #[test]
    fn concurrent_beamspots_all_decode_under_the_controller_plan() {
        // The cell-free claim at symbol level: the Scenario-2 plan's four
        // beamspots transmit *simultaneously* and every receiver decodes
        // its own stream despite the other three radiating.
        use crate::e2e::{run_concurrent, E2eBeamspot};
        use vlc_mac::{Controller, ControllerConfig};
        use vlc_testbed::Scenario;

        let d = Deployment::scenario(Scenario::Two);
        let controller = Controller::new(ControllerConfig::paper(1.2), 36, 4);
        let plan = controller.plan(&d.model.channel, Probe::off());
        let beamspots: Vec<E2eBeamspot> = plan
            .beamspots()
            .into_iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs,
            })
            .collect();
        assert_eq!(beamspots.len(), 4);
        let results = run_concurrent(&d.model.channel, &beamspots, &E2eConfig::default(), 12, 71);
        for (spot, res) in beamspots.iter().zip(&results) {
            assert!(
                res.per < 0.2,
                "RX{} PER {} under concurrent beamspots",
                spot.rx + 1,
                res.per
            );
        }
    }

    #[test]
    fn cross_assigned_beamspots_jam_each_other() {
        // Anti-plan: swap two receivers' beamspots so each RX is hammered
        // by a stream meant for the other — concurrent decoding collapses.
        use crate::e2e::{run_concurrent, E2eBeamspot};
        use vlc_mac::{Controller, ControllerConfig};
        use vlc_testbed::Scenario;

        let d = Deployment::scenario(Scenario::Three);
        let controller = Controller::new(ControllerConfig::paper(0.6), 36, 4);
        let plan = controller.plan(&d.model.channel, Probe::off());
        let mut beamspots: Vec<E2eBeamspot> = plan
            .beamspots()
            .into_iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs,
            })
            .collect();
        assert!(beamspots.len() >= 2);
        // Swap the receivers of the first two beamspots.
        let rx0 = beamspots[0].rx;
        beamspots[0].rx = beamspots[1].rx;
        beamspots[1].rx = rx0;
        let results = run_concurrent(&d.model.channel, &beamspots, &E2eConfig::default(), 8, 72);
        assert!(
            results[0].per > 0.5 || results[1].per > 0.5,
            "cross-assignment should jam at least one stream: {results:?}"
        );
    }

    #[test]
    fn preamble_hoist_matches_fresh_encoding() {
        // The hoisted preamble shared by every run* call site must equal a
        // fresh scalar encoding, and its packed twin must match chip for
        // chip — the regression guard for the once-per-process hoist.
        let (scalar, packed) = super::preamble();
        assert_eq!(scalar, &manchester_encode(&PREAMBLE_BYTES));
        assert_eq!(&packed.to_chips(), scalar);
    }

    #[test]
    fn packed_run_matches_scalar_reference() {
        // The pipeline must be bit-identical to the scalar path — not just
        // statistically close — across clean, marginal, unsynchronized, and
        // preamble-missing regimes, under both registries.
        let cfg = E2eConfig::default();
        let (gains, hosts) = table5_setup();
        let marginal = vec![E2eTx {
            gain: gains[7] * 0.040,
            host: hosts.host_of(7),
        }];
        let weak = vec![E2eTx {
            gain: 1e-12,
            host: 0,
        }];
        let two = two_tx();
        let four = four_tx();
        // Around the lazy-noise skip edge: one TX whose level sits at
        // 37.0σ (never skipped), 37.7σ (the bound itself, never skipped)
        // and 38.5σ (every clean window skipped).
        let [at_37_0, at_37_7, at_38_5] =
            [37.0, 37.7, 38.5].map(|k| vec![tx_at_sigmas(&cfg, k, 0)]);
        // Two hosts at 20σ each under NLOS sync: their sub-chip skew
        // leaves windows that straddle a transition, partly at ±0.
        let skewed = vec![tx_at_sigmas(&cfg, 20.0, 0), tx_at_sigmas(&cfg, 20.0, 1)];
        let cases: Vec<(&[E2eTx], SyncScheme, u64)> = vec![
            (&two, SyncScheme::SyncOff, 1),
            (&four, SyncScheme::SyncOff, 2),
            (&four, SyncScheme::nlos_paper(), 3),
            (&four, SyncScheme::NtpPtp, 5),
            (&marginal, SyncScheme::SyncOff, 202),
            (&weak, SyncScheme::SyncOff, 6),
            (&at_37_0, SyncScheme::SyncOff, 7),
            (&at_37_7, SyncScheme::SyncOff, 8),
            (&at_38_5, SyncScheme::SyncOff, 9),
            (&skewed, SyncScheme::nlos_paper(), 10),
        ];
        for (txs, scheme, seed) in cases {
            assert_pipeline_matches_scalar(txs, &scheme, &cfg, 12, seed);
        }
        // A fractional samples-per-chip (10.3) takes the non-integer
        // render, window and air-time paths.
        let fractional = fractional_rate();
        for (txs, scheme, seed) in [
            (&two, SyncScheme::SyncOff, 11u64),
            (&four, SyncScheme::nlos_paper(), 12),
            (&four, SyncScheme::NtpPtp, 13),
            (&at_38_5, SyncScheme::SyncOff, 13),
        ] {
            assert_pipeline_matches_scalar(txs, &scheme, &fractional, 6, seed);
        }
    }

    #[test]
    fn early_exit_matches_scalar_reference_at_its_edges() {
        // Frames that break where the early exit has to be exact: at the
        // first pair, only at the last pair, and before a window that
        // runs past the frame. Each edge is first confirmed on the scalar
        // reference's own slicer (`scalar_fates`). At 1 Msym/s and 10
        // samples per chip, NTP/PTP's start error spans several chips.
        let cfg = E2eConfig::default();
        let fast = E2eConfig {
            symbol_rate_hz: 1e6,
            sample_rate_hz: 1e7,
            ..E2eConfig::default()
        };
        let four = four_tx();
        let uneven = vec![tx_at_sigmas(&cfg, 20.0, 0), tx_at_sigmas(&cfg, 22.0, 1)];
        let last_pair = Frame::wire_len(cfg.payload_len, &ReedSolomon::paper()) * 8 - 1;
        let first = |f: &Fate| !f.short && f.broken_pairs().first() == Some(&0);
        let last = |f: &Fate| !f.short && f.broken_pairs() == [last_pair];
        let short = |f: &Fate| f.short && !f.broken_pairs().is_empty();
        let check = |txs: &[E2eTx],
                     scheme: SyncScheme,
                     cfg: &E2eConfig,
                     seed,
                     edge: &dyn Fn(&Fate) -> bool| {
            let fates = scalar_fates(txs, &scheme, cfg, 2, seed);
            assert!(
                fates.iter().flatten().any(edge),
                "seed {seed} no longer reaches its edge"
            );
            assert_pipeline_matches_scalar(txs, &scheme, cfg, 2, seed);
        };
        check(&four, SyncScheme::NtpPtp, &cfg, 5, &first);
        check(&four, SyncScheme::NtpPtp, &fast, 1, &first);
        check(&uneven, SyncScheme::SyncOff, &cfg, 133_699, &last);
        check(&four, SyncScheme::NtpPtp, &fast, 949, &last);
        check(&four, SyncScheme::NtpPtp, &fast, 73, &short);
    }

    #[test]
    fn early_exit_matches_scalar_reference_concurrently() {
        // RX0 hears its own stream and RX1's at the same amplitude, nearly
        // aligned: wherever the chips differ the clean level is exactly 0,
        // so noise breaks a pair soon after the payloads part. RX1 hears
        // only its own stream and decodes.
        let g = tx_at_sigmas(&E2eConfig::default(), 20.0, 0).gain;
        let channel = vlc_channel::ChannelMatrix::from_gains(2, 2, vec![g, 0.0, g, g]);
        let beamspots = [
            E2eBeamspot {
                rx: 0,
                txs: vec![0],
            },
            E2eBeamspot {
                rx: 1,
                txs: vec![1],
            },
        ];
        for cfg in [E2eConfig::default(), fractional_rate()] {
            let packed = run_concurrent(&channel, &beamspots, &cfg, 4, 81);
            let scalar = run_concurrent_scalar(&channel, &beamspots, &cfg, 4, 81);
            assert_eq!(packed, scalar, "{} samples/s", cfg.sample_rate_hz);
            assert_eq!(
                (packed[0].frames_ok, packed[1].frames_ok),
                (0, 4),
                "{} samples/s",
                cfg.sample_rate_hz
            );
        }
    }

    /// The eager slicer's decision on `window` under the first
    /// `window.len()` samples of a `sigma` channel seeded with `seed`,
    /// next to [`lazy_window_is_high`]'s on the same draws; also whether
    /// the lazy path drew noise into the window.
    fn lazy_vs_eager(window: &[f64], sigma: f64, seed: u64) -> (bool, bool, bool) {
        let mut eager: Vec<f64> = window.to_vec();
        let mut awgn = AwgnChannel::with_sigma(sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for s in eager.iter_mut() {
            *s += awgn.sample(&mut rng);
        }
        let want = eager.iter().sum::<f64>() >= 0.0;
        let mut lazy = window.to_vec();
        let mut awgn = AwgnChannel::with_sigma(sigma);
        let bound = awgn.bound();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise = awgn.cursor(&mut rng, lazy.len());
        let got = lazy_window_is_high(&mut lazy, &mut noise, bound, 0, window.len());
        noise.finish();
        (want, got, lazy != window)
    }

    #[test]
    fn sum_rule_decides_exactly_at_its_margin() {
        // `[L, −L, x]` sums to exactly `x` while the large `L` makes δ,
        // the rounding term, thousands of times the noise bound. With `x`
        // a few ulps either side of `n·b + δ`, the windows beyond it are
        // decided clean (no noise drawn) and the rest take their noise;
        // both match the eager slicer.
        let sigma = 1.5;
        let bound = AwgnChannel::with_sigma(sigma).bound();
        for big in [2f64.powi(40), 2f64.powi(52), 2f64.powi(60)] {
            // `x` sits at the threshold of its own window: iterate the
            // threshold's weak dependence on `|x|` to a fixed point.
            let mut x = 3.0 * bound;
            for _ in 0..4 {
                x = sum_rule_threshold(3, big + big + x, bound);
            }
            let mut sides = [false; 2];
            for ulps in -3i32..=3 {
                let mut xk = x;
                for _ in 0..ulps.abs() {
                    xk = if ulps > 0 {
                        xk.next_up()
                    } else {
                        xk.next_down()
                    };
                }
                for sign in [1.0, -1.0] {
                    let window = [big, -big, sign * xk];
                    let abs_sum = window.iter().fold(0.0, |a, x: &f64| a + x.abs());
                    let beyond = xk > sum_rule_threshold(3, abs_sum, bound);
                    sides[usize::from(beyond)] = true;
                    for seed in 0..4 {
                        let (want, got, noised) = lazy_vs_eager(&window, sigma, seed);
                        assert_eq!(got, want, "L {big} x {xk} sign {sign} seed {seed}");
                        assert_eq!(noised, !beyond, "L {big} x {xk} sign {sign}");
                    }
                }
            }
            assert_eq!(sides, [true; 2], "L {big}: windows on one side only");
        }
    }

    #[test]
    fn sum_rule_margin_covers_the_noisy_sum_rounding() {
        // `[L, t, −L, −e]` with `L = 2^60` (ulp 256): the clean sum is
        // `fl(L + 129) − L − 25 = 231`, past `n·b = 4 · 37.7 · 1.5 = 226.2`.
        // Noise moves `t` below 128 in about a quarter of the draws; then
        // `L + fl(t + z)` rounds back to `L` and the noisy sum is
        // `−25 + z'`, negative unless `z'` exceeds 16σ. Only δ keeps such
        // windows from being decided by their clean sum: without it this
        // test fails.
        let big = 2f64.powi(60);
        let window = [big, 129.0, -big, -25.0];
        let mut lows = 0;
        for seed in 0..64 {
            let (want, got, _) = lazy_vs_eager(&window, 1.5, seed);
            assert_eq!(got, want, "seed {seed}");
            lows += usize::from(!want);
        }
        assert!(lows > 0, "no draw exercised the rounding flip");
    }

    /// Runs one pipeline under a no-op and then a live registry and
    /// asserts both match [`run_scalar`]: the result, and under the live
    /// registry every counter either path sets and the `phy.ber`
    /// histogram (count and sum bits, which pin every sliced chip).
    fn assert_pipeline_matches_scalar(
        txs: &[E2eTx],
        scheme: &SyncScheme,
        cfg: &E2eConfig,
        frames: usize,
        seed: u64,
    ) {
        let case = format!(
            "scheme {scheme:?}, {} samples/s, seed {seed}",
            cfg.sample_rate_hz
        );
        let scalar_reg = Registry::new();
        let scalar = run_scalar(txs, scheme, cfg, frames, seed, &scalar_reg);
        let mut pipeline = FramePipeline::new(cfg);
        let noop = pipeline.run(txs, scheme, cfg, frames, seed, &Registry::noop());
        assert_eq!(noop, scalar, "no-op registry: {case}");
        let live_reg = Registry::new();
        let live = pipeline.run(txs, scheme, cfg, frames, seed, &live_reg);
        assert_eq!(live, scalar, "live registry: {case}");
        let (want, got) = (scalar_reg.snapshot(), live_reg.snapshot());
        for (name, _) in want.counters.iter().chain(&got.counters) {
            assert_eq!(
                got.counter(name).unwrap_or(0),
                want.counter(name).unwrap_or(0),
                "{name}: {case}"
            );
        }
        let ber = |s: &vlc_telemetry::MetricsSnapshot| {
            s.histogram("phy.ber").map(|h| (h.count, h.sum.to_bits()))
        };
        assert_eq!(ber(&got), ber(&want), "phy.ber: {case}");
    }

    /// What the scalar reference's slicer cuts from one locked frame.
    #[derive(Debug)]
    struct Fate {
        /// The MAC chips cut before the first window past the frame.
        chips: Vec<Chip>,
        /// Whether such a window came (the scalar slicer's `None`).
        short: bool,
    }

    impl Fate {
        /// The Manchester pairs holding two equal chips, in order.
        fn broken_pairs(&self) -> Vec<usize> {
            self.chips
                .chunks_exact(2)
                .enumerate()
                .filter(|(_, pair)| pair[0] == pair[1])
                .map(|(k, _)| k)
                .collect()
        }
    }

    /// Replays [`run_scalar`] on the same RNG stream with the same scalar
    /// kernels up to its slicer, and reports per frame what the slicer
    /// cuts (`None`: the preamble missed). The slicer runs on past the
    /// first broken pair and records where the frame runs out.
    fn scalar_fates(
        txs: &[E2eTx],
        scheme: &SyncScheme,
        cfg: &E2eConfig,
        frames: usize,
        seed: u64,
    ) -> Vec<Option<Fate>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::paper();
        let wave_cfg = WaveformConfig {
            symbol_rate_hz: cfg.symbol_rate_hz,
            sample_rate_hz: cfg.sample_rate_hz,
        };
        let preamble_chips = &preamble().0;
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        let mut awgn = AwgnChannel::new(cfg.noise);
        let mut hosts: Vec<usize> = txs.iter().map(|t| t.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        let chips_per_frame =
            (Frame::wire_len(cfg.payload_len, &rs) + PREAMBLE_BYTES.len()) as f64 * 16.0;
        let frame_duration_s = chips_per_frame / cfg.symbol_rate_hz;
        let mut loop_phase = vec![0.0; hosts.len()];
        if matches!(scheme, SyncScheme::SyncOff) && hosts.len() > 1 {
            for p in loop_phase.iter_mut() {
                *p = rng.gen_range(0.0..frame_duration_s);
            }
            let min = loop_phase.iter().copied().fold(f64::INFINITY, f64::min);
            for p in loop_phase.iter_mut() {
                *p -= min;
            }
        }
        let header = FrameHeader {
            dst: 1,
            src: 0,
            protocol: protocol::DATA,
        };
        (0..frames)
            .map(|_| {
                let payload: Vec<u8> = (0..cfg.payload_len).map(|_| rng.gen()).collect();
                let bytes = Frame::new(u64::MAX, header, payload).to_bytes(&rs);
                let mut chips = preamble_chips.clone();
                chips.extend(manchester_encode(&bytes));
                let spc = wave_cfg.samples_per_chip();
                let guard = (8.0 * spc) as usize;
                let n_samples = frame_samples(cfg, chips.len());
                let offsets: Vec<f64> = loop_phase
                    .iter()
                    .map(|p| p + scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng))
                    .collect();
                let mut photocurrent = vec![0.0f64; n_samples];
                for tx in txs {
                    let h = hosts.iter().position(|&h| h == tx.host).expect("host");
                    let amp = cfg.responsivity * tx.gain * a_opt;
                    let delay = guard as f64 / cfg.sample_rate_hz + offsets[h];
                    mix_into(
                        &mut photocurrent,
                        &render(&chips, &wave_cfg, amp, delay, n_samples),
                    );
                }
                for s in photocurrent.iter_mut() {
                    *s += awgn.sample(&mut rng);
                }
                let (start, score) =
                    correlate_pattern(&photocurrent, &wave_cfg, preamble_chips, 0, 3 * guard)?;
                if score < 0.5 {
                    return None;
                }
                let mac_start = start + (preamble_chips.len() as f64 * spc).round() as usize;
                let mut fate = Fate {
                    chips: Vec::new(),
                    short: false,
                };
                for k in 0..bytes.len() * 16 {
                    let begin = mac_start as f64 + k as f64 * spc;
                    let lo = (begin + 0.25 * spc).floor() as usize;
                    let hi = (begin + 0.75 * spc).ceil() as usize;
                    if hi > n_samples || lo >= hi {
                        fate.short = true;
                        break;
                    }
                    let mean = photocurrent[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
                    fate.chips
                        .push(if mean >= 0.0 { Chip::High } else { Chip::Low });
                }
                Some(fate)
            })
            .collect()
    }

    /// A TX on `host` whose received level is `k` noise standard
    /// deviations.
    fn tx_at_sigmas(cfg: &E2eConfig, k: f64, host: usize) -> E2eTx {
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        E2eTx {
            gain: k * cfg.noise.noise_rms() / (cfg.responsivity * a_opt),
            host,
        }
    }

    /// The default link sampled at 10.3 samples per chip.
    fn fractional_rate() -> E2eConfig {
        E2eConfig {
            sample_rate_hz: 1_030_000.0,
            ..E2eConfig::default()
        }
    }

    #[test]
    fn arq_charges_the_air_time_run_charges() {
        // At 10.3 samples per chip, 8·spc is fractional: ARQ used to charge
        // `ceil(16·spc + chips·spc)` samples per attempt against `run`'s
        // `2·floor(8·spc) + ceil(chips·spc)`. One clean payload with a
        // lossless ACK costs exactly one `run` frame.
        let cfg = fractional_rate();
        let txs = two_tx();
        let wifi = vlc_mac::WifiUplink {
            loss_probability: 0.0,
            ..vlc_mac::WifiUplink::paper()
        };
        let seed = 301;
        let arq = run_with_arq(&txs, &SyncScheme::SyncOff, &cfg, &wifi, 1, 0, seed);
        // ARQ's first attempt of payload 0 runs the pipeline on this seed.
        let single = run(&txs, &SyncScheme::SyncOff, &cfg, 1, seed ^ 1, Probe::off());
        assert_eq!((arq.delivered, single.frames_ok), (1, 1));
        assert_eq!(arq.goodput_bps, single.goodput_bps);
    }

    #[test]
    fn packed_pipeline_reuse_is_bit_identical() {
        // A single pipeline reused across runs (the ARQ pattern) must give
        // the same results as a fresh pipeline per run.
        let cfg = E2eConfig::default();
        let txs = two_tx();
        let mut pipeline = FramePipeline::new(&cfg);
        let noop = Registry::noop();
        for seed in [9u64, 10, 11] {
            let reused = pipeline.run(&txs, &SyncScheme::SyncOff, &cfg, 5, seed, &noop);
            let fresh = run(&txs, &SyncScheme::SyncOff, &cfg, 5, seed, Probe::off());
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn packed_concurrent_matches_scalar_reference() {
        use crate::e2e::{run_concurrent, run_concurrent_scalar, E2eBeamspot};
        use vlc_mac::{Controller, ControllerConfig};
        use vlc_testbed::Scenario;

        let d = Deployment::scenario(Scenario::Two);
        let controller = Controller::new(ControllerConfig::paper(1.2), 36, 4);
        let plan = controller.plan(&d.model.channel, Probe::off());
        let beamspots: Vec<E2eBeamspot> = plan
            .beamspots()
            .into_iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs,
            })
            .collect();
        for cfg in [E2eConfig::default(), fractional_rate()] {
            let packed = run_concurrent(&d.model.channel, &beamspots, &cfg, 4, 71);
            let scalar = run_concurrent_scalar(&d.model.channel, &beamspots, &cfg, 4, 71);
            assert_eq!(packed, scalar, "{} samples/s", cfg.sample_rate_hz);
        }
    }

    #[test]
    fn packed_run_emits_the_same_telemetry_counters() {
        // Same counters, same values: the packed path must be
        // observationally identical, not only in its E2eResult.
        let cfg = E2eConfig::default();
        let (gains, hosts) = table5_setup();
        let marginal = vec![E2eTx {
            gain: gains[7] * 0.040,
            host: hosts.host_of(7),
        }];
        for (txs, scheme, seed) in [
            (two_tx(), SyncScheme::SyncOff, 1u64),
            (four_tx(), SyncScheme::SyncOff, 2),
            (four_tx(), SyncScheme::nlos_paper(), 3),
            (marginal, SyncScheme::SyncOff, 202),
            (vec![tx_at_sigmas(&cfg, 37.0, 0)], SyncScheme::SyncOff, 7),
        ] {
            let reg_packed = Registry::new();
            let reg_scalar = Registry::new();
            run(
                &txs,
                &scheme,
                &cfg,
                10,
                seed,
                Probe {
                    telemetry: &reg_packed,
                    ..Probe::off()
                },
            );
            run_scalar(&txs, &scheme, &cfg, 10, seed, &reg_scalar);
            for name in [
                "phy.frames_encoded",
                "phy.frames_decoded",
                "phy.rs_symbols_corrected",
                "phy.rs_uncorrectable",
                "phy.frame_sync_errors",
                "phy.preamble_misses",
                "phy.frames_bad_payload",
            ] {
                assert_eq!(
                    reg_packed.counter(name).get(),
                    reg_scalar.counter(name).get(),
                    "{name} diverged for scheme {scheme:?} seed {seed}"
                );
            }
            // Each sliced frame's raw chip error fraction: equal counts and
            // a bitwise-equal sum pin every chip decision.
            let ber_packed = reg_packed.histogram("phy.ber").snapshot();
            let ber_scalar = reg_scalar.histogram("phy.ber").snapshot();
            assert_eq!(
                (ber_packed.count, ber_packed.sum.to_bits()),
                (ber_scalar.count, ber_scalar.sum.to_bits()),
                "phy.ber diverged for scheme {scheme:?} seed {seed}"
            );
        }
    }

    #[test]
    fn ber_counts_only_the_frames_that_reach_the_rs_decoder() {
        // Table 5's rows 2 and 3: four TXs on two hosts, without and with
        // sync. Without it, the hosts' offsets break a Manchester pair in
        // every locked frame; those frames stop slicing there, traced or
        // not, and record no `phy.ber`. With it, most frames decode.
        let cfg = E2eConfig::default();
        let frames = 40;
        let mut pipeline = FramePipeline::new(&cfg);
        for (scheme, seed) in [
            (SyncScheme::SyncOff, 42 ^ 1),
            (SyncScheme::nlos_paper(), 42 ^ 2),
        ] {
            let untraced = pipeline.run(&four_tx(), &scheme, &cfg, frames, seed, &Registry::noop());
            let reg = Registry::new();
            let traced = pipeline.run(&four_tx(), &scheme, &cfg, frames, seed, &reg);
            assert_eq!(traced, untraced, "{scheme:?}");
            let snap = reg.snapshot();
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            let ber = snap.histogram("phy.ber").map_or(0, |h| h.count);
            let reached_rs = counter("phy.frames_decoded") + counter("phy.rs_uncorrectable");
            assert_eq!(
                ber, reached_rs,
                "{scheme:?}: phy.ber counts the RS decoder's frames"
            );
            let locked = frames as u64 - counter("phy.preamble_misses");
            match scheme {
                SyncScheme::SyncOff => assert!(
                    ber < locked,
                    "a locked frame broke a pair: {ber} of {locked} recorded"
                ),
                _ => assert!(ber > 0, "{scheme:?}: no frame reached the RS decoder"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "no TXs")]
    fn concurrent_empty_beamspot_panics() {
        use crate::e2e::{run_concurrent, E2eBeamspot};
        let d = Deployment::testbed(&[(1.0, 0.5)]);
        run_concurrent(
            &d.model.channel,
            &[E2eBeamspot { rx: 0, txs: vec![] }],
            &E2eConfig::default(),
            1,
            0,
        );
    }

    /// A decider that records the first window of each block its inner
    /// decider decides whole.
    struct Recording<'r, D> {
        inner: D,
        blocks: &'r mut Vec<usize>,
    }

    impl<D: ChipDecider> ChipDecider for Recording<'_, D> {
        fn decide(&mut self, lo: usize, hi: usize) -> bool {
            self.inner.decide(lo, hi)
        }

        fn decide_block(&mut self, block: WindowBlock) -> Option<u64> {
            let word = self.inner.decide_block(block);
            if word.is_some() {
                self.blocks.push(block.lo);
            }
            word
        }
    }

    /// One photodiode's frame for the word-path tests: the streams it
    /// hears and where its slicer cuts them, at unit noise σ.
    #[derive(Debug, Clone)]
    struct WordCase {
        /// Per stream: its chips, the rates it is rendered at (a chip rate
        /// off the receiver's drifts against its windows) and its delay in
        /// seconds.
        streams: Vec<(Vec<Chip>, WaveformConfig, f64)>,
        /// The TXs in TX order: stream and amplitude.
        txs: Vec<(usize, f64)>,
        /// The receiver's rates.
        rx: WaveformConfig,
        n_samples: usize,
        search_len: usize,
        mac_start: usize,
        n_chips: usize,
    }

    /// What a slicing pass over a [`WordCase`] leaves behind.
    #[derive(Debug, PartialEq)]
    struct Pass {
        outcome: Sliced,
        chips: Vec<Chip>,
        /// The next noise sample's bits and the next RNG word once the
        /// frame's noise is drawn out.
        next: (u64, u64),
    }

    /// The guard before chip 0 in a [`WordCase`], in samples.
    const WORD_GUARD: usize = 80;

    impl WordCase {
        /// `n_chips` chips of a Manchester-coded random payload, sliced at
        /// 10 samples per chip from sample `WORD_GUARD`, where chip 0 of a
        /// stream delayed by `0` samples starts. Each TX `(delay, amp)`
        /// gets a stream of its own. The search region ends before the
        /// first window, and the frame ends `WORD_GUARD` samples after the
        /// last chip.
        fn new(n_chips: usize, txs: &[(f64, f64)]) -> Self {
            let rx = WaveformConfig::paper();
            let mut rng = StdRng::seed_from_u64(n_chips as u64);
            let bytes: Vec<u8> = (0..n_chips.div_ceil(16)).map(|_| rng.gen()).collect();
            let mut chips = manchester_encode(&bytes);
            chips.truncate(n_chips);
            WordCase {
                streams: txs
                    .iter()
                    .map(|&(delay, _)| {
                        let delay_s = (WORD_GUARD as f64 + delay) / rx.sample_rate_hz;
                        (chips.clone(), rx, delay_s)
                    })
                    .collect(),
                txs: txs.iter().enumerate().map(|(s, &(_, a))| (s, a)).collect(),
                rx,
                n_samples: WORD_GUARD + 10 * n_chips + WORD_GUARD,
                search_len: WORD_GUARD,
                mac_start: WORD_GUARD,
                n_chips,
            }
        }

        /// The receiver's window `k`, as the slicer cuts it.
        fn window(&self, k: usize) -> (usize, usize) {
            let spc = self.rx.samples_per_chip();
            let begin = self.mac_start as f64 + k as f64 * spc;
            (
                (begin + 0.25 * spc).floor() as usize,
                (begin + 0.75 * spc).ceil() as usize,
            )
        }

        fn runs(&self) -> Vec<ChipRuns> {
            self.streams
                .iter()
                .map(|(chips, cfg, delay)| {
                    let mut runs = ChipRuns::new();
                    runs.resolve(&PackedChips::from_chips(chips), cfg, *delay, self.n_samples);
                    runs
                })
                .collect()
        }

        /// One `Phy::receive`-style pass: the search region noised, the
        /// MAC chips sliced through `Windows` (`word_path`) or window by
        /// window through `Photodiode::window_is_high`, the noise drawn
        /// out. Also returns the photocurrent's bits and how far it is
        /// rendered, and the chip index of each block decided whole.
        fn pass(&self, seed: u64, word_path: bool) -> (Pass, (usize, Vec<u64>), Vec<usize>) {
            let n = self.n_samples;
            let runs = self.runs();
            let mut pd = Photodiode::default();
            for &(s, amp) in &self.txs {
                pd.light.push(s, amp);
            }
            pd.begin(&runs, n, self.search_len);
            let mut awgn = AwgnChannel::with_sigma(1.0);
            let bound = awgn.bound();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut noise = awgn.cursor(&mut rng, n);
            noise.add_to(&mut pd.samples, 0, self.search_len);
            let mut sliced = PackedChips::new();
            let mut blocks = Vec::new();
            let (rx, start, n_chips) = (&self.rx, self.mac_start, self.n_chips);
            let outcome = if word_path {
                let windows = Windows {
                    pd: &mut pd,
                    runs: &runs,
                    noise: &mut noise,
                    bound,
                };
                let decider = Recording {
                    inner: windows,
                    blocks: &mut blocks,
                };
                slice_chips_packed_by(n, rx, start, n_chips, &mut sliced, decider)
            } else {
                slice_chips_packed_by(n, rx, start, n_chips, &mut sliced, |lo, hi| {
                    pd.window_is_high(&runs, &mut noise, bound, lo, hi)
                })
            };
            noise.finish();
            let next = (awgn.sample(&mut rng).to_bits(), rng.gen());
            let (lo0, _) = self.window(0);
            let stride = self.rx.samples_per_chip() as usize;
            let pass = Pass {
                outcome,
                chips: sliced.to_chips(),
                next,
            };
            let photocurrent = pd.samples.iter().map(|x| x.to_bits()).collect();
            let blocks = blocks.iter().map(|lo| (lo - lo0) / stride).collect();
            (pass, (pd.rendered_to, photocurrent), blocks)
        }

        /// The scalar oracle's kernels on the same frame: each TX's
        /// `render` mixed in TX order, every sample noised, `slice_chips`
        /// up to the first window past the frame, cut after the first
        /// broken pair.
        fn eager(&self, seed: u64) -> Pass {
            let n = self.n_samples;
            let mut photocurrent = vec![0.0; n];
            for &(s, amp) in &self.txs {
                let (chips, cfg, delay) = &self.streams[s];
                mix_into(&mut photocurrent, &render(chips, cfg, amp, *delay, n));
            }
            let mut awgn = AwgnChannel::with_sigma(1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            for x in photocurrent.iter_mut() {
                *x += awgn.sample(&mut rng);
            }
            let next = (awgn.sample(&mut rng).to_bits(), rng.gen());
            let chips = (0..=self.n_chips)
                .rev()
                .find_map(|m| slice_chips(&photocurrent, &self.rx, self.mac_start, m))
                .expect("zero chips always slice");
            let (outcome, chips) = match chips.chunks_exact(2).position(|p| p[0] == p[1]) {
                Some(pair) => (Sliced::BrokenPair, chips[..2 * pair + 2].to_vec()),
                None if chips.len() == self.n_chips => (Sliced::Whole, chips),
                None => (Sliced::Short, Vec::new()),
            };
            Pass {
                outcome,
                chips,
                next,
            }
        }

        /// Slices the frame through the word path and window by window
        /// and asserts both leave the same outcome, chips, RNG state and
        /// photocurrent, and that the scalar kernels cut the same chips.
        /// Returns the word path's pass and the blocks it decided whole.
        fn check(&self, seed: u64) -> (Pass, Vec<usize>) {
            let (word, word_pd, blocks) = self.pass(seed, true);
            let (per_chip, per_chip_pd, none) = self.pass(seed, false);
            assert!(none.is_empty(), "a closure decides window by window");
            assert_eq!(word, per_chip, "word path vs per-chip path, seed {seed}");
            assert_eq!(word_pd.0, per_chip_pd.0, "rendered_to, seed {seed}");
            assert!(word_pd.1 == per_chip_pd.1, "photocurrent, seed {seed}");
            assert_eq!(
                word,
                self.eager(seed),
                "word path vs scalar kernels, seed {seed}"
            );
            (word, blocks)
        }
    }

    #[test]
    fn word_path_decides_clean_blocks_whole() {
        // One TX, and three TXs a sample or two apart (the NLOS-synced
        // row's sub-chip offsets, a fractional one among them), at 128,
        // 129 and 191 chips: every block is decided whole, the final
        // 1- and 63-chip blocks included.
        for n_chips in [128, 129, 191] {
            let blocks: Vec<usize> = (0..n_chips).step_by(64).collect();
            for txs in [
                &[(0.0, 50.0)][..],
                &[(0.0, 20.0), (1.0, 20.0), (-1.575, 20.0)],
                &[(2.0, 14.0), (-2.0, 14.0), (0.0, 14.0)],
            ] {
                let case = WordCase::new(n_chips, txs);
                for seed in 0..3 {
                    let (pass, decided) = case.check(seed);
                    assert_eq!(pass.outcome, Sliced::Whole, "{n_chips} chips, {txs:?}");
                    assert_eq!(decided, blocks, "{n_chips} chips, {txs:?}");
                }
            }
        }
    }

    #[test]
    fn word_path_falls_back_where_its_proof_fails() {
        let n_chips = 192;
        let seeds = 0..4;

        // A stream 3 samples late starts each chip one sample inside its
        // window: no block is decided.
        let late = WordCase::new(n_chips, &[(0.0, 30.0), (3.0, 30.0)]);
        for seed in seeds.clone() {
            assert_eq!(late.check(seed).1, [] as [usize; 0]);
        }

        // A stream whose chip rate runs 0.16 % slow starts chip 63 one
        // sample inside window 63, and every chip before it after its
        // window: block 0 is clean up to its last window.
        let mut drift = WordCase::new(n_chips, &[(0.0, 30.0), (1.0, 30.0)]);
        drift.streams[1].1.symbol_rate_hz = 1e6 / 10.016;
        let runs = drift.runs();
        let mut light = Superposition::new();
        light.push(0, 30.0);
        light.push(1, 30.0);
        let block = |n| WindowBlock {
            lo: drift.window(0).0,
            stride: 10,
            width: 6,
            n,
        };
        assert!(light.clone().word(&runs, block(63)).is_some());
        assert_eq!(light.word(&runs, block(64)), None);
        for seed in seeds.clone() {
            assert!(!drift.check(seed).1.contains(&0), "seed {seed}");
        }

        // One stream's chip 70 differs, at the level of the other: the
        // window's level is 0, so noise decides it, and block 1 is not
        // decided whole.
        let mut differ = WordCase::new(n_chips, &[(0.0, 30.0), (0.0, 30.0)]);
        let chip = &mut differ.streams[1].0[70];
        *chip = if *chip == Chip::High {
            Chip::Low
        } else {
            Chip::High
        };
        for seed in seeds.clone() {
            let (pass, decided) = differ.check(seed);
            assert_eq!(decided[0], 0, "seed {seed}");
            assert!(!decided.contains(&64), "seed {seed}");
            if pass.outcome == Sliced::Whole {
                assert_eq!(decided, [0, 128], "seed {seed}");
            }
        }

        // The level exactly at the noise bound is not beyond it; one ulp
        // above, it is.
        let bound = AwgnChannel::with_sigma(1.0).bound();
        for (amp, blocks) in [(bound, vec![]), (bound.next_up(), vec![0, 64, 128])] {
            let case = WordCase::new(n_chips, &[(0.0, amp)]);
            for seed in seeds.clone() {
                assert_eq!(case.check(seed).1, blocks, "amp {amp} seed {seed}");
            }
        }

        // A stream one sample late whose frame ends 10 chips early is off
        // the air at the end of the last block.
        let mut short = WordCase::new(n_chips, &[(0.0, 20.0), (1.0, 20.0)]);
        short.streams[1].0.truncate(n_chips - 10);
        for seed in seeds.clone() {
            assert_eq!(short.check(seed).1, [0, 64], "seed {seed}");
        }

        // The search region ends inside block 0, then exactly at block
        // 1's first window: block 0 is sliced window by window.
        for (search_end, blocks) in [
            (WORD_GUARD + 300, vec![64, 128]),
            (WORD_GUARD + 642, vec![64, 128]),
            (WORD_GUARD + 643, vec![128]),
        ] {
            let mut case = WordCase::new(n_chips, &[(0.0, 50.0)]);
            case.search_len = search_end;
            for seed in seeds.clone() {
                assert_eq!(case.check(seed).1, blocks, "search end {search_end}");
            }
        }

        // 10.3 samples per chip: no integer grid, no block.
        let mut fractional = WordCase::new(n_chips, &[(0.0, 50.0), (0.5, 50.0)]);
        fractional.rx.sample_rate_hz = 1_030_000.0;
        for stream in &mut fractional.streams {
            stream.1 = fractional.rx;
        }
        fractional.n_samples = 2 * WORD_GUARD + 1_030 * n_chips / 100 + 1;
        for seed in seeds {
            let (pass, decided) = fractional.check(seed);
            assert_eq!(pass.outcome, Sliced::Whole, "seed {seed}");
            assert!(decided.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn word_path_stops_at_a_broken_pair_inside_a_block() {
        // Chips 62 and 63 equal: the pass keeps 64 chips. Chips 188 and
        // 189 of 191, the last whole pair before the odd chip: 190.
        for (n_chips, pair, blocks) in [(192, 31, vec![0]), (191, 94, vec![0, 64, 128])] {
            let mut case = WordCase::new(n_chips, &[(0.0, 25.0), (-1.0, 25.0)]);
            for (chips, _, _) in &mut case.streams {
                chips[2 * pair + 1] = chips[2 * pair];
            }
            for seed in 0..3 {
                let (pass, decided) = case.check(seed);
                assert_eq!(pass.outcome, Sliced::BrokenPair, "{n_chips} chips");
                assert_eq!(pass.chips.len(), 2 * pair + 2, "{n_chips} chips");
                assert_eq!(decided, blocks, "{n_chips} chips");
            }
        }
    }

    #[test]
    fn word_path_stops_short_where_the_per_chip_loop_does() {
        // The frame ends inside the last window: that block is sliced
        // window by window up to it, and the pass is short.
        let mut case = WordCase::new(192, &[(0.0, 50.0)]);
        case.n_samples = case.window(191).1 - 1;
        for seed in 0..3 {
            let (pass, decided) = case.check(seed);
            assert_eq!(pass.outcome, Sliced::Short);
            assert_eq!(decided, [0, 64]);
        }
    }

    proptest::proptest! {
        /// Random streams — delays whole and fractional, some chip rates
        /// drifting against the receiver's, one chip flipped or a tail cut
        /// off, zero and weak amplitudes and levels exactly at the noise
        /// bound — at 4, 7, 10 and 10.3 samples per chip: the word path
        /// leaves what the per-chip path leaves, and the scalar kernels
        /// agree.
        #[test]
        fn word_path_matches_per_chip_path_and_scalar_kernels(
            shape in (1usize..260, 0u8..8, 0usize..400, 0usize..300),
            streams in proptest::collection::vec(
                (-3.0f64..3.0, proptest::prelude::any::<bool>(), 0u8..12, 0usize..300, 0usize..300),
                1..4,
            ),
            txs in proptest::collection::vec((0usize..3, 0.0f64..80.0, 0u8..6), 1..5),
            seed in 0u64..1_000,
        ) {
            let (n_chips, spc_pick, search, cut) = shape;
            let spc = match spc_pick {
                0 => 10.3,
                1 => 4.0,
                2 => 7.0,
                _ => 10.0,
            };
            let rx = WaveformConfig {
                symbol_rate_hz: 100_000.0,
                sample_rate_hz: 100_000.0 * spc,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..n_chips.div_ceil(16)).map(|_| rng.gen()).collect();
            let mut base = manchester_encode(&bytes);
            base.truncate(n_chips);
            let guard = (8.0 * spc) as usize;
            let streams: Vec<(Vec<Chip>, WaveformConfig, f64)> = streams
                .into_iter()
                .map(|(delay, whole, kind, at, tail)| {
                    let delay = if whole { delay.round() } else { delay };
                    let mut chips = base.clone();
                    let mut cfg = rx;
                    match kind {
                        // One chip flipped.
                        0 => {
                            let k = at % n_chips;
                            chips[k] = if chips[k] == Chip::High { Chip::Low } else { Chip::High };
                        }
                        // The tail cut off.
                        1 => chips.truncate(n_chips - tail % n_chips),
                        // A drifting chip rate.
                        2 => cfg.symbol_rate_hz = cfg.sample_rate_hz / (spc + 0.016),
                        3 => cfg.symbol_rate_hz = cfg.sample_rate_hz / (spc - 0.1),
                        _ => {}
                    }
                    (chips, cfg, (guard as f64 + delay) / rx.sample_rate_hz)
                })
                .collect();
            let n_streams = streams.len();
            let frame = 2 * guard + (n_chips as f64 * spc).ceil() as usize;
            let case = WordCase {
                streams,
                // A sixth of the TXs radiate nothing, and a third radiate
                // the noise bound or half of it, so that one TX, or two
                // halves, put the level exactly at the bound.
                txs: txs
                    .into_iter()
                    .map(|(s, a, z)| {
                        let bound = AwgnChannel::with_sigma(1.0).bound();
                        let amp = match z {
                            0 => 0.0,
                            1 => bound,
                            2 => bound / 2.0,
                            _ => a,
                        };
                        (s % n_streams, amp)
                    })
                    .collect(),
                rx,
                // Now and then the frame ends inside the MAC chips.
                n_samples: if cut < 30 { frame - cut * 10 % frame } else { frame },
                // Now and then the search region runs into the MAC chips.
                search_len: guard + search.saturating_sub(300) * 2 * spc as usize,
                mac_start: guard,
                n_chips,
            };
            case.check(seed);
        }
    }
}
