//! Symbol-level OOK waveform synthesis, sampling, and slicing.
//!
//! The testbed transmits chips at `ftx` symbols/s and the receiver samples
//! at `frx` samples/s (1 Msps in the paper). The waveform layer turns chip
//! streams into oversampled amplitude sequences (optionally delayed by a
//! per-TX clock offset — the mechanism that makes unsynchronized joint
//! transmission fail, Table 5) and recovers chips from noisy sample streams
//! with a mid-chip slicer.

use crate::manchester::Chip;
use crate::packed::{PackedChips, EVEN};
use serde::{Deserialize, Serialize};

/// Waveform timing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveformConfig {
    /// Chip (symbol) rate at the transmitter, in chips per second.
    pub symbol_rate_hz: f64,
    /// Receiver sampling rate, in samples per second.
    pub sample_rate_hz: f64,
}

impl WaveformConfig {
    /// The paper's testbed rates: 100 Ksymbols/s transmit, 1 Msps sampling.
    pub fn paper() -> Self {
        WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 1_000_000.0,
        }
    }

    /// Samples per chip (need not be an integer).
    pub fn samples_per_chip(&self) -> f64 {
        self.sample_rate_hz / self.symbol_rate_hz
    }

    /// Chip duration in seconds.
    pub fn chip_duration_s(&self) -> f64 {
        1.0 / self.symbol_rate_hz
    }
}

impl Default for WaveformConfig {
    fn default() -> Self {
        WaveformConfig::paper()
    }
}

/// Renders a chip stream into amplitude samples of length `n_samples`,
/// applying a start delay in seconds (e.g. a TX clock offset). Amplitudes
/// are `amplitude × chip.amplitude()` while the frame is on air and `0.0`
/// (bias only, AC-coupled away) before/after.
pub fn render(
    chips: &[Chip],
    cfg: &WaveformConfig,
    amplitude: f64,
    delay_s: f64,
    n_samples: usize,
) -> Vec<f64> {
    assert!(amplitude >= 0.0, "amplitude must be non-negative");
    // Work in the sample domain so chip boundaries land exactly on samples
    // when the rates divide evenly (the common testbed configuration).
    let spc = cfg.samples_per_chip();
    let delay_samples = delay_s * cfg.sample_rate_hz;
    (0..n_samples)
        .map(|i| {
            let pos = i as f64 - delay_samples;
            if pos < 0.0 {
                return 0.0;
            }
            let idx = (pos / spc) as usize;
            match chips.get(idx) {
                Some(c) => amplitude * c.amplitude(),
                None => 0.0,
            }
        })
        .collect()
}

/// Shared run-boundary kernel: visits chip `k`'s constant run `start..end`
/// of a stream rendered with `delay_s` over `n_samples`, in chip order,
/// and returns the first sample past the last run. A run holds exactly the
/// samples the scalar [`render`] assigns to chip `k`: sample `i` belongs
/// to chip `k` iff `i as f64 - delay_samples >= 0` and
/// `((i - delay) / spc) as usize == k`, the very expression `render`
/// evaluates. Run boundaries are exact integer strides where that is
/// provably the predicate's answer, else closed-form estimates corrected
/// by a couple of samples against it, so any renderer built on the runs
/// is bit-identical to the scalar path for any delay or rate. Samples before the first run and past the last are
/// off the air (`0.0`). Runs can be empty; the visit order never goes
/// back.
fn for_each_run(
    n_chips: usize,
    cfg: &WaveformConfig,
    delay_s: f64,
    n_samples: usize,
    mut visit: impl FnMut(usize, usize, usize),
) -> usize {
    let spc = cfg.samples_per_chip();
    let d = delay_s * cfg.sample_rate_hz;
    // Chip index of sample `i` (valid only for i as f64 >= d): the exact
    // scalar expression, used to verify estimated run boundaries.
    let idx_at = |i: usize| ((i as f64 - d) / spc) as usize;
    // First sample with a non-negative position.
    let first = if d <= 0.0 {
        0usize
    } else {
        (d.ceil() as usize).min(n_samples)
    };
    // Integer-stride fast path: for an integer samples-per-chip `s`, chip
    // k ends at sample `ceil(d) + (k+1)·s` exactly — no divisions, no
    // boundary corrections — unless `d` lies within a hair of an integer
    // without being one. In exact arithmetic, sample `i ≥ first` has chip
    // index `floor(x)`, `x = (i − d)/s`, so chip k ends at the first `i`
    // with `i − d ≥ (k+1)·s`, which is `ceil(d) + (k+1)·s`. The scalar
    // predicate evaluates `x` with two roundings, off by at most
    // `2^-51·|x|`, and truncates; it agrees whenever no integer lies
    // within that error of `x`:
    // - `d` integer: `i − d` is an exact integer below 2^51, so `x` is an
    //   exact multiple of `1/s` — an integer quotient divides exactly, any
    //   other sits `≥ 1/s` from the nearest integer.
    // - `d` with fractional part `f`: `x = (M − f)/s` for an integer `M`,
    //   at least `min(f, 1 − f)/s` from any integer; the `1e-12` margin
    //   below dwarfs `2^-51·(n_samples + |d|)/s`.
    let frac = d - d.floor();
    let integer_grid = spc.fract() == 0.0
        && spc >= 1.0
        && d.abs() + (n_chips as f64 + 1.0) * spc < 2.0e15
        && (frac == 0.0 || frac.min(1.0 - frac) > 1e-12 * (n_samples as f64 + d.abs()));
    if integer_grid {
        let s = spc as i64;
        let d_i = d.ceil() as i64;
        let mut start = first;
        for k in 0..n_chips {
            if start >= n_samples {
                break;
            }
            let end = ((d_i + (k as i64 + 1) * s).clamp(0, n_samples as i64) as usize).max(start);
            visit(k, start, end);
            start = end;
        }
        return start;
    }
    // General path. Chip k ends at the first sample whose exact scalar
    // index exceeds k (`idx_at` is monotone in `i`, so that boundary is
    // unique). The boundaries are found from a closed-form estimate
    // corrected by a couple of samples against `idx_at` — and because
    // each boundary is independent of the previous one, they are resolved
    // in blocks of 64 ahead of the sequential visits, keeping the
    // divisions pipelined instead of serialized behind each run.
    let mut bounds = [0usize; 64];
    let mut start = first;
    let mut k0 = 0usize;
    while k0 < n_chips && start < n_samples {
        let block = (n_chips - k0).min(64);
        for (j, b) in bounds[..block].iter_mut().enumerate() {
            let k = k0 + j;
            let est = d + (k as f64 + 1.0) * spc;
            let mut end = if est <= 0.0 {
                0usize
            } else {
                (est.ceil() as usize).min(n_samples)
            };
            while end > 0 && idx_at(end - 1) > k {
                end -= 1;
            }
            while end < n_samples && idx_at(end) == k {
                end += 1;
            }
            *b = end;
        }
        for (j, &b) in bounds[..block].iter().enumerate() {
            let end = b.max(start);
            visit(k0 + j, start, end);
            start = end;
        }
        k0 += block;
    }
    start
}

/// The chip runs of one rendered stream — each chip's sample boundaries
/// and its level — resolved once per frame and then added into a
/// photocurrent, or read off directly ([`Superposition`]), for every TX
/// that shares the stream's delay: the one-pass form of
/// [`render_packed_into`] + [`mix_into`].
#[derive(Debug, Clone, Default)]
pub struct ChipRuns {
    /// First sample of chip 0's run.
    first: usize,
    /// `ends[k]`: one past the last sample of chip `k`'s run (chips whose
    /// runs would start past the stream end are left out).
    ends: Vec<usize>,
    /// The stream's chips, packed as [`PackedChips::words`] packs them.
    words: Vec<u64>,
}

impl ChipRuns {
    /// An empty set of runs (no allocation until [`Self::resolve`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the runs of `chips` rendered with `delay_s` over
    /// `n_samples` — the boundaries [`render`] draws, bit for bit.
    /// Reuses the buffers: no allocation once their capacity is warm.
    pub fn resolve(
        &mut self,
        chips: &PackedChips,
        cfg: &WaveformConfig,
        delay_s: f64,
        n_samples: usize,
    ) {
        self.words.clear();
        self.words.extend_from_slice(chips.words());
        self.ends.clear();
        let mut first = None;
        let ends = &mut self.ends;
        for_each_run(chips.len(), cfg, delay_s, n_samples, |_, start, end| {
            first.get_or_insert(start);
            ends.push(end);
        });
        self.first = first.unwrap_or(0);
    }

    fn is_high(&self, k: usize) -> bool {
        (self.words[k >> 6] >> (k & 63)) & 1 == 1
    }

    /// Adds `±a` (`+` for a high chip) over each chip's run within the
    /// samples `lo..hi` of `out`, for every `a` of `amplitudes` in order —
    /// the TXs sharing these runs. Bit-identical there to [`render`]
    /// followed by [`mix_into`] per amplitude on any `out` holding no
    /// `−0.0`: each sample takes the same adds in the same order, the
    /// skipped off-air samples would add `+0.0`, which leaves every other
    /// value unchanged, and `x + y` is `−0.0` only when both are, so a
    /// buffer that starts at `+0.0` never reaches `−0.0`. The search for
    /// the first run starts at run `from_run`, which must not lie past the
    /// run holding `lo` (`0` always works).
    fn add_range_into(
        &self,
        amplitudes: &[f64],
        out: &mut [f64],
        range: (usize, usize),
        from_run: usize,
    ) {
        let (lo, hi) = range;
        let mut k = from_run;
        while k < self.ends.len() && self.ends[k] <= lo {
            k += 1;
        }
        let mut start = if k == 0 { self.first } else { self.ends[k - 1] }.max(lo);
        while k < self.ends.len() && start < hi {
            let end = self.ends[k].min(hi);
            let high = self.is_high(k);
            let level = |a: f64| if high { a } else { -a };
            let run = &mut out[start..end];
            // Two TXs per pass over the run: `(x + a) + b` is the order
            // two separate passes add in.
            let mut pairs = amplitudes.chunks_exact(2);
            for pair in &mut pairs {
                let (a, b) = (level(pair[0]), level(pair[1]));
                for x in run.iter_mut() {
                    *x = *x + a + b;
                }
            }
            if let [a] = *pairs.remainder() {
                let a = level(a);
                for x in run.iter_mut() {
                    *x += a;
                }
            }
            start = end;
            k += 1;
        }
    }

    /// The sign of the level this stream holds over the whole window
    /// `lo..hi` — `+1.0` for high chips, `−1.0` for low ones, `0.0` off
    /// the air — or `None` when the level changes inside the window. `at`
    /// is a run cursor that only moves forward: start a pass at `0` and
    /// keep `lo` non-decreasing through it.
    #[inline]
    fn sign_over(&self, lo: usize, hi: usize, at: &mut usize) -> Option<f64> {
        let ends = &self.ends;
        let mut k = self.seek(lo, at);
        if k == ends.len() || hi <= self.first {
            return Some(0.0);
        }
        if lo < self.first {
            return None;
        }
        // Runs `k..` of one level must reach `hi`.
        let high = self.is_high(k);
        while hi > ends[k] {
            k += 1;
            if k == ends.len() || self.is_high(k) != high {
                return None;
            }
        }
        Some(if high { 1.0 } else { -1.0 })
    }

    /// Moves the run cursor `at` forward to the first run that ends past
    /// sample `lo` (`ends.len()` when none does) and returns it.
    #[inline]
    fn seek(&self, lo: usize, at: &mut usize) -> usize {
        while *at < self.ends.len() && self.ends[*at] <= lo {
            *at += 1;
        }
        *at
    }

    /// The chips of runs `j..j + n` (`n ≤ 64`, `j + n` within the runs),
    /// chip `j + i` at bit `i`.
    fn word_at(&self, j: usize, n: usize) -> u64 {
        let (w, b) = (j >> 6, j & 63);
        let mut word = self.words[w] >> b;
        if b > 0 {
            word |= self.words.get(w + 1).map_or(0, |&next| next << (64 - b));
        }
        word & low_bits(n)
    }

    /// Whether run `j + i` holds the whole of window `i` of `block`, for
    /// every window, with `j + block.n` within the runs.
    fn covers(&self, j: usize, block: WindowBlock) -> bool {
        let Some(ends) = self.ends.get(j..j + block.n) else {
            return false;
        };
        let mut start = if j == 0 { self.first } else { self.ends[j - 1] };
        let mut covered = true;
        for (i, &end) in ends.iter().enumerate() {
            let (lo, hi) = block.window(i);
            covered &= (start <= lo) & (hi <= end);
            start = end;
        }
        covered
    }
}

/// The low `n ≤ 64` bits set.
fn low_bits(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The TXs one photodiode hears, in TX order: each radiates one slot of
/// a `&[ChipRuns]` at its amplitude. It renders any sample range, or reads
/// a window's level straight off the runs, bit for bit as the eager
/// render — [`render`] of each TX mixed in with [`mix_into`], in TX
/// order, into a buffer of `+0.0` — would leave those samples.
///
/// Windows come in passes: [`Self::rewind`] starts one, and within it the
/// window starts `lo` must not decrease. Each slot keeps a cursor on the
/// run holding the last `lo`, so a pass walks each stream's runs once.
#[derive(Debug, Clone, Default)]
pub struct Superposition {
    /// Per TX: its index into `streams`, and its amplitude.
    txs: Vec<(usize, f64)>,
    /// The slots the TXs use, each once.
    streams: Vec<Stream>,
}

/// One slot of a [`Superposition`] within a pass.
#[derive(Debug, Clone, Copy)]
struct Stream {
    slot: usize,
    /// The run cursor of [`ChipRuns::sign_over`].
    at: usize,
    /// The sign of the level held over the last window.
    sign: f64,
}

impl Superposition {
    /// No TXs (no allocation until [`Self::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every TX.
    pub fn clear(&mut self) {
        self.txs.clear();
        self.streams.clear();
    }

    /// Adds the next TX in TX order: the runs of `slot` at `amplitude`.
    pub fn push(&mut self, slot: usize, amplitude: f64) {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        let i = match self.streams.iter().position(|s| s.slot == slot) {
            Some(i) => i,
            None => {
                self.streams.push(Stream {
                    slot,
                    at: 0,
                    sign: 0.0,
                });
                self.streams.len() - 1
            }
        };
        self.txs.push((i, amplitude));
    }

    /// Starts a pass over windows.
    pub fn rewind(&mut self) {
        for s in &mut self.streams {
            s.at = 0;
        }
    }

    /// Overwrites `out[lo..hi]` with the rendered light: `+0.0`, then every
    /// TX's adds there in TX order. `lo` must not precede the pass's last
    /// window start.
    pub fn render(&self, runs: &[ChipRuns], out: &mut [f64], lo: usize, hi: usize) {
        out[lo..hi].fill(0.0);
        let mut amps = [0.0f64; 2];
        for group in self.txs.chunk_by(|a, b| a.0 == b.0) {
            let stream = &self.streams[group[0].0];
            // Two TXs per add pass, as the eager render pairs them.
            for pair in group.chunks(2) {
                for (a, tx) in amps.iter_mut().zip(pair) {
                    *a = tx.1;
                }
                runs[stream.slot].add_range_into(&amps[..pair.len()], out, (lo, hi), stream.at);
            }
        }
    }

    /// The value every sample of the window `lo..hi` renders to, when
    /// each stream holds one level over all of it (equal chips, or off
    /// the air); `None` when some stream changes level inside the window.
    /// The value is the fold of `sign·amp` over the TXs from `+0.0` in TX
    /// order: `±1·amp` is exactly the `±amp` the eager render adds to each
    /// of those samples, and an off-air TX's `0·amp = +0.0` leaves the
    /// fold unchanged as the eager render's skipped add does (the fold
    /// never holds `−0.0`).
    #[inline]
    pub fn level(&mut self, runs: &[ChipRuns], lo: usize, hi: usize) -> Option<f64> {
        let mut split = false;
        for s in &mut self.streams {
            match runs[s.slot].sign_over(lo, hi, &mut s.at) {
                Some(sign) => s.sign = sign,
                None => split = true,
            }
        }
        if split {
            return None;
        }
        let streams = &self.streams;
        Some(
            self.txs
                .iter()
                .fold(0.0, |level, &(i, amp)| level + streams[i].sign * amp),
        )
    }

    /// The level of a window where every TX holds a high chip: the fold
    /// of `+amp` over the TXs from `+0.0` in TX order, which is
    /// [`Self::level`]'s fold with every sign `+1`. With every sign `−1`
    /// the fold is its exact negation (rounding is symmetric), bar the
    /// sign of a zero.
    pub fn peak(&self) -> f64 {
        self.txs.iter().fold(0.0, |level, &(_, amp)| level + amp)
    }

    /// The chips of a whole block of windows when every stream holds one
    /// chip over each of them and the streams agree: bit `i` is set when
    /// [`Self::level`] of window `i` is [`Self::peak`] and clear when it
    /// is its negation. `None` when some window straddles a run boundary,
    /// some stream is off the air there or runs out of chips in the block,
    /// or two streams' chips differ (no stream at all is `None` too).
    ///
    /// Each stream `s` needs one run `j_s` such that run `j_s + i` holds
    /// the whole of window `i`, for every window; then window `i` has
    /// stream `s`'s chip `j_s + i` throughout, and the chips `j_s..j_s + n`
    /// of every stream must be one word. The block must start at or after
    /// the pass's last window. On `Some` the superposition is left as the
    /// per-window [`Self::level`] calls leave it, each cursor on the run
    /// of the block's last window; on `None` a cursor ends no later than
    /// the run of the block's first window, where that window's call
    /// moves it anyway.
    pub fn word(&mut self, runs: &[ChipRuns], block: WindowBlock) -> Option<u64> {
        let mut agreed = None;
        for s in &mut self.streams {
            let stream = &runs[s.slot];
            let j = stream.seek(block.lo, &mut s.at);
            if j + block.n > stream.ends.len() {
                return None;
            }
            let word = stream.word_at(j, block.n);
            if *agreed.get_or_insert(word) ^ word != 0 {
                return None;
            }
        }
        if !self
            .streams
            .iter()
            .all(|s| runs[s.slot].covers(s.at, block))
        {
            return None;
        }
        let word = agreed?;
        let last = if (word >> (block.n - 1)) & 1 == 1 {
            1.0
        } else {
            -1.0
        };
        for s in &mut self.streams {
            s.at += block.n - 1;
            s.sign = last;
        }
        Some(word)
    }
}

/// [`render`] of a bit-packed chip stream into a caller-owned buffer
/// (resized to `n_samples`; no allocation once `out`'s capacity covers
/// it), bit-identical to [`render`]. Every sample is written exactly
/// once — zero prefix, one constant run per chip, zero suffix — so a stale
/// buffer of the right length needs no zeroing pass.
pub fn render_packed_into(
    chips: &PackedChips,
    cfg: &WaveformConfig,
    amplitude: f64,
    delay_s: f64,
    n_samples: usize,
    out: &mut Vec<f64>,
) {
    assert!(amplitude >= 0.0, "amplitude must be non-negative");
    if out.len() != n_samples {
        out.clear();
        out.resize(n_samples, 0.0);
    }
    let words = chips.words();
    let mut first = None;
    let last = for_each_run(chips.len(), cfg, delay_s, n_samples, |k, start, end| {
        first.get_or_insert(start);
        let high = (words[k >> 6] >> (k & 63)) & 1 == 1;
        out[start..end].fill(if high { amplitude } else { -amplitude });
    });
    out[..first.unwrap_or(last)].fill(0.0);
    out[last..].fill(0.0);
}

/// Adds waveform `b` into `a` element-wise (superposition of several TXs'
/// light at one photodiode).
pub fn mix_into(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "waveform lengths differ");
    for (x, y) in a.iter_mut().zip(b) {
        *x += *y;
    }
}

/// Recovers chips from a sample stream by averaging the middle half of each
/// chip window and slicing at zero (the AC-coupled stream is zero-mean).
///
/// `start_sample` marks where chip 0 begins; `n_chips` chips are recovered.
/// Returns `None` if the stream is too short.
pub fn slice_chips(
    samples: &[f64],
    cfg: &WaveformConfig,
    start_sample: usize,
    n_chips: usize,
) -> Option<Vec<Chip>> {
    let spc = cfg.samples_per_chip();
    let mut chips = Vec::with_capacity(n_chips);
    for k in 0..n_chips {
        let begin = start_sample as f64 + k as f64 * spc;
        // Use the middle half of the chip to dodge edge transients.
        let lo = (begin + 0.25 * spc).floor() as usize;
        let hi = (begin + 0.75 * spc).ceil() as usize;
        if hi > samples.len() || lo >= hi {
            return None;
        }
        let mean: f64 = samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        chips.push(if mean >= 0.0 { Chip::High } else { Chip::Low });
    }
    Some(chips)
}

/// How a [`slice_chips_packed_by`] pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sliced {
    /// Every chip was sliced and every Manchester pair (chips `2k`,
    /// `2k + 1`) holds two different chips.
    Whole,
    /// A window ran past the stream — the scalar `None`. `out` is cleared.
    Short,
    /// A Manchester pair came out as two equal chips, so no decode can
    /// succeed, and slicing stopped after it: `out` holds the chips up to
    /// and including that pair.
    BrokenPair,
}

/// Up to 64 consecutive slicing windows on an integer grid: window
/// `i < n` is `lo + i·stride .. lo + i·stride + width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBlock {
    /// First sample of window 0.
    pub lo: usize,
    /// Samples from one window's start to the next one's.
    pub stride: usize,
    /// Samples per window.
    pub width: usize,
    /// Windows in the block, `1..=64`.
    pub n: usize,
}

impl WindowBlock {
    /// Window `i`'s samples `lo..hi`.
    pub fn window(&self, i: usize) -> (usize, usize) {
        let lo = self.lo + i * self.stride;
        (lo, lo + self.width)
    }
}

/// The chip decisions of a [`slice_chips_packed_by`] pass. Any
/// `FnMut(lo, hi) -> bool` closure is one that decides window by window.
pub trait ChipDecider {
    /// `true` for a high chip whose window is `lo..hi`.
    fn decide(&mut self, lo: usize, hi: usize) -> bool;

    /// The chips of a whole block of windows at once, window `i`'s at
    /// bit `i` (bits from `block.n` up are ignored), or `None` to have
    /// them decided one by one. `Some` must hold exactly what
    /// [`Self::decide`] would return on each window in turn, with the
    /// decider left as those calls would leave it. The pass may still end
    /// inside the block, at a broken pair; it decides nothing after that.
    #[inline]
    fn decide_block(&mut self, block: WindowBlock) -> Option<u64> {
        let _ = block;
        None
    }
}

impl<F: FnMut(usize, usize) -> bool> ChipDecider for F {
    #[inline]
    fn decide(&mut self, lo: usize, hi: usize) -> bool {
        self(lo, hi)
    }
}

/// [`slice_chips`] into a reusable [`PackedChips`] buffer (cleared first;
/// zero allocations once capacity is warm), with the chip decision left
/// to `decide` ([`ChipDecider::decide`]: `true` for a high chip whose
/// window is `lo..hi`). Windows come in chip order, each one checked
/// against `n_samples` (and for emptiness) before `decide` sees it, at
/// the same chip index as the scalar loop, so with `decide` the scalar
/// window test (`samples[lo..hi].iter().sum::<f64>() >= 0.0`, the mean's
/// sign) the chips are bit-identical to [`slice_chips`]'s. On a
/// too-short stream `out` is cleared and the result is [`Sliced::Short`].
/// The pass ends at the first pair of equal chips, counted from chip 0
/// ([`Sliced::BrokenPair`]); the later windows are never checked or
/// decided. A caller that prepares each window just in time — adds noise,
/// say — gets exactly the windows the slicer reads.
///
/// The word path: on an integer samples-per-chip, every block of chips
/// `k0..k0 + n` with `k0` a multiple of 64 whose last window ends within
/// `n_samples` is first offered whole to [`ChipDecider::decide_block`].
/// A word it returns is pushed as it stands; its Manchester pairs are
/// checked at once (`!(w ^ (w >> 1))` on the even bits of the whole
/// pairs), and at the first broken one the pass keeps the chips up to and
/// including it and ends, as the window-by-window loop does. Any other
/// block, or one refused, is sliced window by window.
pub fn slice_chips_packed_by(
    n_samples: usize,
    cfg: &WaveformConfig,
    start_sample: usize,
    n_chips: usize,
    out: &mut PackedChips,
    mut decide: impl ChipDecider,
) -> Sliced {
    let spc = cfg.samples_per_chip();
    out.clear();
    let mut word = WordFill::default();
    // Exact-grid fast path: for an integer samples-per-chip, `begin` is an
    // exact integer and `0.25·spc`/`0.75·spc` are exact (two fractional
    // bits at most), so the scalar `floor(begin + 0.25·spc)` equals
    // `begin + floor(0.25·spc)` — the per-chip window is a fixed integer
    // stride and width, no float rounding involved. The window is never
    // empty for spc ≥ 1 (`floor(0.25·spc) < ceil(0.75·spc)`), so only the
    // length check remains.
    let grid = (spc.fract() == 0.0
        && spc >= 1.0
        && start_sample as f64 + (n_chips as f64 + 1.0) * spc < 2.0e15)
        .then(|| WindowBlock {
            lo: start_sample + (0.25 * spc).floor() as usize,
            stride: spc as usize,
            width: (0.75 * spc).ceil() as usize - (0.25 * spc).floor() as usize,
            n: n_chips,
        });
    let mut first_of_pair = false;
    let mut k = 0;
    while k < n_chips {
        // A block starts at every 64th chip, where `word` is empty: the
        // chips before it were pushed one by one or as whole blocks.
        let block = grid
            .filter(|_| k % 64 == 0)
            .map(|grid| WindowBlock {
                lo: grid.window(k).0,
                n: (n_chips - k).min(64),
                ..grid
            })
            .filter(|block| block.window(block.n - 1).1 <= n_samples);
        if let Some((block, chips)) = block.and_then(|b| Some((b, decide.decide_block(b)?))) {
            if push_block(out, chips, block.n) {
                return Sliced::BrokenPair;
            }
            k += block.n;
            continue;
        }
        let (lo, hi) = match grid {
            Some(grid) => grid.window(k),
            None => {
                let begin = start_sample as f64 + k as f64 * spc;
                (
                    (begin + 0.25 * spc).floor() as usize,
                    (begin + 0.75 * spc).ceil() as usize,
                )
            }
        };
        if hi > n_samples || lo >= hi {
            out.clear();
            return Sliced::Short;
        }
        let high = decide.decide(lo, hi);
        word.push(out, high);
        if k % 2 == 1 && high == first_of_pair {
            word.flush(out);
            return Sliced::BrokenPair;
        }
        first_of_pair = high;
        k += 1;
    }
    word.flush(out);
    Sliced::Whole
}

/// Pushes a decided block of `n` chips onto the word-aligned `out`, up
/// to and including its first broken Manchester pair: `true` when a pair
/// broke. Bit `2p` of `!(w ^ (w >> 1))` is set when chips `2p` and
/// `2p + 1` are equal; a last odd chip has no pair yet.
fn push_block(out: &mut PackedChips, chips: u64, n: usize) -> bool {
    let chips = chips & low_bits(n);
    let broken = !(chips ^ (chips >> 1)) & EVEN & low_bits(n & !1);
    if broken == 0 {
        out.push_word_aligned(chips, n);
        return false;
    }
    let kept = broken.trailing_zeros() as usize + 2;
    out.push_word_aligned(chips & low_bits(kept), kept);
    true
}

/// Sliced chips accumulate in a local word flushed every 64 — no per-chip
/// indexing into the word vector.
#[derive(Default)]
struct WordFill {
    word: u64,
    filled: usize,
}

impl WordFill {
    // `slice_chips_packed_by` is generic, so it compiles in its caller's
    // crate: without `#[inline]` this per-chip step stays a call there.
    // The shifted `u64::from(high)` keeps a branch on the chip value off
    // the per-chip path.
    #[inline]
    fn push(&mut self, out: &mut PackedChips, high: bool) {
        self.word |= u64::from(high) << self.filled;
        self.filled += 1;
        if self.filled == 64 {
            out.push_word_aligned(self.word, 64);
            *self = WordFill::default();
        }
    }

    fn flush(self, out: &mut PackedChips) {
        if self.filled > 0 {
            out.push_word_aligned(self.word, self.filled);
        }
    }
}

/// Start offsets [`correlate_template`] scores per pass over the template.
const CORRELATE_LANES: usize = 4;

/// Energy-root floor of the correlators: a window whose `√energy` is below
/// it is skipped.
const ENERGY_FLOOR: f64 = 1e-30;

/// The correlators' selection rule for one scored start: a window below
/// [`ENERGY_FLOOR`] is skipped, and a score replaces the best only when it
/// is strictly greater, so among starts scored in ascending order ties
/// keep the first.
fn consider(best: &mut Option<(usize, f64)>, start: usize, dot: f64, energy: f64, t_energy: f64) {
    let w_energy = energy.sqrt();
    if w_energy < ENERGY_FLOOR {
        return;
    }
    let score = dot / (t_energy * w_energy);
    if best.is_none_or(|(_, b)| score > b) {
        *best = Some((start, score));
    }
}

/// One start's dot product with the template and its window energy,
/// each summed left to right: the scalar per-start loop.
fn window_sums(window: &[f64], template: &[f64]) -> (f64, f64) {
    let mut dot = 0.0f64;
    let mut energy = 0.0f64;
    for (&a, &t) in window.iter().zip(template) {
        dot += a * t;
        energy += a * a;
    }
    (dot, energy)
}

/// Correlation against a pre-rendered template — the hoisted kernel under
/// [`correlate_pattern`]. Each pass over the template scores four
/// consecutive start offsets, each with its own dot and window-energy
/// accumulators summed in the same order as the scalar two-pass loop, so
/// scores are bit-identical; the best start is then picked in start
/// order, so ties keep the first index. The template and its energy are
/// computed once by the caller instead of on every call. This exhaustive
/// scan is the oracle of [`PreambleCorrelator`].
pub fn correlate_template(
    samples: &[f64],
    template: &[f64],
    t_energy: f64,
    search_from: usize,
    search_len: usize,
) -> Option<(usize, f64)> {
    if template.is_empty() {
        return None;
    }
    let n = template.len();
    let last_start = search_from
        .checked_add(search_len)?
        .min(samples.len().checked_sub(n)?);
    let mut best: Option<(usize, f64)> = None;
    let mut start = search_from;
    while start + CORRELATE_LANES - 1 <= last_start {
        let w = &samples[start..start + n + CORRELATE_LANES - 1];
        let mut dot = [0.0f64; CORRELATE_LANES];
        let mut energy = [0.0f64; CORRELATE_LANES];
        for ((((&t, &a0), &a1), &a2), &a3) in template
            .iter()
            .zip(&w[..n])
            .zip(&w[1..n + 1])
            .zip(&w[2..n + 2])
            .zip(&w[3..n + 3])
        {
            for (l, a) in [a0, a1, a2, a3].into_iter().enumerate() {
                dot[l] += a * t;
                energy[l] += a * a;
            }
        }
        for l in 0..CORRELATE_LANES {
            consider(&mut best, start + l, dot[l], energy[l], t_energy);
        }
        start += CORRELATE_LANES;
    }
    for start in start..=last_start {
        let (dot, energy) = window_sums(&samples[start..start + n], template);
        consider(&mut best, start, dot, energy, t_energy);
    }
    best
}

/// Energy (root of the sum of squares) of a rendered template, in the
/// summation order [`correlate_template`] expects.
pub fn template_energy(template: &[f64]) -> f64 {
    template.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// [`correlate_template`] for one fixed template, bit-identical to it, that
/// scores exactly only the start offsets that can win.
///
/// A rendered chip template is piecewise constant with values `±1` (and
/// `0` off the air), in a few tens of runs. Prefix sums of the search
/// region's samples and squares then give every start's dot product (one
/// difference per run) and window energy (one difference) in O(runs),
/// within the rigorous margins of `prefix_margins` of the values the
/// per-start loop computes. Since rounding to nearest is monotone, those
/// bounds carried through the loop's own `dot / (t_energy · √energy)`
/// bound its computed score from both sides. The search then scores
/// exactly, with the per-start loop and [`correlate_template`]'s selection
/// rule in ascending order, only the starts whose score bound reaches the
/// best lower bound among starts surely above the energy floor, and every
/// start whose floor test is uncertain. No other start can score the
/// maximum, so the winner — the first start with the maximum score — and
/// its score are the exhaustive scan's. Non-finite samples, a template
/// with a value other than `±1` or `0`, or no start surely above the floor
/// take the exhaustive scan.
///
/// The prefix and bound buffers persist across searches, so a warmed
/// correlator searches without allocating.
#[derive(Debug)]
pub struct PreambleCorrelator {
    template: Vec<f64>,
    energy: f64,
    /// The template's nonzero runs `(from, to, ±1.0)`; empty when the
    /// template holds another value, so every search is exhaustive.
    runs: Vec<(usize, usize, f64)>,
    /// Left-to-right prefix sums of the search region's samples.
    prefix: Vec<f64>,
    /// Per start, its dot estimate, then an upper bound on its computed
    /// score: `+∞` when its floor test is uncertain, `−∞` when it is
    /// surely below the floor.
    upper: Vec<f64>,
    pruned: bool,
}

impl PreambleCorrelator {
    /// A correlator for `template`, with its [`template_energy`].
    pub fn new(template: Vec<f64>) -> Self {
        let energy = template_energy(&template);
        let mut runs: Vec<(usize, usize, f64)> = Vec::new();
        for (i, &t) in template.iter().enumerate() {
            if t == 0.0 {
                continue;
            }
            if t.abs() != 1.0 {
                runs.clear();
                break;
            }
            match runs.last_mut() {
                Some((_, to, sign)) if *to == i && *sign == t => *to = i + 1,
                _ => runs.push((i, i + 1, t)),
            }
        }
        PreambleCorrelator {
            template,
            energy,
            runs,
            prefix: Vec::new(),
            upper: Vec::new(),
            pruned: false,
        }
    }

    /// The template samples.
    pub fn template(&self) -> &[f64] {
        &self.template
    }

    /// Whether the last [`Self::search`] took the pruned path (else it ran
    /// the exhaustive scan).
    pub fn last_pruned(&self) -> bool {
        self.pruned
    }

    /// The best start in `search_from..=search_from + search_len` and its
    /// score: exactly `correlate_template(samples, template, energy,
    /// search_from, search_len)`.
    pub fn search(
        &mut self,
        samples: &[f64],
        search_from: usize,
        search_len: usize,
    ) -> Option<(usize, f64)> {
        let n = self.template.len();
        let last_start = search_from
            .checked_add(search_len)
            .zip(samples.len().checked_sub(n))
            .map(|(a, b)| a.min(b));
        let best_lower = match last_start {
            Some(last) if n > 0 && last >= search_from => {
                self.bound(&samples[search_from..last + n])
            }
            _ => None,
        };
        self.pruned = best_lower.is_some();
        let Some(best_lower) = best_lower else {
            return correlate_template(
                samples,
                &self.template,
                self.energy,
                search_from,
                search_len,
            );
        };
        let mut best = None;
        for (i, &upper) in self.upper.iter().enumerate() {
            if upper >= best_lower {
                let start = search_from + i;
                let (dot, energy) = window_sums(&samples[start..start + n], &self.template);
                consider(&mut best, start, dot, energy, self.energy);
            }
        }
        best
    }

    /// Fills `upper` for every start of the template in `region` and
    /// returns the best lower score bound among starts surely above the
    /// floor — `None` when the search must be exhaustive.
    fn bound(&mut self, region: &[f64]) -> Option<f64> {
        let n = self.template.len();
        let (m, l) = (self.runs.len(), region.len());
        if m == 0 || (m + 1) as f64 * (l + 1) as f64 * f64::EPSILON >= 1e-3 {
            return None;
        }
        self.prefix.clear();
        self.prefix.reserve_exact(l + 1);
        let (mut sum, mut sq_sum, mut abs_sum) = (0.0f64, 0.0f64, 0.0f64);
        self.prefix.push(sum);
        for &a in region {
            sum += a;
            sq_sum += a * a;
            abs_sum += a.abs();
            self.prefix.push(sum);
        }
        // Non-finite samples fail both tests; so do sums near overflow.
        if !(abs_sum < 1e300 && sq_sum < 1e300) {
            return None;
        }
        let (dot_margin, energy_margin) = prefix_margins(m, l, abs_sum, sq_sum);
        let t_energy = self.energy;
        let score = |dot: f64, energy: f64| dot / (t_energy * energy.sqrt());
        // Every start's dot estimate, each folded over the runs in order
        // from `0.0`; runs outside, starts inside, so the loop vectorizes.
        let starts = l - n + 1;
        self.upper.clear();
        self.upper.resize(starts, 0.0);
        for &(from, to, sign) in &self.runs {
            let (hi, lo) = (
                &self.prefix[to..to + starts],
                &self.prefix[from..from + starts],
            );
            for ((d, &h), &l) in self.upper.iter_mut().zip(hi).zip(lo) {
                *d += sign * (h - l);
            }
        }
        let mut best_lower: Option<f64> = None;
        // The prefix sums of the squares at the window's two ends, each
        // summed left to right as far as it reaches.
        let mut sq_from = 0.0f64;
        let mut sq_to = region[..n].iter().fold(0.0f64, |q, &a| q + a * a);
        for (s, slot) in self.upper.iter_mut().enumerate() {
            if s > 0 {
                sq_from += region[s - 1] * region[s - 1];
                sq_to += region[s + n - 1] * region[s + n - 1];
            }
            let (dot, energy) = (*slot, sq_to - sq_from);
            let (e_lo, e_hi) = (energy - energy_margin, energy + energy_margin);
            *slot = if e_lo > 0.0 && e_lo.sqrt() >= ENERGY_FLOOR {
                let (d_lo, d_hi) = (dot - dot_margin, dot + dot_margin);
                let lower = score(d_lo, if d_lo >= 0.0 { e_hi } else { e_lo });
                best_lower = Some(best_lower.map_or(lower, |b| b.max(lower)));
                score(d_hi, if d_hi >= 0.0 { e_lo } else { e_hi })
            } else if e_hi.sqrt() < ENERGY_FLOOR {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        best_lower
    }
}

/// Margins `(dot, energy)` by which a start's prefix-sum dot and energy,
/// as [`PreambleCorrelator`] computes them, may differ from the per-start
/// loop's: `4(m + 1)(l + 1)·ε·abs_sum` and `4(l + 1)·ε·sq_sum`, for a
/// template of `m` runs of `±1` over a region of `l` samples `a_i` whose
/// absolute values and squares sum (left to right, in floating point) to
/// `abs_sum` and `sq_sum`, `ε = 2⁻⁵²` ([`f64::EPSILON`]); the caller
/// ensures `(m + 1)(l + 1)·ε < 10⁻³`.
///
/// Why. Write `u = ε/2`, `A = Σ|a_i|` exactly and `γ_k = ku/(1 − ku)`
/// (`≤ 1.001·ku` here), the relative error bound of a `k`-term
/// left-to-right sum against the sum of its absolute values. Each product
/// `a·t` is exact (`t ∈ {0, ±1}`). Let `X` be a start's exact dot, `W_j`
/// the exact absolute sum of run `j`'s samples (`Σ W_j ≤ A`).
///
/// - Every prefix sum is within `γ_l·A` of its exact value, so run `j`'s
///   rounded difference `d_j` is within `2γ_l·A + u(W_j + 2γ_l·A)` of its
///   exact run sum, and `Σ|d_j| ≤ (1 + u)(1 + 2mγ_l)·A`.
/// - The fold `Σ ±d_j` from `0.0` adds at most `γ_m·Σ|d_j|`.
/// - The per-start loop's own dot is within `γ_n·A ≤ γ_l·A` of `X`.
///
/// So the two dots differ by at most
/// `(2mγ_l + (u + (1 + u)γ_m)(1 + 2mγ_l) + γ_l)·A ≤ 2.01(m + 1)(l + 1)·u·A`.
/// With `abs_sum ≥ (1 − γ_l)·A` that is below `1.01(m + 1)(l + 1)·ε·abs_sum`;
/// the margin's remaining `≈ 3(m + 1)(l + 1)·ε·abs_sum` covers the few
/// roundings of the margin itself and of `dot ± margin`, each at most
/// `u(|dot| + margin) < ε·abs_sum`.
///
/// The energy sums the same rounded squares `q_i` on both sides, all
/// `≥ 0` with exact sum `Q ≤ 1.001·sq_sum`: prefix error `γ_l·Q`, the
/// difference's rounding `u(Y + 2γ_l·Q)` for a window sum `Y ≤ Q`, and the
/// loop's own `γ_n·Y`, in all at most `(3γ_l + 2u)·Q ≤ 1.51(l + 1)·ε·sq_sum`.
/// Sums of finite values round relatively (no underflow term), so the
/// margins hold down to zero.
fn prefix_margins(m: usize, l: usize, abs_sum: f64, sq_sum: f64) -> (f64, f64) {
    let eps = f64::EPSILON;
    (
        4.0 * (m + 1) as f64 * (l + 1) as f64 * eps * abs_sum,
        4.0 * (l + 1) as f64 * eps * sq_sum,
    )
}

/// Finds the start of a known chip pattern in a sample stream by normalized
/// cross-correlation, scanning candidate offsets at one-sample granularity.
/// Returns the best-matching start sample and the correlation score in
/// `[-1, 1]`, or `None` when the stream is shorter than the pattern.
pub fn correlate_pattern(
    samples: &[f64],
    cfg: &WaveformConfig,
    pattern: &[Chip],
    search_from: usize,
    search_len: usize,
) -> Option<(usize, f64)> {
    let template = render(
        pattern,
        cfg,
        1.0,
        0.0,
        (pattern.len() as f64 * cfg.samples_per_chip()).round() as usize,
    );
    correlate_template(
        samples,
        &template,
        template_energy(&template),
        search_from,
        search_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manchester::manchester_encode;

    fn cfg() -> WaveformConfig {
        WaveformConfig::paper()
    }

    #[test]
    fn paper_rates() {
        let c = cfg();
        assert_eq!(c.samples_per_chip(), 10.0);
        assert_eq!(c.chip_duration_s(), 1e-5);
    }

    #[test]
    fn render_maps_chips_to_levels() {
        let chips = vec![Chip::High, Chip::Low];
        let w = render(&chips, &cfg(), 2.0, 0.0, 25);
        assert!(w[..10].iter().all(|&x| x == 2.0));
        assert!(w[10..20].iter().all(|&x| x == -2.0));
        assert!(w[20..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn render_honors_delay() {
        let chips = vec![Chip::High];
        // 5 µs delay = 5 samples at 1 Msps.
        let w = render(&chips, &cfg(), 1.0, 5e-6, 20);
        assert!(w[..5].iter().all(|&x| x == 0.0));
        assert!(w[5..15].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn mix_superimposes() {
        let chips = vec![Chip::High];
        let mut a = render(&chips, &cfg(), 1.0, 0.0, 12);
        let b = render(&chips, &cfg(), 0.5, 0.0, 12);
        mix_into(&mut a, &b);
        assert!((a[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slice_recovers_clean_chips() {
        let chips = manchester_encode(&[0x5A, 0xC3]);
        let w = render(&chips, &cfg(), 0.7, 0.0, chips.len() * 10 + 5);
        let got = slice_chips(&w, &cfg(), 0, chips.len()).expect("long enough");
        assert_eq!(got, chips);
    }

    #[test]
    fn slice_tolerates_small_misalignment() {
        let chips = manchester_encode(&[0xF0, 0x0F]);
        // Start 2 samples late (20 % of a chip): mid-chip averaging holds.
        let w = render(&chips, &cfg(), 1.0, 2e-6, chips.len() * 10 + 10);
        let got = slice_chips(&w, &cfg(), 0, chips.len()).expect("long enough");
        assert_eq!(got, chips);
    }

    #[test]
    fn slice_detects_short_stream() {
        let chips = vec![Chip::High; 4];
        let w = render(&chips, &cfg(), 1.0, 0.0, 15);
        assert!(slice_chips(&w, &cfg(), 0, 4).is_none());
    }

    #[test]
    fn correlate_finds_pattern_start() {
        let pattern = manchester_encode(&[0xAA, 0x55]);
        let delay_samples = 37;
        let w = render(&pattern, &cfg(), 0.3, delay_samples as f64 * 1e-6, 600);
        let (start, score) = correlate_pattern(&w, &cfg(), &pattern, 0, 200).expect("found");
        assert_eq!(start, delay_samples);
        assert!(score > 0.99, "score {score}");
    }

    #[test]
    fn correlate_rejects_too_short_stream() {
        let pattern = vec![Chip::High; 64];
        let w = vec![0.0; 10];
        assert!(correlate_pattern(&w, &cfg(), &pattern, 0, 10).is_none());
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mix_length_mismatch_panics() {
        let mut a = vec![0.0; 3];
        mix_into(&mut a, &[0.0; 4]);
    }

    #[test]
    fn render_packed_is_bit_identical_to_render() {
        let chips = manchester_encode(&[0x5A, 0xC3, 0xFF, 0x00]);
        let packed = crate::packed::PackedChips::from_chips(&chips);
        let mut buf = Vec::new();
        // Awkward delays and non-integer samples-per-chip included.
        // At 1 sample/s the delay in seconds is the delay in samples, so
        // the last ones sit one ulp off a whole sample: `13 − d` rounds to
        // a chip boundary the exact quotient has not reached yet, and only
        // the corrected path draws the scalar boundary.
        let near_whole = [3.0f64.next_up(), 7.0f64.next_down(), 13.0f64.next_up()];
        for (sym, samp) in [
            (100_000.0, 1_000_000.0),
            (97_000.0, 1_000_000.0),
            (0.1, 1.0),
        ] {
            let c = WaveformConfig {
                symbol_rate_hz: sym,
                sample_rate_hz: samp,
            };
            for delay in [0.0, 5e-6, 3.7e-6, -2.3e-6, 1.0e-3, 1e-7]
                .into_iter()
                .chain(near_whole)
            {
                let reference = render(&chips, &c, 0.8, delay, 800);
                render_packed_into(&packed, &c, 0.8, delay, 800, &mut buf);
                assert_eq!(buf, reference, "render_packed_into sym={sym} delay={delay}");
            }
        }
    }

    #[test]
    fn packed_slice_matches_scalar_slice() {
        let slice = |w: &[f64], start: usize, n_chips: usize, out: &mut PackedChips| {
            slice_chips_packed_by(w.len(), &cfg(), start, n_chips, out, |lo, hi| {
                w[lo..hi].iter().sum::<f64>() >= 0.0
            })
        };
        let chips = manchester_encode(&[0xF0, 0x0F, 0x37]);
        let w = render(&chips, &cfg(), 1.0, 2e-6, chips.len() * 10 + 10);
        let scalar = slice_chips(&w, &cfg(), 0, chips.len()).expect("long enough");
        let mut packed = PackedChips::new();
        assert_eq!(slice(&w, 0, chips.len(), &mut packed), Sliced::Whole);
        assert_eq!(packed.to_chips(), scalar);
        // Too-short stream: both sides refuse.
        assert!(slice_chips(&w, &cfg(), 100, chips.len()).is_none());
        assert_eq!(slice(&w, 100, chips.len(), &mut packed), Sliced::Short);
        assert!(packed.is_empty());
        // Pair 2 (chips 4, 5) holds two equal chips: the pass keeps the
        // scalar chips up to that pair and stops.
        let mut broken = chips.clone();
        broken[5] = broken[4];
        let w = render(&broken, &cfg(), 1.0, 2e-6, broken.len() * 10 + 10);
        let scalar = slice_chips(&w, &cfg(), 0, broken.len()).expect("long enough");
        assert_eq!(slice(&w, 0, broken.len(), &mut packed), Sliced::BrokenPair);
        assert_eq!(packed.to_chips(), scalar[..6]);
    }

    #[test]
    fn correlate_template_matches_correlate_pattern() {
        let pattern = manchester_encode(&[0xAA, 0x55]);
        let w = render(&pattern, &cfg(), 0.3, 37e-6, 600);
        let via_pattern = correlate_pattern(&w, &cfg(), &pattern, 0, 200).expect("found");
        let template = render(
            &pattern,
            &cfg(),
            1.0,
            0.0,
            (pattern.len() as f64 * cfg().samples_per_chip()).round() as usize,
        );
        let via_template =
            correlate_template(&w, &template, template_energy(&template), 0, 200).expect("found");
        assert_eq!(via_pattern, via_template);
    }
}
