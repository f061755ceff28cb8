//! Packed-vs-scalar identity: the bit-packed fast path must be
//! bit-identical to the scalar reference for encode, decode (including
//! invalid streams), the frame layer over the RS stack, rendering, and
//! the Reed–Solomon workspace (parity bytes, corrected blocks, error
//! positions/results) — for random payloads and random bit flips beyond
//! the correction capacity — and the pruned preamble search against the
//! exhaustive correlation scan. `cargo tier2` replays this suite at
//! `DENSEVLC_JOBS=1` and `DENSEVLC_JOBS=max`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};
use vlc_phy::manchester::{manchester_decode, manchester_encode, Chip};
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::rs::{ReedSolomon, RsCodec};
use vlc_phy::waveform::{
    correlate_pattern, correlate_template, mix_into, render, render_packed_into, slice_chips,
    slice_chips_packed_by, template_energy, ChipRuns, PreambleCorrelator, Sliced, Superposition,
    WaveformConfig, WindowBlock,
};
use vlc_phy::{Frame, FrameHeader, RsStack};

/// [`PackedChips::decode_bytes_into`] in the scalar decoder's shape.
fn decoded(packed: &PackedChips) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    packed.decode_bytes_into(&mut out).then_some(out)
}

/// What [`slice_chips_packed_by`] with the scalar window test must return
/// for the `n_chips` chips from sample 0, derived from [`slice_chips`]:
/// the scalar chips cut before the first window past the stream, ending at
/// their first pair of equal chips ([`Sliced::BrokenPair`]); with no such
/// pair, all of them ([`Sliced::Whole`]) or, when a window ran past the
/// stream, none ([`Sliced::Short`]).
fn scalar_slice_fate(samples: &[f64], cfg: &WaveformConfig, n_chips: usize) -> (Sliced, Vec<Chip>) {
    let chips = (0..=n_chips)
        .rev()
        .find_map(|m| slice_chips(samples, cfg, 0, m))
        .expect("zero chips always slice");
    match chips.chunks_exact(2).position(|pair| pair[0] == pair[1]) {
        Some(pair) => (Sliced::BrokenPair, chips[..2 * pair + 2].to_vec()),
        None if chips.len() == n_chips => (Sliced::Whole, chips),
        None => (Sliced::Short, Vec::new()),
    }
}

proptest! {
    /// Packed encode produces the exact chip stream of the scalar encoder,
    /// and packed decode returns the exact bytes.
    #[test]
    fn encode_decode_identity(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let scalar = manchester_encode(&data);
        let packed = packed_encode(&data);
        prop_assert_eq!(packed.len(), scalar.len());
        prop_assert_eq!(packed.to_chips(), scalar.clone());
        prop_assert_eq!(decoded(&packed), manchester_decode(&scalar));
        prop_assert_eq!(decoded(&packed), Some(data));
    }

    /// Random chip-level corruption (which may destroy mid-bit
    /// transitions): both decoders accept/reject identically and agree on
    /// the decoded bytes when they accept.
    #[test]
    fn corrupted_stream_identity(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        flips in proptest::collection::vec(any::<u16>(), 0..40),
    ) {
        let mut chips = manchester_encode(&data);
        for f in flips {
            let i = f as usize % chips.len();
            chips[i] = if chips[i] == Chip::High { Chip::Low } else { Chip::High };
        }
        let packed = PackedChips::from_chips(&chips);
        prop_assert_eq!(decoded(&packed), manchester_decode(&chips));
    }

    /// Truncated (odd / non-multiple-of-16) streams are rejected by both.
    #[test]
    fn truncation_identity(
        data in proptest::collection::vec(any::<u8>(), 1..16),
        cut in 1usize..16,
    ) {
        let chips = manchester_encode(&data);
        let cut = cut.min(chips.len() - 1);
        let truncated = &chips[..chips.len() - cut];
        let packed = PackedChips::from_chips(truncated);
        prop_assert_eq!(decoded(&packed), manchester_decode(truncated));
    }

    /// The RsCodec workspace is byte-identical to the scalar codec:
    /// same parity on encode, same result (count or error) and same
    /// corrected block — hence the same error positions — on decode, for
    /// corruption from 0 to beyond the t = 8 capacity.
    #[test]
    fn rs_codec_identity(
        data in proptest::collection::vec(any::<u8>(), 1..=200),
        err_seed in any::<u64>(),
        n_err in 0usize..=12,
    ) {
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        // Parity identity (satellite: in-place add_shifted must keep
        // encode byte-identical on this corpus).
        let clean = rs.encode(&data);
        let mut codec_out = Vec::new();
        codec.encode_into(&data, &mut codec_out);
        prop_assert_eq!(&codec_out, &clean);

        let mut rng = StdRng::seed_from_u64(err_seed);
        let mut scalar_block = clean.clone();
        let mut packed_block = clean;
        let n_err = n_err.min(scalar_block.len());
        let mut positions = std::collections::HashSet::new();
        while positions.len() < n_err {
            positions.insert(rng.gen_range(0..scalar_block.len()));
        }
        for &p in &positions {
            let flip = rng.gen_range(1..=255u8);
            scalar_block[p] ^= flip;
            packed_block[p] ^= flip;
        }
        let scalar_res = rs.decode(&mut scalar_block);
        let packed_res = codec.decode_in_place(&mut packed_block);
        prop_assert_eq!(scalar_res, packed_res);
        prop_assert_eq!(scalar_block, packed_block);
    }

    /// Multi-chunk payloads through the frame layer: the parts path over
    /// the paper's RS stack reproduces `to_bytes`/`from_bytes` exactly.
    #[test]
    fn frame_parts_identity(
        payload in proptest::collection::vec(any::<u8>(), 0..450),
        mask in any::<u64>(),
        at_pos in any::<u32>(),
    ) {
        let rs = ReedSolomon::paper();
        let mut stack = RsStack::paper();
        let header = FrameHeader { dst: 7, src: 3, protocol: 1 };
        let frame = Frame::new(mask, header, payload.clone());
        let mut wire = Vec::new();
        Frame::encode_parts_with(mask, &header, &payload, &mut stack, &mut wire);
        prop_assert_eq!(&wire, &frame.to_bytes(&rs));
        if !wire.is_empty() {
            let p = at_pos as usize % wire.len();
            wire[p] ^= 0x5a;
        }
        let mut payload_out = Vec::new();
        let parts = Frame::decode_parts_with(&wire, &mut stack, &mut payload_out);
        match Frame::from_bytes(&wire, &rs) {
            Ok((f, fixed)) => {
                let (got_mask, got_header, got_fixed) = parts.expect("parts path must agree");
                prop_assert_eq!(got_mask, f.tx_id_mask);
                prop_assert_eq!(got_header, f.header);
                prop_assert_eq!(got_fixed, fixed);
                prop_assert_eq!(payload_out, f.payload);
            }
            Err(e) => prop_assert_eq!(parts.expect_err("parts path must agree"), e),
        }
    }

    /// Waveform kernels: the run-based renderer, packed slicer, and
    /// hoisted-template correlator are bit-identical to the scalar ops
    /// for random amplitudes, delays, and rate ratios.
    #[test]
    fn waveform_kernel_identity(
        data in proptest::collection::vec(any::<u8>(), 1..12),
        amp in 0.01f64..2.0,
        delay_us in -20.0f64..60.0,
        spc_num in 2u32..25,
    ) {
        let cfg = WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 100_000.0 * spc_num as f64 / 2.0,
        };
        let chips = manchester_encode(&data);
        let packed = packed_encode(&data);
        let n = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize + 120;
        let delay = delay_us * 1e-6;
        let reference = render(&chips, &cfg, amp, delay, n);
        let mut buf = Vec::new();
        render_packed_into(&packed, &cfg, amp, delay, n, &mut buf);
        prop_assert_eq!(&buf, &reference);

        let mut packed_sliced = PackedChips::new();
        let outcome = slice_chips_packed_by(
            reference.len(),
            &cfg,
            0,
            chips.len(),
            &mut packed_sliced,
            |lo, hi| reference[lo..hi].iter().sum::<f64>() >= 0.0,
        );
        let (want_outcome, want_chips) = scalar_slice_fate(&reference, &cfg, chips.len());
        prop_assert_eq!(outcome, want_outcome);
        prop_assert_eq!(packed_sliced.to_chips(), want_chips);

        let template = render(
            &chips,
            &cfg,
            1.0,
            0.0,
            (chips.len() as f64 * cfg.samples_per_chip()).round() as usize,
        );
        let via_pattern = correlate_pattern(&reference, &cfg, &chips, 0, 100);
        let via_template =
            correlate_template(&reference, &template, template_energy(&template), 0, 100);
        prop_assert_eq!(via_pattern, via_template);
    }

    /// One-pass render: resolving each delay's chip runs once and adding
    /// every TX's `±amp` straight into the photocurrent, in TX order
    /// (`Superposition::render` over the whole frame), is bit-identical to
    /// rendering each TX and mixing it in — for 1–4 TXs over 1–2 delays,
    /// integer and fractional delays and rates, and zero amplitudes.
    #[test]
    fn one_pass_render_matches_render_and_mix(
        data in proptest::collection::vec(any::<u8>(), 1..10),
        txs in proptest::collection::vec((0usize..2, 0u8..4, 0.0f64..2.0), 1..5),
        delays_us in (-15.0f64..40.0, -15.0f64..40.0, any::<bool>()),
        spc_num in 2u32..25,
    ) {
        let cfg = WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 100_000.0 * spc_num as f64 / 2.0,
        };
        let (d0, d1, integer) = delays_us;
        // Integer delays land on whole samples (the exact-grid path).
        let delay_of = |d: f64| {
            if integer {
                (d * cfg.sample_rate_hz * 1e-6).round() / cfg.sample_rate_hz
            } else {
                d * 1e-6
            }
        };
        let delays = [delay_of(d0), delay_of(d1)];
        let chips = manchester_encode(&data);
        let packed = packed_encode(&data);
        let n = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize + 60;
        // A quarter of the TXs radiate at amplitude 0.0.
        let amp = |(_, z, a): (usize, u8, f64)| if z == 0 { 0.0 } else { a };

        let mut reference = vec![0.0f64; n];
        for &tx in &txs {
            mix_into(&mut reference, &render(&chips, &cfg, amp(tx), delays[tx.0], n));
        }
        let mut runs = [ChipRuns::new(), ChipRuns::new()];
        for (r, &delay) in runs.iter_mut().zip(&delays) {
            r.resolve(&packed, &cfg, delay, n);
        }
        let mut light = Superposition::new();
        for &tx in &txs {
            light.push(tx.0, amp(tx));
        }
        light.rewind();
        // A stale buffer: `render` overwrites every sample.
        let mut one_pass = vec![f64::NAN; n];
        light.render(&runs, &mut one_pass, 0, n);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&one_pass), bits(&reference));
    }

    /// On-demand render: over windows of every width and stride — many of
    /// them straddling run edges — for 1–4 TXs on 1–2 delays, integer
    /// and fractional delays and rates (10.3 samples per chip among them)
    /// and zero amplitudes (whose low chips add `−0.0`), a covered
    /// window's `Superposition::level` equals every eager sample in it and
    /// `Superposition::render` of any window equals the eager samples, bit
    /// for bit. The eager reference is the scalar `render` of each TX mixed
    /// in with `mix_into`, in TX order, into a zeroed buffer.
    #[test]
    fn on_demand_render_matches_eager_render(
        data in proptest::collection::vec(any::<u8>(), 1..8),
        txs in proptest::collection::vec((0usize..2, 0u8..4, 0.0f64..2.0), 1..5),
        delays_us in (-15.0f64..40.0, -15.0f64..40.0, any::<bool>()),
        spc_pick in 0u32..26,
        window in (1usize..9, 1usize..13),
    ) {
        // 0 → 10.3 samples per chip, 1 → 10, else a half-integer grid.
        let spc = match spc_pick {
            0 => 10.3,
            1 => 10.0,
            n => n as f64 / 2.0,
        };
        let cfg = WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 100_000.0 * spc,
        };
        let (d0, d1, integer) = delays_us;
        let delay_of = |d: f64| {
            if integer {
                (d * cfg.sample_rate_hz * 1e-6).round() / cfg.sample_rate_hz
            } else {
                d * 1e-6
            }
        };
        let delays = [delay_of(d0), delay_of(d1)];
        let chips = manchester_encode(&data);
        let packed = packed_encode(&data);
        let n = (packed.len() as f64 * spc).ceil() as usize + 60;
        let mut runs = [ChipRuns::new(), ChipRuns::new()];
        for (r, &delay) in runs.iter_mut().zip(&delays) {
            r.resolve(&packed, &cfg, delay, n);
        }
        let amp = |(_, z, a): (usize, u8, f64)| if z == 0 { 0.0 } else { a };
        let mut eager = vec![0.0f64; n];
        for &tx in &txs {
            mix_into(&mut eager, &render(&chips, &cfg, amp(tx), delays[tx.0], n));
        }
        let mut light = Superposition::new();
        for &tx in &txs {
            light.push(tx.0, amp(tx));
        }
        light.rewind();
        let (width, stride) = window;
        let mut rendered = vec![f64::NAN; n];
        let mut lo = 0;
        while lo + width <= n {
            let hi = lo + width;
            if let Some(level) = light.level(&runs, lo, hi) {
                for (i, x) in eager[lo..hi].iter().enumerate() {
                    prop_assert_eq!(level.to_bits(), x.to_bits(), "covered window {}..{} at {}", lo, hi, lo + i);
                }
            }
            light.render(&runs, &mut rendered, lo, hi);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&rendered[lo..hi]), bits(&eager[lo..hi]), "window {}..{}", lo, hi);
            lo += stride;
        }
    }

    /// The word path's block proof: wherever `Superposition::word`
    /// decides a block of slicing windows, each window's
    /// `Superposition::level` is `±Superposition::peak` with the sign of
    /// its bit, and the superposition is left as those per-window calls
    /// leave it — for 1–3 streams at whole and fractional delays, some
    /// carrying a flipped chip, a cut tail or a chip rate that drifts
    /// against the windows' grid, and zero amplitudes.
    #[test]
    fn block_word_matches_per_window_levels(
        data in proptest::collection::vec(any::<u8>(), 1..20),
        streams in proptest::collection::vec((-3.0f64..3.0, any::<bool>(), 0u8..10, any::<u16>()), 1..4),
        txs in proptest::collection::vec((0usize..3, 0.0f64..2.0, 0u8..6), 1..5),
        spc in 3usize..14,
        block_at in (any::<u16>(), 1usize..=64),
    ) {
        let cfg = WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 100_000.0 * spc as f64,
        };
        let chips = manchester_encode(&data);
        let n_chips = chips.len();
        let guard = 8 * spc;
        let n = guard + spc * n_chips + guard;
        let runs: Vec<ChipRuns> = streams
            .iter()
            .map(|&(delay, whole, kind, at)| {
                let delay = if whole { delay.round() } else { delay };
                let mut chips = chips.clone();
                let mut stream_cfg = cfg;
                match kind {
                    0 => {
                        let k = at as usize % n_chips;
                        chips[k] = if chips[k] == Chip::High { Chip::Low } else { Chip::High };
                    }
                    1 => chips.truncate(n_chips - at as usize % n_chips),
                    2 => stream_cfg.symbol_rate_hz = cfg.sample_rate_hz / (spc as f64 + 0.016),
                    _ => {}
                }
                let mut runs = ChipRuns::new();
                let delay_s = (guard as f64 + delay) / cfg.sample_rate_hz;
                runs.resolve(&PackedChips::from_chips(&chips), &stream_cfg, delay_s, n);
                runs
            })
            .collect();
        let mut light = Superposition::new();
        for &(s, amp, z) in &txs {
            light.push(s % runs.len(), if z == 0 { 0.0 } else { amp });
        }
        light.rewind();
        let k0 = block_at.0 as usize % n_chips;
        let block = WindowBlock {
            lo: guard + spc / 4 + k0 * spc,
            stride: spc,
            width: (3 * spc).div_ceil(4) - spc / 4,
            n: block_at.1.min(n_chips - k0),
        };
        let mut by_word = light.clone();
        if let Some(word) = by_word.word(&runs, block) {
            let peak = light.peak();
            for i in 0..block.n {
                let (lo, hi) = block.window(i);
                let want = if (word >> i) & 1 == 1 { peak } else { -peak };
                let got = light.level(&runs, lo, hi);
                prop_assert_eq!(got, Some(want), "window {}", i);
                if peak != 0.0 {
                    prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "window {}", i);
                }
            }
            prop_assert_eq!(format!("{by_word:?}"), format!("{light:?}"));
        }
    }

    /// The lane-parallel correlator equals the one-start-at-a-time loop
    /// it replaced, for search lengths that are not a multiple of the
    /// lane count, windows running into the stream end, all-zero windows
    /// (skipped below the `1e-30` energy floor) and exact ties.
    #[test]
    fn lane_correlator_matches_one_start_loop(
        template in proptest::collection::vec(-2i8..3, 1..40),
        samples in proptest::collection::vec(-2i8..3, 0..160),
        zero_run in (0usize..160, 0usize..60),
        search_from in 0usize..40,
        search_len in 0usize..150,
    ) {
        // Small integers make equal scores (exact ties) common.
        let template: Vec<f64> = template.into_iter().map(f64::from).collect();
        let mut samples: Vec<f64> = samples.into_iter().map(f64::from).collect();
        let (at, len) = zero_run;
        let end = (at + len).min(samples.len());
        if at < end {
            samples[at..end].fill(0.0);
        }
        let t_energy = template_energy(&template);
        let got = correlate_template(&samples, &template, t_energy, search_from, search_len);
        let want = one_start_correlate(&samples, &template, t_energy, search_from, search_len);
        prop_assert_eq!(
            got.map(|(i, s)| (i, s.to_bits())),
            want.map(|(i, s)| (i, s.to_bits()))
        );
    }
}

/// Cases of `pruned_correlator_matches_one_start_loop`, and the counts of
/// cases run and of cases that took the pruned path.
const CORRELATOR_CASES: u32 = 384;
static CORRELATOR_RUN: AtomicU32 = AtomicU32::new(0);
static CORRELATOR_PRUNED: AtomicU32 = AtomicU32::new(0);

/// The receiver noise RMS of the paper's Table 1, `√(N0·B)`, in amperes.
const SIGMA_A: f64 = 8.378e-9;

/// The Table 5 preamble (`AA AA AA 55`) rendered at unit amplitude, zero
/// delay: the template the frame pipeline searches for.
fn table5_template(cfg: &WaveformConfig) -> Vec<f64> {
    let pre = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
    let mut template = Vec::new();
    let len = (pre.len() as f64 * cfg.samples_per_chip()).round() as usize;
    render_packed_into(&pre, cfg, 1.0, 0.0, len, &mut template);
    template
}

/// One Gaussian draw (Box–Muller) of unit variance.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A received stream for one case of `pruned_correlator_matches_one_start_loop`,
/// by `kind`:
///
/// - 0, 1: a Table 5 frame (preamble + payload) from 1–4 TXs, in sync or
///   spread over tens of samples, at the testbed's SNR (kind 0) or at
///   SNRs where lock fails (kind 1), with the paper's noise;
/// - 2: a periodic stream — copies of the template or of a short
///   pattern — whose equal windows score exact ties;
/// - 3: zero runs and near-floor amplitudes, where windows sit at or near
///   the `1e-30` energy floor;
/// - 4: a frame with a NaN or ±∞ sample, which must take the exhaustive
///   scan.
fn correlator_stream(kind: u8, seed: u64, template: &[f64], cfg: &WaveformConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = template.len();
    let guard = (8.0 * cfg.samples_per_chip()) as usize;
    let len = guard + n + 160 + guard + rng.gen_range(0..200usize);
    let frame = |rng: &mut StdRng, amp_sigmas: f64| {
        let payload: Vec<u8> = (0..10).map(|_| rng.gen()).collect();
        let mut chips = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
        chips.encode_bytes(&payload);
        let spread = if rng.gen_bool(0.5) { 3.0 } else { 60.0 };
        let mut samples = vec![0.0f64; len];
        let mut tx = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let delay = (guard as f64 + rng.gen_range(0.0..spread)) / cfg.sample_rate_hz;
            let amp = amp_sigmas * SIGMA_A * rng.gen_range(0.2..1.0);
            render_packed_into(&chips, cfg, amp, delay, len, &mut tx);
            mix_into(&mut samples, &tx);
        }
        for x in &mut samples {
            *x += SIGMA_A * gaussian(rng);
        }
        samples
    };
    match kind {
        0 => {
            let snr = rng.gen_range(20.0..400.0);
            frame(&mut rng, snr)
        }
        1 => {
            let snr = rng.gen_range(0.005..0.5);
            frame(&mut rng, snr)
        }
        2 => {
            let amp = [0.3, 1.7e-6, 5.0, 1.0 / 3.0][rng.gen_range(0..4usize)];
            let period: Vec<f64> = if rng.gen_bool(0.5) {
                template.to_vec()
            } else {
                (0..rng.gen_range(1..30))
                    .map(|_| rng.gen_range(-2i8..3) as f64)
                    .collect()
            };
            (0..len).map(|i| amp * period[i % period.len()]).collect()
        }
        3 => {
            let amp = [0.0, 1e-32, 4e-32, 1e-31, 1e-29, 1e-6][rng.gen_range(0..6usize)];
            let mut samples: Vec<f64> = (0..len).map(|_| amp * gaussian(&mut rng)).collect();
            let at = rng.gen_range(0..len);
            let end = (at + rng.gen_range(0..2 * n)).min(len);
            samples[at..end].fill(0.0);
            if rng.gen_bool(0.5) {
                // A loud burst makes the energy margin dwarf the quiet
                // windows' energy, so their floor test is uncertain.
                let at = rng.gen_range(0..len);
                let end = (at + rng.gen_range(1..40usize)).min(len);
                for x in &mut samples[at..end] {
                    *x = 1e-22 * gaussian(&mut rng);
                }
            }
            samples
        }
        _ => {
            let mut samples = frame(&mut rng, 100.0);
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            let at = rng.gen_range(0..guard + n + 3 * guard);
            samples[at] = bad;
            samples
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CORRELATOR_CASES))]

    /// The pruned preamble search returns what the one-start loop returns
    /// — start and score bits — on the real Table 5 template, over
    /// rendered multi-TX frames at the testbed's SNR and below lock, exact
    /// ties, zero and near-floor windows, non-finite samples, and search
    /// ranges clipped by the stream end. One correlator serves every case,
    /// as one pipeline serves every frame. Most cases must take the pruned
    /// path, so the exhaustive fallback alone cannot pass.
    #[test]
    fn pruned_correlator_matches_one_start_loop(
        kind in 0u8..5,
        seed in any::<u64>(),
        search in (0usize..120, 0usize..300, 0u8..4),
    ) {
        thread_local! {
            static CORRELATOR: std::cell::RefCell<Option<PreambleCorrelator>> =
                const { std::cell::RefCell::new(None) };
        }
        let cfg = WaveformConfig::paper();
        let template = table5_template(&cfg);
        let samples = correlator_stream(kind, seed, &template, &cfg);
        // The pipeline's range in a quarter of the cases; else a shifted
        // one, often running past the stream end.
        let (from, len) = match search {
            (_, _, 0) => (0, 3 * 80),
            (from, len, _) => (from, len),
        };
        let (got, pruned) = CORRELATOR.with(|c| {
            let mut c = c.borrow_mut();
            let c = c.get_or_insert_with(|| PreambleCorrelator::new(template.clone()));
            (c.search(&samples, from, len), c.last_pruned())
        });
        let want = one_start_correlate(&samples, &template, template_energy(&template), from, len);
        prop_assert_eq!(
            got.map(|(i, s)| (i, s.to_bits())),
            want.map(|(i, s)| (i, s.to_bits())),
            "kind {}", kind
        );
        let n = template.len();
        let last = (from + len).min(samples.len().saturating_sub(n));
        if samples[from.min(last)..last + n].iter().any(|x| !x.is_finite()) {
            prop_assert!(!pruned, "a non-finite sample must take the exhaustive scan");
        }
        let run = CORRELATOR_RUN.fetch_add(1, Ordering::Relaxed) + 1;
        let pruned_count = CORRELATOR_PRUNED.fetch_add(u32::from(pruned), Ordering::Relaxed)
            + u32::from(pruned);
        if run == CORRELATOR_CASES {
            prop_assert!(
                2 * pruned_count > run,
                "only {} of {} cases took the pruned path", pruned_count, run
            );
        }
    }

    /// Random `±1`/`0` templates over small-integer streams, where exact
    /// ties are common: the pruned search still equals the one-start loop.
    #[test]
    fn pruned_correlator_keeps_ties_on_small_integers(
        template in proptest::collection::vec(-1i8..2, 1..40),
        samples in proptest::collection::vec(-2i8..3, 0..160),
        search_from in 0usize..40,
        search_len in 0usize..150,
    ) {
        let template: Vec<f64> = template.into_iter().map(f64::from).collect();
        let samples: Vec<f64> = samples.into_iter().map(f64::from).collect();
        let mut correlator = PreambleCorrelator::new(template.clone());
        let got = correlator.search(&samples, search_from, search_len);
        let want =
            one_start_correlate(&samples, &template, template_energy(&template), search_from, search_len);
        prop_assert_eq!(
            got.map(|(i, s)| (i, s.to_bits())),
            want.map(|(i, s)| (i, s.to_bits()))
        );
    }
}

#[test]
fn pruned_correlator_keeps_the_first_of_ties_its_prefix_sums_split() {
    // Two copies of the Table 5 preamble at amplitude 0.1: starts 0 and
    // 640 see bit-identical windows and tie exactly, but their prefix-sum
    // estimates differ by rounding (0.1 is not a binary fraction), and
    // start 640's estimate comes out higher. Without the rounding margin
    // the search prunes start 0 and returns 640.
    let cfg = WaveformConfig::paper();
    let template = table5_template(&cfg);
    let n = template.len();
    let samples: Vec<f64> = (0..2 * n + 10).map(|i| 0.1 * template[i % n]).collect();
    let mut correlator = PreambleCorrelator::new(template.clone());
    let got = correlator.search(&samples, 0, n + 5);
    assert!(correlator.last_pruned());
    let want = one_start_correlate(&samples, &template, template_energy(&template), 0, n + 5);
    assert_eq!(want.map(|(i, _)| i), Some(0));
    assert_eq!(
        got.map(|(i, s)| (i, s.to_bits())),
        want.map(|(i, s)| (i, s.to_bits()))
    );
}

/// The single-start correlation loop `correlate_template` ran before it
/// scored four starts per pass: the reference it must equal bit for bit.
fn one_start_correlate(
    samples: &[f64],
    template: &[f64],
    t_energy: f64,
    search_from: usize,
    search_len: usize,
) -> Option<(usize, f64)> {
    if template.is_empty() {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    let last_start = search_from
        .checked_add(search_len)?
        .min(samples.len().checked_sub(template.len())?);
    for start in search_from..=last_start {
        let window = &samples[start..start + template.len()];
        let mut dot = 0.0f64;
        let mut energy = 0.0f64;
        for (&a, &b) in window.iter().zip(template) {
            dot += a * b;
            energy += a * a;
        }
        let w_energy = energy.sqrt();
        if w_energy < 1e-30 {
            continue;
        }
        let score = dot / (t_energy * w_energy);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((start, score));
        }
    }
    best
}

#[test]
fn lane_correlator_keeps_the_first_of_tied_starts() {
    // A periodic stream scores every period's start equally: the first
    // one wins, whichever lane of a pass it falls in.
    let template = [1.0, -1.0, 1.0];
    let samples: Vec<f64> = (0..40)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    for from in 0..6 {
        let t_energy = template_energy(&template);
        let got = correlate_template(&samples, &template, t_energy, from, 17);
        let want = one_start_correlate(&samples, &template, t_energy, from, 17);
        assert_eq!(got, want, "from {from}");
        assert_eq!(got.map(|(i, _)| i), Some(from + from % 2));
    }
}
