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
use vlc_channel::{AwgnChannel, NoiseParams};
use vlc_led::power::optical_swing_amplitude;
use vlc_led::LedParams;
use vlc_phy::codec::RsStack;
use vlc_phy::frame::{protocol, Frame, FrameError, FrameHeader};
use vlc_phy::manchester::{manchester_decode, manchester_encode, Chip};
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::rs::ReedSolomon;
use vlc_phy::waveform::{
    correlate_pattern, correlate_template, mix_into, render, render_packed_into, slice_chips,
    slice_chips_packed_into, template_energy, WaveformConfig,
};
use vlc_sync::SyncScheme;
use vlc_telemetry::Registry;

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
pub fn run(
    txs: &[E2eTx],
    scheme: &SyncScheme,
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
) -> E2eResult {
    run_traced(txs, scheme, cfg, frames, seed, &Registry::noop())
}

/// [`run`] with telemetry: frame encode/decode counters flow through the
/// instrumented PHY codec (`phy.frames_encoded`, `phy.frames_decoded`,
/// `phy.rs_symbols_corrected`, `phy.rs_uncorrectable`,
/// `phy.frame_sync_errors`); failures to even reach the decoder count into
/// `phy.preamble_misses` (correlator never locks) or `phy.frame_sync_errors`
/// (chip slicing / Manchester decoding breaks); decodes whose payload does
/// not match the transmitted one count into `phy.frames_bad_payload`; and
/// each sliced frame's raw chip error fraction (sliced vs. transmitted MAC
/// chips, before FEC) lands in the `phy.ber` histogram.
pub fn run_traced(
    txs: &[E2eTx],
    scheme: &SyncScheme,
    cfg: &E2eConfig,
    frames: usize,
    seed: u64,
    telemetry: &Registry,
) -> E2eResult {
    FramePipeline::new(cfg).run(txs, scheme, cfg, frames, seed, telemetry)
}

/// The scalar reference implementation of [`run_traced`]: `Vec<Chip>`
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
        let bytes = frame.to_bytes_traced(&rs, telemetry);
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
        // Raw (pre-FEC) chip error rate: sliced chips vs. what was sent.
        let sent_chips = &chips[preamble_chips.len()..];
        let chip_errors = mac_chips
            .iter()
            .zip(sent_chips)
            .filter(|(got, sent)| got != sent)
            .count();
        telemetry
            .histogram("phy.ber")
            .record(chip_errors as f64 / sent_chips.len().max(1) as f64);
        let Some(decoded_bytes) = manchester_decode(&mac_chips) else {
            telemetry.counter("phy.frame_sync_errors").inc();
            continue;
        };
        match Frame::from_bytes_traced(&decoded_bytes, &rs, telemetry) {
            Ok((decoded, fixed)) if decoded.payload == payload => {
                frames_ok += 1;
                rs_corrections += fixed;
            }
            Ok(_) => {
                telemetry.counter("phy.frames_bad_payload").inc();
            }
            Err(_) => {}
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

/// The packed-chip fast path through the end-to-end simulation.
///
/// Owns every buffer the per-frame PHY cycle needs — the hoisted preamble
/// template, the FEC stack (the paper's Manchester+RS path as a
/// [`vlc_phy::codec::CodecStack`], routed through
/// [`Frame::encode_parts_with`] / [`Frame::decode_parts_with`]), packed
/// chip streams, and the waveform/photocurrent/decode scratch — so that a
/// warmed pipeline runs frames (and ARQ retries) with **zero heap
/// allocations** in steady state (`crates/densevlc/tests/e2e_identity.rs`
/// pins this with a counting allocator). Its output is bit-identical to
/// the scalar reference ([`run_scalar`],
/// [`run_concurrent_scalar`]): identical RNG draw order, identical float
/// summation order, identical slicing predicates — so [`E2eResult`]
/// matches exactly, not just statistically (and the trait refactor is
/// pinned against hard-coded pre-refactor values by
/// `pipeline_results_are_pinned_to_pre_codec_stack_values`).
#[derive(Debug)]
pub struct FramePipeline {
    wave_cfg: WaveformConfig,
    stack: RsStack,
    /// The preamble rendered at unit amplitude, zero delay — exactly the
    /// template `correlate_pattern` re-renders per call on the scalar path.
    preamble_template: Vec<f64>,
    preamble_energy: f64,
    // Per-frame scratch (capacities persist across frames and runs).
    payload: Vec<u8>,
    wire: Vec<u8>,
    mac_tx: PackedChips,
    tx_chips: PackedChips,
    photocurrent: Vec<f64>,
    wave: Vec<f64>,
    sliced: PackedChips,
    rx_bytes: Vec<u8>,
    payload_rx: Vec<u8>,
    // Per-run scratch.
    hosts: Vec<usize>,
    loop_phase: Vec<(usize, f64)>,
    offsets: Vec<(usize, f64)>,
    // Concurrent-mode scratch (one slot per beamspot).
    spot_payloads: Vec<Vec<u8>>,
    spot_mac: Vec<PackedChips>,
    spot_chips: Vec<PackedChips>,
    spot_wire_lens: Vec<usize>,
    spot_offsets: Vec<f64>,
    spot_frames_ok: Vec<usize>,
    spot_rs_corrections: Vec<usize>,
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
        let preamble_energy = template_energy(&preamble_template);
        FramePipeline {
            wave_cfg,
            stack: RsStack::paper(),
            preamble_template,
            preamble_energy,
            payload: Vec::new(),
            wire: Vec::new(),
            mac_tx: PackedChips::new(),
            tx_chips: PackedChips::new(),
            photocurrent: Vec::new(),
            wave: Vec::new(),
            sliced: PackedChips::new(),
            rx_bytes: Vec::new(),
            payload_rx: Vec::new(),
            hosts: Vec::new(),
            loop_phase: Vec::new(),
            offsets: Vec::new(),
            spot_payloads: Vec::new(),
            spot_mac: Vec::new(),
            spot_chips: Vec::new(),
            spot_wire_lens: Vec::new(),
            spot_offsets: Vec::new(),
            spot_frames_ok: Vec::new(),
            spot_rs_corrections: Vec::new(),
        }
    }

    fn assert_rates(&self, cfg: &E2eConfig) {
        assert!(
            cfg.symbol_rate_hz == self.wave_cfg.symbol_rate_hz
                && cfg.sample_rate_hz == self.wave_cfg.sample_rate_hz,
            "pipeline was built for different rates"
        );
    }

    /// The packed twin of [`run_scalar`]: same RNG stream,
    /// same physics, same telemetry counters, bit-identical [`E2eResult`] —
    /// but through reusable packed buffers. Packed encode work runs under
    /// the `phy.packed.encode_s` span, slice + Manchester decode under
    /// `phy.packed.decode_s`, and the Reed–Solomon block decode under
    /// `phy.rs.block_s`.
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
        let (_, pre) = preamble();
        let Self {
            wave_cfg,
            stack,
            preamble_template,
            preamble_energy,
            payload,
            wire,
            mac_tx,
            tx_chips,
            photocurrent,
            wave,
            sliced,
            rx_bytes,
            payload_rx,
            hosts,
            loop_phase,
            offsets,
            ..
        } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        let mut awgn = AwgnChannel::new(cfg.noise);

        hosts.clear();
        hosts.extend(txs.iter().map(|t| t.host));
        hosts.sort_unstable();
        hosts.dedup();

        // Same persistent loop-phase model (and RNG draws) as the scalar
        // reference: one uniform phase per host, relative to the earliest.
        let chips_per_frame =
            (Frame::wire_len_with(cfg.payload_len, stack) + PREAMBLE_BYTES.len()) as f64 * 16.0;
        let frame_duration_s = chips_per_frame / cfg.symbol_rate_hz;
        loop_phase.clear();
        if matches!(scheme, SyncScheme::SyncOff) && hosts.len() > 1 {
            for &h in hosts.iter() {
                loop_phase.push((h, rng.gen_range(0.0..frame_duration_s)));
            }
            let min = loop_phase
                .iter()
                .map(|&(_, p)| p)
                .fold(f64::INFINITY, f64::min);
            for (_, p) in loop_phase.iter_mut() {
                *p -= min;
            }
        } else {
            loop_phase.extend(hosts.iter().map(|&h| (h, 0.0)));
        }

        let header = FrameHeader {
            dst: 1,
            src: 0,
            protocol: protocol::DATA,
        };
        let mut frames_ok = 0;
        let mut rs_corrections = 0;
        let mut air_time_s = 0.0;
        for _ in 0..frames {
            {
                let _encode = telemetry.span("phy.packed.encode_s");
                payload.clear();
                for _ in 0..cfg.payload_len {
                    payload.push(rng.gen());
                }
                telemetry.counter("phy.frames_encoded").inc();
                wire.clear();
                Frame::encode_parts_with(u64::MAX, &header, payload, stack, wire);
                mac_tx.clear();
                mac_tx.encode_bytes(wire);
                tx_chips.clear();
                tx_chips.extend_from(pre);
                tx_chips.extend_from(mac_tx);
            }
            let spc = wave_cfg.samples_per_chip();
            let guard = (8.0 * spc) as usize;
            let n_samples = guard + (tx_chips.len() as f64 * spc).ceil() as usize + guard;
            air_time_s += n_samples as f64 / cfg.sample_rate_hz;

            offsets.clear();
            for &h in hosts.iter() {
                let phase = loop_phase
                    .iter()
                    .find(|(host, _)| *host == h)
                    .expect("host has a phase")
                    .1;
                offsets.push((
                    h,
                    phase + scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng),
                ));
            }

            photocurrent.clear();
            photocurrent.resize(n_samples, 0.0);
            for tx in txs {
                let offset = offsets
                    .iter()
                    .find(|(h, _)| *h == tx.host)
                    .expect("host offset exists")
                    .1;
                let amp = cfg.responsivity * tx.gain * a_opt;
                let delay = guard as f64 / cfg.sample_rate_hz + offset;
                render_packed_into(tx_chips, wave_cfg, amp, delay, n_samples, wave);
                mix_into(photocurrent, wave);
            }
            for s in photocurrent.iter_mut() {
                *s += awgn.sample(&mut rng);
            }

            let Some((start, score)) = correlate_template(
                photocurrent,
                preamble_template,
                *preamble_energy,
                0,
                3 * guard,
            ) else {
                telemetry.counter("phy.preamble_misses").inc();
                continue;
            };
            if score < 0.5 {
                telemetry.counter("phy.preamble_misses").inc();
                continue;
            }
            let mac_start = start + (pre.len() as f64 * spc).round() as usize;
            let n_mac_chips = wire.len() * 16;
            {
                let _decode = telemetry.span("phy.packed.decode_s");
                if !slice_chips_packed_into(photocurrent, wave_cfg, mac_start, n_mac_chips, sliced)
                {
                    telemetry.counter("phy.frame_sync_errors").inc();
                    continue;
                }
                let chip_errors = sliced.diff_count(mac_tx);
                telemetry
                    .histogram("phy.ber")
                    .record(chip_errors as f64 / mac_tx.len().max(1) as f64);
                if !sliced.decode_bytes_into(rx_bytes) {
                    telemetry.counter("phy.frame_sync_errors").inc();
                    continue;
                }
            }
            let parsed = {
                let _rs_block = telemetry.span("phy.rs.block_s");
                Frame::decode_parts_with(rx_bytes, stack, payload_rx)
            };
            match parsed {
                Ok((_, _, fixed)) => {
                    telemetry.counter("phy.frames_decoded").inc();
                    telemetry
                        .counter("phy.rs_symbols_corrected")
                        .add(fixed as u64);
                    if payload_rx == payload {
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
        let (_, pre) = preamble();
        let Self {
            wave_cfg,
            stack,
            preamble_template,
            preamble_energy,
            wire,
            photocurrent,
            wave,
            sliced,
            rx_bytes,
            payload_rx,
            spot_payloads,
            spot_mac,
            spot_chips,
            spot_wire_lens,
            spot_offsets,
            spot_frames_ok,
            spot_rs_corrections,
            ..
        } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let a_opt = optical_swing_amplitude(&cfg.led, cfg.led.max_swing);
        let mut awgn = AwgnChannel::new(cfg.noise);
        let scheme = SyncScheme::nlos_paper();
        let header = FrameHeader {
            dst: 1,
            src: 0,
            protocol: protocol::DATA,
        };

        let n = beamspots.len();
        if spot_payloads.len() < n {
            spot_payloads.resize_with(n, Vec::new);
            spot_mac.resize_with(n, PackedChips::new);
            spot_chips.resize_with(n, PackedChips::new);
        }
        spot_wire_lens.clear();
        spot_wire_lens.resize(n, 0);
        spot_frames_ok.clear();
        spot_frames_ok.resize(n, 0);
        spot_rs_corrections.clear();
        spot_rs_corrections.resize(n, 0);

        let spc = wave_cfg.samples_per_chip();
        let guard = (8.0 * spc) as usize;
        let mut air_time_s = 0.0;
        for _ in 0..frames {
            for i in 0..n {
                let payload = &mut spot_payloads[i];
                payload.clear();
                for _ in 0..cfg.payload_len {
                    payload.push(rng.gen());
                }
                wire.clear();
                Frame::encode_parts_with(u64::MAX, &header, payload, stack, wire);
                spot_wire_lens[i] = wire.len();
                let mac = &mut spot_mac[i];
                mac.clear();
                mac.encode_bytes(wire);
                let chips = &mut spot_chips[i];
                chips.clear();
                chips.extend_from(pre);
                chips.extend_from(mac);
            }
            let max_chips = spot_chips[..n]
                .iter()
                .map(PackedChips::len)
                .max()
                .expect("non-empty plan");
            let n_samples = guard + (max_chips as f64 * spc).ceil() as usize + guard;
            air_time_s += n_samples as f64 / cfg.sample_rate_hz;

            spot_offsets.clear();
            for _ in beamspots {
                spot_offsets.push(scheme.sample_start_offset(cfg.symbol_rate_hz, &mut rng));
            }

            for (b, spot) in beamspots.iter().enumerate() {
                photocurrent.clear();
                photocurrent.resize(n_samples, 0.0);
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
                    render_packed_into(&spot_chips[other], wave_cfg, amp, delay, n_samples, wave);
                    mix_into(photocurrent, wave);
                }
                for s in photocurrent.iter_mut() {
                    *s += awgn.sample(&mut rng);
                }

                let Some((start, score)) = correlate_template(
                    photocurrent,
                    preamble_template,
                    *preamble_energy,
                    0,
                    3 * guard,
                ) else {
                    continue;
                };
                if score < 0.3 {
                    continue;
                }
                let mac_start = start + (pre.len() as f64 * spc).round() as usize;
                if !slice_chips_packed_into(
                    photocurrent,
                    wave_cfg,
                    mac_start,
                    spot_wire_lens[b] * 16,
                    sliced,
                ) {
                    continue;
                }
                if !sliced.decode_bytes_into(rx_bytes) {
                    continue;
                }
                if let Ok((_, _, fixed)) = Frame::decode_parts_with(rx_bytes, stack, payload_rx) {
                    if *payload_rx == spot_payloads[b] {
                        spot_frames_ok[b] += 1;
                        spot_rs_corrections[b] += fixed;
                    }
                }
            }
        }

        let total_time_s = air_time_s + frames as f64 * cfg.turnaround_s;
        (0..n)
            .map(|b| E2eResult {
                frames_total: frames,
                frames_ok: spot_frames_ok[b],
                per: 1.0 - spot_frames_ok[b] as f64 / frames as f64,
                goodput_bps: (cfg.payload_len * 8 * spot_frames_ok[b]) as f64 / total_time_s,
                rs_corrections: spot_rs_corrections[b],
            })
            .collect()
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
    let chips_per_frame =
        (Frame::wire_len(cfg.payload_len, &rs) + PREAMBLE_BYTES.len()) as f64 * 16.0;
    let spc = cfg.sample_rate_hz / cfg.symbol_rate_hz;
    let air_s = ((8.0 * spc) * 2.0 + chips_per_frame * spc).ceil() / cfg.sample_rate_hz;

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
        let res = run(&txs, &SyncScheme::SyncOff, &E2eConfig::default(), 30, 1);
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
        );
        let nlos = run(
            &four_tx(),
            &SyncScheme::nlos_paper(),
            &E2eConfig::default(),
            30,
            5,
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
        let res = run(&txs, &SyncScheme::SyncOff, &E2eConfig::default(), 5, 6);
        assert_eq!(res.frames_ok, 0);
        assert_eq!(res.per, 1.0);
        assert_eq!(res.goodput_bps, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one transmitter")]
    fn empty_tx_set_panics() {
        run(&[], &SyncScheme::SyncOff, &E2eConfig::default(), 1, 0);
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
        let single = run(&txs, &SyncScheme::SyncOff, &cfg, 20, 202);
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
        let plan = controller.plan(&d.model.channel);
        let beamspots: Vec<E2eBeamspot> = plan
            .beamspots
            .iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs.clone(),
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
        let plan = controller.plan(&d.model.channel);
        let mut beamspots: Vec<E2eBeamspot> = plan
            .beamspots
            .iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs.clone(),
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
        // preamble-missing regimes.
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
        let cases: Vec<(&[E2eTx], SyncScheme, u64)> = vec![
            (&two, SyncScheme::SyncOff, 1),
            (&four, SyncScheme::SyncOff, 2),
            (&four, SyncScheme::nlos_paper(), 3),
            (&four, SyncScheme::NtpPtp, 5),
            (&marginal, SyncScheme::SyncOff, 202),
            (&weak, SyncScheme::SyncOff, 6),
        ];
        for (txs, scheme, seed) in cases {
            let packed = run(txs, &scheme, &cfg, 12, seed);
            let scalar = run_scalar(txs, &scheme, &cfg, 12, seed, &Registry::noop());
            assert_eq!(packed, scalar, "scheme {scheme:?} seed {seed}");
        }
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
            let fresh = run(&txs, &SyncScheme::SyncOff, &cfg, 5, seed);
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
        let plan = controller.plan(&d.model.channel);
        let beamspots: Vec<E2eBeamspot> = plan
            .beamspots
            .iter()
            .map(|s| E2eBeamspot {
                rx: s.rx,
                txs: s.txs.clone(),
            })
            .collect();
        let cfg = E2eConfig::default();
        let packed = run_concurrent(&d.model.channel, &beamspots, &cfg, 4, 71);
        let scalar = run_concurrent_scalar(&d.model.channel, &beamspots, &cfg, 4, 71);
        assert_eq!(packed, scalar);
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
            (marginal, SyncScheme::SyncOff, 202),
        ] {
            let reg_packed = Registry::new();
            let reg_scalar = Registry::new();
            run_traced(&txs, &scheme, &cfg, 10, seed, &reg_packed);
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
}
