//! Steady-state allocation audit for the PHY fast path.
//!
//! The shared counting allocator (`vlc_prof::alloc_counter`) wraps the
//! system allocator; each test warms the reusable workspaces (so every
//! `Vec` reaches its high-water capacity) and then asserts that further
//! encode/decode/render/slice cycles perform exactly zero heap
//! allocations. The counter is thread-local, so the parallel test
//! harness's own allocations never bleed into a measurement window.

use vlc_phy::codec::registry;
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::rs::RsCodec;
use vlc_phy::waveform::{
    correlate_template, render_packed_into, slice_chips_packed_by, template_energy,
    PreambleCorrelator, Sliced, WaveformConfig,
};
use vlc_phy::RsStack;
use vlc_phy::{Frame, FrameHeader};
use vlc_prof::alloc_counter::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_rs_codec_is_zero_alloc() {
    let mut codec = RsCodec::paper();
    let data: Vec<u8> = (0..200u16).map(|i| (i * 7 + 3) as u8).collect();
    let mut block = Vec::new();

    // Warm-up: establishes every scratch capacity inside the codec and the
    // caller-owned output block.
    codec.encode_into(&data, &mut block);
    block[4] ^= 0x41;
    block[90] ^= 0x7f;
    codec.decode_in_place(&mut block).expect("correctable");

    // Odd rounds decode a clean block (the parity check alone), even
    // rounds a block with one corrupted byte (syndromes, locator, fix-up).
    let n = allocations_during(|| {
        for round in 0..32u8 {
            block.clear();
            codec.encode_into(&data, &mut block);
            let corrupted = round % 2 == 0;
            if corrupted {
                let pos = (round as usize * 5) % block.len();
                block[pos] ^= round | 1;
            }
            let fixed = codec.decode_in_place(&mut block).expect("correctable");
            assert_eq!(fixed, usize::from(corrupted));
        }
    });
    assert_eq!(n, 0, "warmed RsCodec made {n} heap allocations");
}

#[test]
fn warmed_codec_stacks_are_zero_alloc() {
    // Every stack in the registry: after one warm-up encode/decode cycle
    // (which sizes the stack-owned scratch and the caller buffers), further
    // frames — clean and corrupted — allocate nothing.
    for stack in registry().iter_mut() {
        let payload: Vec<u8> = (0..200u16).map(|i| (i * 11 + 5) as u8).collect();
        let mut coded = Vec::new();
        let mut out = Vec::new();

        stack.encode_into(&payload, &mut coded);
        stack
            .decode_into(&coded, payload.len(), &mut out)
            .expect("clean warm-up decodes");
        assert_eq!(out, payload);

        // Warm the error path too: the RS correction scratch (syndromes,
        // error locator) only reaches capacity on the first real fix-up.
        coded.clear();
        stack.encode_into(&payload, &mut coded);
        coded[7] ^= 0x24;
        out.clear();
        let _ = stack.decode_into(&coded, payload.len(), &mut out);

        let n = allocations_during(|| {
            for round in 0..16u8 {
                coded.clear();
                stack.encode_into(&payload, &mut coded);
                // Alternate clean frames with single-byte corruption; the
                // detect-only stacks reject the corrupted rounds, the FEC
                // stacks repair them — all without allocating.
                if round % 2 == 1 {
                    let pos = (round as usize * 37) % coded.len();
                    coded[pos] ^= 0x24;
                }
                out.clear();
                let _ = stack.decode_into(&coded, payload.len(), &mut out);
            }
        });
        assert_eq!(
            n,
            0,
            "warmed stack {} made {n} heap allocations",
            stack.name()
        );
    }
}

#[test]
fn warmed_codec_stacks_reject_truncation_without_allocating() {
    // The BadLength path (chip deletion / truncation in the campaign's
    // noise catalogue) must also stay allocation-free once warm.
    for stack in registry().iter_mut() {
        let payload = vec![0x5Au8; 150];
        let mut coded = Vec::new();
        let mut out = Vec::new();
        stack.encode_into(&payload, &mut coded);
        coded.pop();
        assert!(stack.decode_into(&coded, payload.len(), &mut out).is_err());

        let n = allocations_during(|| {
            for _ in 0..16 {
                assert!(stack.decode_into(&coded, payload.len(), &mut out).is_err());
            }
        });
        assert_eq!(
            n,
            0,
            "warmed stack {} allocated {n} times on truncated input",
            stack.name()
        );
    }
}

#[test]
fn warmed_packed_manchester_is_zero_alloc() {
    let data: Vec<u8> = (0..217u16).map(|i| (i * 31) as u8).collect();
    let mut chips = PackedChips::new();
    let mut decoded = Vec::new();

    chips.encode_bytes(&data);
    assert!(chips.decode_bytes_into(&mut decoded));
    assert_eq!(decoded, data);

    let n = allocations_during(|| {
        for _ in 0..32 {
            chips.clear();
            chips.encode_bytes(&data);
            assert!(chips.decode_bytes_into(&mut decoded));
        }
    });
    assert_eq!(n, 0, "warmed packed Manchester made {n} heap allocations");
}

#[test]
fn warmed_frame_render_slice_cycle_is_zero_alloc() {
    // The full per-frame PHY cycle the e2e pipeline performs, minus the
    // channel: frame bytes → packed chips → waveform → correlate → slice →
    // chips → frame bytes, framed through the paper's RS stack. Everything
    // below reuses caller-owned or stack-owned scratch.
    let cfg = WaveformConfig::paper();
    let mut stack = RsStack::paper();
    let header = FrameHeader {
        dst: 2,
        src: 1,
        protocol: 0,
    };
    let payload: Vec<u8> = (0..120u16).map(|i| (i * 13 + 1) as u8).collect();

    let mut wire = Vec::new();
    let mut chips = PackedChips::new();
    let mut samples = Vec::new();
    let mut sliced = PackedChips::new();
    let mut rx_bytes = Vec::new();
    let mut payload_out = Vec::new();

    let preamble = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
    let mut template = Vec::new();
    render_packed_into(
        &preamble,
        &cfg,
        1.0,
        0.0,
        (preamble.len() as f64 * cfg.samples_per_chip()).round() as usize,
        &mut template,
    );
    let t_energy = template_energy(&template);

    let mut cycle = |wire: &mut Vec<u8>,
                     chips: &mut PackedChips,
                     samples: &mut Vec<f64>,
                     sliced: &mut PackedChips,
                     rx_bytes: &mut Vec<u8>,
                     payload_out: &mut Vec<u8>| {
        wire.clear();
        Frame::encode_parts_with(0b11, &header, &payload, &mut stack, wire);
        chips.clear();
        chips.extend_from(&preamble);
        chips.encode_bytes(wire);
        let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize + 64;
        render_packed_into(chips, &cfg, 0.8, 0.0, n_samples, samples);
        let (start, score) =
            correlate_template(samples, &template, t_energy, 0, 32).expect("preamble found");
        assert!(score > 0.9, "clean link must correlate");
        let outcome =
            slice_chips_packed_by(samples.len(), &cfg, start, chips.len(), sliced, |lo, hi| {
                samples[lo..hi].iter().sum::<f64>() >= 0.0
            });
        assert_eq!(outcome, Sliced::Whole);
        assert_eq!(sliced.diff_count(chips), 0);
        assert!(sliced.decode_bytes_into(rx_bytes));
        let skip = preamble.len() / 16;
        let (mask, got_header, corrected) =
            Frame::decode_parts_with(&rx_bytes[skip..], &mut stack, payload_out)
                .expect("clean frame decodes");
        assert_eq!(mask, 0b11);
        assert_eq!(got_header, header);
        assert_eq!(corrected, 0);
        assert_eq!(payload_out, &payload);
    };

    // Warm-up cycle establishes all capacities.
    cycle(
        &mut wire,
        &mut chips,
        &mut samples,
        &mut sliced,
        &mut rx_bytes,
        &mut payload_out,
    );

    let n = allocations_during(|| {
        for _ in 0..8 {
            cycle(
                &mut wire,
                &mut chips,
                &mut samples,
                &mut sliced,
                &mut rx_bytes,
                &mut payload_out,
            );
        }
    });
    assert_eq!(n, 0, "warmed frame cycle made {n} heap allocations");
}

#[test]
fn warmed_preamble_correlator_is_zero_alloc() {
    // The frame pipeline's preamble search: once a search over the full
    // region has sized the prefix and bound buffers, later searches —
    // full or shorter — allocate nothing.
    let cfg = WaveformConfig::paper();
    let preamble = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
    let mut template = Vec::new();
    render_packed_into(
        &preamble,
        &cfg,
        1.0,
        0.0,
        (preamble.len() as f64 * cfg.samples_per_chip()).round() as usize,
        &mut template,
    );
    let mut correlator = PreambleCorrelator::new(template);
    let mut chips = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
    chips.encode_bytes(&[0x3C; 40]);
    let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize + 160;
    let mut samples = Vec::new();
    render_packed_into(&chips, &cfg, 0.8, 83e-6, n_samples, &mut samples);

    let want = correlator.search(&samples, 0, 240).expect("preamble found");
    assert!(
        correlator.last_pruned(),
        "a clean frame takes the pruned path"
    );

    let n = allocations_during(|| {
        for len in [240, 200, 240, 120] {
            let got = correlator.search(&samples, 0, len).expect("preamble found");
            assert_eq!(got, want);
        }
    });
    assert_eq!(n, 0, "warmed preamble correlator made {n} heap allocations");
}
