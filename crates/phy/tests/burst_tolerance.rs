//! Empirical verification of `Interleaver::burst_tolerance`: across a
//! depth × nroots grid, a single channel burst of exactly `depth × t`
//! bytes decodes through the interleaved RS stack, while a burst one byte
//! longer — aligned so one chunk takes `t + 1` errors — is a detected
//! failure. The payload is sized to `depth` full RS chunks so each
//! interleaver row is exactly one chunk and the guarantee is tight.

use vlc_phy::codec::{CodecStack, InterleavedRsStack};
use vlc_phy::interleave::Interleaver;
use vlc_phy::rs::RsParams;

/// Encodes `depth` full chunks, burns a burst of `burst_len` on-air bytes
/// starting at a column boundary (so the extra byte of an over-budget
/// burst concentrates on one chunk), and returns the decode outcome.
fn run_burst(nroots: usize, depth: usize, burst_len: usize) -> Result<(Vec<u8>, usize), ()> {
    let mut stack = InterleavedRsStack::new(nroots, depth).expect("valid parameters");
    let payload_len = depth * RsParams::PAPER.chunk;
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    let mut on_air = Vec::new();
    stack.encode_into(&payload, &mut on_air);
    assert_eq!(on_air.len(), depth * (RsParams::PAPER.chunk + nroots));
    // Column boundary: on-air index `col * depth` maps to row 0, so indices
    // start..start+burst_len cycle the rows and row 0 absorbs any excess.
    let start = 3 * depth;
    assert!(start + burst_len <= on_air.len());
    for b in on_air.iter_mut().skip(start).take(burst_len) {
        *b ^= 0xA5;
    }
    let mut out = Vec::new();
    match stack.decode_into(&on_air, payload_len, &mut out) {
        Ok(corrected) => {
            assert_eq!(out, payload, "a claimed success must be the original");
            Ok((out, corrected))
        }
        Err(_) => Err(()),
    }
}

#[test]
fn burst_tolerance_is_tight_across_the_grid() {
    for depth in [2usize, 4, 8] {
        for nroots in [4usize, 8, 16] {
            let t = nroots / 2;
            let il = Interleaver::new(depth).expect("depth > 0");
            let tolerance = il.burst_tolerance(t);
            assert_eq!(tolerance, depth * t);

            // The advertised metadata agrees with the formula.
            let stack = InterleavedRsStack::new(nroots, depth).expect("valid parameters");
            assert_eq!(stack.correction().burst_tolerance, tolerance);
            assert_eq!(stack.correction().t_per_block, t);

            // A maximal burst decodes, every corrupted byte counted.
            let (_, corrected) = run_burst(nroots, depth, tolerance).unwrap_or_else(|_| {
                panic!("depth {depth} nroots {nroots}: burst of {tolerance} must decode")
            });
            assert_eq!(
                corrected, tolerance,
                "depth {depth} nroots {nroots}: corrected count"
            );

            // One more byte concentrates t + 1 errors on one chunk: the
            // decode must fail *detectably* (Err, not silent corruption —
            // run_burst asserts any Ok is the original payload).
            assert!(
                run_burst(nroots, depth, tolerance + 1).is_err(),
                "depth {depth} nroots {nroots}: burst of {} must be detected",
                tolerance + 1
            );
        }
    }
}

#[test]
fn sub_tolerance_bursts_always_decode() {
    // Interior points of the guarantee, not just the boundary.
    for depth in [2usize, 4, 8] {
        for nroots in [4usize, 8, 16] {
            let t = nroots / 2;
            for burst in [1usize, t, depth * t / 2] {
                let burst = burst.max(1);
                let (_, corrected) = run_burst(nroots, depth, burst).unwrap_or_else(|_| {
                    panic!("depth {depth} nroots {nroots}: burst of {burst} must decode")
                });
                assert_eq!(corrected, burst);
            }
        }
    }
}

#[test]
fn without_interleaving_the_same_maximal_burst_fails() {
    // Control arm: depth 1 (no interleaving) cannot absorb a depth-8
    // stack's budget — the burst lands in one chunk and kills it.
    let depth = 8;
    let nroots = 16;
    let tolerance = Interleaver::new(depth)
        .expect("depth > 0")
        .burst_tolerance(nroots / 2);
    assert!(
        run_burst(nroots, 1, tolerance).is_err(),
        "a {tolerance}-byte burst must kill the non-interleaved stack"
    );
}
