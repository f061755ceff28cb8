//! Codec-stack identity: every stack in the [`vlc_phy::codec::registry`]
//! must (a) roundtrip every payload up to the paper maximum, (b) keep its
//! zero-alloc workspace path byte-identical to its allocating reference —
//! on clean streams *and* under injected corruption, where accept/reject
//! and every recovered byte must agree — and (c) reject truncated streams
//! identically. Beneath the stacks, `RsCodec` must match the scalar
//! `ReedSolomon` oracle at every parity budget it supports. Mirrors
//! `packed_identity.rs`; `cargo tier2` replays this suite at
//! `DENSEVLC_JOBS=1` and `DENSEVLC_JOBS=max`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_phy::codec::{registry, CodecError, CodecStack};
use vlc_phy::rs::{ReedSolomon, RsCodec, MAX_CODEC_PARITY};

/// Where [`rs_codec_matches_the_scalar_oracle`] puts a block's errors.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Anywhere in the block.
    Anywhere,
    /// Only in the parity bytes: the data is intact, so the parity check
    /// alone has to notice.
    ParityOnly,
    /// The first data byte, plus any others: the LFSR's first feedback.
    FirstDataByte,
}

/// Corrupts `n_err` distinct positions of `block` (`data_len` data bytes
/// first) as `placement` says, returning how many it corrupted.
fn corrupt(
    block: &mut [u8],
    data_len: usize,
    n_err: usize,
    placement: Placement,
    rng: &mut StdRng,
) -> usize {
    let range = match placement {
        Placement::ParityOnly => data_len..block.len(),
        Placement::Anywhere | Placement::FirstDataByte => 0..block.len(),
    };
    let n_err = n_err.min(range.len());
    let mut positions = Vec::with_capacity(n_err);
    if matches!(placement, Placement::FirstDataByte) && n_err > 0 {
        positions.push(0);
    }
    while positions.len() < n_err {
        let p = rng.gen_range(range.clone());
        if !positions.contains(&p) {
            positions.push(p);
        }
    }
    for &p in &positions {
        block[p] ^= rng.gen_range(1..=255u8);
    }
    n_err
}

/// Drives one stack's workspace and reference paths over the same corrupted
/// stream and asserts they agree exactly, returning the shared outcome.
fn twin_decode(
    stack: &mut dyn CodecStack,
    coded: &[u8],
    payload_len: usize,
) -> Result<(Vec<u8>, usize), CodecError> {
    // Seed the output with a sentinel prefix: decode_into must append, and
    // must append nothing on error.
    let mut ws_out = vec![0xEE, 0xBB];
    let ws_res = stack.decode_into(coded, payload_len, &mut ws_out);
    let ref_res = stack.decode_ref(coded, payload_len);
    match (ws_res, &ref_res) {
        (Ok(ws_corrected), Ok((ref_payload, ref_corrected))) => {
            assert_eq!(&ws_out[..2], &[0xEE, 0xBB], "stack {}", stack.name());
            assert_eq!(&ws_out[2..], &ref_payload[..], "stack {}", stack.name());
            assert_eq!(ws_corrected, *ref_corrected, "stack {}", stack.name());
        }
        (Err(ws_err), Err(ref_err)) => {
            assert_eq!(ws_err, *ref_err, "stack {}", stack.name());
            assert_eq!(
                ws_out,
                [0xEE, 0xBB],
                "stack {}: failed decode must not emit bytes",
                stack.name()
            );
        }
        (ws, _) => panic!(
            "stack {}: workspace {ws:?} disagrees with reference {ref_res:?}",
            stack.name()
        ),
    }
    ref_res
}

proptest! {
    /// `RsCodec` against the scalar `ReedSolomon` oracle at every parity
    /// budget the codec supports (`nroots` 1..=16) and every data length
    /// (1..=255 − nroots), with 0..=t+2 byte errors placed anywhere, only
    /// in the parity, or on the first data byte: both encodes agree, and
    /// both decodes return the same result and leave the same bytes.
    #[test]
    fn rs_codec_matches_the_scalar_oracle(
        seed in any::<u64>(),
        placement in 0usize..3,
    ) {
        let placement = [
            Placement::Anywhere,
            Placement::ParityOnly,
            Placement::FirstDataByte,
        ][placement];
        let mut rng = StdRng::seed_from_u64(seed);
        for nroots in 1..=MAX_CODEC_PARITY {
            let rs = ReedSolomon::new(nroots).expect("nroots in range");
            let mut codec = RsCodec::new(nroots).expect("nroots in range");
            let t = codec.correction_capacity();
            let len = rng.gen_range(1..=255 - nroots);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let mut block = Vec::new();
            codec.encode_into(&data, &mut block);
            prop_assert_eq!(&block, &rs.encode(&data), "nroots {} len {}", nroots, len);
            let n_err = rng.gen_range(0..=t + 2);
            let n_err = corrupt(&mut block, len, n_err, placement, &mut rng);
            let mut oracle = block.clone();
            let want = rs.decode(&mut oracle);
            let got = codec.decode_in_place(&mut block);
            prop_assert_eq!(got, want, "nroots {} len {} errors {}", nroots, len, n_err);
            prop_assert_eq!(&block, &oracle, "nroots {} len {} errors {}", nroots, len, n_err);
            if n_err <= t {
                prop_assert_eq!(got, Ok(n_err), "nroots {} len {}", nroots, len);
                prop_assert_eq!(&block[..len], &data[..], "nroots {} len {}", nroots, len);
            }
        }
    }

    /// Clean roundtrip for every registered stack, payloads 0..=200 (the
    /// paper's Table 3 payload ceiling): encode twins agree byte-for-byte,
    /// decode twins recover the exact payload.
    #[test]
    fn clean_roundtrip_identity(payload in proptest::collection::vec(any::<u8>(), 0..=200)) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            prop_assert_eq!(coded.len(), stack.encoded_len(payload.len()), "stack {}", stack.name());
            prop_assert_eq!(&coded, &stack.encode_ref(&payload), "stack {}", stack.name());
            let (decoded, _) = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect("clean stream must decode");
            prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
        }
    }

    /// Multi-chunk payloads (several RS chunks, > 1 KiB convolutional
    /// trellis): same twin identities hold past the single-chunk regime.
    #[test]
    fn multi_chunk_roundtrip_identity(payload in proptest::collection::vec(any::<u8>(), 401..=517)) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            prop_assert_eq!(&coded, &stack.encode_ref(&payload), "stack {}", stack.name());
            let (decoded, _) = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect("clean stream must decode");
            prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
        }
    }

    /// Corruption from zero to well past every stack's budget: the
    /// workspace and reference twins accept/reject identically and agree on
    /// every recovered byte and corrected count. Within an RS-family
    /// stack's guarantee (at most `t` corrupted bytes in every RS block)
    /// decode must succeed with the original payload; past it, a success
    /// may be a miscorrection (the received word fell within `t` of another
    /// codeword), and twin agreement is the whole contract. Detect-only
    /// stacks reject any corruption instead.
    ///
    /// The corrupted positions are drawn distinct, in draw order, so the
    /// corruption is a pure function of `(payload, err_seed, n_err)`.
    #[test]
    fn corrupted_stream_identity(
        payload in proptest::collection::vec(any::<u8>(), 1..=200),
        err_seed in any::<u64>(),
        n_err in 0usize..=24,
    ) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            let mut rng = StdRng::seed_from_u64(err_seed);
            let n_err = n_err.min(coded.len());
            let mut positions = Vec::with_capacity(n_err);
            while positions.len() < n_err {
                let p = rng.gen_range(0..coded.len());
                if !positions.contains(&p) {
                    positions.push(p);
                }
            }
            for &p in &positions {
                coded[p] ^= rng.gen_range(1..=255u8);
            }
            // A payload of at most one RS chunk codes to a single RS block
            // (interleaving permutes it in place), so every corrupted byte
            // lands in that block.
            let correction = stack.correction();
            prop_assert!(
                coded.len() <= correction.block_len || correction.block_len == 0,
                "stack {}: more than one RS block",
                stack.name()
            );
            let guaranteed = correction.t_per_block > 0 && n_err <= correction.t_per_block;
            let outcome = twin_decode(stack.as_mut(), &coded, payload.len());
            if guaranteed {
                prop_assert!(outcome.is_ok(), "stack {}: {n_err} errors rejected", stack.name());
            }
            if let Ok((decoded, corrected)) = outcome {
                if n_err == 0 {
                    prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
                    prop_assert_eq!(corrected, 0, "stack {}", stack.name());
                } else if guaranteed {
                    prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
                }
                // Past the guarantee, RS may miscorrect and Viterbi may
                // emit a wrong payload that passes CRC (~2^-32); the twin
                // agreement above is the contract being tested.
            }
        }
    }

    /// Truncation at any point is the same `BadLength` for both twins.
    #[test]
    fn truncation_identity(
        payload in proptest::collection::vec(any::<u8>(), 1..=200),
        cut in 1usize..64,
    ) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            let cut = cut.min(coded.len());
            coded.truncate(coded.len() - cut);
            let err = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect_err("truncated stream must be rejected");
            prop_assert_eq!(err, CodecError::BadLength { len: coded.len() }, "stack {}", stack.name());
        }
    }

    /// Workspace reuse across differently-sized payloads leaves no residue:
    /// a stack that just processed a large frame must encode/decode a small
    /// one identically to a fresh stack.
    #[test]
    fn workspace_reuse_identity(
        first in proptest::collection::vec(any::<u8>(), 100..=517),
        second in proptest::collection::vec(any::<u8>(), 0..=99),
    ) {
        let mut warmed = registry();
        for stack in warmed.iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&first, &mut coded);
            let mut out = Vec::new();
            stack.decode_into(&coded, first.len(), &mut out).expect("clean");
        }
        for (stack, fresh) in warmed.iter_mut().zip(registry().iter_mut()) {
            let mut warm_coded = Vec::new();
            stack.encode_into(&second, &mut warm_coded);
            let mut fresh_coded = Vec::new();
            fresh.encode_into(&second, &mut fresh_coded);
            prop_assert_eq!(&warm_coded, &fresh_coded, "stack {}", stack.name());
            let mut warm_out = Vec::new();
            let warm = stack.decode_into(&warm_coded, second.len(), &mut warm_out);
            let mut fresh_out = Vec::new();
            let fresh_res = fresh.decode_into(&fresh_coded, second.len(), &mut fresh_out);
            prop_assert_eq!(warm, fresh_res, "stack {}", stack.name());
            prop_assert_eq!(&warm_out, &fresh_out, "stack {}", stack.name());
        }
    }
}
