//! Lazy-vs-eager identity for the AWGN cursor: every sample the cursor
//! adds equals the eager `AwgnChannel::sample` value bit for bit, samples
//! it skips stay untouched, and after `finish` the channel and the RNG are
//! where `n` eager calls would leave them — odd tails, a spare carried
//! in from an earlier block, and frame-sized blocks whose gaps the RNG
//! jumps past included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use vlc_channel::{AwgnChannel, NOISE_BOUND_SIGMAS};

/// A recognisable base signal, so `base + noise` is never a signed zero
/// standing in for an untouched sample.
fn base(i: usize) -> f64 {
    i as f64 * 0.37 - 5.0
}

proptest! {
    #[test]
    fn cursor_reads_match_eager_samples(
        seed in any::<u64>(),
        // σ = 0 in a quarter of the cases; n ∈ {0, 1, 2, 3} in half.
        sigma in (0u8..4, 1e-9f64..10.0).prop_map(|(k, s)| if k == 0 { 0.0 } else { s }),
        n in (0usize..8, 0usize..200).prop_map(|(k, m)| if k < 4 { k } else { m }),
        carry in any::<bool>(),
        cuts in proptest::collection::vec(0usize..210, 0..12),
    ) {
        let mut eager_ch = AwgnChannel::with_sigma(sigma);
        let mut lazy_ch = AwgnChannel::with_sigma(sigma);
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let mut lazy_rng = StdRng::seed_from_u64(seed);
        if carry {
            // One earlier odd draw leaves a spare to carry into the block.
            let a = eager_ch.sample(&mut eager_rng);
            let b = lazy_ch.sample(&mut lazy_rng);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let eager: Vec<f64> = (0..n).map(|_| eager_ch.sample(&mut eager_rng)).collect();

        // Sorted cut points pair up into increasing disjoint ranges, some
        // of them reaching past the block.
        let mut cuts = cuts;
        cuts.sort_unstable();
        let len = n + 10;
        let mut out: Vec<f64> = (0..len).map(base).collect();
        let mut read = vec![false; len];
        {
            let mut cursor = lazy_ch.cursor(&mut lazy_rng, n);
            for r in cuts.chunks_exact(2) {
                let (from, to) = (r[0], r[1].min(len));
                cursor.add_to(&mut out, from, to);
                for flag in read.iter_mut().take(to.min(n)).skip(from) {
                    *flag = true;
                }
            }
            cursor.finish();
        }
        for i in 0..len {
            let want = if read[i] { base(i) + eager[i] } else { base(i) };
            prop_assert_eq!(out[i].to_bits(), want.to_bits(), "sample {}", i);
        }
        for z in &eager {
            prop_assert!(z.abs() < lazy_ch.bound() || sigma == 0.0);
        }

        // Finished: the channel's spare and the RNG stream both continue
        // exactly as after the eager block.
        for _ in 0..3 {
            let a = eager_ch.sample(&mut eager_rng);
            let b = lazy_ch.sample(&mut lazy_rng);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(eager_rng.next_u64(), lazy_rng.next_u64());
    }

    #[test]
    fn dropping_an_unread_cursor_spends_the_block(
        seed in any::<u64>(),
        n in 0usize..64,
        carry in any::<bool>(),
    ) {
        let mut eager_ch = AwgnChannel::with_sigma(1.0);
        let mut lazy_ch = AwgnChannel::with_sigma(1.0);
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let mut lazy_rng = StdRng::seed_from_u64(seed);
        if carry {
            eager_ch.sample(&mut eager_rng);
            lazy_ch.sample(&mut lazy_rng);
        }
        for _ in 0..n {
            eager_ch.sample(&mut eager_rng);
        }
        drop(lazy_ch.cursor(&mut lazy_rng, n));
        let a = eager_ch.sample(&mut eager_rng);
        let b = lazy_ch.sample(&mut lazy_rng);
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert_eq!(eager_rng.next_u64(), lazy_rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Frame-sized blocks, read the way the frame pipeline reads them: a
    /// few short ranges separated by gaps the cursor jumps. Gap lengths sit
    /// within a few samples of 512 and 1024 — where the RNG's jump-ahead
    /// switches from stepping to jumping (512 outputs, one pair per two
    /// samples) — or span tens of thousands of samples.
    #[test]
    fn frame_sized_blocks_jump_exactly(
        seed in any::<u64>(),
        n in 30_000usize..60_000,
        carry in any::<bool>(),
        reads in proptest::collection::vec((0usize..4, 0usize..9, 1usize..40), 1..6),
    ) {
        let mut eager_ch = AwgnChannel::with_sigma(1.0);
        let mut lazy_ch = AwgnChannel::with_sigma(1.0);
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let mut lazy_rng = StdRng::seed_from_u64(seed);
        if carry {
            eager_ch.sample(&mut eager_rng);
            lazy_ch.sample(&mut lazy_rng);
        }
        let eager: Vec<f64> = (0..n).map(|_| eager_ch.sample(&mut eager_rng)).collect();

        let mut out: Vec<f64> = (0..n).map(base).collect();
        let mut read = vec![false; n];
        {
            let mut cursor = lazy_ch.cursor(&mut lazy_rng, n);
            let mut pos = 0;
            for (kind, jitter, len) in reads {
                let gap = match kind {
                    0 => 508 + jitter,
                    1 => 1020 + jitter,
                    2 => 9_000 + 1_000 * jitter,
                    _ => jitter,
                };
                let from = (pos + gap).min(n);
                let to = (from + len).min(n);
                cursor.add_to(&mut out, from, to);
                read[from..to].fill(true);
                pos = to;
            }
            cursor.finish();
        }
        for i in 0..n {
            let want = if read[i] { base(i) + eager[i] } else { base(i) };
            prop_assert_eq!(out[i].to_bits(), want.to_bits(), "sample {}", i);
        }
        for _ in 0..3 {
            let a = eager_ch.sample(&mut eager_rng);
            let b = lazy_ch.sample(&mut lazy_rng);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(eager_rng.next_u64(), lazy_rng.next_u64());
    }
}

#[test]
fn the_bound_clears_the_largest_box_muller_radius() {
    let r_max = (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
    assert!((r_max - 37.6404).abs() < 1e-4, "r_max = {r_max}");
    assert!(r_max < NOISE_BOUND_SIGMAS);
    for sigma in [1e-12, 8.4e-9, 1.0, 3.5e3] {
        let ch = AwgnChannel::with_sigma(sigma);
        assert!(r_max < ch.bound() / sigma, "sigma = {sigma}");
    }
}
