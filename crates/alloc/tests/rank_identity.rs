//! Bitwise identity of the one-`powf`-per-TX SJR ranking against its
//! full-matrix reference, aimed at the inputs where taking the row winner on
//! raw gains could go wrong: exact zeros, subnormals, `f64::MIN_POSITIVE`,
//! runs of adjacent-ulp gains (rounding ties), gains straddling the tie
//! band, values near `1e308` whose row sum overflows to infinity, and κ
//! that is tiny, zero, negative, large, non-finite or set per TX.
//!
//! Each case compares every ranked `(tx, rx)` pair and the bit pattern of
//! its SJR. These ride in `cargo test --workspace` and in the CI `soa` job
//! at `DENSEVLC_JOBS` ∈ {1, max}.

use proptest::prelude::*;
use vlc_alloc::heuristic::{rank_by_sjr, rank_by_sjr_scalar, HeuristicConfig};
use vlc_channel::ChannelMatrix;

/// Offsets `x` by `k` ulps (toward larger magnitude for positive `k`).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// One gain drawn from a mix of ordinary and edge-case kinds. `base` is a
/// per-case gain that the tie kinds cluster around.
fn gain(kind: u8, base: f64, k: i64, u: f64) -> f64 {
    match kind {
        0 => 0.0,
        // Subnormal: a nonzero mantissa with a zero exponent.
        1 => f64::from_bits(1 + (u * ((1u64 << 52) - 2) as f64) as u64),
        2 => ulps(f64::MIN_POSITIVE, k.abs()),
        // Adjacent-ulp runs around 1e-6 and around the case's base.
        3 => ulps(1e-6, k),
        4 => ulps(base, k),
        // Just inside or just outside a relative band of 1e-10 … 1e-6.
        5 => base * (1.0 - 10f64.powf(-6.0 - 4.0 * u)),
        // Near 1e308: two of these in a row overflow the row sum.
        6 => 1e308 * (0.5 + u),
        // Ordinary: log-spread over [1e-8, 1e-5].
        _ => 1e-8 * 10f64.powf(3.0 * u),
    }
}

fn arb_gain() -> impl Strategy<Value = (u8, i64, f64)> {
    (0u8..10, -4i64..5, 0.0f64..1.0)
}

/// One κ: the paper's 1.3, values either side of the fast path's cut-off,
/// zero, negative, large, non-finite, or an ordinary draw.
fn kappa(kind: u8, u: f64) -> f64 {
    match kind {
        0 => 1.3,
        1 => 1e-9,
        2 => 1e-6,
        3 => 1e-5,
        4 => 0.0,
        5 => -0.5 - u,
        6 => 50.0,
        7 => f64::INFINITY,
        8 => f64::NAN,
        _ => 0.5 + 1.5 * u,
    }
}

fn arb_kappa() -> impl Strategy<Value = f64> {
    (0u8..12, 0.0f64..1.0).prop_map(|(kind, u)| kappa(kind, u))
}

/// A channel of edge-case gains and a heuristic configuration whose κ is
/// either shared or set per TX. With `dup > 0` every `dup`-th TX row copies
/// row 0, so whole rows tie on their best score and the ranking's TX
/// tie-break is exercised at the paper's grid size as well as below it.
fn arb_case() -> impl Strategy<Value = (ChannelMatrix, HeuristicConfig)> {
    (1usize..40, 1usize..8)
        .prop_flat_map(|(n_tx, n_rx)| {
            (
                (Just(n_tx), Just(n_rx), 0usize..4),
                1e-8f64..1e-5,
                proptest::collection::vec(arb_gain(), n_tx * n_rx),
                arb_kappa(),
                (any::<bool>(), proptest::collection::vec(arb_kappa(), n_tx)),
            )
        })
        .prop_map(|((n_tx, n_rx, dup), base, raw, kappa, (per_tx, kappas))| {
            let mut gains: Vec<f64> = raw
                .into_iter()
                .map(|(kind, k, u)| gain(kind, base, k, u))
                .collect();
            if dup > 0 {
                for tx in (dup..n_tx).step_by(dup) {
                    gains.copy_within(0..n_rx, tx * n_rx);
                }
            }
            let mut cfg = HeuristicConfig::with_kappa(kappa);
            cfg.per_tx_kappa = per_tx.then_some(kappas);
            (ChannelMatrix::from_gains(n_tx, n_rx, gains), cfg)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// The fast ranking selects the reference's exact `(tx, rx)` sequence
    /// with bit-identical scores, whatever the gains and κ.
    #[test]
    fn one_powf_ranking_matches_scalar_reference(case in arb_case()) {
        let (channel, cfg) = case;
        let fast = rank_by_sjr(&channel, &cfg);
        let scalar = rank_by_sjr_scalar(&channel, &cfg);
        prop_assert_eq!(fast.len(), scalar.len());
        for (f, s) in fast.iter().zip(&scalar) {
            prop_assert_eq!((f.tx, f.rx), (s.tx, s.rx));
            prop_assert_eq!(f.sjr.to_bits(), s.sjr.to_bits());
        }
    }
}

/// Gains a few ulps apart that round to the same SJR (a small κ flattens
/// the power): the reference keeps the first, smaller-gain RX, and so must
/// the fast path, which finds the larger gain first.
#[test]
fn rounding_tie_keeps_the_first_rx() {
    let kappa = 1e-5;
    let hi = 1e-6;
    let found = (1..64).find_map(|k| {
        let lo = ulps(hi, -k);
        let denom = lo + hi;
        (lo.powf(kappa) / denom == hi.powf(kappa) / denom).then_some(lo)
    });
    let lo = found.expect("some gain a few ulps below 1e-6 rounds to the same SJR");
    let channel = ChannelMatrix::from_gains(1, 2, vec![lo, hi]);
    let cfg = HeuristicConfig::with_kappa(kappa);
    let ranked = rank_by_sjr(&channel, &cfg);
    assert_eq!(ranked, rank_by_sjr_scalar(&channel, &cfg));
    assert_eq!(ranked[0].rx, 0);
}

/// Deep subnormal gains a fraction of a percent apart — far outside the tie
/// band — whose powers round to the same subnormal: the winner's score is
/// normal but its power is not, so the relative-gap argument fails and the
/// row must be scored in full to keep the reference's first RX.
#[test]
fn subnormal_powers_take_the_full_scan() {
    let kappa = 1.001;
    let found = (200..400u64).find_map(|bits| {
        let (lo, hi) = (f64::from_bits(bits), f64::from_bits(bits + 1));
        let denom = lo + hi;
        let tie = lo.powf(kappa) / denom == hi.powf(kappa) / denom;
        (tie && (hi.powf(kappa) / denom).is_normal()).then_some((lo, hi))
    });
    let (lo, hi) = found.expect("adjacent deep subnormals share a rounded power");
    let channel = ChannelMatrix::from_gains(1, 2, vec![lo, hi]);
    let cfg = HeuristicConfig::with_kappa(kappa);
    let ranked = rank_by_sjr(&channel, &cfg);
    assert_eq!(ranked, rank_by_sjr_scalar(&channel, &cfg));
    assert_eq!(ranked[0].rx, 0);
}

/// Whole rows that tie on their best score, scattered over the grid and
/// mixed with all-zero rows (every one scores 0): each group of equal scores
/// must come out in ascending TX order, as the reference's rescan keeps the
/// first untaken TX on a tie. κ = NaN exercises the replay path (NaN scores
/// never compare greater), κ = 1e-9 the full-scan rows.
#[test]
fn equal_scores_rank_in_ascending_tx_order() {
    let (n_tx, n_rx) = (36, 4);
    let rows = [[4e-7, 1e-7, 0.0, 2e-8], [1e-8, 3e-7, 3e-7, 0.0], [0.0; 4]];
    let gains: Vec<f64> = (0..n_tx).flat_map(|tx| rows[(tx * 7) % 3]).collect();
    let channel = ChannelMatrix::from_gains(n_tx, n_rx, gains);
    for kappa in [1.3, 1e-9, f64::NAN] {
        let cfg = HeuristicConfig::with_kappa(kappa);
        let ranked = rank_by_sjr(&channel, &cfg);
        assert_eq!(ranked.len(), n_tx);
        let scalar = rank_by_sjr_scalar(&channel, &cfg);
        for (f, s) in ranked.iter().zip(&scalar) {
            assert_eq!((f.tx, f.rx, f.sjr.to_bits()), (s.tx, s.rx, s.sjr.to_bits()));
        }
        let mut ties = 0;
        for pair in ranked.windows(2) {
            if pair[0].sjr.to_bits() == pair[1].sjr.to_bits() {
                assert!(pair[0].tx < pair[1].tx, "κ {kappa}: {pair:?}");
                ties += 1;
            }
        }
        if kappa.is_nan() {
            // Nothing beats a NaN or is beaten by one: every round keeps
            // the first untaken TX.
            assert!(ranked.iter().map(|e| e.tx).eq(0..n_tx));
        } else {
            // Three groups of equal scores: all neighbours but two tie.
            assert_eq!(ties, n_tx - 3, "κ {kappa}");
        }
    }
}
