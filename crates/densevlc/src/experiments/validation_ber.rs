//! Substrate validation: simulated OOK bit error rate vs closed-form
//! theory.
//!
//! Not a paper artifact — a self-check that the waveform + AWGN + slicing
//! substrate behind the Table-5 experiment is statistically sound. For
//! bipolar OOK with mid-chip averaging over `k` samples, the decision
//! statistic is Gaussian with mean `±A` and deviation `σ/√k`, so
//! `BER = Q(A·√k / σ)`. The Monte-Carlo measurement must track that curve
//! across SNRs, which pins amplitude scaling, the Box–Muller sampler, and
//! the slicer all at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_channel::AwgnChannel;

/// One SNR point of the validation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Per-sample SNR `A²/σ²` in dB.
    pub snr_db: f64,
    /// Monte-Carlo measured BER.
    pub measured: f64,
    /// Closed-form `Q(√(k·SNR))` prediction.
    pub theory: f64,
}

/// The validation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationBer {
    /// Samples averaged per decision (mid-chip window).
    pub samples_per_decision: usize,
    /// The sweep.
    pub points: Vec<BerPoint>,
}

/// The Gaussian tail function `Q(x) = 0.5·erfc(x/√2)`, via an
/// Abramowitz–Stegun style erfc approximation (7.1.26, |ε| < 1.5e-7 —
/// plenty for BER comparisons).
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

/// Runs the sweep: `bits` decisions per SNR with `k` samples per decision.
pub fn run(snrs_db: &[f64], k: usize, bits: usize, seed: u64) -> ValidationBer {
    assert!(!snrs_db.is_empty() && k > 0 && bits >= 1_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = 1.0;
    let mut awgn = AwgnChannel::with_sigma(sigma);
    let points = snrs_db
        .iter()
        .map(|&snr_db| {
            let amp = sigma * 10f64.powf(snr_db / 20.0);
            let mut errors = 0usize;
            for _ in 0..bits {
                let bit: bool = rng.gen();
                let level = if bit { amp } else { -amp };
                let mut acc = 0.0;
                for _ in 0..k {
                    acc += level + awgn.sample(&mut rng);
                }
                if (acc > 0.0) != bit {
                    errors += 1;
                }
            }
            BerPoint {
                snr_db,
                measured: errors as f64 / bits as f64,
                theory: q_function((k as f64).sqrt() * amp / sigma),
            }
        })
        .collect();
    ValidationBer {
        samples_per_decision: k,
        points,
    }
}

impl ValidationBer {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Substrate validation — OOK BER vs theory (k = {} samples/decision)\n  SNR[dB]    measured      Q-theory\n",
            self.samples_per_decision
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>6.1}   {:>9.2e}   {:>9.2e}\n",
                p.snr_db, p.measured, p.theory
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(3.0) - 1.349_90e-3).abs() < 1e-5);
        assert!((q_function(-1.0) - (1.0 - 0.158_655)).abs() < 1e-4);
    }

    #[test]
    fn measured_ber_tracks_theory() {
        // Mid-SNR points where both statistics are well-resolved.
        let v = run(&[-6.0, -3.0, 0.0], 1, 60_000, 1);
        for p in &v.points {
            let ratio = p.measured / p.theory;
            assert!(
                (0.85..1.18).contains(&ratio),
                "SNR {} dB: measured {} vs theory {}",
                p.snr_db,
                p.measured,
                p.theory
            );
        }
    }

    #[test]
    fn averaging_gain_matches_sqrt_k() {
        // k = 4 buys 6 dB: BER(k=4, SNR) ≈ BER(k=1, SNR + 6 dB).
        let one = run(&[-2.0], 1, 80_000, 2).points[0].measured;
        let four = run(&[-8.0], 4, 80_000, 3).points[0].measured;
        let ratio = one / four.max(1e-9);
        assert!(
            (0.5..2.0).contains(&ratio),
            "k-gain mismatch: {one} vs {four}"
        );
    }

    #[test]
    fn ber_decreases_with_snr() {
        let v = run(&[-6.0, 0.0, 4.0], 2, 20_000, 4);
        assert!(v.points[0].measured > v.points[1].measured);
        assert!(v.points[1].measured >= v.points[2].measured);
    }

    #[test]
    fn report_has_row_per_snr() {
        let v = run(&[-3.0, 0.0], 1, 2_000, 5);
        assert_eq!(v.report().lines().count(), 2 + 2);
    }
}
