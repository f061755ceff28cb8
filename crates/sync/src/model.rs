//! Stochastic start-offset models for the three synchronization regimes.
//!
//! A "start offset" is the error, in seconds, between when a TX *should*
//! begin radiating a frame and when it actually does. The calibration
//! anchors come straight from the paper:
//!
//! * Table 4 medians (no sync 10.040 µs, NTP/PTP 4.565 µs, NLOS 0.575 µs);
//! * Fig. 12's decline of measured delay with symbol rate (at low rates the
//!   TXs additionally quantize their start to symbol boundaries of the
//!   software transmit loop);
//! * the §6.1 observation that at a 10 % symbol-overlap tolerance, NTP/PTP
//!   supports at most 14.28 Ksymbols/s.

use crate::clock::gaussian;
use rand::Rng;

/// Median of `|X − Y|` for independent standard normals is `0.6745·√2·σ`;
/// dividing the Table 4 medians by this constant gives per-TX sigmas.
const MEDIAN_ABS_DIFF: f64 = 0.674_489 * std::f64::consts::SQRT_2;

/// How a group of TXs is synchronized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncScheme {
    /// TXs fire on Ethernet frame arrival; no alignment at all.
    SyncOff,
    /// NTP-disciplined controller clock + PTP among TXs; TXs fire at an
    /// agreed absolute time (§6.1).
    NtpPtp,
    /// The paper's NLOS-VLC scheme: followers align to the leading TX's
    /// reflected pilot, with residual error set by their sampling phase
    /// (§6.2). The field is the follower's sampling rate in Hz.
    NlosVlc {
        /// Follower sampling rate `frx` in Hz (1 MHz in the testbed).
        sample_rate_hz: f64,
    },
}

impl SyncScheme {
    /// The paper's NLOS configuration (1 Msps followers).
    pub fn nlos_paper() -> Self {
        SyncScheme::NlosVlc {
            sample_rate_hz: 1_000_000.0,
        }
    }

    /// Per-TX Gaussian start-error sigma for the clock-based schemes, in
    /// seconds (calibrated from Table 4).
    fn clock_sigma(&self) -> f64 {
        match self {
            SyncScheme::SyncOff => 10.040e-6 / MEDIAN_ABS_DIFF,
            SyncScheme::NtpPtp => 4.565e-6 / MEDIAN_ABS_DIFF,
            SyncScheme::NlosVlc { .. } => 0.06e-6, // edge-detection noise
        }
    }

    /// The symbol-boundary quantization coefficient: the software transmit
    /// loop only starts frames on its loop tick, a fraction `q` of the
    /// symbol period (Fig. 12's rate-dependent term). Zero for NLOS sync,
    /// whose followers count receiver samples instead.
    fn quantization_fraction(&self) -> f64 {
        // Calibrated so NTP/PTP's measured delay equals 10 % of the symbol
        // width at 14.28 Ksymbols/s, the paper's §6.1 rate limit; the
        // sync-off loop tick is twice as coarse, preserving Fig. 12's ≥ 2×
        // separation between the curves.
        match self {
            SyncScheme::SyncOff => 0.54,
            SyncScheme::NtpPtp => 0.27,
            SyncScheme::NlosVlc { .. } => 0.0,
        }
    }

    /// Draws one TX start offset in seconds for a frame transmitted at
    /// `symbol_rate_hz`. For NLOS-VLC the offset is one-sided (a follower
    /// can only start *after* it detects the pilot's sampled edge).
    pub fn sample_start_offset<R: Rng + ?Sized>(&self, symbol_rate_hz: f64, rng: &mut R) -> f64 {
        assert!(symbol_rate_hz > 0.0, "symbol rate must be positive");
        match self {
            SyncScheme::NlosVlc { sample_rate_hz } => {
                let phase: f64 = rng.gen_range(0.0..1.0 / sample_rate_hz);
                phase + gaussian(rng).abs() * self.clock_sigma()
            }
            _ => {
                let clock = gaussian(rng) * self.clock_sigma();
                let t_sym = 1.0 / symbol_rate_hz;
                let quant = rng.gen_range(0.0..1.0f64) * self.quantization_fraction() * t_sym;
                clock + quant
            }
        }
    }

    /// Monte-Carlo median of the pairwise start delay `|Δ|` between two TXs
    /// at a symbol rate — the quantity Fig. 12 plots.
    pub fn median_pairwise_delay<R: Rng + ?Sized>(
        &self,
        symbol_rate_hz: f64,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut deltas: Vec<f64> = (0..trials)
            .map(|_| {
                let a = self.sample_start_offset(symbol_rate_hz, rng);
                let b = self.sample_start_offset(symbol_rate_hz, rng);
                (a - b).abs()
            })
            .collect();
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        deltas[trials / 2]
    }

    /// The highest symbol rate at which the median pairwise delay stays
    /// within `overlap_tolerance` (e.g. 0.10) of the symbol width — the
    /// paper's §6.1 limit computation.
    pub fn max_symbol_rate<R: Rng + ?Sized>(&self, overlap_tolerance: f64, rng: &mut R) -> f64 {
        assert!(overlap_tolerance > 0.0 && overlap_tolerance < 1.0);
        // Binary search on the rate; the delay is (stochastically)
        // non-increasing in the symbol period while the budget shrinks.
        let (mut lo, mut hi) = (100.0f64, 10_000_000.0f64);
        for _ in 0..40 {
            let mid = (lo * hi).sqrt();
            let delay = self.median_pairwise_delay(mid, 4001, rng);
            if delay <= overlap_tolerance / mid {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD5EED)
    }

    /// High symbol rate ⇒ the quantization term vanishes and the Table 4
    /// medians emerge.
    #[test]
    fn table4_sync_off_median() {
        let mut r = rng();
        let d = SyncScheme::SyncOff.median_pairwise_delay(10e6, 40_001, &mut r);
        assert!((d - 10.040e-6).abs() < 0.5e-6, "median {d}");
    }

    #[test]
    fn table4_ntp_ptp_median() {
        let mut r = rng();
        let d = SyncScheme::NtpPtp.median_pairwise_delay(10e6, 40_001, &mut r);
        assert!((d - 4.565e-6).abs() < 0.3e-6, "median {d}");
    }

    #[test]
    fn nlos_follower_error_median_is_0_575_us() {
        // Table 4's NLOS row measures leader-vs-follower, i.e. the
        // follower's own start error.
        let mut r = rng();
        let scheme = SyncScheme::nlos_paper();
        let mut errs: Vec<f64> = (0..40_001)
            .map(|_| scheme.sample_start_offset(100_000.0, &mut r))
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = errs[errs.len() / 2];
        assert!((median - 0.575e-6).abs() < 0.06e-6, "median {median}");
    }

    #[test]
    fn ntp_beats_sync_off_by_at_least_2x() {
        // Paper §6.1: NTP/PTP improves the delay by at least a factor of
        // two at every symbol rate.
        let mut r = rng();
        for rate in [1e3, 5e3, 20e3, 60e3] {
            let off = SyncScheme::SyncOff.median_pairwise_delay(rate, 8001, &mut r);
            let ptp = SyncScheme::NtpPtp.median_pairwise_delay(rate, 8001, &mut r);
            assert!(off > 1.8 * ptp, "rate {rate}: off {off} vs ptp {ptp}");
        }
    }

    #[test]
    fn delay_declines_with_symbol_rate() {
        // The Fig. 12 shape: higher symbol rates → smaller measured delay.
        let mut r = rng();
        let slow = SyncScheme::NtpPtp.median_pairwise_delay(1e3, 8001, &mut r);
        let fast = SyncScheme::NtpPtp.median_pairwise_delay(60e3, 8001, &mut r);
        assert!(slow > 5.0 * fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn ntp_max_rate_is_around_14_ksym() {
        // §6.1: at 10 % symbol overlap NTP/PTP supports ≈ 14.28 Ksym/s.
        let mut r = rng();
        let max = SyncScheme::NtpPtp.max_symbol_rate(0.10, &mut r);
        assert!(
            (10_000.0..20_000.0).contains(&max),
            "max NTP/PTP symbol rate {max}"
        );
    }

    #[test]
    fn nlos_supports_much_higher_rates() {
        let mut r = rng();
        let nlos = SyncScheme::nlos_paper().max_symbol_rate(0.10, &mut r);
        let ptp = SyncScheme::NtpPtp.max_symbol_rate(0.10, &mut r);
        assert!(nlos > 5.0 * ptp, "nlos {nlos} vs ptp {ptp}");
        // 100 Ksym/s (the testbed rate) must be comfortably supported.
        assert!(nlos > 100_000.0);
    }

    #[test]
    fn nlos_offsets_are_one_sided() {
        let mut r = rng();
        let scheme = SyncScheme::nlos_paper();
        for _ in 0..1000 {
            assert!(scheme.sample_start_offset(100_000.0, &mut r) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let mut r = rng();
        SyncScheme::SyncOff.sample_start_offset(0.0, &mut r);
    }
}
