//! Fig. 12: synchronization delay vs symbol rate for no-sync and NTP/PTP.
//!
//! The paper measures the delay between two TXs' "synchronized" symbols at
//! several symbol rates and shows NTP/PTP improving over no-sync by at
//! least 2×, with a fundamental limit of ~14.28 Ksymbols/s at a 10 %
//! symbol-overlap tolerance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_sync::SyncScheme;

/// The Fig. 12 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// The swept symbol rates in symbols/s.
    pub rates_hz: Vec<f64>,
    /// Median delay per rate with synchronization off, in seconds.
    pub sync_off_s: Vec<f64>,
    /// Median delay per rate with NTP/PTP, in seconds.
    pub ntp_ptp_s: Vec<f64>,
    /// The maximum NTP/PTP symbol rate at 10 % overlap tolerance.
    pub ntp_max_rate_hz: f64,
}

/// Runs the Monte-Carlo delay measurement at each symbol rate.
pub fn run(rates_hz: &[f64], trials: usize, seed: u64) -> Fig12 {
    assert!(!rates_hz.is_empty() && trials > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let sync_off_s = rates_hz
        .iter()
        .map(|&r| SyncScheme::SyncOff.median_pairwise_delay(r, trials, &mut rng))
        .collect();
    let ntp_ptp_s = rates_hz
        .iter()
        .map(|&r| SyncScheme::NtpPtp.median_pairwise_delay(r, trials, &mut rng))
        .collect();
    let ntp_max_rate_hz = SyncScheme::NtpPtp.max_symbol_rate(0.10, &mut rng);
    Fig12 {
        rates_hz: rates_hz.to_vec(),
        sync_off_s,
        ntp_ptp_s,
        ntp_max_rate_hz,
    }
}

impl Fig12 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "Fig. 12 — sync delay vs symbol rate\n  rate[Ksym/s]   sync-off[µs]   NTP/PTP[µs]\n",
        );
        for (i, &r) in self.rates_hz.iter().enumerate() {
            out.push_str(&format!(
                "  {:>10.2}   {:>10.2}   {:>10.2}\n",
                r / 1e3,
                self.sync_off_s[i] * 1e6,
                self.ntp_ptp_s[i] * 1e6
            ));
        }
        out.push_str(&format!(
            "  NTP/PTP max rate @10 % overlap: {:.2} Ksym/s (paper: 14.28)\n",
            self.ntp_max_rate_hz / 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntp_ptp_improves_at_every_rate() {
        let fig = run(&[2e3, 10e3, 40e3], 4001, 31);
        for i in 0..fig.rates_hz.len() {
            assert!(
                fig.sync_off_s[i] > 1.7 * fig.ntp_ptp_s[i],
                "rate {}: off {} ptp {}",
                fig.rates_hz[i],
                fig.sync_off_s[i],
                fig.ntp_ptp_s[i]
            );
        }
    }

    #[test]
    fn max_rate_matches_paper_anchor() {
        let fig = run(&[10e3], 2001, 32);
        assert!(
            (10_000.0..20_000.0).contains(&fig.ntp_max_rate_hz),
            "max rate {}",
            fig.ntp_max_rate_hz
        );
    }

    #[test]
    fn delays_span_the_papers_log_range() {
        // Fig. 12's y-axis runs 10¹–10³ µs over 1–60 Ksym/s.
        let fig = run(&[1e3, 60e3], 4001, 33);
        assert!(
            fig.sync_off_s[0] > 100e-6,
            "low-rate delay {}",
            fig.sync_off_s[0]
        );
        assert!(
            fig.ntp_ptp_s[1] < 10e-6,
            "high-rate delay {}",
            fig.ntp_ptp_s[1]
        );
    }

    #[test]
    fn report_has_row_per_rate() {
        let fig = run(&[5e3, 25e3], 501, 34);
        let report = fig.report();
        assert_eq!(report.lines().count(), 2 + 2 + 1);
        assert!(!report.contains("%%"), "{report}");
    }
}
