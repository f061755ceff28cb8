//! Oscilloscope emulation (RIGOL MSO1104 stand-in).
//!
//! The paper's §8.1 synchronization measurement connects the LED anodes of
//! two TXs to a scope, captures both drive waveforms, and computes the
//! median delay between corresponding symbol edges per frame, averaged over
//! ten frames. The emulation renders the two chips streams at the scope's
//! sample rate (far above the TXs' 100 Ksym/s) with the TXs' start offsets
//! applied and reuses `vlc-sync`'s edge-delay estimator.

use rand::Rng;
use vlc_phy::manchester::Chip;
use vlc_phy::waveform::{render, WaveformConfig};
use vlc_sync::measure::average_median_delay;
use vlc_sync::SyncScheme;

/// A two-channel digital scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope {
    /// Scope sampling rate in Hz.
    pub sample_rate_hz: f64,
}

impl Scope {
    /// A scope profile comfortably oversampling the 100 Ksym/s chips.
    pub fn paper() -> Self {
        Scope {
            sample_rate_hz: 20e6,
        }
    }

    /// Runs the §8.1 measurement: both TXs transmit `chips` at
    /// `symbol_rate_hz`, each with a start offset drawn from `scheme`;
    /// `frames` frames are captured and the per-frame median edge delays
    /// averaged. Returns the measured delay in seconds, or `None` when a
    /// waveform never toggles.
    pub fn measure_sync_delay<R: Rng + ?Sized>(
        &self,
        chips: &[Chip],
        symbol_rate_hz: f64,
        scheme: &SyncScheme,
        frames: usize,
        rng: &mut R,
    ) -> Option<f64> {
        self.measure(chips, symbol_rate_hz, scheme, frames, false, rng)
    }

    /// The leader-vs-follower variant used for the NLOS-VLC row of Table 4:
    /// channel one probes the *leading* TX (which by definition starts on
    /// time) and channel two a follower whose start error comes from the
    /// scheme.
    pub fn measure_leader_follower_delay<R: Rng + ?Sized>(
        &self,
        chips: &[Chip],
        symbol_rate_hz: f64,
        scheme: &SyncScheme,
        frames: usize,
        rng: &mut R,
    ) -> Option<f64> {
        self.measure(chips, symbol_rate_hz, scheme, frames, true, rng)
    }

    fn measure<R: Rng + ?Sized>(
        &self,
        chips: &[Chip],
        symbol_rate_hz: f64,
        scheme: &SyncScheme,
        frames: usize,
        leader_follower: bool,
        rng: &mut R,
    ) -> Option<f64> {
        assert!(frames > 0, "need at least one frame");
        assert!(!chips.is_empty(), "need a non-empty chip stream");
        let cfg = WaveformConfig {
            symbol_rate_hz,
            sample_rate_hz: self.sample_rate_hz,
        };
        let samples_per_chip = self.sample_rate_hz / symbol_rate_hz;
        // Room for the worst-case offset (a symbol period) plus the frame.
        let n = ((chips.len() as f64 + 4.0) * samples_per_chip).ceil() as usize;
        let captures: Vec<(Vec<f64>, Vec<f64>)> = (0..frames)
            .map(|_| {
                let d1 = if leader_follower {
                    0.0
                } else {
                    scheme.sample_start_offset(symbol_rate_hz, rng)
                };
                let d2 = scheme.sample_start_offset(symbol_rate_hz, rng);
                (
                    render(chips, &cfg, 1.0, d1, n),
                    render(chips, &cfg, 1.0, d2, n),
                )
            })
            .collect();
        average_median_delay(&captures, self.sample_rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vlc_phy::manchester::manchester_encode;

    fn chips() -> Vec<Chip> {
        manchester_encode(&[0xA5, 0x5A, 0xC3, 0x3C, 0x0F, 0xF0, 0x99, 0x66])
    }

    #[test]
    fn nlos_measurement_reproduces_table4() {
        // The paper measures 0.575 µs for NLOS sync at 100 Ksym/s. Averaged
        // over enough frames the scope should land near it. (Edge pairing
        // uses the *nearest* edge, and the estimator averages medians, so
        // compare loosely.)
        let scope = Scope::paper();
        let mut rng = StdRng::seed_from_u64(0x5C07E);
        let d = scope
            .measure_sync_delay(&chips(), 100e3, &SyncScheme::nlos_paper(), 60, &mut rng)
            .expect("edges exist");
        assert!((d - 0.575e-6).abs() < 0.25e-6, "measured {d}");
    }

    #[test]
    fn sync_off_is_an_order_of_magnitude_worse() {
        let scope = Scope::paper();
        let mut rng = StdRng::seed_from_u64(77);
        let nlos = scope
            .measure_sync_delay(&chips(), 100e3, &SyncScheme::nlos_paper(), 40, &mut rng)
            .expect("edges");
        let off = scope
            .measure_sync_delay(&chips(), 100e3, &SyncScheme::SyncOff, 40, &mut rng)
            .expect("edges");
        assert!(off > 5.0 * nlos, "off {off} vs nlos {nlos}");
    }

    #[test]
    fn measurement_is_deterministic_under_a_seed() {
        let scope = Scope::paper();
        let d1 = scope
            .measure_sync_delay(
                &chips(),
                100e3,
                &SyncScheme::NtpPtp,
                10,
                &mut StdRng::seed_from_u64(5),
            )
            .expect("edges");
        let d2 = scope
            .measure_sync_delay(
                &chips(),
                100e3,
                &SyncScheme::NtpPtp,
                10,
                &mut StdRng::seed_from_u64(5),
            )
            .expect("edges");
        assert_eq!(d1, d2);
    }

    #[test]
    fn leader_follower_matches_follower_error_median() {
        // The leader starts exactly on time, so the measured delay is the
        // follower's own start error — 0.575 µs median for NLOS VLC.
        let scope = Scope::paper();
        let mut rng = StdRng::seed_from_u64(88);
        let d = scope
            .measure_leader_follower_delay(&chips(), 100e3, &SyncScheme::nlos_paper(), 80, &mut rng)
            .expect("edges exist");
        assert!((d - 0.575e-6).abs() < 0.2e-6, "measured {d}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_chips_panic() {
        let scope = Scope::paper();
        let mut rng = StdRng::seed_from_u64(1);
        scope.measure_sync_delay(&[], 100e3, &SyncScheme::SyncOff, 1, &mut rng);
    }
}
