//! Free-running clock models for the embedded TX computers.
//!
//! Each BeagleBone's clock has a fixed offset, a frequency drift (crystal
//! tolerance, tens of ppm), and per-event OS scheduling jitter. These three
//! terms are what the synchronization schemes fight against.

use rand::Rng;
use vlc_telemetry::Registry;

/// A free-running clock with offset, drift, and per-event jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Constant offset from true time, in seconds.
    pub offset_s: f64,
    /// Frequency error in parts-per-million (positive = runs fast).
    pub drift_ppm: f64,
    /// Standard deviation of per-event OS scheduling jitter, in seconds.
    pub jitter_sigma_s: f64,
}

impl ClockModel {
    /// An ideal clock.
    pub const IDEAL: ClockModel = ClockModel {
        offset_s: 0.0,
        drift_ppm: 0.0,
        jitter_sigma_s: 0.0,
    };

    /// A typical BeagleBone-class embedded computer: crystal within
    /// ±25 ppm, OS jitter on the order of ten microseconds.
    pub fn beaglebone<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ClockModel {
            offset_s: rng.gen_range(-0.5..0.5), // unsynchronized boot offset
            drift_ppm: rng.gen_range(-25.0..25.0),
            jitter_sigma_s: 10.5e-6,
        }
    }

    /// The local reading of this clock at true time `t`.
    pub fn read(&self, t_true: f64) -> f64 {
        t_true * (1.0 + self.drift_ppm * 1e-6) + self.offset_s
    }

    /// The true time at which this clock reads `t_local`.
    pub fn true_time_of(&self, t_local: f64) -> f64 {
        (t_local - self.offset_s) / (1.0 + self.drift_ppm * 1e-6)
    }

    /// A jittered event time: the true time at which an event scheduled for
    /// local time `t_local` actually fires, including OS scheduling noise.
    pub fn fire_at<R: Rng + ?Sized>(&self, t_local: f64, rng: &mut R) -> f64 {
        self.true_time_of(t_local) + gaussian(rng) * self.jitter_sigma_s
    }

    /// Returns this clock after a discipline step that removes all but
    /// `residual_sigma_s` of the offset (what NTP+PTP achieve).
    pub fn disciplined<R: Rng + ?Sized>(&self, residual_sigma_s: f64, rng: &mut R) -> Self {
        ClockModel {
            offset_s: gaussian(rng) * residual_sigma_s,
            drift_ppm: self.drift_ppm,
            jitter_sigma_s: self.jitter_sigma_s,
        }
    }

    /// Publishes this clock's state into the `sync.offset_s` and
    /// `sync.drift_ppm` gauges so a running simulation can expose how far
    /// the TX clocks have wandered.
    pub fn observe(&self, telemetry: &Registry) {
        telemetry.gauge("sync.offset_s").set(self.offset_s);
        telemetry.gauge("sync.drift_ppm").set(self.drift_ppm);
    }
}

/// One standard normal sample (Box–Muller).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_clock_reads_true_time() {
        let c = ClockModel::IDEAL;
        assert_eq!(c.read(42.0), 42.0);
        assert_eq!(c.true_time_of(42.0), 42.0);
    }

    #[test]
    fn read_and_true_time_are_inverse() {
        let c = ClockModel {
            offset_s: 0.3,
            drift_ppm: 20.0,
            jitter_sigma_s: 0.0,
        };
        for t in [0.0, 1.0, 1e3] {
            assert!((c.true_time_of(c.read(t)) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn drift_accumulates_over_time() {
        let c = ClockModel {
            offset_s: 0.0,
            drift_ppm: 10.0,
            jitter_sigma_s: 0.0,
        };
        // 10 ppm over 100 s = 1 ms.
        assert!((c.read(100.0) - 100.0 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn fire_at_is_centered_on_scheduled_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = ClockModel {
            offset_s: 0.0,
            drift_ppm: 0.0,
            jitter_sigma_s: 10e-6,
        };
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| c.fire_at(1.0, &mut rng) - 1.0).sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-6, "mean error {mean}");
    }

    #[test]
    fn disciplined_clock_has_small_offset() {
        let mut rng = StdRng::seed_from_u64(4);
        let wild = ClockModel::beaglebone(&mut rng);
        let tame = wild.disciplined(5e-6, &mut rng);
        assert!(tame.offset_s.abs() < 50e-6);
        assert_eq!(tame.drift_ppm, wild.drift_ppm);
    }

    #[test]
    fn beaglebone_parameters_are_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let c = ClockModel::beaglebone(&mut rng);
            assert!(c.drift_ppm.abs() <= 25.0);
            assert!(c.offset_s.abs() <= 0.5);
            assert_eq!(c.jitter_sigma_s, 10.5e-6);
        }
    }
}
