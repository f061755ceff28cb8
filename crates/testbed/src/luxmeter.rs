//! HS1010 lux-meter emulation (paper §8: "The measurements were performed
//! with the HS1010 lux meter").
//!
//! A handheld lux meter reads the illuminance at a point with limited
//! resolution (1 lux on the HS1010's low range) and a few percent of
//! calibration error. The emulation wraps the photometry engine and applies
//! both, so testbed illuminance numbers carry realistic measurement
//! roughness, like the paper's 530 lux / 81 % testbed figures versus the
//! 564 lux / 74 % ideal simulation.

use rand::Rng;
use vlc_channel::lambertian::lambertian_order;
use vlc_channel::photometry::illuminance_from;
use vlc_geom::{Pose, Vec3};

/// A handheld lux meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuxMeter {
    /// Reading resolution in lux (display quantization).
    pub resolution_lux: f64,
    /// Relative calibration error (one-sigma).
    pub calibration_sigma: f64,
}

impl LuxMeter {
    /// The HS1010 profile: 1 lux resolution, ±3 % calibration class.
    pub fn hs1010() -> Self {
        LuxMeter {
            resolution_lux: 1.0,
            calibration_sigma: 0.03,
        }
    }

    /// Reads the illuminance at `point` (horizontal sensor) produced by the
    /// given luminaires. The calibration error is drawn once per reading.
    pub fn read<R: Rng + ?Sized>(
        &self,
        luminaires: &[Pose],
        flux_lm: f64,
        half_power_semi_angle: f64,
        point: Vec3,
        rng: &mut R,
    ) -> f64 {
        let m = lambertian_order(half_power_semi_angle);
        let truth: f64 = luminaires
            .iter()
            .map(|lum| illuminance_from(lum, flux_lm, m, point, Vec3::UP))
            .sum();
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let measured = truth * (1.0 + gauss * self.calibration_sigma);
        (measured / self.resolution_lux).round() * self.resolution_lux
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vlc_geom::{Room, TxGrid};

    #[test]
    fn readings_are_quantized() {
        let meter = LuxMeter::hs1010();
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let mut rng = StdRng::seed_from_u64(31);
        let v = meter.read(
            &grid.poses(),
            153.3,
            15f64.to_radians(),
            Vec3::new(1.5, 1.5, 0.8),
            &mut rng,
        );
        assert_eq!(v, v.round());
        assert!(v > 0.0);
    }

    #[test]
    fn readings_track_truth_within_calibration() {
        let meter = LuxMeter::hs1010();
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let mut rng = StdRng::seed_from_u64(32);
        let point = Vec3::new(1.5, 1.5, 0.8);
        let n = 500;
        let mean: f64 = (0..n)
            .map(|_| meter.read(&grid.poses(), 153.3, 15f64.to_radians(), point, &mut rng))
            .sum::<f64>()
            / n as f64;
        let m = lambertian_order(15f64.to_radians());
        let truth: f64 = grid
            .poses()
            .iter()
            .map(|lum| illuminance_from(lum, 153.3, m, point, Vec3::UP))
            .sum();
        assert!(
            (mean - truth).abs() / truth < 0.01,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn dark_point_reads_zero() {
        let meter = LuxMeter::hs1010();
        let mut rng = StdRng::seed_from_u64(33);
        let v = meter.read(&[], 153.3, 15f64.to_radians(), Vec3::ZERO, &mut rng);
        assert_eq!(v, 0.0);
    }
}
