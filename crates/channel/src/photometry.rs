//! Photometry: luminous intensity and illuminance (lux).
//!
//! DenseVLC's non-negotiable constraint is lighting quality: the ISO 8995-1
//! standard for office premises requires ≥ 500 lux average illuminance and
//! ≥ 70 % uniformity (minimum / average) in the area of interest. The paper
//! verifies its 6 × 6 deployment meets this (564 lux / 74 % simulated,
//! 530 lux / 81 % measured) and DenseVLC's modulation preserves average
//! brightness by construction. This module computes illuminance maps over
//! the area of interest from a set of luminaire poses.

use crate::lambertian::lambertian_order;
use vlc_geom::{AreaOfInterest, Pose, Vec3};

/// Illuminance produced at a floor/table point by one Lambertian luminaire.
///
/// The luminaire emits total luminous flux `flux_lm` with a generalized
/// Lambertian pattern of order `m`; its axial luminous intensity is
/// `I₀ = (m+1)·Φ / 2π` cd, and the illuminance at a surface point with
/// surface normal `normal` is `I₀ · cosᵐ(φ) · cos(ψ) / d²` lux.
pub fn illuminance_from(
    luminaire: &Pose,
    flux_lm: f64,
    lambertian_m: f64,
    point: Vec3,
    normal: Vec3,
) -> f64 {
    let d2 = (point - luminaire.position).norm_sq();
    if d2 < 1e-12 {
        return 0.0;
    }
    let cos_phi = luminaire.cos_irradiation(point);
    if cos_phi <= 0.0 {
        return 0.0;
    }
    let incoming = (luminaire.position - point).normalized();
    let cos_psi = normal.normalized().dot(incoming);
    if cos_psi <= 0.0 {
        return 0.0;
    }
    let axial_intensity = (lambertian_m + 1.0) * flux_lm / (2.0 * std::f64::consts::PI);
    axial_intensity * cos_phi.powf(lambertian_m) * cos_psi / d2
}

/// Summary statistics of an illuminance distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlluminanceStats {
    /// Mean illuminance in lux.
    pub average_lux: f64,
    /// Minimum illuminance in lux.
    pub min_lux: f64,
    /// Maximum illuminance in lux.
    pub max_lux: f64,
    /// Uniformity: `min / average` (ISO 8995-1 requires ≥ 0.7).
    pub uniformity: f64,
}

impl IlluminanceStats {
    /// True when the ISO 8995-1 office requirements hold (≥ 500 lux average
    /// and ≥ 70 % uniformity).
    pub fn meets_iso_8995(&self) -> bool {
        self.average_lux >= 500.0 && self.uniformity >= 0.70
    }
}

/// A sampled illuminance map over an area of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct IlluminanceMap {
    /// Sample points (all at the working-plane height).
    pub points: Vec<Vec3>,
    /// Illuminance at each sample point, in lux.
    pub lux: Vec<f64>,
}

impl IlluminanceMap {
    /// Computes the illuminance map over `area` at working-plane height
    /// `plane_height`, sampled every `step` meters, for luminaires with the
    /// given per-luminaire flux and half-power semi-angle.
    ///
    /// The working plane is horizontal (normal +Z), matching both the paper
    /// (table at 0.8 m in simulation, floor in the testbed) and ISO 8995-1.
    pub fn compute(
        luminaires: &[Pose],
        flux_lm: f64,
        half_power_semi_angle: f64,
        area: &AreaOfInterest,
        plane_height: f64,
        step: f64,
    ) -> Self {
        let m = lambertian_order(half_power_semi_angle);
        let points = area.sample_points(step, plane_height);
        let lux = points
            .iter()
            .map(|&p| {
                luminaires
                    .iter()
                    .map(|lum| illuminance_from(lum, flux_lm, m, p, Vec3::UP))
                    .sum()
            })
            .collect();
        IlluminanceMap { points, lux }
    }

    /// Summary statistics over the map.
    ///
    /// # Panics
    /// Panics if the map is empty.
    pub fn stats(&self) -> IlluminanceStats {
        assert!(!self.lux.is_empty(), "illuminance map has no samples");
        let sum: f64 = self.lux.iter().sum();
        let average_lux = sum / self.lux.len() as f64;
        let min_lux = self.lux.iter().copied().fold(f64::INFINITY, f64::min);
        let max_lux = self.lux.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        IlluminanceStats {
            average_lux,
            min_lux,
            max_lux,
            uniformity: if average_lux > 0.0 {
                min_lux / average_lux
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::{Room, TxGrid};

    #[test]
    fn illuminance_inverse_square_on_axis() {
        let m = lambertian_order(15f64.to_radians());
        let lum = Pose::ceiling(0.0, 0.0, 2.0);
        let e1 = illuminance_from(&lum, 100.0, m, Vec3::new(0.0, 0.0, 1.0), Vec3::UP);
        let e2 = illuminance_from(&lum, 100.0, m, Vec3::new(0.0, 0.0, 0.0), Vec3::UP);
        assert!((e1 / e2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn axial_intensity_formula() {
        // At 1 m on axis, E = I0 = (m+1)·Φ/2π.
        let m = lambertian_order(15f64.to_radians());
        let lum = Pose::ceiling(0.0, 0.0, 1.0);
        let e = illuminance_from(&lum, 100.0, m, Vec3::ZERO, Vec3::UP);
        let i0 = (m + 1.0) * 100.0 / (2.0 * std::f64::consts::PI);
        assert!((e - i0).abs() / i0 < 1e-12);
    }

    #[test]
    fn no_illuminance_behind_luminaire_or_surface() {
        let m = lambertian_order(15f64.to_radians());
        let lum = Pose::ceiling(0.0, 0.0, 2.0);
        // Point above the (downward-facing) luminaire.
        assert_eq!(
            illuminance_from(&lum, 100.0, m, Vec3::new(0.0, 0.0, 2.5), Vec3::UP),
            0.0
        );
        // Surface facing away from the light.
        assert_eq!(
            illuminance_from(&lum, 100.0, m, Vec3::ZERO, Vec3::DOWN),
            0.0
        );
    }

    #[test]
    fn paper_grid_meets_iso_8995() {
        // Reproduces the §4 illuminance check: the 6 × 6 grid with the
        // calibrated per-LED flux must give ≥ 500 lux average and ≥ 70 %
        // uniformity over the central 2.2 m × 2.2 m area.
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let area = AreaOfInterest::paper(&room);
        let map =
            IlluminanceMap::compute(&grid.poses(), 153.3, 15f64.to_radians(), &area, 0.8, 0.05);
        let stats = map.stats();
        assert!(
            stats.meets_iso_8995(),
            "avg {} lux, uniformity {}",
            stats.average_lux,
            stats.uniformity
        );
    }

    #[test]
    fn stats_detects_non_uniform_lighting() {
        // A single narrow luminaire cannot light the whole area uniformly.
        let room = Room::paper_simulation();
        let area = AreaOfInterest::paper(&room);
        let one = vec![Pose::ceiling(1.5, 1.5, 2.8)];
        let map = IlluminanceMap::compute(&one, 153.3, 15f64.to_radians(), &area, 0.8, 0.1);
        let stats = map.stats();
        assert!(stats.uniformity < 0.70);
    }

    #[test]
    fn map_and_stats_dimensions_agree() {
        let room = Room::paper_simulation();
        let area = AreaOfInterest::centered(&room, 2.0);
        let grid = TxGrid::paper(&room);
        let map =
            IlluminanceMap::compute(&grid.poses(), 153.3, 15f64.to_radians(), &area, 0.8, 0.5);
        assert_eq!(map.points.len(), map.lux.len());
        assert_eq!(map.points.len(), 25);
        let s = map.stats();
        assert!(s.min_lux <= s.average_lux && s.average_lux <= s.max_lux);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_map_stats_panics() {
        IlluminanceMap {
            points: vec![],
            lux: vec![],
        }
        .stats();
    }
}
