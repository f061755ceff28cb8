//! Positions with orientation (boresight) for transmitters and receivers.

use crate::Vec3;

/// A position in the room plus a unit boresight direction.
///
/// For an LED transmitter the boresight is the optical axis of the emitter
/// (the direction of maximum radiant intensity); for a photodiode receiver it
/// is the surface normal of the detector. The paper's deployment uses
/// downward-facing ceiling TXs and upward-facing RXs, but the channel model
/// supports arbitrary orientations (paper §9, "RX orientation").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Position in meters (room coordinates, z up, floor at z = 0).
    pub position: Vec3,
    /// Unit boresight direction.
    pub boresight: Vec3,
}

impl Pose {
    /// Creates a pose, normalizing the boresight.
    ///
    /// # Panics
    /// Panics if `boresight` is the zero vector.
    pub fn new(position: Vec3, boresight: Vec3) -> Self {
        Pose {
            position,
            boresight: boresight.normalized(),
        }
    }

    /// A ceiling luminaire at `(x, y, height)` facing straight down.
    pub fn ceiling(x: f64, y: f64, height: f64) -> Self {
        Pose {
            position: Vec3::new(x, y, height),
            boresight: Vec3::DOWN,
        }
    }

    /// A receiver at `(x, y, height)` facing straight up.
    pub fn face_up(x: f64, y: f64, height: f64) -> Self {
        Pose {
            position: Vec3::new(x, y, height),
            boresight: Vec3::UP,
        }
    }

    /// A receiver tilted away from the vertical by `tilt` radians in the
    /// direction `azimuth` (measured from +X in the XY plane).
    ///
    /// `tilt = 0` reduces to [`Pose::face_up`].
    pub fn tilted(x: f64, y: f64, height: f64, tilt: f64, azimuth: f64) -> Self {
        let boresight = Vec3::new(
            tilt.sin() * azimuth.cos(),
            tilt.sin() * azimuth.sin(),
            tilt.cos(),
        );
        Pose::new(Vec3::new(x, y, height), boresight)
    }

    /// Cosine of the irradiation angle φ from this (transmitter) pose toward
    /// a target point: the angle between the boresight and the TX→target ray.
    ///
    /// Returns a value in `[-1, 1]`; negative values mean the target is
    /// behind the emitter plane.
    pub fn cos_irradiation(&self, target: Vec3) -> f64 {
        let ray = target - self.position;
        match ray.try_normalized() {
            Some(dir) => self.boresight.dot(dir),
            None => 1.0, // coincident points: treat as on-axis
        }
    }

    /// Cosine of the incidence angle ψ at this (receiver) pose for light
    /// arriving from a source point: the angle between the detector normal
    /// and the RX→source ray.
    pub fn cos_incidence(&self, source: Vec3) -> f64 {
        let ray = source - self.position;
        match ray.try_normalized() {
            Some(dir) => self.boresight.dot(dir),
            None => 1.0,
        }
    }

    /// Translates the pose, keeping the boresight.
    pub fn translated(&self, delta: Vec3) -> Pose {
        Pose {
            position: self.position + delta,
            boresight: self.boresight,
        }
    }

    /// Returns the pose moved to a new position, keeping the boresight.
    pub fn at(&self, position: Vec3) -> Pose {
        Pose {
            position,
            boresight: self.boresight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_4, PI};

    #[test]
    fn ceiling_pose_faces_down() {
        let p = Pose::ceiling(1.0, 2.0, 2.8);
        assert_eq!(p.boresight, Vec3::DOWN);
        assert_eq!(p.position.z, 2.8);
    }

    #[test]
    fn irradiation_straight_below_is_on_axis() {
        let tx = Pose::ceiling(1.0, 1.0, 2.8);
        let cos = tx.cos_irradiation(Vec3::new(1.0, 1.0, 0.8));
        assert!((cos - 1.0).abs() < 1e-12);
    }

    #[test]
    fn irradiation_at_45_degrees() {
        // Target offset horizontally by exactly the vertical drop → φ = 45°.
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let cos = tx.cos_irradiation(Vec3::new(2.0, 0.0, 0.0));
        assert!((cos - FRAC_PI_4.cos()).abs() < 1e-12);
    }

    #[test]
    fn incidence_matches_irradiation_for_parallel_planes() {
        // Downward TX and upward RX, vertically separated: φ = ψ.
        let tx = Pose::ceiling(0.5, 0.0, 2.8);
        let rx = Pose::face_up(0.0, 0.0, 0.8);
        let cos_phi = tx.cos_irradiation(rx.position);
        let cos_psi = rx.cos_incidence(tx.position);
        assert!((cos_phi - cos_psi).abs() < 1e-12);
    }

    #[test]
    fn target_behind_emitter_has_negative_cosine() {
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let cos = tx.cos_irradiation(Vec3::new(0.0, 0.0, 3.0)); // above the TX
        assert!(cos < 0.0);
    }

    #[test]
    fn tilted_zero_is_face_up() {
        let a = Pose::tilted(1.0, 1.0, 0.8, 0.0, 0.0);
        let b = Pose::face_up(1.0, 1.0, 0.8);
        assert!((a.boresight - b.boresight).norm() < 1e-12);
    }

    #[test]
    fn tilted_quarter_turn_lies_in_azimuth_plane() {
        let p = Pose::tilted(0.0, 0.0, 0.0, PI / 2.0, 0.0);
        assert!((p.boresight - Vec3::X).norm() < 1e-9);
    }

    #[test]
    fn translated_preserves_boresight() {
        let p = Pose::ceiling(0.0, 0.0, 2.8).translated(Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(p.position.x, 1.0);
        assert_eq!(p.boresight, Vec3::DOWN);
    }
}
