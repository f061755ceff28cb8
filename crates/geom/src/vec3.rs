//! A minimal 3-component vector type.
//!
//! The channel model only needs dot products, norms, and normalization, so a
//! tiny purpose-built type keeps the dependency surface small (smoltcp-style:
//! simplicity over generality).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `f64`, in meters when used as a position.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (room width direction).
    pub x: f64,
    /// Y component (room depth direction).
    pub y: f64,
    /// Z component (height above the floor).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +Y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +Z (up).
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };
    /// Unit vector along −Z (down; typical LED boresight).
    pub const DOWN: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: -1.0,
    };
    /// Unit vector along +Z (up; typical receiver boresight).
    pub const UP: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Returns the unit vector in this direction.
    ///
    /// # Panics
    /// Panics if the vector is (numerically) zero — normalizing a zero vector
    /// indicates a geometry bug (coincident TX and RX) that must not be
    /// silently absorbed into the channel model.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 1e-12, "cannot normalize a zero-length vector");
        self / n
    }

    /// Returns the unit vector in this direction, or `None` for a zero vector.
    #[inline]
    pub fn try_normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 1e-12 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Cosine of the angle between two vectors (assumes both are non-zero).
    #[inline]
    pub fn cos_angle(self, other: Vec3) -> f64 {
        let denom = self.norm() * other.norm();
        debug_assert!(denom > 0.0);
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    #[inline]
    pub fn angle(self, other: Vec3) -> f64 {
        self.cos_angle(other).acos()
    }

    /// Component-wise linear interpolation: `self + t * (other - self)`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// The point with the same x/y but z = 0 (its projection on the floor).
    #[inline]
    pub fn on_floor(self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// Horizontal (XY-plane) distance to another point.
    #[inline]
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_of_orthogonal_axes_is_zero() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::Y.dot(Vec3::Z), 0.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        let c = Vec3::X.cross(Vec3::Y);
        assert!((c - Vec3::Z).norm() < EPS);
    }

    #[test]
    fn norm_of_345_triangle() {
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < EPS);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec3::new(1.0, -2.0, 3.0).normalized();
        assert!((v.norm() - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn normalizing_zero_panics() {
        let _ = Vec3::ZERO.normalized();
    }

    #[test]
    fn try_normalized_zero_is_none() {
        assert!(Vec3::ZERO.try_normalized().is_none());
        assert!(Vec3::X.try_normalized().is_some());
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        assert!((Vec3::X.angle(Vec3::Y) - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn angle_with_self_is_zero() {
        let v = Vec3::new(0.3, 0.4, -0.8);
        assert!(v.angle(v) < 1e-6);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert!((a.lerp(b, 0.0) - a).norm() < EPS);
        assert!((a.lerp(b, 1.0) - b).norm() < EPS);
        assert!((a.lerp(b, 0.5) - Vec3::new(1.0, 2.0, 3.0)).norm() < EPS);
    }

    #[test]
    fn horizontal_distance_ignores_height() {
        let tx = Vec3::new(1.0, 1.0, 2.8);
        let rx = Vec3::new(1.0, 1.0, 0.0);
        assert!(tx.horizontal_distance(rx) < EPS);
        assert!((tx.distance(rx) - 2.8).abs() < EPS);
    }

    #[test]
    fn down_and_up_are_opposite() {
        assert!((Vec3::DOWN + Vec3::UP).norm() < EPS);
    }
}
