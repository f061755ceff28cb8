//! Line-of-sight blockage by occluders.
//!
//! The paper's §9 observes that in a cell-free VLC system blockage is not
//! purely harmful: an occluder that shadows an *interfering* TX improves the
//! victim RX's SINR. This module provides vertical-cylinder occluders (a
//! standing person, a column) and the segment test used to knock out LOS
//! links; the `blockage_study` example uses it to quantify the §9
//! hypothesis.

use vlc_geom::Vec3;

/// A vertical cylindrical occluder standing on the floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CylinderBlocker {
    /// Center of the cylinder footprint on the floor.
    pub center_xy: Vec3,
    /// Cylinder radius in meters.
    pub radius: f64,
    /// Cylinder height in meters (e.g. 1.7 for a standing person).
    pub height: f64,
}

impl CylinderBlocker {
    /// A standing-person occluder (0.25 m radius, 1.7 m tall) at `(x, y)`.
    pub fn person(x: f64, y: f64) -> Self {
        CylinderBlocker {
            center_xy: Vec3::new(x, y, 0.0),
            radius: 0.25,
            height: 1.7,
        }
    }

    /// True when the straight segment from `a` to `b` passes through the
    /// cylinder volume.
    pub fn blocks(&self, a: Vec3, b: Vec3) -> bool {
        // Work in 2D first: find the parameter range of the infinite line
        // within the circle, then check the segment's z within that range.
        let d = b - a;
        let dx = d.x;
        let dy = d.y;
        let fx = a.x - self.center_xy.x;
        let fy = a.y - self.center_xy.y;
        let aa = dx * dx + dy * dy;
        if aa < 1e-18 {
            // Vertical segment: inside the circle iff XY within radius.
            let inside = fx * fx + fy * fy <= self.radius * self.radius;
            if !inside {
                return false;
            }
            let (zlo, zhi) = if a.z <= b.z { (a.z, b.z) } else { (b.z, a.z) };
            return zlo <= self.height && zhi >= 0.0;
        }
        let bb = 2.0 * (fx * dx + fy * dy);
        let cc = fx * fx + fy * fy - self.radius * self.radius;
        let disc = bb * bb - 4.0 * aa * cc;
        if disc < 0.0 {
            return false;
        }
        let sqrt_disc = disc.sqrt();
        let t1 = (-bb - sqrt_disc) / (2.0 * aa);
        let t2 = (-bb + sqrt_disc) / (2.0 * aa);
        // Clamp the circle-crossing interval to the segment.
        let t_lo = t1.max(0.0);
        let t_hi = t2.min(1.0);
        if t_lo > t_hi {
            return false;
        }
        // Heights at the interval endpoints (z is linear in t).
        let z_lo = a.z + d.z * t_lo;
        let z_hi = a.z + d.z * t_hi;
        let (zmin, zmax) = if z_lo <= z_hi {
            (z_lo, z_hi)
        } else {
            (z_hi, z_lo)
        };
        zmin <= self.height && zmax >= 0.0
    }
}

/// Returns true when any blocker occludes the `a`–`b` segment.
pub fn any_blocks(blockers: &[CylinderBlocker], a: Vec3, b: Vec3) -> bool {
    blockers.iter().any(|blk| blk.blocks(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn person_blocks_link_through_it() {
        let p = CylinderBlocker::person(1.0, 1.0);
        let tx = Vec3::new(1.0, 1.0, 2.8);
        let rx = Vec3::new(1.0, 1.0, 0.0);
        assert!(p.blocks(tx, rx));
    }

    #[test]
    fn offset_link_is_clear() {
        let p = CylinderBlocker::person(1.0, 1.0);
        let tx = Vec3::new(2.5, 2.5, 2.8);
        let rx = Vec3::new(2.5, 2.5, 0.0);
        assert!(!p.blocks(tx, rx));
    }

    #[test]
    fn slanted_link_over_the_head_is_clear() {
        // Link passes over the 1.7 m cylinder: TX at 2.8 m, RX at 2.6 m on
        // the other side — the crossing happens above head height.
        let p = CylinderBlocker::person(1.0, 1.0);
        let tx = Vec3::new(0.0, 1.0, 2.8);
        let rx = Vec3::new(2.0, 1.0, 2.6);
        assert!(!p.blocks(tx, rx));
    }

    #[test]
    fn slanted_link_through_torso_is_blocked() {
        let p = CylinderBlocker::person(1.0, 1.0);
        let tx = Vec3::new(0.0, 1.0, 2.8);
        let rx = Vec3::new(2.0, 1.0, 0.0); // crosses cylinder around z ≈ 1.4
        assert!(p.blocks(tx, rx));
    }

    #[test]
    fn grazing_tangent_counts_as_blocked() {
        let p = CylinderBlocker::person(1.0, 1.0);
        // Segment tangent to the circle at distance exactly radius.
        let tx = Vec3::new(0.0, 1.25, 1.0);
        let rx = Vec3::new(2.0, 1.25, 1.0);
        assert!(p.blocks(tx, rx));
    }

    #[test]
    fn vertical_segment_inside_footprint() {
        let p = CylinderBlocker::person(1.0, 1.0);
        assert!(p.blocks(Vec3::new(1.1, 1.0, 2.8), Vec3::new(1.1, 1.0, 0.0)));
        assert!(!p.blocks(Vec3::new(2.0, 2.0, 2.8), Vec3::new(2.0, 2.0, 0.0)));
    }

    #[test]
    fn vertical_segment_entirely_above_cylinder_is_clear() {
        let p = CylinderBlocker::person(1.0, 1.0);
        assert!(!p.blocks(Vec3::new(1.0, 1.0, 2.8), Vec3::new(1.0, 1.0, 2.0)));
    }

    #[test]
    fn any_blocks_over_multiple_occluders() {
        let blockers = vec![
            CylinderBlocker::person(0.5, 0.5),
            CylinderBlocker::person(2.0, 2.0),
        ];
        assert!(any_blocks(
            &blockers,
            Vec3::new(2.0, 2.0, 2.8),
            Vec3::new(2.0, 2.0, 0.0)
        ));
        assert!(!any_blocks(
            &blockers,
            Vec3::new(1.2, 2.4, 2.8),
            Vec3::new(1.2, 2.4, 0.0)
        ));
        assert!(!any_blocks(
            &[],
            Vec3::new(0.5, 0.5, 2.8),
            Vec3::new(0.5, 0.5, 0.0)
        ));
    }
}
