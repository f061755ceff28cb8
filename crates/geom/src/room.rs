//! Room geometry and the illumination area of interest.

use crate::Vec3;

/// An axis-aligned rectangular room with the floor at `z = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Room {
    /// Extent along X in meters.
    pub width: f64,
    /// Extent along Y in meters.
    pub depth: f64,
    /// Ceiling height in meters.
    pub height: f64,
    /// Diffuse reflectance of the floor in `[0, 1]` (used by the NLOS
    /// synchronization channel; the paper notes the pilot remains detectable
    /// on less-reflective floors).
    pub floor_reflectance: f64,
}

impl Room {
    /// The 3 m × 3 m × 2.8 m room used in the paper's simulations (§4).
    pub fn paper_simulation() -> Self {
        Room {
            width: 3.0,
            depth: 3.0,
            height: 2.8,
            floor_reflectance: 0.6,
        }
    }

    /// The experimental deployment (§8): same floor plan, TXs at 2 m height.
    pub fn paper_testbed() -> Self {
        Room {
            width: 3.0,
            depth: 3.0,
            height: 2.0,
            floor_reflectance: 0.6,
        }
    }

    /// True when the point lies inside the room (floor inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        (0.0..=self.width).contains(&p.x)
            && (0.0..=self.depth).contains(&p.y)
            && (0.0..=self.height).contains(&p.z)
    }

    /// The room's center point on the floor.
    pub fn floor_center(&self) -> Vec3 {
        Vec3::new(self.width / 2.0, self.depth / 2.0, 0.0)
    }

    /// Clamps a point's XY to the room footprint (used by mobility models so
    /// waypoint noise cannot push a receiver through a wall).
    pub fn clamp_xy(&self, p: Vec3) -> Vec3 {
        Vec3::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.depth), p.z)
    }
}

/// The central rectangular region where the ISO 8995-1 uniformity requirement
/// is evaluated (the paper uses 2.2 m × 2.2 m centered in the room, excluding
/// the boundary strip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaOfInterest {
    /// Minimum X corner in meters.
    pub x_min: f64,
    /// Minimum Y corner in meters.
    pub y_min: f64,
    /// Extent along X in meters.
    pub width: f64,
    /// Extent along Y in meters.
    pub depth: f64,
}

impl AreaOfInterest {
    /// A `side × side` square centered in `room`.
    pub fn centered(room: &Room, side: f64) -> Self {
        AreaOfInterest {
            x_min: (room.width - side) / 2.0,
            y_min: (room.depth - side) / 2.0,
            width: side,
            depth: side,
        }
    }

    /// The paper's 2.2 m × 2.2 m central area of interest.
    pub fn paper(room: &Room) -> Self {
        AreaOfInterest::centered(room, 2.2)
    }

    /// True when the XY projection of `p` lies inside the area.
    pub fn contains_xy(&self, p: Vec3) -> bool {
        (self.x_min..=self.x_min + self.width).contains(&p.x)
            && (self.y_min..=self.y_min + self.depth).contains(&p.y)
    }

    /// Iterates grid sample points at `step` meter spacing on the plane
    /// `z = height`, inclusive of both edges.
    pub fn sample_points(&self, step: f64, height: f64) -> Vec<Vec3> {
        assert!(step > 0.0, "sampling step must be positive");
        let nx = (self.width / step).round() as usize + 1;
        let ny = (self.depth / step).round() as usize + 1;
        let mut pts = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                pts.push(Vec3::new(
                    self.x_min + (ix as f64) * step,
                    self.y_min + (iy as f64) * step,
                    height,
                ));
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_room_dimensions() {
        let r = Room::paper_simulation();
        assert_eq!((r.width, r.depth, r.height), (3.0, 3.0, 2.8));
    }

    #[test]
    fn contains_respects_bounds() {
        let r = Room::paper_simulation();
        assert!(r.contains(Vec3::new(1.5, 1.5, 0.8)));
        assert!(!r.contains(Vec3::new(3.1, 1.5, 0.8)));
        assert!(!r.contains(Vec3::new(1.5, 1.5, 3.0)));
    }

    #[test]
    fn clamp_keeps_inside() {
        let r = Room::paper_simulation();
        let p = r.clamp_xy(Vec3::new(-1.0, 5.0, 0.8));
        assert_eq!((p.x, p.y), (0.0, 3.0));
    }

    #[test]
    fn aoi_is_centered() {
        let r = Room::paper_simulation();
        let a = AreaOfInterest::paper(&r);
        assert!((a.x_min - 0.4).abs() < 1e-12);
        assert!((a.y_min - 0.4).abs() < 1e-12);
        assert!(a.contains_xy(Vec3::new(1.5, 1.5, 0.0)));
        assert!(!a.contains_xy(Vec3::new(0.1, 1.5, 0.0)));
    }

    #[test]
    fn sample_points_cover_both_edges() {
        let r = Room::paper_simulation();
        let a = AreaOfInterest::centered(&r, 2.0);
        let pts = a.sample_points(0.5, 0.8);
        assert_eq!(pts.len(), 25); // 5 × 5 grid
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        assert!(xs.iter().any(|&x| (x - a.x_min).abs() < 1e-12));
        assert!(xs.iter().any(|&x| (x - (a.x_min + a.width)).abs() < 1e-12));
        assert!(pts.iter().all(|p| (p.z - 0.8).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let r = Room::paper_simulation();
        AreaOfInterest::paper(&r).sample_points(0.0, 0.8);
    }
}
