//! OpenBuilds ACRO positioner emulation (paper §8: "The 4 RXs are placed on
//! the floor, controlled by 4 OpenBuilds ACRO System and can be moved to any
//! position within the 3 m × 3 m area").
//!
//! An ACRO is a 2-axis gantry: it moves a receiver through waypoints at a
//! commanded feed rate. The emulation advances the position with time,
//! which the mobility experiments use to study re-adaptation under receiver
//! movement (the paper's "fast adaptation" design goal).

use vlc_geom::{Room, Vec3};

/// A 2-axis positioner carrying one receiver at a fixed height.
#[derive(Debug, Clone, PartialEq)]
pub struct AcroPositioner {
    /// Current position (z = carried receiver height).
    pub position: Vec3,
    /// Remaining waypoints, in visit order.
    pub waypoints: Vec<Vec3>,
    /// Feed rate in m/s.
    pub speed_mps: f64,
    /// The workspace the gantry clamps motion to.
    pub workspace: Room,
}

impl AcroPositioner {
    /// Creates a positioner at a start position.
    pub fn new(start: Vec3, speed_mps: f64, workspace: Room) -> Self {
        assert!(speed_mps > 0.0, "feed rate must be positive");
        let position = workspace.clamp_xy(start);
        AcroPositioner {
            position,
            waypoints: Vec::new(),
            speed_mps,
            workspace,
        }
    }

    /// Queues a waypoint (clamped into the workspace, height preserved).
    pub fn queue(&mut self, target: Vec3) {
        let t = self
            .workspace
            .clamp_xy(Vec3::new(target.x, target.y, self.position.z));
        self.waypoints.push(t);
    }

    /// Advances the gantry by `dt` seconds, consuming waypoints as they are
    /// reached. Returns the new position.
    pub fn advance(&mut self, dt: f64) -> Vec3 {
        assert!(dt >= 0.0, "time cannot run backwards");
        let mut remaining = self.speed_mps * dt;
        while remaining > 0.0 {
            let Some(&target) = self.waypoints.first() else {
                break;
            };
            let to_target = target - self.position;
            let dist = to_target.norm();
            if dist <= remaining {
                self.position = target;
                self.waypoints.remove(0);
                remaining -= dist;
            } else {
                self.position += to_target * (remaining / dist);
                remaining = 0.0;
            }
        }
        self.position
    }

    /// True when all waypoints have been visited.
    pub fn idle(&self) -> bool {
        self.waypoints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gantry() -> AcroPositioner {
        AcroPositioner::new(Vec3::new(0.5, 0.5, 0.0), 0.1, Room::paper_testbed())
    }

    #[test]
    fn advances_toward_waypoint_at_feed_rate() {
        let mut g = gantry();
        g.queue(Vec3::new(2.5, 0.5, 0.0));
        let p = g.advance(1.0); // 0.1 m/s × 1 s
        assert!((p.x - 0.6).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reaches_and_consumes_waypoints() {
        let mut g = gantry();
        g.queue(Vec3::new(0.7, 0.5, 0.0));
        g.queue(Vec3::new(0.7, 0.7, 0.0));
        // 0.2 m to first + 0.2 m to second = 4 s at 0.1 m/s.
        let p = g.advance(4.0);
        assert!(g.idle());
        assert!((p - Vec3::new(0.7, 0.7, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn partial_progress_spans_waypoints() {
        let mut g = gantry();
        g.queue(Vec3::new(0.7, 0.5, 0.0));
        g.queue(Vec3::new(0.7, 1.5, 0.0));
        let p = g.advance(3.0); // 0.3 m: 0.2 to wp1 + 0.1 along second leg
        assert!((p - Vec3::new(0.7, 0.6, 0.0)).norm() < 1e-9);
        assert_eq!(g.waypoints.len(), 1);
    }

    #[test]
    fn waypoints_are_clamped_to_workspace() {
        let mut g = gantry();
        g.queue(Vec3::new(99.0, -5.0, 0.0));
        g.advance(1e6);
        assert!((g.position.x - 3.0).abs() < 1e-9);
        assert!(g.position.y.abs() < 1e-9);
    }

    #[test]
    fn idle_gantry_stays_put() {
        let mut g = gantry();
        let before = g.position;
        assert_eq!(g.advance(10.0), before);
    }

    #[test]
    fn height_is_preserved_through_motion() {
        let mut g = AcroPositioner::new(Vec3::new(1.0, 1.0, 0.3), 1.0, Room::paper_testbed());
        g.queue(Vec3::new(2.0, 2.0, 0.9)); // z of target is ignored
        g.advance(100.0);
        assert!((g.position.z - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn negative_dt_panics() {
        gantry().advance(-1.0);
    }
}
