//! Fig. 5 + §8: illuminance distribution and ISO 8995-1 compliance.
//!
//! The paper checks that the 6 × 6 deployment lights the 2.2 m × 2.2 m area
//! of interest to ≥ 500 lux average with ≥ 70 % uniformity: 564 lux / 74 %
//! in the §4 simulation geometry, 530 lux / 81 % measured on the testbed
//! with the HS1010 lux meter.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_channel::{IlluminanceMap, IlluminanceStats};
use vlc_geom::{AreaOfInterest, Room, TxGrid};
use vlc_led::LedParams;
use vlc_testbed::LuxMeter;

/// Result of the illuminance experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig05 {
    /// Ideal simulation-geometry statistics (paper: 564 lux / 74 %).
    pub simulation: IlluminanceStats,
    /// Lux-meter-measured testbed statistics (paper: 530 lux / 81 %).
    pub testbed: IlluminanceStats,
}

/// Computes both the §4 simulated map and the §8 metered testbed readings.
pub fn run(led: &LedParams, seed: u64) -> Fig05 {
    let semi_angle = 15f64.to_radians();

    // Simulation geometry: 2.8 m ceiling, 0.8 m work plane.
    let sim_room = Room::paper_simulation();
    let sim_grid = TxGrid::paper(&sim_room);
    let sim_area = AreaOfInterest::paper(&sim_room);
    let simulation = IlluminanceMap::compute(
        &sim_grid.poses(),
        led.luminous_flux_lm,
        semi_angle,
        &sim_area,
        0.8,
        0.05,
    )
    .stats();

    // Testbed geometry: 2 m ceiling, floor-level measurement via the meter.
    let tb_room = Room::paper_testbed();
    let tb_grid = TxGrid::paper(&tb_room);
    let tb_area = AreaOfInterest::paper(&tb_room);
    let meter = LuxMeter::hs1010();
    let mut rng = StdRng::seed_from_u64(seed);
    let readings: Vec<f64> = tb_area
        .sample_points(0.1, 0.0)
        .into_iter()
        .map(|p| {
            meter.read(
                &tb_grid.poses(),
                led.luminous_flux_lm,
                semi_angle,
                p,
                &mut rng,
            )
        })
        .collect();
    let sum: f64 = readings.iter().sum();
    let average_lux = sum / readings.len() as f64;
    let min_lux = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let max_lux = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let testbed = IlluminanceStats {
        average_lux,
        min_lux,
        max_lux,
        uniformity: min_lux / average_lux,
    };
    Fig05 {
        simulation,
        testbed,
    }
}

impl Fig05 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        format!(
            "Fig. 5 / §8 — illuminance over the 2.2 m × 2.2 m area of interest\n\
               simulation: {:.0} lux avg, {:.0} % uniformity (paper: 564 lux, 74 %) — ISO 8995-1 {}\n\
               testbed:    {:.0} lux avg, {:.0} % uniformity (paper: 530 lux, 81 %) — ISO 8995-1 {}\n",
            self.simulation.average_lux,
            self.simulation.uniformity * 100.0,
            if self.simulation.meets_iso_8995() { "PASS" } else { "FAIL" },
            self.testbed.average_lux,
            self.testbed.uniformity * 100.0,
            if self.testbed.meets_iso_8995() { "PASS" } else { "FAIL" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_paper_numbers() {
        let fig = run(&LedParams::cree_xte_paper(), 1);
        assert!(
            (fig.simulation.average_lux - 564.0).abs() < 20.0,
            "avg {}",
            fig.simulation.average_lux
        );
        assert!(
            (fig.simulation.uniformity - 0.74).abs() < 0.05,
            "uniformity {}",
            fig.simulation.uniformity
        );
        assert!(fig.simulation.meets_iso_8995());
    }

    #[test]
    fn testbed_meets_iso_with_higher_uniformity() {
        // The testbed's lower ceiling yields higher illuminance; the paper
        // measured 81 % uniformity there.
        let fig = run(&LedParams::cree_xte_paper(), 2);
        assert!(fig.testbed.meets_iso_8995(), "{:?}", fig.testbed);
    }

    #[test]
    fn report_shows_both_geometries() {
        let rep = run(&LedParams::cree_xte_paper(), 3).report();
        assert!(rep.contains("simulation") && rep.contains("testbed"));
        assert!(!rep.contains("%%"), "{rep}");
    }
}
