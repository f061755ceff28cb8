//! Extension (paper §3.4): the bias operating point under dimming.
//!
//! §3.4 observes that centering the bias in the LED's linear region allows
//! the largest maximum swing, and that smaller or larger bias values shrink
//! the usable swing. In a real lighting system the bias *is* the dimming
//! control, so this experiment makes the trade-off concrete: sweeping the
//! bias, it reports the delivered illuminance (lighting quality), the
//! per-TX swing headroom, and the system throughput the heuristic achieves
//! within that headroom.

use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::HeuristicConfig;
use vlc_channel::IlluminanceMap;
use vlc_geom::AreaOfInterest;
use vlc_led::LedParams;
use vlc_testbed::{Deployment, Scenario};

/// One dimming point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimmingPoint {
    /// Bias current in amperes.
    pub bias_a: f64,
    /// Maximum per-TX swing at this bias, in amperes.
    pub max_swing_a: f64,
    /// Average illuminance over the area of interest, in lux.
    pub average_lux: f64,
    /// Whether ISO 8995-1 still holds (≥ 500 lux, ≥ 70 %).
    pub iso_pass: bool,
    /// System throughput at the comparison budget, bit/s.
    pub system_bps: f64,
}

/// The dimming-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDimming {
    /// Comparison power budget in watts.
    pub budget_w: f64,
    /// One entry per bias point.
    pub points: Vec<DimmingPoint>,
}

/// Sweeps the bias across the linear region in the Fig. 7 scenario.
pub fn run(biases_a: &[f64], budget_w: f64) -> ExtDimming {
    assert!(!biases_a.is_empty() && budget_w > 0.0);
    let nominal = LedParams::cree_xte_paper();
    let base = Deployment::simulation(&Scenario::Two.rx_positions());
    let area = AreaOfInterest::paper(&base.room);
    let points = biases_a
        .iter()
        .map(|&bias_a| {
            let led = nominal.rebias(bias_a);
            let mut model = base.model.clone();
            model.led = led;
            let curve = heuristic_sweep(&model, &HeuristicConfig::paper());
            let system_bps = throughput_at_power(&curve, budget_w);
            let map = IlluminanceMap::compute(
                &base.grid.poses(),
                led.luminous_flux_lm,
                base.half_power_semi_angle,
                &area,
                0.8,
                0.1,
            );
            let stats = map.stats();
            DimmingPoint {
                bias_a,
                max_swing_a: led.max_swing,
                average_lux: stats.average_lux,
                iso_pass: stats.meets_iso_8995(),
                system_bps,
            }
        })
        .collect();
    ExtDimming { budget_w, points }
}

impl ExtDimming {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Extension (§3.4) — bias/dimming operating point at {} W\n  bias[mA]   max swing[mA]   avg lux   ISO   system[Mb/s]\n",
            self.budget_w
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>7.0}   {:>12.0}   {:>7.0}   {}   {:>9.3}\n",
                p.bias_a * 1e3,
                p.max_swing_a * 1e3,
                p.average_lux,
                if p.iso_pass { "pass" } else { "FAIL" },
                p.system_bps / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_bias_dominates_throughput() {
        // §3.4: the centered bias allows the largest swing, hence the
        // highest throughput at a given budget.
        let ext = run(&[0.15, 0.45, 0.75], 0.6);
        let t = |i: usize| ext.points[i].system_bps;
        assert!(t(1) >= t(0), "nominal {} < dim {}", t(1), t(0));
        assert!(t(1) >= t(2), "nominal {} < bright {}", t(1), t(2));
    }

    #[test]
    fn deep_dimming_fails_iso_but_keeps_communicating() {
        let ext = run(&[0.1, 0.45], 0.3);
        assert!(
            !ext.points[0].iso_pass,
            "100 lux-scale light cannot pass ISO"
        );
        assert!(ext.points[0].system_bps > 0.0, "dimmed system went silent");
        assert!(ext.points[1].iso_pass);
    }

    #[test]
    fn swing_headroom_peaks_at_the_center() {
        let ext = run(&[0.2, 0.45, 0.7], 0.3);
        assert!(ext.points[1].max_swing_a > ext.points[0].max_swing_a);
        assert!(ext.points[1].max_swing_a > ext.points[2].max_swing_a);
    }

    #[test]
    fn lux_scales_with_bias() {
        let ext = run(&[0.225, 0.45], 0.3);
        let ratio = ext.points[1].average_lux / ext.points[0].average_lux;
        assert!((ratio - 2.0).abs() < 0.05, "lux ratio {ratio}");
    }

    #[test]
    fn report_flags_iso() {
        let rep = run(&[0.1, 0.45], 0.3).report();
        assert!(rep.contains("FAIL") && rep.contains("pass"));
    }
}
