//! Fig. 21: DenseVLC vs SISO and D-MISO power efficiency.
//!
//! The paper compares the κ = 1.3 heuristic curve against the two fixed
//! baselines in Scenario 2: SISO (nearest TX per RX, 298 mW) crosses the
//! DenseVLC curve — same power efficiency but no headroom — while D-MISO
//! needs 2.68 W for throughput DenseVLC reaches at 1.19 W. Headlines:
//! 2.3× better power efficiency than D-MISO and +45 % throughput over
//! SISO's operating point.

use vlc_alloc::analysis::{compare_efficiency, heuristic_sweep, power_to_reach, SweepPoint};
use vlc_alloc::baselines::{dmiso_nearest_geometric, siso_allocation};
use vlc_alloc::HeuristicConfig;
use vlc_testbed::{Deployment, Scenario};

/// The Fig. 21 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig21 {
    /// The κ = 1.3 DenseVLC sweep curve.
    pub densevlc_curve: Vec<SweepPoint>,
    /// SISO operating point `(power W, system bit/s)`.
    pub siso: (f64, f64),
    /// D-MISO operating point `(power W, system bit/s)`.
    pub dmiso: (f64, f64),
    /// Power DenseVLC needs to match D-MISO's throughput, in watts.
    pub densevlc_power_at_dmiso_w: f64,
    /// The power-efficiency gain over D-MISO (paper: 2.3×).
    pub efficiency_gain: f64,
    /// Throughput gain of DenseVLC's D-MISO-matching point over SISO's
    /// operating point (paper: +45 %).
    pub throughput_gain_vs_siso: f64,
}

/// Runs the comparison on a scenario (the paper plots Scenario 2).
pub fn run(scenario: Scenario) -> Fig21 {
    let d = Deployment::scenario(scenario);
    let model = &d.model;
    let curve = heuristic_sweep(model, &HeuristicConfig::paper());

    let siso_alloc = siso_allocation(&model.channel, &model.led);
    let siso = (
        model.comm_power(&siso_alloc),
        model.system_throughput(&siso_alloc),
    );

    let dmiso_alloc = dmiso_nearest_geometric(&d.grid, &d.rx_positions(), &model.led);
    let cmp = compare_efficiency(model, &curve, &dmiso_alloc);

    let densevlc_power_at_dmiso_w =
        power_to_reach(&curve, cmp.baseline_bps).unwrap_or(f64::INFINITY);
    Fig21 {
        densevlc_curve: curve,
        siso,
        dmiso: (cmp.baseline_power_w, cmp.baseline_bps),
        densevlc_power_at_dmiso_w,
        efficiency_gain: cmp.power_efficiency_gain,
        throughput_gain_vs_siso: cmp.baseline_bps / siso.1 - 1.0,
    }
}

impl Fig21 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let max = self
            .densevlc_curve
            .iter()
            .map(|p| p.system_bps)
            .fold(0.0, f64::max);
        let mut out = String::from(
            "Fig. 21 — DenseVLC (κ=1.3) vs SISO and D-MISO, normalized system throughput\n  P[W]   normalized\n",
        );
        for p in self.densevlc_curve.iter().step_by(3) {
            out.push_str(&format!(
                "  {:>5.2}  {:>6.3}\n",
                p.power_w,
                p.system_bps / max
            ));
        }
        out.push_str(&format!(
            "  SISO point:   {:.3} W → {:.3} normalized (paper: 0.298 W → 0.63)\n",
            self.siso.0,
            self.siso.1 / max
        ));
        out.push_str(&format!(
            "  D-MISO point: {:.3} W → {:.3} normalized (paper: 2.68 W → 0.94)\n",
            self.dmiso.0,
            self.dmiso.1 / max
        ));
        out.push_str(&format!(
            "  DenseVLC matches D-MISO at {:.3} W → {:.2}× power efficiency (paper: 1.19 W, 2.3×)\n",
            self.densevlc_power_at_dmiso_w, self.efficiency_gain
        ));
        out.push_str(&format!(
            "  throughput gain at that point vs SISO: {:+.1} % (paper: +45 %)\n",
            self.throughput_gain_vs_siso * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operating_points_match_paper_power() {
        let fig = run(Scenario::Two);
        assert!(
            (fig.siso.0 - 0.298).abs() < 0.005,
            "SISO power {}",
            fig.siso.0
        );
        assert!(
            (fig.dmiso.0 - 2.68).abs() < 0.01,
            "D-MISO power {}",
            fig.dmiso.0
        );
    }

    #[test]
    fn densevlc_beats_dmiso_efficiency() {
        let fig = run(Scenario::Two);
        assert!(
            fig.efficiency_gain > 1.4,
            "efficiency gain {} (paper: 2.3)",
            fig.efficiency_gain
        );
        assert!(fig.densevlc_power_at_dmiso_w < fig.dmiso.0);
    }

    #[test]
    fn densevlc_beats_siso_throughput() {
        let fig = run(Scenario::Two);
        assert!(
            fig.throughput_gain_vs_siso > 0.2,
            "throughput gain {} (paper: 0.45)",
            fig.throughput_gain_vs_siso
        );
    }

    #[test]
    fn conclusion_holds_in_scenario3_too() {
        // §8.3: "the conclusion is also valid for the other scenarios".
        let fig = run(Scenario::Three);
        assert!(fig.efficiency_gain > 1.2, "gain {}", fig.efficiency_gain);
    }

    #[test]
    fn report_mentions_both_baselines() {
        let rep = run(Scenario::Two).report();
        assert!(rep.contains("SISO") && rep.contains("D-MISO"));
    }
}
