//! Fig. 4: Taylor-approximation error on LED power consumption vs swing.
//!
//! The paper validates its second-order power model by plotting the
//! relative error against the exact Shockley model across swing levels,
//! finding 0.45 % at the 900 mA maximum.

use crate::experiments::format_series;
use vlc_led::power::taylor_relative_error_total;
use vlc_led::LedParams;

/// Result of the Fig. 4 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig04 {
    /// `(swing in mA, relative error in %)` pairs.
    pub points: Vec<(f64, f64)>,
    /// The error at the device's maximum swing, in %.
    pub error_at_max_pct: f64,
}

/// Sweeps the swing from 0 to `Isw,max` in `steps` points.
pub fn run(led: &LedParams, steps: usize) -> Fig04 {
    assert!(steps >= 2, "need at least two sweep points");
    let points: Vec<(f64, f64)> = (0..=steps)
        .map(|i| {
            let swing = led.max_swing * i as f64 / steps as f64;
            (swing * 1e3, taylor_relative_error_total(led, swing) * 100.0)
        })
        .collect();
    let error_at_max_pct = points.last().expect("non-empty sweep").1;
    Fig04 {
        points,
        error_at_max_pct,
    }
}

impl Fig04 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut s = format_series(
            "Fig. 4 — Taylor power-model error vs swing (paper: 0.45 % @ 900 mA)\n  swing [mA]    error",
            &self.points,
            "%",
        );
        s.push_str(&format!(
            "  error at max swing: {:.3} % (paper: 0.45 %)\n",
            self.error_at_max_pct
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_anchor() {
        let fig = run(&LedParams::cree_xte_paper(), 90);
        assert!(
            (fig.error_at_max_pct - 0.45).abs() < 0.15,
            "{}",
            fig.error_at_max_pct
        );
    }

    #[test]
    fn error_curve_is_monotone() {
        let fig = run(&LedParams::cree_xte_paper(), 45);
        for w in fig.points.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
        assert_eq!(fig.points[0].1, 0.0);
    }

    #[test]
    fn report_mentions_anchor() {
        let fig = run(&LedParams::cree_xte_paper(), 10);
        assert!(fig.report().contains("0.45"));
    }
}
