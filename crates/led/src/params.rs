//! LED device parameters.

/// Electrical and optical parameters of one LED transmitter.
///
/// The default profile, [`LedParams::cree_xte_paper`], matches the paper's
/// Table 1 for the CREE XT-E: ideality factor `k = 2.68`, series resistance
/// `Rs = 0.19 Ω`, reverse saturation current `Is = 1.44 × 10⁻¹⁸ A`, bias
/// `Ib = 450 mA`, maximum swing `Isw,max = 900 mA`, and wall-plug efficiency
/// `η = 0.40`.
///
/// The thermal voltage `Vt` is not listed in the paper; we back-solve it from
/// the paper's own full-swing per-TX communication power
/// `PC,tx,max = r · (Isw,max / 2)² = 74.42 mW`, which pins the dynamic
/// resistance at `r = 0.3675 Ω` and therefore `Vt ≈ 59.6 mV` given
/// `k = 2.68`. This choice reproduces every power axis in the paper's
/// figures (e.g. D-MISO's 36 full-swing TXs land at 2.68 W exactly as in
/// Fig. 21). A physically textbook room-temperature profile is available via
/// [`LedParams::room_temperature_vt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedParams {
    /// Diode ideality factor `k` (dimensionless).
    pub ideality: f64,
    /// Thermal voltage `Vt` in volts.
    pub thermal_voltage: f64,
    /// Reverse-bias saturation current `Is` in amperes.
    pub saturation_current: f64,
    /// Series resistance `Rs` in ohms.
    pub series_resistance: f64,
    /// Illumination bias current `Ib` in amperes.
    pub bias_current: f64,
    /// Maximum swing current `Isw,max` in amperes.
    pub max_swing: f64,
    /// Wall-plug efficiency `η` — electrical-to-optical conversion ratio.
    pub wall_plug_efficiency: f64,
    /// Luminous flux emitted at the bias current, in lumens. Used by the
    /// photometry engine; calibrated so the paper's 6 × 6 deployment meets
    /// the ISO 8995-1 illuminance numbers reported in §4 (564 lux average).
    pub luminous_flux_lm: f64,
}

impl LedParams {
    /// The CREE XT-E profile used throughout the paper (Table 1), with `Vt`
    /// calibrated to the paper's 74.42 mW full-swing communication power.
    pub fn cree_xte_paper() -> Self {
        LedParams {
            ideality: 2.68,
            thermal_voltage: 0.059_610,
            saturation_current: 1.44e-18,
            series_resistance: 0.19,
            bias_current: 0.450,
            max_swing: 0.900,
            wall_plug_efficiency: 0.40,
            luminous_flux_lm: 153.3,
        }
    }

    /// Same device, but with the textbook 300 K thermal voltage
    /// `Vt = 25.85 mV`. Provided for sensitivity studies; the Taylor-error
    /// curve (Fig. 4) is nearly identical under both profiles.
    pub fn room_temperature_vt() -> Self {
        LedParams {
            thermal_voltage: 0.025_85,
            ..LedParams::cree_xte_paper()
        }
    }

    /// The HIGH-symbol current `Ih = Ib + Isw/2` for a given swing.
    pub fn high_current(&self, swing: f64) -> f64 {
        self.bias_current + swing / 2.0
    }

    /// The LOW-symbol current `Il = Ib − Isw/2` for a given swing.
    pub fn low_current(&self, swing: f64) -> f64 {
        self.bias_current - swing / 2.0
    }

    /// True when `swing` keeps the LOW current non-negative and the swing
    /// within the device limit — the communication region of Fig. 3.
    pub fn swing_is_valid(&self, swing: f64) -> bool {
        swing >= 0.0 && swing <= self.max_swing && self.low_current(swing) >= -1e-12
    }

    /// Clamps a swing into the valid communication region.
    pub fn clamp_swing(&self, swing: f64) -> f64 {
        swing.clamp(0.0, self.max_swing.min(2.0 * self.bias_current))
    }

    /// Returns this device re-biased at `bias_a` (a dimming operating
    /// point): the swing headroom shrinks to `2·min(Ib, Ilin − Ib)` where
    /// `Ilin` is the top of the linear region (the nominal bias sits at its
    /// center, so `Ilin = Ib,nom + Isw,max/2`), and the luminous flux scales
    /// with the bias (LED flux is ≈ linear in current). This is the §3.4
    /// observation that centering `Ib` in the linear region maximizes
    /// `Isw,max`, made operational for dimming studies.
    ///
    /// # Panics
    /// Panics unless `0 < bias_a ≤ Ilin`.
    pub fn rebias(&self, bias_a: f64) -> LedParams {
        let linear_top = self.bias_current + self.max_swing / 2.0;
        assert!(
            bias_a > 0.0 && bias_a <= linear_top,
            "bias {bias_a} A outside the linear region (0, {linear_top}]"
        );
        LedParams {
            bias_current: bias_a,
            max_swing: 2.0 * bias_a.min(linear_top - bias_a),
            luminous_flux_lm: self.luminous_flux_lm * bias_a / self.bias_current,
            ..*self
        }
    }
}

impl Default for LedParams {
    fn default() -> Self {
        LedParams::cree_xte_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_table1() {
        let p = LedParams::cree_xte_paper();
        assert_eq!(p.ideality, 2.68);
        assert_eq!(p.series_resistance, 0.19);
        assert_eq!(p.saturation_current, 1.44e-18);
        assert_eq!(p.bias_current, 0.450);
        assert_eq!(p.max_swing, 0.900);
        assert_eq!(p.wall_plug_efficiency, 0.40);
    }

    #[test]
    fn high_low_currents_straddle_bias() {
        let p = LedParams::cree_xte_paper();
        assert!((p.high_current(0.9) - 0.9).abs() < 1e-12);
        assert!((p.low_current(0.9) - 0.0).abs() < 1e-12);
        assert!((p.high_current(0.0) - p.bias_current).abs() < 1e-12);
    }

    #[test]
    fn swing_validity_bounds() {
        let p = LedParams::cree_xte_paper();
        assert!(p.swing_is_valid(0.0));
        assert!(p.swing_is_valid(0.9));
        assert!(!p.swing_is_valid(0.91));
        assert!(!p.swing_is_valid(-0.1));
    }

    #[test]
    fn clamp_swing_respects_zero_floor_and_device_max() {
        let p = LedParams::cree_xte_paper();
        assert_eq!(p.clamp_swing(-1.0), 0.0);
        assert_eq!(p.clamp_swing(2.0), 0.9);
        assert_eq!(p.clamp_swing(0.5), 0.5);
    }

    #[test]
    fn clamp_swing_respects_low_current_floor() {
        // An LED biased below half its max swing is limited by Il ≥ 0.
        let p = LedParams {
            bias_current: 0.3,
            ..LedParams::cree_xte_paper()
        };
        assert_eq!(p.clamp_swing(0.9), 0.6);
    }

    #[test]
    fn rebias_at_nominal_is_identity() {
        let p = LedParams::cree_xte_paper();
        let same = p.rebias(0.45);
        assert!((same.max_swing - p.max_swing).abs() < 1e-12);
        assert!((same.luminous_flux_lm - p.luminous_flux_lm).abs() < 1e-9);
    }

    #[test]
    fn dimming_shrinks_swing_and_flux_together() {
        let p = LedParams::cree_xte_paper();
        let dim = p.rebias(0.225); // 50 % dimming
        assert!(
            (dim.max_swing - 0.45).abs() < 1e-12,
            "swing {}",
            dim.max_swing
        );
        assert!((dim.luminous_flux_lm - p.luminous_flux_lm / 2.0).abs() < 1e-9);
    }

    #[test]
    fn overdriving_also_shrinks_swing() {
        // Above the linear-region center the upper headroom binds.
        let p = LedParams::cree_xte_paper();
        let bright = p.rebias(0.7);
        assert!((bright.max_swing - 2.0 * (0.9 - 0.7)).abs() < 1e-12);
        assert!(bright.luminous_flux_lm > p.luminous_flux_lm);
    }

    #[test]
    fn nominal_bias_maximizes_swing() {
        let p = LedParams::cree_xte_paper();
        for &b in &[0.1, 0.3, 0.45, 0.6, 0.8] {
            assert!(p.rebias(b).max_swing <= p.rebias(0.45).max_swing + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "linear region")]
    fn rebias_outside_linear_region_panics() {
        LedParams::cree_xte_paper().rebias(1.0);
    }
}
