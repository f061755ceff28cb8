//! Multi-LED luminaires (the paper's footnote 1).
//!
//! The paper's system model assumes one LED per TX "for simplicity" and
//! notes that "in a more general case, a total of M LEDs can be used at
//! each TX to satisfy the illumination level where the power consumed by
//! each TX increases linearly with M". This module is that general case: a
//! luminaire of `count` identical LEDs driven together — flux, optical
//! swing amplitude and electrical power all scale linearly, while the
//! Lambertian pattern (and therefore the channel gain geometry) is
//! unchanged.

use crate::power::{communication_power_avg, led_power, optical_swing_amplitude};
use crate::LedParams;

/// A transmitter luminaire of `count` ganged LEDs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Luminaire {
    /// Per-LED parameters.
    pub led: LedParams,
    /// Number of LEDs driven together.
    pub count: usize,
}

impl Luminaire {
    /// A single-LED luminaire (the paper's default).
    pub fn single(led: LedParams) -> Self {
        Luminaire { led, count: 1 }
    }

    /// A luminaire of `count` LEDs.
    ///
    /// # Panics
    /// Panics when `count` is zero.
    pub fn ganged(led: LedParams, count: usize) -> Self {
        assert!(count > 0, "a luminaire needs at least one LED");
        Luminaire { led, count }
    }

    /// Total luminous flux at the bias, in lumens.
    pub fn luminous_flux_lm(&self) -> f64 {
        self.count as f64 * self.led.luminous_flux_lm
    }

    /// Total electrical illumination power, in watts.
    pub fn illumination_power_w(&self) -> f64 {
        self.count as f64 * led_power(&self.led, self.led.bias_current)
    }

    /// Total average communication power for a per-LED swing, in watts —
    /// "increases linearly with M" (footnote 1).
    pub fn communication_power_w(&self, swing_per_led: f64) -> f64 {
        self.count as f64 * communication_power_avg(&self.led, swing_per_led)
    }

    /// Total physical optical swing amplitude for a per-LED swing, in
    /// watts.
    pub fn optical_swing_w(&self, swing_per_led: f64) -> f64 {
        self.count as f64 * optical_swing_amplitude(&self.led, swing_per_led)
    }

    /// The per-LED swing that spends a given total communication power,
    /// clamped to the device's valid range.
    pub fn swing_for_power(&self, total_power_w: f64) -> f64 {
        assert!(total_power_w >= 0.0, "power cannot be negative");
        let per_led = total_power_w / self.count as f64;
        let r = crate::power::dynamic_resistance(&self.led);
        self.led.clamp_swing(2.0 * (per_led / r).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_up() -> Luminaire {
        Luminaire::ganged(LedParams::cree_xte_paper(), 4)
    }

    #[test]
    fn single_is_identity() {
        let led = LedParams::cree_xte_paper();
        let lum = Luminaire::single(led);
        assert_eq!(lum.luminous_flux_lm(), led.luminous_flux_lm);
        assert_eq!(
            lum.communication_power_w(0.9),
            communication_power_avg(&led, 0.9)
        );
    }

    #[test]
    fn everything_scales_linearly_with_count() {
        let led = LedParams::cree_xte_paper();
        let one = Luminaire::single(led);
        let four = four_up();
        assert!((four.luminous_flux_lm() - 4.0 * one.luminous_flux_lm()).abs() < 1e-9);
        assert!((four.illumination_power_w() - 4.0 * one.illumination_power_w()).abs() < 1e-9);
        assert!(
            (four.communication_power_w(0.5) - 4.0 * one.communication_power_w(0.5)).abs() < 1e-12
        );
        assert!((four.optical_swing_w(0.5) - 4.0 * one.optical_swing_w(0.5)).abs() < 1e-9);
    }

    #[test]
    fn swing_for_power_inverts_power_for_swing() {
        let lum = four_up();
        for &swing in &[0.1, 0.45, 0.9] {
            let p = lum.communication_power_w(swing);
            let back = lum.swing_for_power(p);
            assert!((back - swing).abs() < 1e-12, "swing {swing} → {back}");
        }
    }

    #[test]
    fn swing_for_power_clamps_at_device_max() {
        let lum = four_up();
        assert_eq!(lum.swing_for_power(1e3), lum.led.max_swing);
        assert_eq!(lum.swing_for_power(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one LED")]
    fn zero_count_panics() {
        Luminaire::ganged(LedParams::cree_xte_paper(), 0);
    }
}
