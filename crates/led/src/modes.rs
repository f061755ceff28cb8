//! LED operating modes and the brightness-invariance (no-flicker) rule.
//!
//! Paper §2.2: an LED is either in *illumination* mode (constant bias
//! current `Ib`) or in *illumination + communication* mode (Manchester-coded
//! OOK around `Ib`). The two modes must produce the same average brightness
//! so that switching between them — which DenseVLC does every reallocation
//! round — is invisible to occupants.

use crate::LedParams;
use std::fmt;

/// The operating mode of a single LED transmitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OperatingMode {
    /// Constant bias current; no data is transmitted.
    Illumination,
    /// Manchester-coded OOK around the bias with the given swing in amperes.
    IlluminationAndCommunication {
        /// Peak-to-peak swing current `Isw` in amperes.
        swing: f64,
    },
}

impl OperatingMode {
    /// Communication mode at the device's maximum swing (Insight 2: the
    /// practical system only ever uses zero or full swing).
    pub fn full_swing(params: &LedParams) -> Self {
        OperatingMode::IlluminationAndCommunication {
            swing: params.max_swing,
        }
    }

    /// The swing current in amperes (zero in illumination mode).
    pub fn swing(&self) -> f64 {
        match *self {
            OperatingMode::Illumination => 0.0,
            OperatingMode::IlluminationAndCommunication { swing } => swing,
        }
    }

    /// True when the LED is carrying data.
    pub fn is_communicating(&self) -> bool {
        self.swing() > 0.0
    }

    /// The time-average drive current of this mode. With equiprobable
    /// Manchester symbols the average is exactly the bias in both modes —
    /// this is the no-flicker invariant.
    pub fn average_current(&self, params: &LedParams) -> f64 {
        match *self {
            OperatingMode::Illumination => params.bias_current,
            OperatingMode::IlluminationAndCommunication { swing } => {
                (params.high_current(swing) + params.low_current(swing)) / 2.0
            }
        }
    }

    /// Validates that this mode is achievable on the device: the swing must
    /// lie in the communication region and keep the LOW current
    /// non-negative.
    pub fn validate(&self, params: &LedParams) -> Result<(), BrightnessError> {
        let swing = self.swing();
        if !params.swing_is_valid(swing) {
            return Err(BrightnessError::SwingOutOfRange {
                swing,
                max: params.max_swing.min(2.0 * params.bias_current),
            });
        }
        Ok(())
    }
}

/// Error raised when a requested mode would violate brightness constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BrightnessError {
    /// The swing falls outside `[0, min(Isw,max, 2·Ib)]`.
    SwingOutOfRange {
        /// The offending swing in amperes.
        swing: f64,
        /// The maximum permissible swing in amperes.
        max: f64,
    },
}

impl fmt::Display for BrightnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrightnessError::SwingOutOfRange { swing, max } => {
                write!(f, "swing {swing} A outside the valid range [0, {max} A]")
            }
        }
    }
}

impl std::error::Error for BrightnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> LedParams {
        LedParams::cree_xte_paper()
    }

    #[test]
    fn both_modes_have_identical_average_current() {
        let p = paper();
        let illum = OperatingMode::Illumination.average_current(&p);
        for &sw in &[0.1, 0.45, 0.9] {
            let comm =
                OperatingMode::IlluminationAndCommunication { swing: sw }.average_current(&p);
            assert!(
                (comm - illum).abs() < 1e-15,
                "flicker: avg current changed from {illum} to {comm} at swing {sw}"
            );
        }
    }

    #[test]
    fn swing_accessor() {
        assert_eq!(OperatingMode::Illumination.swing(), 0.0);
        assert_eq!(
            OperatingMode::IlluminationAndCommunication { swing: 0.3 }.swing(),
            0.3
        );
    }

    #[test]
    fn full_swing_uses_device_max() {
        let p = paper();
        assert_eq!(OperatingMode::full_swing(&p).swing(), p.max_swing);
    }

    #[test]
    fn is_communicating_only_with_positive_swing() {
        assert!(!OperatingMode::Illumination.is_communicating());
        assert!(!OperatingMode::IlluminationAndCommunication { swing: 0.0 }.is_communicating());
        assert!(OperatingMode::IlluminationAndCommunication { swing: 0.1 }.is_communicating());
    }

    #[test]
    fn validate_rejects_oversized_swing() {
        let p = paper();
        let bad = OperatingMode::IlluminationAndCommunication { swing: 1.2 };
        assert!(matches!(
            bad.validate(&p),
            Err(BrightnessError::SwingOutOfRange { .. })
        ));
        let good = OperatingMode::IlluminationAndCommunication { swing: 0.9 };
        assert!(good.validate(&p).is_ok());
    }

    #[test]
    fn error_display_mentions_range() {
        let err = BrightnessError::SwingOutOfRange {
            swing: 1.2,
            max: 0.9,
        };
        let msg = err.to_string();
        assert!(msg.contains("1.2") && msg.contains("0.9"));
    }
}
