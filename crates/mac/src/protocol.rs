//! Controller ↔ TX ↔ RX message vocabulary.

/// Identifier of a transmitter (zero-based index into the grid).
pub type TxId = usize;
/// Identifier of a receiver.
pub type RxId = usize;

/// A channel-quality report from one receiver (sent over the WiFi uplink
/// after a pilot round). Values are linear SNRs measured with M2M4.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReport {
    /// The reporting receiver.
    pub rx: RxId,
    /// Per-TX measured SNR (length = number of TXs; zero = not heard).
    pub snr_per_tx: Vec<f64>,
}

impl ChannelReport {
    /// Converts the SNR measurements back to relative path gains.
    ///
    /// SNR scales with the gain squared (the received amplitude is linear
    /// in `H`), so `Ĥ ∝ √SNR`. The scale constant cancels inside the SJR
    /// ranking, which is scale-invariant per TX row... except for the κ
    /// exponent; the controller therefore fixes the constant from the
    /// known pilot amplitude, passed as `amp_per_gain` (receiver amplitude
    /// per unit channel gain, divided by the noise RMS).
    pub fn estimated_gains(&self, amp_per_gain_over_noise: f64) -> Vec<f64> {
        assert!(
            amp_per_gain_over_noise > 0.0,
            "calibration constant must be positive"
        );
        self.snr_per_tx
            .iter()
            .map(|&snr| snr.max(0.0).sqrt() / amp_per_gain_over_noise)
            .collect()
    }
}

/// A MAC acknowledgement from a receiver (over WiFi).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledging receiver.
    pub rx: RxId,
    /// Sequence number of the acknowledged frame.
    pub seq: u32,
    /// Whether the frame decoded successfully.
    pub ok: bool,
}

/// Messages flowing through the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Controller → one TX: transmit the sounding pilot in your slot.
    SoundingAssignment {
        /// The TX that must emit the pilot.
        tx: TxId,
        /// Slot index in the pilot schedule.
        slot: usize,
    },
    /// RX → controller: measured channel qualities.
    Report(ChannelReport),
    /// Controller → TXs (multicast): the new beamspot configuration.
    Beamspots(crate::controller::BeamspotPlan),
    /// Controller → TXs (multicast): a data frame for one receiver.
    Data {
        /// Destination receiver.
        rx: RxId,
        /// Sequence number.
        seq: u32,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// RX → controller: acknowledgement.
    Ack(Ack),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_gains_invert_snr() {
        // Hand-built: amplitude per unit gain over noise = 2e6, so a gain of
        // 1e-6 gives SNR (2e6·1e-6)² = 4.
        let report = ChannelReport {
            rx: 0,
            snr_per_tx: vec![4.0, 0.0, 1.0],
        };
        let gains = report.estimated_gains(2e6);
        assert!((gains[0] - 1e-6).abs() < 1e-18);
        assert_eq!(gains[1], 0.0);
        assert!((gains[2] - 0.5e-6).abs() < 1e-18);
    }

    #[test]
    fn estimated_gains_clamp_negative_snr() {
        let report = ChannelReport {
            rx: 0,
            snr_per_tx: vec![-0.5],
        };
        assert_eq!(report.estimated_gains(1.0)[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_calibration_panics() {
        ChannelReport {
            rx: 0,
            snr_per_tx: vec![1.0],
        }
        .estimated_gains(0.0);
    }
}
