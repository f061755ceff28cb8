//! Extension (paper §9): OFDM in VLC.
//!
//! The paper's testbed PHY is Manchester-OOK at 100 Ksymbols/s because the
//! BBB/PRU cannot run anything heavier; §9 projects that "with advanced
//! dedicated hardware such as FPGA … exploit advanced modulation schemes
//! such as OFDM in VLC". This experiment quantifies the headroom: on the
//! Table-5 link (one RX amid TX2/3/8/9), it runs the DCO-OFDM modem at the
//! same 1 Msps front-end rate and measures BER and net bit rate against the
//! OOK baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_channel::AwgnChannel;
use vlc_led::power::optical_swing_amplitude;
use vlc_led::LedParams;
use vlc_phy::ofdm::{OfdmModem, QamOrder};
use vlc_testbed::Deployment;

/// One modulation's outcome on the reference link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationPoint {
    /// Bits per second on the 1 Msps front-end.
    pub bit_rate_bps: f64,
    /// Measured bit error rate.
    pub ber: f64,
}

/// The OFDM-extension result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtOfdm {
    /// Manchester-OOK baseline (the paper's PHY): raw rate at chip level.
    pub ook: ModulationPoint,
    /// DCO-OFDM with 4-QAM.
    pub ofdm_qam4: ModulationPoint,
    /// DCO-OFDM with 16-QAM.
    pub ofdm_qam16: ModulationPoint,
}

/// Runs the comparison with `n_bits` per modulation.
pub fn run(n_bits: usize, seed: u64) -> ExtOfdm {
    assert!(n_bits >= 1_000, "need enough bits for a BER estimate");
    // The Table-5 link: joint gain of TX2+TX3+TX8+TX9 toward the center RX.
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    let gain: f64 = [1usize, 2, 7, 8]
        .iter()
        .map(|&t| d.model.channel.gain(t, 0))
        .sum();
    let led = LedParams::cree_xte_paper();
    let amp = 0.40 * gain * optical_swing_amplitude(&led, led.max_swing);
    let sample_rate = 1e6;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut awgn = AwgnChannel::new(d.model.noise);

    // OOK baseline: ±amp per chip, 10 samples per chip, mid-chip decision.
    // Manchester halves the bit rate: 100 Kchips/s → 50 kb/s raw.
    let ook = {
        let n = n_bits.min(50_000);
        let mut errors = 0usize;
        for _ in 0..n {
            let bit: bool = rng.gen();
            let level = if bit { amp } else { -amp };
            // Average of the mid-chip samples plus noise.
            let mut acc = 0.0;
            for _ in 0..5 {
                acc += level + awgn.sample(&mut rng);
            }
            if (acc > 0.0) != bit {
                errors += 1;
            }
        }
        ModulationPoint {
            bit_rate_bps: 50_000.0,
            ber: errors as f64 / n as f64,
        }
    };

    // DCO-OFDM at the same sample rate: the modem's waveform rides on the
    // LED bias with amplitude `amp` (same optical swing budget as OOK).
    let mut run_ofdm = |order: QamOrder| {
        let modem = OfdmModem {
            order,
            ..OfdmModem::vlc_default()
        };
        let bits_per_sym = modem.bits_per_ofdm_symbol();
        let n_syms = (n_bits / bits_per_sym).max(4);
        let bits: Vec<bool> = (0..n_syms * bits_per_sym).map(|_| rng.gen()).collect();
        let clean = modem.modulate(&bits).expect("whole symbols");
        // Scale the unit-bias waveform to the link amplitude; the receiver
        // sees it AC-coupled, but the modem handles its own bias removal,
        // so feed it the attenuated waveform plus photocurrent noise.
        let noisy: Vec<f64> = clean
            .iter()
            .map(|&s| s * amp + awgn.sample(&mut rng))
            .collect();
        let decoded = modem.demodulate(&noisy, amp).expect("aligned");
        let errors = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        let rate = bits_per_sym as f64 / modem.samples_per_symbol() as f64 * sample_rate;
        ModulationPoint {
            bit_rate_bps: rate,
            ber: errors as f64 / bits.len() as f64,
        }
    };
    let ofdm_qam4 = run_ofdm(QamOrder::Qam4);
    let ofdm_qam16 = run_ofdm(QamOrder::Qam16);

    ExtOfdm {
        ook,
        ofdm_qam4,
        ofdm_qam16,
    }
}

impl ExtOfdm {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let row = |label: &str, p: &ModulationPoint| {
            format!(
                "  {label:<22} {:>8.1} kb/s   BER {:.2e}\n",
                p.bit_rate_bps / 1e3,
                p.ber
            )
        };
        let mut out =
            String::from("Extension (§9) — OFDM in VLC on the Table-5 link (1 Msps front-end)\n");
        out.push_str(&row("Manchester-OOK (paper)", &self.ook));
        out.push_str(&row("DCO-OFDM 4-QAM", &self.ofdm_qam4));
        out.push_str(&row("DCO-OFDM 16-QAM", &self.ofdm_qam16));
        out.push_str(&format!(
            "  OFDM headroom over the paper's PHY: {:.0}× (4-QAM), {:.0}× (16-QAM)\n",
            self.ofdm_qam4.bit_rate_bps / self.ook.bit_rate_bps,
            self.ofdm_qam16.bit_rate_bps / self.ook.bit_rate_bps
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_multiplies_the_bit_rate() {
        let ext = run(20_000, 1);
        assert!(ext.ofdm_qam4.bit_rate_bps > 10.0 * ext.ook.bit_rate_bps);
        assert!(ext.ofdm_qam16.bit_rate_bps > 1.9 * ext.ofdm_qam4.bit_rate_bps);
    }

    #[test]
    fn strong_link_keeps_ber_low() {
        // The Table-5 link is strong: every modulation must be essentially
        // error-free at this SNR.
        let ext = run(20_000, 2);
        assert!(ext.ook.ber < 1e-3, "OOK BER {}", ext.ook.ber);
        assert!(ext.ofdm_qam4.ber < 1e-2, "4-QAM BER {}", ext.ofdm_qam4.ber);
    }

    #[test]
    fn report_names_all_modulations() {
        let rep = run(5_000, 3).report();
        assert!(rep.contains("OOK") && rep.contains("4-QAM") && rep.contains("16-QAM"));
    }
}
