//! DCO-OFDM for intensity-modulated VLC (the paper's §9 extension:
//! "exploit advanced modulation schemes such as OFDM in VLC").
//!
//! Intensity modulation needs a real, non-negative drive signal, so VLC
//! OFDM uses *DC-biased optical* OFDM: QAM symbols occupy subcarriers
//! `1..N/2`, the upper half of the spectrum carries their conjugates
//! (Hermitian symmetry ⇒ real IFFT output), subcarrier 0 and N/2 are left
//! empty, and a DC bias shifts the waveform around the LED's illumination
//! bias with clipping at the LED's swing limits. A cyclic prefix absorbs
//! the (mild) channel dispersion.
//!
//! This module provides the modem: a PN scrambler (degenerate payloads
//! would otherwise produce impulse-like, unclippable waveforms), QAM
//! mapping, Hermitian framing, modulation to real samples with a *fixed*
//! power normalization (so the receiver needs no data-dependent scale),
//! demodulation with one-tap equalization, and BER-style accounting. It is
//! an extension beyond the paper's implemented OOK PHY — DenseVLC's
//! BBB/PRU testbed could not run it, which is exactly why the paper lists
//! it as future work enabled by better hardware.

use crate::fft::{fft, ifft, Complex};
use std::fmt;

/// Errors raised by the modem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfdmError {
    /// The bit payload doesn't fill a whole number of OFDM symbols.
    PartialSymbol {
        /// Bits required per OFDM symbol.
        needed: usize,
        /// Bits supplied.
        got: usize,
    },
    /// The sample stream length doesn't match a whole number of symbols.
    BadSampleCount {
        /// Samples per OFDM symbol (FFT size + cyclic prefix).
        symbol_len: usize,
        /// Samples supplied.
        got: usize,
    },
}

impl fmt::Display for OfdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfdmError::PartialSymbol { needed, got } => {
                write!(f, "payload of {got} bits is not a multiple of {needed}")
            }
            OfdmError::BadSampleCount { symbol_len, got } => {
                write!(
                    f,
                    "{got} samples is not a multiple of the {symbol_len}-sample symbol"
                )
            }
        }
    }
}

impl std::error::Error for OfdmError {}

/// QAM constellation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QamOrder {
    /// 4-QAM (QPSK): 2 bits per subcarrier.
    Qam4,
    /// 16-QAM: 4 bits per subcarrier.
    Qam16,
}

impl QamOrder {
    /// Bits carried per subcarrier.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            QamOrder::Qam4 => 2,
            QamOrder::Qam16 => 4,
        }
    }

    /// Gray-mapped constellation point for `bits` (LSB-first), normalized
    /// to unit average energy.
    fn map(&self, bits: u8) -> Complex {
        match self {
            QamOrder::Qam4 => {
                // Gray: bit0 → I sign, bit1 → Q sign; energy 1.
                let i = if bits & 1 == 0 { 1.0 } else { -1.0 };
                let q = if bits & 2 == 0 { 1.0 } else { -1.0 };
                Complex::new(i, q).scale(1.0 / 2f64.sqrt())
            }
            QamOrder::Qam16 => {
                // Gray per axis: 00→−3, 01→−1, 11→+1, 10→+3; E_avg = 10.
                let level = |b: u8| match b {
                    0b00 => -3.0,
                    0b01 => -1.0,
                    0b11 => 1.0,
                    _ => 3.0,
                };
                let i = level(bits & 0b11);
                let q = level((bits >> 2) & 0b11);
                Complex::new(i, q).scale(1.0 / 10f64.sqrt())
            }
        }
    }

    /// Hard-decision demapping back to bits (LSB-first).
    fn demap(&self, point: Complex) -> u8 {
        match self {
            QamOrder::Qam4 => {
                let mut bits = 0u8;
                if point.re < 0.0 {
                    bits |= 1;
                }
                if point.im < 0.0 {
                    bits |= 2;
                }
                bits
            }
            QamOrder::Qam16 => {
                let axis = |v: f64| -> u8 {
                    let scaled = v * 10f64.sqrt();
                    if scaled < -2.0 {
                        0b00
                    } else if scaled < 0.0 {
                        0b01
                    } else if scaled < 2.0 {
                        0b11
                    } else {
                        0b10
                    }
                };
                axis(point.re) | (axis(point.im) << 2)
            }
        }
    }
}

/// The DCO-OFDM modem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfdmModem {
    /// FFT size (power of two).
    pub fft_size: usize,
    /// Cyclic-prefix length in samples.
    pub cyclic_prefix: usize,
    /// Constellation.
    pub order: QamOrder,
    /// DC bias in units of the time-domain RMS (7 dB bias ≈ 2.24 is
    /// common; higher bias = less clipping, less efficiency).
    pub bias_rms: f64,
}

/// Generates the PN scrambling sequence (Fibonacci LFSR,
/// x¹⁶ + x¹⁴ + x¹³ + x¹¹ + 1, the CCITT whitening polynomial).
fn pn_sequence(len: usize) -> Vec<bool> {
    let mut state: u16 = 0xACE1;
    (0..len)
        .map(|_| {
            let bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1;
            state = (state >> 1) | (bit << 15);
            bit == 1
        })
        .collect()
}

impl OfdmModem {
    /// A VLC-appropriate default: 64 subcarriers, CP 8, 4-QAM, ~9.5 dB DC
    /// bias (clipping probability ≈ 0.3 % per sample, clipping noise well
    /// below 16-QAM's requirement).
    pub fn vlc_default() -> Self {
        OfdmModem {
            fft_size: 64,
            cyclic_prefix: 8,
            order: QamOrder::Qam4,
            bias_rms: 3.0,
        }
    }

    /// The expected time-domain RMS of a unit-energy Hermitian frame:
    /// `√(N−2) / N` (each of the `N−2` occupied bins carries unit energy
    /// and the IFFT divides by `N`).
    fn expected_rms(&self) -> f64 {
        ((self.fft_size - 2) as f64).sqrt() / self.fft_size as f64
    }

    /// Data subcarriers per OFDM symbol (`N/2 − 1`).
    pub fn data_subcarriers(&self) -> usize {
        self.fft_size / 2 - 1
    }

    /// Bits per OFDM symbol.
    pub fn bits_per_ofdm_symbol(&self) -> usize {
        self.data_subcarriers() * self.order.bits_per_symbol()
    }

    /// Samples per OFDM symbol including the cyclic prefix.
    pub fn samples_per_symbol(&self) -> usize {
        self.fft_size + self.cyclic_prefix
    }

    /// Modulates bits into real, non-negative intensity samples around 1.0
    /// (scale by the LED's bias current downstream). The payload must fill
    /// whole OFDM symbols. Bits are PN-scrambled so degenerate payloads
    /// cannot produce impulse-like frames; the waveform uses a fixed power
    /// normalization, so rare peaks clip at the LED limits (ordinary
    /// DCO-OFDM clipping noise, far below the constellation's needs at the
    /// default bias).
    pub fn modulate(&self, bits: &[bool]) -> Result<Vec<f64>, OfdmError> {
        self.validate();
        let bps = self.bits_per_ofdm_symbol();
        if bits.is_empty() || !bits.len().is_multiple_of(bps) {
            return Err(OfdmError::PartialSymbol {
                needed: bps,
                got: bits.len(),
            });
        }
        let pn = pn_sequence(bits.len());
        let scrambled: Vec<bool> = bits.iter().zip(&pn).map(|(&b, &p)| b ^ p).collect();
        let scale = 1.0 / (self.expected_rms() * self.bias_rms);
        let mut out = Vec::with_capacity(bits.len() / bps * self.samples_per_symbol());
        for chunk in scrambled.chunks(bps) {
            let mut spectrum = vec![Complex::ZERO; self.fft_size];
            for (k, sym_bits) in chunk.chunks(self.order.bits_per_symbol()).enumerate() {
                let mut b = 0u8;
                for (i, &bit) in sym_bits.iter().enumerate() {
                    if bit {
                        b |= 1 << i;
                    }
                }
                let point = self.order.map(b);
                spectrum[k + 1] = point;
                spectrum[self.fft_size - 1 - k] = point.conj(); // Hermitian
            }
            ifft(&mut spectrum);
            // Real by construction; fixed normalization, DC bias, clipping
            // at 0 and at twice the bias (the LED swing limits).
            let time: Vec<f64> = spectrum
                .iter()
                .map(|v| (1.0 + v.re * scale).clamp(0.0, 2.0))
                .collect();
            // Cyclic prefix: the tail repeated in front.
            out.extend_from_slice(&time[self.fft_size - self.cyclic_prefix..]);
            out.extend_from_slice(&time);
        }
        Ok(out)
    }

    /// Demodulates intensity samples back to bits, applying a one-tap
    /// equalizer per subcarrier taken from `channel_gain` (flat channels
    /// pass `1.0`). Returns the descrambled bits.
    pub fn demodulate(&self, samples: &[f64], channel_gain: f64) -> Result<Vec<bool>, OfdmError> {
        self.validate();
        assert!(channel_gain > 0.0, "channel gain must be positive");
        let sps = self.samples_per_symbol();
        if samples.is_empty() || !samples.len().is_multiple_of(sps) {
            return Err(OfdmError::BadSampleCount {
                symbol_len: sps,
                got: samples.len(),
            });
        }
        // Invert the modulator's fixed scale (FFT∘IFFT is the identity, so
        // the spectrum comes back already in constellation units × scale).
        let unscale = self.expected_rms() * self.bias_rms;
        let mut bits = Vec::new();
        for sym in samples.chunks(sps) {
            // Drop the CP, remove the DC bias, forward FFT.
            let mut spectrum: Vec<Complex> = sym[self.cyclic_prefix..]
                .iter()
                .map(|&s| Complex::new(s / channel_gain - 1.0, 0.0))
                .collect();
            fft(&mut spectrum);
            for bin in spectrum.iter().skip(1).take(self.data_subcarriers()) {
                let b = self.order.demap(bin.scale(unscale));
                for i in 0..self.order.bits_per_symbol() {
                    bits.push((b >> i) & 1 == 1);
                }
            }
        }
        let pn = pn_sequence(bits.len());
        Ok(bits.iter().zip(&pn).map(|(&b, &p)| b ^ p).collect())
    }

    fn validate(&self) {
        assert!(
            self.fft_size.is_power_of_two() && self.fft_size >= 8,
            "FFT size must be a power of two ≥ 8"
        );
        assert!(
            self.cyclic_prefix < self.fft_size,
            "CP must be shorter than the symbol"
        );
        assert!(self.bias_rms > 0.0, "bias must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn clean_roundtrip_qam4() {
        let modem = OfdmModem::vlc_default();
        let bits = random_bits(modem.bits_per_ofdm_symbol() * 4, 1);
        let samples = modem.modulate(&bits).expect("whole symbols");
        let decoded = modem.demodulate(&samples, 1.0).expect("aligned");
        assert_eq!(decoded, bits);
    }

    #[test]
    fn clean_roundtrip_qam16() {
        let modem = OfdmModem {
            order: QamOrder::Qam16,
            ..OfdmModem::vlc_default()
        };
        let bits = random_bits(modem.bits_per_ofdm_symbol() * 3, 2);
        let samples = modem.modulate(&bits).expect("whole symbols");
        let decoded = modem.demodulate(&samples, 1.0).expect("aligned");
        assert_eq!(decoded, bits);
    }

    #[test]
    fn waveform_is_non_negative_and_biased() {
        // Intensity modulation: the drive must stay in [0, 2·bias].
        let modem = OfdmModem::vlc_default();
        let bits = random_bits(modem.bits_per_ofdm_symbol() * 8, 3);
        let samples = modem.modulate(&bits).expect("whole symbols");
        for &s in &samples {
            assert!((0.0..=2.0).contains(&s), "sample {s} out of range");
        }
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean - 1.0).abs() < 0.05,
            "mean {mean} strays from the bias"
        );
    }

    #[test]
    fn flat_attenuation_is_equalized_away() {
        let modem = OfdmModem::vlc_default();
        let bits = random_bits(modem.bits_per_ofdm_symbol() * 2, 4);
        let mut samples = modem.modulate(&bits).expect("whole symbols");
        for s in samples.iter_mut() {
            *s *= 3.7e-4; // channel attenuation
        }
        let decoded = modem.demodulate(&samples, 3.7e-4).expect("aligned");
        assert_eq!(decoded, bits);
    }

    #[test]
    fn moderate_noise_is_survivable_heavy_noise_is_not() {
        let modem = OfdmModem::vlc_default();
        let bits = random_bits(modem.bits_per_ofdm_symbol() * 16, 5);
        let clean = modem.modulate(&bits).expect("whole symbols");
        let mut rng = StdRng::seed_from_u64(6);
        let ber = |sigma: f64, rng: &mut StdRng| {
            let noisy: Vec<f64> = clean
                .iter()
                .map(|&s| {
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    s + sigma * z
                })
                .collect();
            let decoded = modem.demodulate(&noisy, 1.0).expect("aligned");
            decoded.iter().zip(&bits).filter(|(a, b)| a != b).count() as f64 / bits.len() as f64
        };
        let ber_low = ber(0.01, &mut rng);
        let ber_high = ber(0.5, &mut rng);
        assert!(ber_low < 0.001, "BER at low noise {ber_low}");
        assert!(ber_high > 0.05, "BER at heavy noise {ber_high}");
    }

    #[test]
    fn spectral_efficiency_beats_manchester_ook() {
        // Manchester-OOK carries 0.5 bit per chip; DCO-OFDM with 4-QAM
        // carries (N/2−1)·2 bits per (N+CP) samples ≈ 0.86 bit/sample.
        let modem = OfdmModem::vlc_default();
        let ofdm_eff = modem.bits_per_ofdm_symbol() as f64 / modem.samples_per_symbol() as f64;
        assert!(
            ofdm_eff > 0.5,
            "OFDM efficiency {ofdm_eff} not above Manchester"
        );
    }

    #[test]
    fn partial_symbol_is_rejected() {
        let modem = OfdmModem::vlc_default();
        let bits = random_bits(modem.bits_per_ofdm_symbol() + 1, 7);
        assert!(matches!(
            modem.modulate(&bits),
            Err(OfdmError::PartialSymbol { .. })
        ));
        assert!(matches!(
            modem.demodulate(&[1.0; 13], 1.0),
            Err(OfdmError::BadSampleCount { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = OfdmError::PartialSymbol {
            needed: 62,
            got: 63,
        };
        assert!(e.to_string().contains("62"));
    }
}
