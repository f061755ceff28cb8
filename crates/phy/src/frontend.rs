//! The receiver's analog front-end as discrete-time filters (paper §7.1).
//!
//! The hardware chain is: Hamamatsu S5971 photodiode → low-noise
//! transimpedance amplifier (OPA659) → AC-coupled amplifier (OPA355) that
//! strips slow ambient light → 7th-order passive low-pass Butterworth
//! anti-aliasing filter → ADS7883 12-bit ADC at 1 Msps. We emulate each
//! stage as a discrete-time operation so the symbol-level simulations see
//! the same band-shaping and quantization as the testbed.

/// Transimpedance stage: photocurrent (A) → voltage (V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tia {
    /// Transimpedance gain in V/A (feedback resistor).
    pub gain_v_per_a: f64,
}

impl Tia {
    /// A typical OPA659-based design with a 100 kΩ feedback resistor.
    pub fn paper() -> Self {
        Tia { gain_v_per_a: 1e5 }
    }

    /// Applies the stage to a sample stream.
    pub fn process(&self, samples: &mut [f64]) {
        for s in samples {
            *s *= self.gain_v_per_a;
        }
    }
}

/// Single-pole AC-coupling high-pass filter: rejects DC and slow ambient
/// light while passing the Manchester chip stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcCoupler {
    alpha: f64,
}

impl AcCoupler {
    /// Builds the filter from a cutoff frequency and sample rate.
    ///
    /// # Panics
    /// Panics unless `0 < cutoff < sample_rate / 2`.
    pub fn new(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
            "cutoff {cutoff_hz} Hz outside (0, fs/2)"
        );
        // RC high-pass: alpha = RC / (RC + dt).
        let rc = 1.0 / (2.0 * std::f64::consts::PI * cutoff_hz);
        let dt = 1.0 / sample_rate_hz;
        AcCoupler {
            alpha: rc / (rc + dt),
        }
    }

    /// The paper chain at 1 Msps: ~1 kHz cutoff (well below the 100 kHz
    /// chip rate, far above mains flicker and daylight drift).
    pub fn paper() -> Self {
        AcCoupler::new(1_000.0, 1_000_000.0)
    }

    /// Applies the high-pass in place: `y[n] = α·(y[n−1] + x[n] − x[n−1])`.
    pub fn process(&self, samples: &mut [f64]) {
        let mut prev_x = 0.0;
        let mut prev_y = 0.0;
        for s in samples {
            let x = *s;
            let y = self.alpha * (prev_y + x - prev_x);
            prev_x = x;
            prev_y = y;
            *s = y;
        }
    }
}

/// A second-order IIR section (Direct Form I).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
}

impl Biquad {
    /// A low-pass biquad from one analog Butterworth pole pair via the
    /// bilinear transform. `q` is the pole pair's quality factor.
    fn lowpass(cutoff_hz: f64, sample_rate_hz: f64, q: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * cutoff_hz / sample_rate_hz;
        let cos_w0 = w0.cos();
        let sin_w0 = w0.sin();
        let alpha = sin_w0 / (2.0 * q);
        let a0 = 1.0 + alpha;
        Biquad {
            b0: (1.0 - cos_w0) / 2.0 / a0,
            b1: (1.0 - cos_w0) / a0,
            b2: (1.0 - cos_w0) / 2.0 / a0,
            a1: -2.0 * cos_w0 / a0,
            a2: (1.0 - alpha) / a0,
        }
    }

    fn process(&self, samples: &mut [f64]) {
        let (mut x1, mut x2, mut y1, mut y2) = (0.0, 0.0, 0.0, 0.0);
        for s in samples {
            let x = *s;
            let y = self.b0 * x + self.b1 * x1 + self.b2 * x2 - self.a1 * y1 - self.a2 * y2;
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = y;
            *s = y;
        }
    }
}

/// First-order low-pass section (for the odd pole of odd-order filters).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OnePole {
    b0: f64,
    b1: f64,
    a1: f64,
}

impl OnePole {
    fn lowpass(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
        // Bilinear transform of H(s) = 1/(1 + s/ωc), prewarped so the −3 dB
        // point lands exactly on `cutoff_hz` (matters when the cutoff is a
        // large fraction of Nyquist, as in the 400 kHz @ 1 Msps design).
        let wc = 2.0 * sample_rate_hz * (std::f64::consts::PI * cutoff_hz / sample_rate_hz).tan();
        let k = 2.0 * sample_rate_hz;
        let a0 = k + wc;
        OnePole {
            b0: wc / a0,
            b1: wc / a0,
            a1: (wc - k) / a0,
        }
    }

    fn process(&self, samples: &mut [f64]) {
        let (mut x1, mut y1) = (0.0, 0.0);
        for s in samples {
            let x = *s;
            let y = self.b0 * x + self.b1 * x1 - self.a1 * y1;
            x1 = x;
            y1 = y;
            *s = y;
        }
    }
}

/// The 7th-order Butterworth anti-aliasing low-pass.
///
/// A 7th-order Butterworth has poles at angles `(2k+6)/14·π`; grouped into
/// three conjugate pairs (Q = 1/(2·cos θ_k) for θ_k = 2π·k/14, k = 1..3)
/// plus one real pole.
#[derive(Debug, Clone, PartialEq)]
pub struct Butterworth7 {
    sections: [Biquad; 3],
    real_pole: OnePole,
    /// The design cutoff in Hz.
    pub cutoff_hz: f64,
}

impl Butterworth7 {
    /// Designs the filter for a cutoff and sample rate.
    ///
    /// # Panics
    /// Panics unless `0 < cutoff < sample_rate / 2`.
    pub fn new(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
            "cutoff {cutoff_hz} Hz outside (0, fs/2)"
        );
        // Butterworth pole-pair Q values for order 7:
        // Q_k = 1 / (2 cos(kπ/7)), k = 1, 2, 3.
        let qs = [1, 2, 3].map(|k| 1.0 / (2.0 * (k as f64 * std::f64::consts::PI / 7.0).cos()));
        Butterworth7 {
            sections: qs.map(|q| Biquad::lowpass(cutoff_hz, sample_rate_hz, q)),
            real_pole: OnePole::lowpass(cutoff_hz, sample_rate_hz),
            cutoff_hz,
        }
    }

    /// The paper's anti-aliasing design: cutoff at 400 kHz before the
    /// 1 Msps ADC (passes the 100 kHz chip stream, kills aliases).
    pub fn paper() -> Self {
        Butterworth7::new(400_000.0, 1_000_000.0)
    }

    /// Applies the filter in place.
    pub fn process(&self, samples: &mut [f64]) {
        for s in &self.sections {
            s.process(samples);
        }
        self.real_pole.process(samples);
    }
}

/// The quantizing ADC (ADS7883: 12-bit, 1 Msps in the testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input range ±`full_scale` volts.
    pub full_scale: f64,
}

impl Adc {
    /// The testbed's ADS7883 profile (12-bit).
    pub fn paper() -> Self {
        Adc {
            bits: 12,
            full_scale: 1.65,
        }
    }

    /// Quantizes samples in place (mid-tread, clipping at full scale).
    pub fn process(&self, samples: &mut [f64]) {
        let levels = (1u64 << self.bits) as f64;
        let step = 2.0 * self.full_scale / levels;
        for s in samples {
            let clipped = s.clamp(-self.full_scale, self.full_scale - step);
            *s = (clipped / step).round() * step;
        }
    }

    /// The quantization step in volts.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / (1u64 << self.bits) as f64
    }
}

/// The complete receive chain applied to a photocurrent sample stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEnd {
    /// Stage 1: transimpedance amplifier.
    pub tia: Tia,
    /// Stage 2: AC coupling.
    pub ac: AcCoupler,
    /// Stage 3: anti-aliasing low-pass.
    pub lpf: Butterworth7,
    /// Stage 4: quantizer.
    pub adc: Adc,
}

impl FrontEnd {
    /// The paper's three-stage front-end plus ADC.
    pub fn paper() -> Self {
        FrontEnd {
            tia: Tia::paper(),
            ac: AcCoupler::paper(),
            lpf: Butterworth7::paper(),
            adc: Adc::paper(),
        }
    }

    /// Runs the chain over a photocurrent stream, yielding digitized volts.
    pub fn process(&self, samples: &mut [f64]) {
        self.tia.process(samples);
        self.ac.process(samples);
        self.lpf.process(samples);
        self.adc.process(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures |H(f)| of a processor by driving it with a sine.
    fn gain_at(process: impl Fn(&mut [f64]), freq_hz: f64, fs: f64) -> f64 {
        let n = 8192;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq_hz * i as f64 / fs).sin())
            .collect();
        process(&mut x);
        // Skip the transient, measure RMS of the tail.
        let tail = &x[n / 2..];
        let rms = (tail.iter().map(|v| v * v).sum::<f64>() / tail.len() as f64).sqrt();
        rms / (1.0 / 2f64.sqrt())
    }

    #[test]
    fn tia_scales_current_to_volts() {
        let mut s = vec![1e-6, -2e-6];
        Tia::paper().process(&mut s);
        assert!((s[0] - 0.1).abs() < 1e-12 && (s[1] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn ac_coupler_kills_dc_passes_chips() {
        let fs = 1e6;
        let ac = AcCoupler::paper();
        // DC: a constant input decays to ~0.
        let mut dc = vec![1.0; 4000];
        ac.process(&mut dc);
        assert!(dc.last().unwrap().abs() < 1e-2);
        // 50 kHz (chip-rate scale) passes nearly unattenuated.
        let g = gain_at(|s| ac.process(s), 50_000.0, fs);
        assert!(g > 0.99, "gain at 50 kHz = {g}");
        // 50 Hz mains flicker is strongly attenuated.
        let g_mains = gain_at(|s| ac.process(s), 50.0, fs);
        assert!(g_mains < 0.1, "gain at 50 Hz = {g_mains}");
    }

    #[test]
    fn butterworth_is_flat_in_band_and_steep_beyond() {
        let fs = 1e6;
        let lpf = Butterworth7::paper(); // 400 kHz cutoff
        let g_100k = gain_at(|s| lpf.process(s), 100_000.0, fs);
        assert!(g_100k > 0.95, "gain at 100 kHz = {g_100k}");
        // At the cutoff, a Butterworth is −3 dB (≈ 0.707).
        let g_cut = gain_at(|s| lpf.process(s), 400_000.0, fs);
        assert!((g_cut - 0.707).abs() < 0.05, "gain at cutoff = {g_cut}");
        // Just above the cutoff a 7th-order rolls off brutally
        // (−42 dB/octave): by 480 kHz the gain is already tiny.
        let g_beyond = gain_at(|s| lpf.process(s), 480_000.0, fs);
        assert!(g_beyond < 0.15, "gain at 480 kHz = {g_beyond}");
    }

    #[test]
    fn adc_quantizes_to_lsb_grid() {
        let adc = Adc::paper();
        let lsb = adc.lsb();
        let mut s = vec![0.1234567, -0.987, 2.5, -2.5];
        adc.process(&mut s);
        for &v in &s[..2] {
            let ratio = v / lsb;
            assert!((ratio - ratio.round()).abs() < 1e-9, "{v} not on grid");
        }
        // Clipping.
        assert!(s[2] <= adc.full_scale);
        assert!(s[3] >= -adc.full_scale);
    }

    #[test]
    fn adc_error_is_bounded_by_half_lsb() {
        let adc = Adc::paper();
        let lsb = adc.lsb();
        for i in 0..100 {
            let v = -1.0 + 0.02 * i as f64;
            let mut s = vec![v];
            adc.process(&mut s);
            assert!((s[0] - v).abs() <= lsb / 2.0 + 1e-12);
        }
    }

    #[test]
    fn full_chain_preserves_chip_stream_polarity() {
        use crate::manchester::{manchester_encode, Chip};
        use crate::waveform::{render, slice_chips, WaveformConfig};
        let cfg = WaveformConfig::paper();
        let chips = manchester_encode(&[0xC5, 0x3A]);
        // Ambient light is present long before the frame: start the frame
        // 1500 samples in so the AC coupler has settled on the DC level.
        let frame_start = 1500usize;
        let n = frame_start + chips.len() * 10 + 100;
        let mut w = render(&chips, &cfg, 2e-6, frame_start as f64 * 1e-6, n);
        for s in w.iter_mut() {
            *s += 10e-6; // ambient DC photocurrent
        }
        let fe = FrontEnd::paper();
        fe.process(&mut w);
        // The AC coupling removed ambient, the chain kept chips sliceable.
        // (Group delay of the chain is ~2 samples; mid-chip averaging
        // absorbs it.)
        let got: Vec<Chip> =
            slice_chips(&w, &cfg, frame_start + 2, chips.len()).expect("long enough");
        let matches = got.iter().zip(&chips).filter(|(a, b)| a == b).count();
        assert!(
            matches >= chips.len() - 1,
            "only {matches}/{} chips",
            chips.len()
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_cutoff_panics() {
        Butterworth7::new(600_000.0, 1_000_000.0);
    }
}
