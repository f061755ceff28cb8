//! A small in-tree radix-2 FFT.
//!
//! The OFDM extension (paper §9: "exploit advanced modulation schemes such
//! as OFDM in VLC") needs forward and inverse transforms of modest sizes
//! (64–1024 points). A textbook iterative radix-2 Cooley–Tukey
//! implementation over an in-tree complex type keeps the dependency set
//! unchanged.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

/// In-place forward FFT (decimation in time). `data.len()` must be a power
/// of two.
///
/// # Panics
/// Panics if the length is not a power of two (or is zero).
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT, including the `1/N` normalization.
///
/// # Panics
/// Panics if the length is not a power of two (or is zero).
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(1.0 / n);
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n > 0 && n.is_power_of_two(),
        "FFT length {n} is not a power of two"
    );

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
        let w_len = Complex::from_angle(angle);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2] * w;
                data[start + k] = a + b;
                data[start + k + len / 2] = a - b;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a - b).abs() < tol,
            "expected {:?} ≈ {:?}",
            (a.re, a.im),
            (b.re, b.im)
        );
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        fft(&mut x);
        for v in &x {
            assert_close(*v, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn dc_transforms_to_single_bin() {
        let mut x = vec![Complex::ONE; 8];
        fft(&mut x);
        assert_close(x[0], Complex::new(8.0, 0.0), 1e-12);
        for v in &x[1..] {
            assert_close(*v, Complex::ZERO, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::from_angle(2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64)
            })
            .collect();
        fft(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert_close(*v, Complex::new(n as f64, 0.0), 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let n = 256;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), 0.2 * i as f64 % 1.0))
            .collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sq()).sum();
        let mut spec = x.clone();
        fft(&mut spec);
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sq()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }

    #[test]
    fn complex_arithmetic() {
        let i = Complex::new(0.0, 1.0);
        assert_close(i * i, Complex::new(-1.0, 0.0), 1e-15);
        assert_close(i.conj(), Complex::new(0.0, -1.0), 1e-15);
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft(&mut x);
    }
}
