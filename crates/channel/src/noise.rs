//! Receiver noise models.
//!
//! The paper models the receiver as an AWGN channel with single-sided
//! spectral power density `N0 = 7.02 × 10⁻²³ A²/Hz` over `B = 1 MHz`
//! (Table 1). We carry those as [`NoiseParams`] and provide an
//! [`AwgnChannel`] sampler for symbol-level simulations (Gaussian samples
//! via an in-tree Box–Muller transform, since `rand_distr` is outside the
//! allowed dependency set), with an [`AwgnCursor`] that evaluates only the
//! samples a caller reads from a block, plus an optional ambient-light
//! shot-noise term for sensitivity studies.

use rand::Rng;

/// Elementary charge in coulombs (for shot-noise computations).
const ELECTRON_CHARGE: f64 = 1.602_176_634e-19;

/// Receiver noise parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Single-sided noise spectral power density `N0` in A²/Hz.
    pub n0_a2_per_hz: f64,
    /// Communication bandwidth `B` in Hz.
    pub bandwidth_hz: f64,
}

impl NoiseParams {
    /// The paper's Table 1 values.
    pub fn paper() -> Self {
        NoiseParams {
            n0_a2_per_hz: 7.02e-23,
            bandwidth_hz: 1e6,
        }
    }

    /// Total in-band noise power `N0·B` in A².
    pub fn noise_power(&self) -> f64 {
        self.n0_a2_per_hz * self.bandwidth_hz
    }

    /// RMS noise current in amperes.
    pub fn noise_rms(&self) -> f64 {
        self.noise_power().sqrt()
    }

    /// Additional shot-noise spectral density `2·q·I_dc` in A²/Hz produced
    /// by a DC photocurrent `i_dc_a` (ambient light plus the illumination
    /// bias light of all LEDs).
    pub fn shot_noise_density(i_dc_a: f64) -> f64 {
        assert!(i_dc_a >= 0.0, "DC photocurrent must be non-negative");
        2.0 * ELECTRON_CHARGE * i_dc_a
    }

    /// Returns new params with the shot noise of `i_dc_a` folded into `N0`.
    pub fn with_shot_noise(&self, i_dc_a: f64) -> NoiseParams {
        NoiseParams {
            n0_a2_per_hz: self.n0_a2_per_hz + Self::shot_noise_density(i_dc_a),
            bandwidth_hz: self.bandwidth_hz,
        }
    }
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams::paper()
    }
}

/// Bound, in standard deviations, on every sample [`AwgnChannel::sample`]
/// returns. The uniform `u1` is drawn from `[f64::MIN_POSITIVE, 1)`, so the
/// Box–Muller radius `√(−2 ln u1)` is at most `√(−2 ln MIN_POSITIVE) =
/// 37.6404…`, and `|cos|, |sin| ≤ 1`; the margin to 37.7 dwarfs the few
/// ulps of rounding in `ln`, `sqrt` and the two products.
pub const NOISE_BOUND_SIGMAS: f64 = 37.7;

/// One Box–Muller pair of uniforms, drawn in the order `sample` draws them.
/// A pair is exactly two `next_u64` outputs: `gen_range` over an `f64`
/// range and `gen::<f64>` each take one and never reject, so
/// [`AwgnCursor`] skips `k` pairs with `discard(2k)`.
fn draw_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// Box–Muller: the radius and angle of a pair of uniforms; the pair's two
/// standard normals are `r·cos θ` and `r·sin θ`.
fn polar((u1, u2): (f64, f64)) -> (f64, f64) {
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

/// A sampler of zero-mean Gaussian noise currents with the configured RMS.
#[derive(Debug, Clone, Copy)]
pub struct AwgnChannel {
    sigma: f64,
    /// Cached second Box–Muller variate.
    spare: Option<f64>,
}

impl AwgnChannel {
    /// Creates a sampler for the given noise parameters.
    pub fn new(params: NoiseParams) -> Self {
        AwgnChannel {
            sigma: params.noise_rms(),
            spare: None,
        }
    }

    /// Creates a sampler with an explicit standard deviation in amperes.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        AwgnChannel { sigma, spare: None }
    }

    /// The configured standard deviation in amperes.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one noise sample (Box–Muller on top of the supplied RNG).
    /// Its magnitude never exceeds [`NOISE_BOUND_SIGMAS`]` · σ`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z * self.sigma;
        }
        let (r, theta) = polar(draw_pair(rng));
        self.spare = Some(r * theta.sin());
        r * theta.cos() * self.sigma
    }

    /// A bound no sample can reach: [`NOISE_BOUND_SIGMAS`]` · σ`. A
    /// signal level beyond it keeps its sign under any noise draw.
    pub fn bound(&self) -> f64 {
        NOISE_BOUND_SIGMAS * self.sigma
    }

    /// A cursor over the next `n` samples, the ones `n` calls to
    /// [`Self::sample`] would return. It walks the RNG stream in the same
    /// order but draws uniforms and evaluates the Box–Muller
    /// transcendentals only for the samples it adds somewhere; dropping it
    /// (or [`AwgnCursor::finish`]) skips the rest of the block and leaves
    /// this channel and the RNG exactly as the `n` eager calls would.
    pub fn cursor<'a, R: Rng + ?Sized>(
        &'a mut self,
        rng: &'a mut R,
        n: usize,
    ) -> AwgnCursor<'a, R> {
        let carry = self.spare.take();
        AwgnCursor {
            channel: self,
            rng,
            pos: 0,
            len: n,
            carry,
            pending: None,
        }
    }

    /// Fills `out` with independent noise samples.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        for v in out {
            *v = self.sample(rng);
        }
    }
}

/// A streaming view of one block of [`AwgnChannel`] samples, made by
/// [`AwgnChannel::cursor`]. Sample `i` of the block is the value the
/// `i`-th of `n` eager [`AwgnChannel::sample`] calls would return, bit for
/// bit. The cursor moves forward only: [`Self::add_to`] jumps the RNG
/// past the whole pairs before `from` ([`rand::RngCore::discard`], no uniforms
/// and no transcendentals) and evaluates the samples in `from..to`. It
/// holds no per-block buffer.
pub struct AwgnCursor<'a, R: Rng + ?Sized> {
    channel: &'a mut AwgnChannel,
    rng: &'a mut R,
    /// Samples before `pos` are spent: added somewhere or drawn past.
    pos: usize,
    len: usize,
    /// The spare carried in from before the block — sample 0 — until spent.
    carry: Option<f64>,
    /// The uniforms of the pair whose cosine half is sample `pos − 1`,
    /// kept so its sine half (sample `pos`) can still be evaluated.
    pending: Option<(f64, f64)>,
}

impl<R: Rng + ?Sized> AwgnCursor<'_, R> {
    /// Adds samples `from..to` of the block (clamped to the block, and to
    /// the unspent samples) onto `out[from..to]`, the way `out[i] +=
    /// sample()` would. Samples between the cursor and `from` are drawn
    /// past and never evaluated.
    pub fn add_to(&mut self, out: &mut [f64], from: usize, to: usize) {
        self.skip_to(from);
        let to = to.min(self.len);
        if self.pos >= to {
            return;
        }
        let sigma = self.channel.sigma;
        if let Some(z) = self.carry.take() {
            out[self.pos] += z * sigma;
            self.pos += 1;
        } else if let Some(pair) = self.pending.take() {
            let (r, theta) = polar(pair);
            out[self.pos] += r * theta.sin() * sigma;
            self.pos += 1;
        }
        while self.pos + 2 <= to {
            let (r, theta) = polar(draw_pair(self.rng));
            out[self.pos] += r * theta.cos() * sigma;
            out[self.pos + 1] += r * theta.sin() * sigma;
            self.pos += 2;
        }
        if self.pos < to {
            let pair = draw_pair(self.rng);
            let (r, theta) = polar(pair);
            out[self.pos] += r * theta.cos() * sigma;
            self.pending = Some(pair);
            self.pos += 1;
        }
    }

    /// Draws past every sample before `to` without evaluating it: the RNG
    /// jumps past the whole pairs, and only a pair whose sine half is
    /// sample `to` is drawn.
    fn skip_to(&mut self, to: usize) {
        let to = to.min(self.len);
        if self.pos >= to {
            return;
        }
        if self.carry.take().is_some() || self.pending.take().is_some() {
            self.pos += 1;
        }
        let pairs = (to - self.pos) / 2;
        self.rng.discard(2 * pairs as u64);
        self.pos += 2 * pairs;
        if self.pos < to {
            self.pending = Some(draw_pair(self.rng));
            self.pos += 1;
        }
    }

    /// Draws the rest of the block. Dropping the cursor does the same; this
    /// spelling marks the point in the caller's code.
    pub fn finish(self) {}
}

impl<R: Rng + ?Sized> Drop for AwgnCursor<'_, R> {
    /// Draws the rest of the block and hands the channel the spare the
    /// eager calls would leave: the carried one if the block was empty,
    /// else the sine half of a pair whose cosine half ended the block.
    fn drop(&mut self) {
        self.skip_to(self.len);
        self.channel.spare = self.carry.take().or_else(|| {
            self.pending.take().map(|pair| {
                let (r, theta) = polar(pair);
                r * theta.sin()
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_noise_power() {
        let n = NoiseParams::paper();
        assert!((n.noise_power() - 7.02e-17).abs() < 1e-30);
        assert!((n.noise_rms() - 7.02e-17f64.sqrt()).abs() < 1e-30);
    }

    #[test]
    fn shot_noise_scales_with_dc_current() {
        let d1 = NoiseParams::shot_noise_density(1e-6);
        let d2 = NoiseParams::shot_noise_density(2e-6);
        assert!((d2 / d1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn with_shot_noise_only_increases_density() {
        let base = NoiseParams::paper();
        let noisy = base.with_shot_noise(1e-3);
        assert!(noisy.n0_a2_per_hz > base.n0_a2_per_hz);
        assert_eq!(noisy.bandwidth_hz, base.bandwidth_hz);
    }

    #[test]
    fn awgn_sample_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ch = AwgnChannel::with_sigma(2.0);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = ch.sample(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn zero_sigma_yields_zero_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = AwgnChannel::with_sigma(0.0);
        for _ in 0..10 {
            assert_eq!(ch.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn fill_writes_every_slot() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ch = AwgnChannel::with_sigma(1.0);
        let mut buf = [0.0; 101];
        ch.fill(&mut rng, &mut buf);
        // With probability ~1 every slot is non-zero.
        assert!(buf.iter().filter(|&&x| x != 0.0).count() >= 100);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dc_current_panics() {
        NoiseParams::shot_noise_density(-1.0);
    }
}
