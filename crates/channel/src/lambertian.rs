//! The line-of-sight Lambertian path-loss model (paper Eq. 2).

use vlc_geom::Pose;

/// Receiver optics: photodiode geometry, field of view, and concentrator.
///
/// Defaults match the paper's Table 1: Hamamatsu S5971-class photodiode with
/// a 1.1 mm² collection area, a 90° field of view, responsivity 0.40 A/W,
/// and no optical concentrator (refractive index 1 → unit gain at a 90°
/// FOV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxOptics {
    /// Photodiode collection area `Apd` in m².
    pub collection_area_m2: f64,
    /// Field of view half-angle `Ψc` in radians; light beyond it is ignored.
    pub fov_half_angle: f64,
    /// Refractive index of the optical concentrator (1.0 = none).
    pub concentrator_index: f64,
    /// Optical filter transmission in `[0, 1]`.
    pub filter_gain: f64,
    /// Photodiode responsivity `R` in A/W.
    pub responsivity: f64,
}

impl RxOptics {
    /// The paper's receiver front-end optics (Table 1).
    pub fn paper() -> Self {
        RxOptics {
            collection_area_m2: 1.1e-6,
            fov_half_angle: std::f64::consts::FRAC_PI_2,
            concentrator_index: 1.0,
            filter_gain: 1.0,
            responsivity: 0.40,
        }
    }

    /// Concentrator-plus-filter gain `g(ψ)` for an incidence angle `ψ`:
    /// `n² / sin²(Ψc)` inside the FOV, zero outside.
    pub fn gain(&self, incidence: f64) -> f64 {
        self.profile().gain(incidence)
    }

    /// Precompute the per-receiver constants the hot kernels need: the
    /// peak concentrator gain (hoisting the `sin²(Ψc)` that [`Self::gain`]
    /// historically recomputed per call) and the FOV cone threshold the
    /// NLOS lane kernels compare against.
    pub fn profile(&self) -> RxProfile {
        let n = self.concentrator_index;
        RxProfile {
            fov_half_angle: self.fov_half_angle,
            collection_area_m2: self.collection_area_m2,
            peak_gain: self.filter_gain * n * n / self.fov_half_angle.sin().powi(2),
            cos_fov_threshold: cos_fov_threshold(self.fov_half_angle),
        }
    }
}

/// Precomputed receiver-optics constants for the fused channel kernels.
///
/// [`RxOptics::gain`] evaluates `filter_gain · n² / sin²(Ψc)` on every
/// call even though every operand is a per-receiver constant; the profile
/// hoists that into [`RxProfile::peak_gain`] once. The LOS/NLOS kernels go
/// through the same [`RxProfile::in_cone`] predicate, so there is exactly
/// one definition of "inside the field of view".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxProfile {
    /// Field of view half-angle `Ψc` in radians (copied from [`RxOptics`]).
    pub fov_half_angle: f64,
    /// Photodiode collection area `Apd` in m² (copied from [`RxOptics`]).
    pub collection_area_m2: f64,
    /// Constant in-FOV gain `filter_gain · n² / sin²(Ψc)` — bitwise equal
    /// to what [`RxOptics::gain`] computes, since every operand is a
    /// constant of the optics.
    pub peak_gain: f64,
    /// Smallest representable cosine whose `clamp`-then-`acos` recovered
    /// incidence angle still lies inside the cone — bisected once against
    /// the platform `acos` (see [`cos_fov_threshold`]) so the hot kernels
    /// can replace the per-patch `acos` of [`Self::gain_from_cos`] with one
    /// comparison that takes the exact same branch for every input.
    pub cos_fov_threshold: f64,
}

/// The exact cosine threshold of the FOV cone test: the smallest `c` in
/// `[-1, 1]` with `acos(c) ≤ Ψc`, found by bisecting the *ordered* f64 bit
/// space against the platform `acos` (monotone non-increasing, so the
/// predicate `acos(c) ≤ Ψc` is monotone in `c` and the bisection is exact).
/// `clamp(cos, -1, 1) ≥ threshold` then reproduces
/// `acos(clamp(cos, -1, 1)) ≤ Ψc` bit-for-bit for every input, including
/// the out-of-range and NaN cases (`NaN.clamp` stays NaN and fails both
/// predicates). A negative or NaN half-angle admits no cosine at all
/// (`acos(1) == +0.0 > Ψc`), encoded as a `+∞` threshold.
pub fn cos_fov_threshold(fov_half_angle: f64) -> f64 {
    if fov_half_angle.is_nan() || fov_half_angle < 0.0 {
        return f64::INFINITY;
    }
    if (-1.0f64).acos() <= fov_half_angle {
        return -1.0;
    }
    // Invariant: acos(lo) > Ψc, acos(hi) ≤ Ψc (acos(1) == +0.0 ≤ Ψc here).
    let (mut lo, mut hi) = (ord_key(-1.0), ord_key(1.0));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if from_ord_key(mid).acos() <= fov_half_angle {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    from_ord_key(hi)
}

/// Monotone map from f64 to u64 preserving the numeric order of finite
/// values (the standard sign-flip trick), so [`cos_fov_threshold`] can
/// bisect over *representable* cosines instead of midpoints that may skip
/// or repeat values.
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | 0x8000_0000_0000_0000
    } else {
        !b
    }
}

/// Inverse of [`ord_key`].
fn from_ord_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & 0x7fff_ffff_ffff_ffff)
    } else {
        f64::from_bits(!k)
    }
}

impl RxProfile {
    /// The FOV cone test: `ψ ≤ Ψc`. The single predicate behind
    /// [`Self::gain`].
    #[inline]
    pub fn in_cone(&self, incidence: f64) -> bool {
        incidence <= self.fov_half_angle
    }

    /// Concentrator-plus-filter gain `g(ψ)`: the precomputed peak inside
    /// the FOV, zero outside. Bitwise identical to [`RxOptics::gain`].
    #[inline]
    pub fn gain(&self, incidence: f64) -> f64 {
        if self.in_cone(incidence) {
            self.peak_gain
        } else {
            0.0
        }
    }

    /// [`Self::gain`] from the cosine of the incidence angle, recovering
    /// `ψ` exactly the way the scalar reference does
    /// (`cos ψ` clamped to `[-1, 1]`, then `acos`).
    #[inline]
    pub fn gain_from_cos(&self, cos_incidence: f64) -> f64 {
        self.gain(cos_incidence.clamp(-1.0, 1.0).acos())
    }

    /// [`Self::gain_from_cos`] without the per-call `acos`: one comparison
    /// against the bisected [`Self::cos_fov_threshold`], which takes the
    /// same branch for every representable input (see
    /// [`cos_fov_threshold`]). [`los_gain_profiled`] calls this per link and
    /// the quadrature lane kernels per patch; the `acos` form stays as the
    /// scalar reference.
    #[inline]
    pub fn gain_from_cos_fast(&self, cos_incidence: f64) -> f64 {
        if cos_incidence.clamp(-1.0, 1.0) >= self.cos_fov_threshold {
            self.peak_gain
        } else {
            0.0
        }
    }
}

impl Default for RxOptics {
    fn default() -> Self {
        RxOptics::paper()
    }
}

/// The Lambertian order `m = −ln 2 / ln(cos φ½)` for a half-power semi-angle
/// `φ½` in radians. The paper's lens-equipped CREE XT-E has φ½ = 15°,
/// giving `m ≈ 20`.
pub fn lambertian_order(half_power_semi_angle: f64) -> f64 {
    assert!(
        half_power_semi_angle > 0.0 && half_power_semi_angle < std::f64::consts::FRAC_PI_2,
        "half-power semi-angle must be in (0, π/2), got {half_power_semi_angle}"
    );
    -std::f64::consts::LN_2 / half_power_semi_angle.cos().ln()
}

/// Line-of-sight optical path loss `H` between a transmitter and receiver
/// (paper Eq. 2):
///
/// `H = (m+1)·Apd / (2π·d²) · cosᵐ(φ) · g(ψ) · cos(ψ)` for `0 ≤ ψ ≤ Ψc`,
/// zero otherwise (and zero when the target is behind the emitter plane).
///
/// `m` is the Lambertian order (see [`lambertian_order`]); `φ` the
/// irradiation angle at the TX; `ψ` the incidence angle at the RX; `d` the
/// TX–RX distance.
pub fn los_gain(tx: &Pose, rx: &Pose, lambertian_m: f64, optics: &RxOptics) -> f64 {
    let d2 = (rx.position - tx.position).norm_sq();
    if d2 < 1e-12 {
        return 0.0; // coincident devices: undefined geometry, no coupling
    }
    let cos_phi = tx.cos_irradiation(rx.position);
    let cos_psi = rx.cos_incidence(tx.position);
    if cos_phi <= 0.0 || cos_psi <= 0.0 {
        return 0.0;
    }
    let psi = cos_psi.clamp(-1.0, 1.0).acos();
    let g = optics.gain(psi);
    if g == 0.0 {
        return 0.0;
    }
    (lambertian_m + 1.0) * optics.collection_area_m2 / (2.0 * std::f64::consts::PI * d2)
        * cos_phi.powf(lambertian_m)
        * g
        * cos_psi
}

/// [`los_gain`] with a precomputed [`RxProfile`]: the fused kernel behind
/// the SoA channel sweeps and the incremental updater. One subtraction, one
/// squared norm, and one square root serve both the irradiation and
/// incidence cosines (the reference path normalizes the TX→RX ray three
/// times), the concentrator peak comes from the profile instead of a
/// per-call `sin²`, and the FOV test is one comparison against the
/// bisected [`RxProfile::cos_fov_threshold`] instead of an `acos`
/// ([`RxProfile::gain_from_cos_fast`], which takes the same branch as the
/// `acos` form for every input).
///
/// Bitwise identical to [`los_gain`] — pinned by the
/// `tests/soa_identity.rs` proptests and by the FOV-boundary cases below.
/// The only representational difference is the sign of zero in components
/// of the negated ray direction, which can only flip the sign of a *zero*
/// `cos ψ`, and both signed zeros take the same `≤ 0` early-out.
pub fn los_gain_profiled(tx: &Pose, rx: &Pose, lambertian_m: f64, profile: &RxProfile) -> f64 {
    let ray = rx.position - tx.position;
    let d2 = ray.norm_sq();
    if d2 < 1e-12 {
        return 0.0; // coincident devices: undefined geometry, no coupling
    }
    // d² ≥ 1e-12 ⟹ ‖ray‖ ≥ 1e-6 > 1e-12, so the reference
    // `try_normalized` always takes its `Some` branch here.
    let dir = ray / d2.sqrt();
    let cos_phi = tx.boresight.dot(dir);
    let cos_psi = rx.boresight.dot(-dir);
    if cos_phi <= 0.0 || cos_psi <= 0.0 {
        return 0.0;
    }
    let g = profile.gain_from_cos_fast(cos_psi);
    if g == 0.0 {
        return 0.0;
    }
    (lambertian_m + 1.0) * profile.collection_area_m2 / (2.0 * std::f64::consts::PI * d2)
        * cos_phi.powf(lambertian_m)
        * g
        * cos_psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::Vec3;

    fn m15() -> f64 {
        lambertian_order(15f64.to_radians())
    }

    #[test]
    fn order_for_15_degrees_is_about_20() {
        let m = m15();
        assert!((m - 20.0).abs() < 0.2, "m = {m}");
    }

    #[test]
    fn order_for_60_degrees_is_1() {
        // cos 60° = 0.5 → m = ln2/ln2 = 1 (the classic Lambertian source).
        let m = lambertian_order(60f64.to_radians());
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn on_axis_gain_matches_hand_computation() {
        // TX at 2.8 m directly above an upward RX at 0.8 m → d = 2 m,
        // φ = ψ = 0: H = (m+1)·Apd / (2π·4).
        let tx = Pose::ceiling(1.0, 1.0, 2.8);
        let rx = Pose::face_up(1.0, 1.0, 0.8);
        let optics = RxOptics::paper();
        let m = m15();
        let expected = (m + 1.0) * 1.1e-6 / (2.0 * std::f64::consts::PI * 4.0);
        let h = los_gain(&tx, &rx, m, &optics);
        assert!(
            (h - expected).abs() / expected < 1e-12,
            "h = {h}, expected {expected}"
        );
    }

    #[test]
    fn gain_decays_off_axis_faster_than_cosine() {
        let optics = RxOptics::paper();
        let m = m15();
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let on_axis = los_gain(&tx, &Pose::face_up(0.0, 0.0, 0.0), m, &optics);
        let off_axis = los_gain(&tx, &Pose::face_up(0.5, 0.0, 0.0), m, &optics);
        // 0.5 m offset at 2 m drop ≈ 14° — near the half-power angle, the
        // narrow-beam gain should have fallen well below cos(14°).
        assert!(off_axis < on_axis * 0.6);
        assert!(off_axis > 0.0);
    }

    #[test]
    fn gain_is_zero_beyond_fov() {
        let m = m15();
        // RX tilted 90°: light from straight above arrives at ψ = 90° > Ψc
        // for a 60° FOV receiver.
        let narrow = RxOptics {
            fov_half_angle: 60f64.to_radians(),
            ..RxOptics::paper()
        };
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let rx = Pose::new(Vec3::new(0.0, 0.0, 0.0), Vec3::X);
        assert_eq!(los_gain(&tx, &rx, m, &narrow), 0.0);
    }

    #[test]
    fn gain_is_zero_behind_emitter() {
        let m = m15();
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let rx_above = Pose::face_up(0.0, 0.0, 2.5); // above the ceiling TX
        assert_eq!(los_gain(&tx, &rx_above, m, &RxOptics::paper()), 0.0);
    }

    #[test]
    fn gain_is_zero_for_coincident_devices() {
        let m = m15();
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let rx = Pose::face_up(0.0, 0.0, 2.0);
        assert_eq!(los_gain(&tx, &rx, m, &RxOptics::paper()), 0.0);
    }

    #[test]
    fn gain_scales_inverse_square_with_distance() {
        let m = m15();
        let optics = RxOptics::paper();
        let rx = Pose::face_up(0.0, 0.0, 0.0);
        let h1 = los_gain(&Pose::ceiling(0.0, 0.0, 1.0), &rx, m, &optics);
        let h2 = los_gain(&Pose::ceiling(0.0, 0.0, 2.0), &rx, m, &optics);
        assert!((h1 / h2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn concentrator_boosts_gain_quadratically() {
        let m = m15();
        let plain = RxOptics::paper();
        let lensed = RxOptics {
            concentrator_index: 1.5,
            ..plain
        };
        let tx = Pose::ceiling(0.0, 0.0, 2.0);
        let rx = Pose::face_up(0.0, 0.0, 0.0);
        let ratio = los_gain(&tx, &rx, m, &lensed) / los_gain(&tx, &rx, m, &plain);
        assert!((ratio - 2.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "half-power semi-angle")]
    fn zero_semi_angle_panics() {
        lambertian_order(0.0);
    }

    #[test]
    fn profile_peak_matches_per_call_gain_bitwise() {
        for optics in [
            RxOptics::paper(),
            RxOptics {
                fov_half_angle: 35f64.to_radians(),
                concentrator_index: 1.5,
                filter_gain: 0.9,
                ..RxOptics::paper()
            },
        ] {
            let profile = optics.profile();
            for psi in [
                0.0,
                0.3,
                optics.fov_half_angle,
                optics.fov_half_angle + 1e-9,
                1.5,
            ] {
                assert_eq!(optics.gain(psi).to_bits(), profile.gain(psi).to_bits());
            }
        }
    }

    #[test]
    fn threshold_cone_gain_matches_acos_reference_bitwise() {
        for fov_deg in [
            0.0, 1e-6, 10.0, 35.0, 60.0, 89.999, 90.0, 120.0, 179.9, 180.0,
        ] {
            let profile = RxOptics {
                fov_half_angle: f64::to_radians(fov_deg),
                ..RxOptics::paper()
            }
            .profile();
            let t = profile.cos_fov_threshold;
            // Dense scan around the bisected boundary (where a monotonicity
            // defect in the platform acos would show), plus a coarse sweep
            // of the whole clamp range and the out-of-range/NaN inputs.
            let mut probes = vec![-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, f64::NAN];
            let mut c = t;
            for _ in 0..500 {
                c = f64::from_bits(c.to_bits() + 1); // next toward ±∞ magnitude
                probes.push(c);
            }
            let mut c = t;
            for _ in 0..500 {
                c = f64::from_bits(c.to_bits().wrapping_sub(1));
                probes.push(c);
            }
            for step in 0..2000 {
                probes.push(-1.0 + step as f64 / 1000.0);
            }
            for &cos in probes.iter().filter(|c| c.is_finite() || c.is_nan()) {
                assert_eq!(
                    profile.gain_from_cos_fast(cos).to_bits(),
                    profile.gain_from_cos(cos).to_bits(),
                    "fov {fov_deg}° cos {cos:e}"
                );
            }
        }
    }

    #[test]
    fn profiled_los_gain_is_bitwise_identical_to_reference() {
        let m = m15();
        let optics = RxOptics {
            fov_half_angle: 60f64.to_radians(),
            ..RxOptics::paper()
        };
        let profile = optics.profile();
        let cases = [
            (
                Pose::ceiling(0.75, 2.25, 2.8),
                Pose::face_up(0.75, 2.25, 0.8),
            ),
            (Pose::ceiling(0.0, 0.0, 2.0), Pose::face_up(0.5, 0.0, 0.0)),
            // Directly-overhead axis-aligned pair: exercises zero ray
            // components (the sign-of-zero corner of the fused kernel).
            (Pose::ceiling(1.0, 1.0, 2.8), Pose::face_up(1.0, 1.0, 0.8)),
            // Out of FOV, behind emitter, coincident.
            (
                Pose::ceiling(0.0, 0.0, 2.0),
                Pose::new(Vec3::new(0.0, 0.0, 0.0), Vec3::X),
            ),
            (Pose::ceiling(0.0, 0.0, 2.0), Pose::face_up(0.0, 0.0, 2.5)),
            (Pose::ceiling(0.0, 0.0, 2.0), Pose::face_up(0.0, 0.0, 2.0)),
        ];
        for (tx, rx) in cases {
            let reference = los_gain(&tx, &rx, m, &optics);
            let fused = los_gain_profiled(&tx, &rx, m, &profile);
            assert_eq!(reference.to_bits(), fused.to_bits(), "tx {tx:?} rx {rx:?}");
        }
    }

    #[test]
    fn profiled_los_gain_matches_reference_across_the_fov_boundary() {
        // An RX straight below a ceiling TX sees it along +z, so its
        // incidence cosine is exactly its boresight's z component: a
        // boresight tilted to z = c puts cos ψ on any chosen value. Walk c
        // over the bisected threshold and the 16 representable cosines on
        // each side of it. `los_gain` decides the cone by `acos`.
        let m = m15();
        let tx = Pose::ceiling(1.0, 1.0, 2.8);
        for fov_deg in [15.0, 40.0, 60.0] {
            let optics = RxOptics {
                fov_half_angle: f64::to_radians(fov_deg),
                ..RxOptics::paper()
            };
            let profile = optics.profile();
            let t = profile.cos_fov_threshold;
            for step in -16i64..=16 {
                let c = f64::from_bits(t.to_bits().wrapping_add_signed(step));
                let rx = Pose {
                    position: Vec3::new(1.0, 1.0, 0.8),
                    boresight: Vec3::new((1.0 - c * c).sqrt(), 0.0, c),
                };
                assert_eq!(rx.cos_incidence(tx.position), c);
                let reference = los_gain(&tx, &rx, m, &optics);
                let fused = los_gain_profiled(&tx, &rx, m, &profile);
                assert_eq!(
                    reference.to_bits(),
                    fused.to_bits(),
                    "fov {fov_deg}°, {step} ulps from the threshold"
                );
                assert_eq!(reference > 0.0, step >= 0, "fov {fov_deg}°, step {step}");
            }
        }
    }

    #[test]
    fn paper_geometry_magnitude_sanity() {
        // For the paper's setup the strongest link (TX directly above an RX
        // at table height) should be ~1e-7..1e-6 — the scale that makes the
        // SINR numbers in §4 come out in the Mbit/s range.
        let tx = Pose::ceiling(0.75, 2.25, 2.8);
        let rx = Pose::face_up(0.75, 2.25, 0.8);
        let h = los_gain(&tx, &rx, m15(), &RxOptics::paper());
        assert!(h > 1e-7 && h < 1e-5, "h = {h}");
    }
}
