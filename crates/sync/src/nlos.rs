//! The NLOS-VLC synchronization link physics (paper §6.2, §7.1).
//!
//! The leading TX transmits a 32-symbol pilot plus its ID; follower TXs
//! listen with their own downward-facing photodiodes. The only optical path
//! between two ceiling-mounted, downward-facing devices is the floor
//! reflection, so the received pilot is very weak — the receive chain's
//! AC-coupled amplifier is exactly what makes it detectable. This module
//! computes the pilot SNR at a follower from the floor-bounce gain and
//! decides detectability.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vlc_channel::nlos::{floor_bounce_gain_traced, NlosConfig};
use vlc_channel::{NlosTxCache, NoiseParams, RxOptics};
use vlc_geom::{Pose, Room};
use vlc_led::{power::optical_swing_amplitude, LedParams};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// Outcome of a pilot-detection attempt at one follower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PilotDetection {
    /// Pilot SNR at the follower's photodiode (linear).
    pub snr: f64,
    /// Whether the correlation detector finds the pilot.
    pub detected: bool,
}

/// A leader→follower NLOS synchronization link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NlosSyncLink {
    /// Floor-bounce path gain between the two TXs.
    pub bounce_gain: f64,
    /// LED parameters of the leading TX.
    pub led: LedParams,
    /// Follower receiver optics/noise.
    pub noise: NoiseParams,
    /// Photodiode responsivity in A/W.
    pub responsivity: f64,
    /// Correlation gain of the 32-chip pilot (processing gain, linear).
    pub pilot_gain: f64,
    /// Detection threshold on post-correlation SNR (linear).
    pub detection_threshold: f64,
}

impl NlosSyncLink {
    /// Builds the link for two TX poses in a room, using the paper's
    /// device parameters and a 32-symbol pilot.
    pub fn between(
        leader: &Pose,
        follower: &Pose,
        room: &Room,
        half_power_semi_angle: f64,
        optics: &RxOptics,
    ) -> Self {
        Self::between_traced(
            leader,
            follower,
            room,
            half_power_semi_angle,
            optics,
            &Span::noop(),
        )
    }

    /// [`Self::between`] recording a `sync.link_build` span under `parent`
    /// that wraps the floor-bounce quadrature (whose `channel.nlos.floor`
    /// span nests inside). With a noop parent this is the uninstrumented
    /// path plus one branch per span site.
    pub fn between_traced(
        leader: &Pose,
        follower: &Pose,
        room: &Room,
        half_power_semi_angle: f64,
        optics: &RxOptics,
        parent: &Span,
    ) -> Self {
        let build = parent.child("sync.link_build");
        let m = vlc_channel::lambertian::lambertian_order(half_power_semi_angle);
        let bounce_gain = floor_bounce_gain_traced(
            leader,
            follower,
            m,
            optics,
            room,
            &NlosConfig::default(),
            &Pool::from_env(),
            &build,
        );
        NlosSyncLink {
            bounce_gain,
            led: LedParams::cree_xte_paper(),
            noise: NoiseParams::paper(),
            responsivity: optics.responsivity,
            // 32 pilot chips × 10 samples/chip of coherent correlation.
            pilot_gain: 320.0,
            detection_threshold: 4.0, // ≈ 6 dB post-correlation
        }
    }

    /// [`Self::between`] evaluated through a leader-side [`NlosTxCache`]:
    /// the source→patch table is reused across every follower of the same
    /// leader, so building N follower links costs one cache build plus N
    /// patch→RX sweeps that skip the source-side leg (and its `cosᵐ`
    /// power) per patch. The bounce gain is bitwise identical to
    /// [`Self::between`] for the cached leader pose and room.
    pub fn between_cached(cache: &NlosTxCache, follower: &Pose, optics: &RxOptics) -> Self {
        Self::between_cached_traced(cache, follower, optics, &Span::noop())
    }

    /// [`Self::between_cached`] recording a `sync.link_build_cached` span
    /// under `parent` (the cache's `channel.nlos.floor.cached` quadrature
    /// span nests inside).
    pub fn between_cached_traced(
        cache: &NlosTxCache,
        follower: &Pose,
        optics: &RxOptics,
        parent: &Span,
    ) -> Self {
        let build = parent.child("sync.link_build_cached");
        let bounce_gain = cache.floor_gain_traced(follower, optics, &Pool::from_env(), &build);
        NlosSyncLink {
            bounce_gain,
            led: LedParams::cree_xte_paper(),
            noise: NoiseParams::paper(),
            responsivity: optics.responsivity,
            pilot_gain: 320.0,
            detection_threshold: 4.0,
        }
    }

    /// Pre-correlation (per-sample) pilot SNR at the follower (linear).
    /// The pilot is a full-swing OOK stream, so its received photocurrent
    /// amplitude is `R · H_bounce · A_opt` with `A_opt` the physical optical
    /// swing amplitude of the LED (≈ 0.5 W at full swing).
    pub fn raw_snr(&self) -> f64 {
        let a_opt = optical_swing_amplitude(&self.led, self.led.max_swing);
        let amp = self.responsivity * self.bounce_gain * a_opt;
        amp * amp / self.noise.noise_power()
    }

    /// Attempts detection: correlation over the pilot chips buys
    /// `pilot_gain` of SNR; detection succeeds when the post-correlation
    /// SNR clears the threshold. A stochastic margin models per-frame noise
    /// realizations near the threshold.
    pub fn detect<R: Rng + ?Sized>(&self, rng: &mut R) -> PilotDetection {
        let snr = self.raw_snr();
        let post = snr * self.pilot_gain;
        // Noise realization: ±1 dB of per-frame wobble near the threshold.
        let wobble = 10f64.powf(rng.gen_range(-0.1..0.1));
        PilotDetection {
            snr,
            detected: post * wobble >= self.detection_threshold,
        }
    }

    /// [`Self::detect`] with telemetry and tracing: records the
    /// pre-correlation pilot SNR into the `sync.pilot_snr` gauge, counts
    /// the outcome into `sync.pilot_detections` or `sync.pilot_misses`,
    /// and records a `sync.pilot_detect` span under `parent` carrying the
    /// detection outcome as attributes.
    pub fn detect_traced<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        telemetry: &Registry,
        parent: &Span,
    ) -> PilotDetection {
        let span = parent.child("sync.pilot_detect");
        let detection = self.detect(rng);
        span.attr("detected", &detection.detected.to_string());
        span.attr("snr", &format!("{:.6e}", detection.snr));
        telemetry.gauge("sync.pilot_snr").set(detection.snr);
        if detection.detected {
            telemetry.counter("sync.pilot_detections").inc();
        } else {
            telemetry.counter("sync.pilot_misses").inc();
        }
        detection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vlc_geom::TxGrid;

    fn grid_link(a: usize, b: usize, reflectance: f64) -> NlosSyncLink {
        let mut room = Room::paper_testbed();
        room.floor_reflectance = reflectance;
        let grid = TxGrid::paper(&room);
        NlosSyncLink::between(
            &grid.pose(a),
            &grid.pose(b),
            &room,
            15f64.to_radians(),
            &RxOptics::paper(),
        )
    }

    #[test]
    fn neighbor_pilot_is_detectable() {
        // The testbed's §8.1 experiment: TX2 leads, TX3 follows (adjacent).
        let link = grid_link(1, 2, 0.6);
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100).filter(|_| link.detect(&mut rng).detected).count();
        assert!(
            hits >= 95,
            "only {hits}/100 detections, snr {}",
            link.raw_snr()
        );
    }

    #[test]
    fn pilot_detectable_on_dull_floor() {
        // Paper §9: pilots remain detectable on less-reflective floors.
        let link = grid_link(1, 2, 0.25);
        let mut rng = StdRng::seed_from_u64(12);
        let hits = (0..100).filter(|_| link.detect(&mut rng).detected).count();
        assert!(hits >= 80, "only {hits}/100 detections on dull floor");
    }

    #[test]
    fn raw_snr_is_weak_but_positive() {
        // The reflected pilot is "a very weak signal": well below 20 dB
        // pre-correlation, yet nonzero.
        let link = grid_link(1, 2, 0.6);
        let snr = link.raw_snr();
        assert!(snr > 0.0 && snr < 100.0, "snr {snr}");
    }

    #[test]
    fn correlation_gain_rescues_detection() {
        let link = grid_link(1, 2, 0.6);
        let weak = NlosSyncLink {
            pilot_gain: 1.0,
            ..link.clone()
        };
        // If raw SNR alone is below threshold, the 32-chip correlation must
        // be what makes detection work (this is the design point).
        if weak.raw_snr() < weak.detection_threshold {
            let mut rng = StdRng::seed_from_u64(13);
            let hits = (0..100).filter(|_| link.detect(&mut rng).detected).count();
            assert!(hits >= 95);
        }
    }

    #[test]
    fn far_followers_lose_the_pilot() {
        // A follower across the room sees a much weaker bounce.
        let near = grid_link(1, 2, 0.6);
        let far = grid_link(0, 35, 0.6);
        assert!(far.raw_snr() < near.raw_snr());
    }

    #[test]
    fn cached_links_are_bitwise_identical_to_direct_ones() {
        // One leader-side cache serves every follower with the exact gains
        // the per-pair quadrature produces.
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let m = vlc_channel::lambertian::lambertian_order(15f64.to_radians());
        let cache = NlosTxCache::shared(&grid.pose(1), m, &room, &NlosConfig::default());
        for follower in [0usize, 2, 7, 8] {
            let direct = NlosSyncLink::between(
                &grid.pose(1),
                &grid.pose(follower),
                &room,
                15f64.to_radians(),
                &optics,
            );
            let cached = NlosSyncLink::between_cached(&cache, &grid.pose(follower), &optics);
            assert_eq!(
                cached.bounce_gain.to_bits(),
                direct.bounce_gain.to_bits(),
                "follower {follower}"
            );
            assert_eq!(cached, direct);
        }
    }
}
