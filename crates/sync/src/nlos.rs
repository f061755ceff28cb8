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
use vlc_channel::nlos::{floor_bounce_gain, NlosConfig};
use vlc_channel::{NoiseParams, RxOptics};
use vlc_geom::{Pose, Room};
use vlc_led::{power::optical_swing_amplitude, LedParams};
use vlc_par::Pool;
use vlc_trace::Probe;

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
    /// device parameters and a 32-symbol pilot. Records a `sync.link_build`
    /// span under `probe.span` that wraps the floor-bounce quadrature
    /// (whose `channel.nlos.floor` span nests inside).
    pub fn between(
        leader: &Pose,
        follower: &Pose,
        room: &Room,
        half_power_semi_angle: f64,
        optics: &RxOptics,
        probe: Probe<'_>,
    ) -> Self {
        let build = probe.span.child("sync.link_build");
        let m = vlc_channel::lambertian::lambertian_order(half_power_semi_angle);
        let bounce_gain = floor_bounce_gain(
            leader,
            follower,
            m,
            optics,
            room,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe {
                span: &build,
                ..probe
            },
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
    ///
    /// Records into `probe`: the pre-correlation pilot SNR into the
    /// `sync.pilot_snr` gauge, the outcome into `sync.pilot_detections` or
    /// `sync.pilot_misses`, and a `sync.pilot_detect` span under
    /// `probe.span` carrying the detection outcome as attributes.
    pub fn detect<R: Rng + ?Sized>(&self, rng: &mut R, probe: Probe<'_>) -> PilotDetection {
        let span = probe.span.child("sync.pilot_detect");
        let snr = self.raw_snr();
        let post = snr * self.pilot_gain;
        // Noise realization: ±1 dB of per-frame wobble near the threshold.
        let wobble = 10f64.powf(rng.gen_range(-0.1..0.1));
        let detection = PilotDetection {
            snr,
            detected: post * wobble >= self.detection_threshold,
        };
        if span.is_enabled() {
            span.attr("detected", &detection.detected.to_string());
            span.attr("snr", &format!("{:.6e}", detection.snr));
        }
        let telemetry = probe.telemetry;
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
            Probe::off(),
        )
    }

    #[test]
    fn neighbor_pilot_is_detectable() {
        // The testbed's §8.1 experiment: TX2 leads, TX3 follows (adjacent).
        let link = grid_link(1, 2, 0.6);
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100)
            .filter(|_| link.detect(&mut rng, Probe::off()).detected)
            .count();
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
        let hits = (0..100)
            .filter(|_| link.detect(&mut rng, Probe::off()).detected)
            .count();
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
            let hits = (0..100)
                .filter(|_| link.detect(&mut rng, Probe::off()).detected)
                .count();
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
}
