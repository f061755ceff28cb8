//! Table 4: median synchronization error for the three schemes, measured
//! scope-style on two neighboring TXs (TX2 leading, TX3 following) at
//! 100 Ksymbols/s.
//!
//! Paper anchors: 10.040 µs without synchronization, 4.565 µs with NTP/PTP,
//! 0.575 µs with the NLOS-VLC method.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_channel::RxOptics;
use vlc_geom::{Room, TxGrid};
use vlc_phy::manchester::manchester_encode;
use vlc_sync::{ClockModel, NlosSyncLink, SyncScheme};
use vlc_testbed::Scope;
use vlc_trace::Probe;

/// The Table 4 result, all values in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tab04 {
    /// Median error without synchronization (paper: 10.040 µs).
    pub no_sync_s: f64,
    /// Median error with NTP/PTP (paper: 4.565 µs).
    pub ntp_ptp_s: f64,
    /// Median error with NLOS VLC (paper: 0.575 µs).
    pub nlos_vlc_s: f64,
}

/// Runs the scope measurement for each scheme over `frames` frames.
///
/// When `probe` records, the run also probes the paper's TX2→TX3 pilot
/// link with the instrumented detector (`sync.pilot_snr`,
/// `sync.pilot_detections` / `sync.pilot_misses`) and publishes the state
/// of a representative follower clock (`sync.offset_s`, `sync.drift_ppm`).
/// The pilot probe is recorded under `probe.span`: a `sync.link_build`
/// span for the floor-bounce link construction, then one
/// `sync.pilot_round` child per frame (indexed by frame) wrapping the
/// detector. It draws from its own RNG stream, so the result is the same
/// with or without it; with [`Probe::off()`] it does not run.
pub fn run(frames: usize, seed: u64, probe: Probe<'_>) -> Tab04 {
    assert!(frames > 0);
    let scope = Scope::paper();
    let chips = manchester_encode(&[0xA5, 0x5A, 0xC3, 0x3C, 0x0F, 0xF0, 0x99, 0x66]);
    let measure = |scheme: &SyncScheme, salt: u64| {
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        scope
            .measure_sync_delay(&chips, 100e3, scheme, frames, &mut rng)
            .expect("both TXs transmit")
    };
    // The clock-based schemes are measured between two peer TXs; the
    // NLOS-VLC row probes the leading TX against a follower, matching the
    // paper's setup (TX2 appointed leader, TX3 following).
    let nlos = {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3);
        scope
            .measure_leader_follower_delay(
                &chips,
                100e3,
                &SyncScheme::nlos_paper(),
                frames,
                &mut rng,
            )
            .expect("both TXs transmit")
    };
    let result = Tab04 {
        no_sync_s: measure(&SyncScheme::SyncOff, 0x1),
        ntp_ptp_s: measure(&SyncScheme::NtpPtp, 0x2),
        nlos_vlc_s: nlos,
    };
    if probe.telemetry.is_enabled() || probe.span.is_enabled() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4);
        ClockModel::beaglebone(&mut rng).observe(probe.telemetry);
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let link = NlosSyncLink::between(
            &grid.pose(1),
            &grid.pose(2),
            &room,
            15f64.to_radians(),
            &RxOptics::paper(),
            probe,
        );
        for frame in 0..frames {
            let round = probe.span.child_indexed("sync.pilot_round", frame);
            link.detect(
                &mut rng,
                Probe {
                    span: &round,
                    ..probe
                },
            );
        }
    }
    result
}

impl Tab04 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        format!(
            "Table 4 — median synchronization error (paper values in parentheses)\n\
             \x20 no synchronization: {:>7.3} µs (10.040 µs)\n\
             \x20 NTP/PTP:            {:>7.3} µs (4.565 µs)\n\
             \x20 NLOS VLC:           {:>7.3} µs (0.575 µs)\n",
            self.no_sync_s * 1e6,
            self.ntp_ptp_s * 1e6,
            self.nlos_vlc_s * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_track_paper_anchors() {
        let t = run(120, 41, Probe::off());
        // Scope edge-pairing clips large offsets to the nearest edge, so
        // compare with generous bands around the paper's medians.
        assert!(
            (t.no_sync_s - 10.04e-6).abs() < 4e-6,
            "no-sync {}",
            t.no_sync_s
        );
        assert!((t.ntp_ptp_s - 4.565e-6).abs() < 2e-6, "ntp {}", t.ntp_ptp_s);
        assert!(
            (t.nlos_vlc_s - 0.575e-6).abs() < 0.3e-6,
            "nlos {}",
            t.nlos_vlc_s
        );
    }

    #[test]
    fn ordering_matches_paper() {
        let t = run(80, 42, Probe::off());
        assert!(t.no_sync_s > t.ntp_ptp_s);
        assert!(t.ntp_ptp_s > t.nlos_vlc_s);
        // NLOS improves on NTP/PTP by nearly an order of magnitude.
        assert!(t.ntp_ptp_s > 4.0 * t.nlos_vlc_s);
    }

    #[test]
    fn an_off_probe_returns_the_recorded_bits_and_opens_no_span() {
        use vlc_telemetry::{ManualClock, Registry};
        use vlc_trace::Tracer;

        let registry = Registry::new();
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("tab04");
        let live = run(
            12,
            44,
            Probe {
                telemetry: &registry,
                span: &root,
            },
        );
        drop(root);
        let recorded = tracer.snapshot();
        assert!(recorded.find("sync.link_build").is_some());
        assert_eq!(
            recorded
                .spans
                .iter()
                .filter(|s| s.name == "sync.pilot_detect")
                .count(),
            12
        );
        let counters = registry.snapshot();
        let detections = counters.counter("sync.pilot_detections").unwrap_or(0)
            + counters.counter("sync.pilot_misses").unwrap_or(0);
        assert_eq!(detections, 12);

        // The same run with the probe off, while a live root is open on
        // this thread: the result is bit-identical and nothing but the
        // root is recorded.
        let quiet = Tracer::with_clock(ManualClock::new());
        let root = quiet.root("tab04");
        let off = run(12, 44, Probe::off());
        drop(root);
        assert_eq!(quiet.snapshot().len(), 1);
        for (a, b) in [
            (off.no_sync_s, live.no_sync_s),
            (off.ntp_ptp_s, live.ntp_ptp_s),
            (off.nlos_vlc_s, live.nlos_vlc_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn report_contains_all_rows() {
        let rep = run(20, 43, Probe::off()).report();
        assert!(rep.contains("NTP/PTP") && rep.contains("NLOS VLC"));
    }
}
