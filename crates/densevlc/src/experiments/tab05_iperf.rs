//! Table 5: iperf-style goodput and PER for the three §8.1 scenarios.
//!
//! One RX sits centered between TX2, TX3, TX8 and TX9. Paper anchors:
//!
//! | scenario            | throughput | PER    |
//! |---------------------|-----------:|-------:|
//! | 2 TXs (one BBB)     | 33.9 kb/s  | 0.19 % |
//! | 4 TXs, no sync      | 0          | 100 %  |
//! | 4 TXs, NLOS sync    | 33.8 kb/s  | 0.55 % |

use crate::e2e::{run_traced as e2e_run, E2eConfig, E2eResult, E2eTx};
use serde::{Deserialize, Serialize};
use vlc_sync::SyncScheme;
use vlc_telemetry::Registry;
use vlc_testbed::{BbbHostMap, Deployment};

/// The Table 5 result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tab05 {
    /// Row 1: two TXs on one BBB (no sync needed).
    pub two_tx: E2eResult,
    /// Row 2: four TXs across two BBBs without synchronization.
    pub four_tx_no_sync: E2eResult,
    /// Row 3: four TXs with NLOS-VLC synchronization.
    pub four_tx_nlos: E2eResult,
}

fn setup() -> (Vec<E2eTx>, Vec<E2eTx>) {
    // RX centered between TX2, TX3, TX8, TX9 (zero-based 1, 2, 7, 8).
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    let hosts = BbbHostMap::paper();
    let tx = |i: usize| E2eTx {
        gain: d.model.channel.gain(i, 0),
        host: hosts.host_of(i),
    };
    (vec![tx(1), tx(7)], vec![tx(1), tx(7), tx(2), tx(8)])
}

/// Runs the three scenarios with `frames` frames each.
pub fn run(frames: usize, seed: u64) -> Tab05 {
    run_traced(frames, seed, &Registry::noop())
}

/// [`run`] with telemetry: the PHY counters (`phy.frames_encoded`,
/// `phy.frames_decoded`, `phy.rs_*`, `phy.preamble_misses`, `phy.ber`)
/// accumulate across all three rows.
pub fn run_traced(frames: usize, seed: u64, telemetry: &Registry) -> Tab05 {
    assert!(frames > 0);
    let (two, four) = setup();
    let cfg = E2eConfig::default();
    Tab05 {
        two_tx: e2e_run(&two, &SyncScheme::SyncOff, &cfg, frames, seed, telemetry),
        four_tx_no_sync: e2e_run(
            &four,
            &SyncScheme::SyncOff,
            &cfg,
            frames,
            seed ^ 1,
            telemetry,
        ),
        four_tx_nlos: e2e_run(
            &four,
            &SyncScheme::nlos_paper(),
            &cfg,
            frames,
            seed ^ 2,
            telemetry,
        ),
    }
}

impl Tab05 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let row = |label: &str, r: &E2eResult, paper: &str| {
            format!(
                "  {label:<22} {:>8.1} kb/s  PER {:>6.2} %   (paper: {paper})\n",
                r.goodput_bps / 1e3,
                r.per * 100.0
            )
        };
        let mut out = String::from("Table 5 — iperf-style experiment (one RX amid TX2/3/8/9)\n");
        out.push_str(&row("2 TXs (same BBB)", &self.two_tx, "33.9 kb/s, 0.19 %"));
        out.push_str(&row(
            "4 TXs (no sync)",
            &self.four_tx_no_sync,
            "0 kb/s, 100 %",
        ));
        out.push_str(&row(
            "4 TXs (NLOS sync)",
            &self.four_tx_nlos,
            "33.8 kb/s, 0.55 %",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape_holds() {
        let t = run(25, 51);
        // Row 1 and row 3 deliver ~34 kb/s at low PER; row 2 collapses.
        assert!(t.two_tx.per < 0.1, "2TX PER {}", t.two_tx.per);
        assert!(t.four_tx_nlos.per < 0.1, "NLOS PER {}", t.four_tx_nlos.per);
        assert!(
            t.four_tx_no_sync.per > 0.6,
            "no-sync PER {}",
            t.four_tx_no_sync.per
        );
        assert!(
            t.four_tx_no_sync.goodput_bps < 0.5 * t.two_tx.goodput_bps,
            "no-sync goodput {}",
            t.four_tx_no_sync.goodput_bps
        );
    }

    #[test]
    fn synced_rows_have_similar_goodput() {
        let t = run(20, 52);
        let ratio = t.four_tx_nlos.goodput_bps / t.two_tx.goodput_bps;
        assert!((0.85..=1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn report_has_three_rows() {
        let rep = run(5, 53).report();
        assert_eq!(rep.lines().count(), 4);
        assert!(rep.contains("NLOS sync"));
    }
}
