//! Extension: stop-and-wait ARQ over the WiFi feedback loop.
//!
//! The paper's MAC acknowledges every frame over the WiFi uplink (§7.2)
//! but never quantifies the retransmission behaviour. This experiment
//! attenuates the Table-5 link over a sweep of levels and compares
//! single-shot delivery against ARQ with a small retry budget: delivery
//! rate, attempts per payload, and the goodput cost of retransmissions.

use crate::e2e::{run, run_with_arq, E2eConfig, E2eTx};
use vlc_mac::WifiUplink;
use vlc_sync::SyncScheme;
use vlc_testbed::{BbbHostMap, Deployment};
use vlc_trace::Probe;

/// One attenuation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqPoint {
    /// Link attenuation relative to the clean Table-5 link (1.0 = clean).
    pub attenuation: f64,
    /// Single-shot delivery rate in `[0, 1]`.
    pub single_shot_rate: f64,
    /// ARQ delivery rate in `[0, 1]`.
    pub arq_rate: f64,
    /// Mean transmission attempts per delivered payload under ARQ.
    pub attempts_per_delivery: f64,
    /// ARQ goodput in bit/s.
    pub arq_goodput_bps: f64,
}

/// The ARQ-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtArq {
    /// One entry per attenuation level.
    pub points: Vec<ArqPoint>,
}

/// Sweeps link attenuations with `payloads` payloads per point and a
/// 5-retransmission budget.
pub fn run_study(attenuations: &[f64], payloads: usize, seed: u64) -> ExtArq {
    assert!(!attenuations.is_empty() && payloads > 0);
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    let hosts = BbbHostMap::paper();
    let base_gain = d.model.channel.gain(7, 0); // TX8, the strongest link
    let cfg = E2eConfig::default();
    let wifi = WifiUplink::paper();
    let points = attenuations
        .iter()
        .map(|&attenuation| {
            let txs = vec![E2eTx {
                gain: base_gain * attenuation,
                host: hosts.host_of(7),
            }];
            let single = run(
                &txs,
                &SyncScheme::SyncOff,
                &cfg,
                payloads,
                seed,
                Probe::off(),
            );
            let arq = run_with_arq(
                &txs,
                &SyncScheme::SyncOff,
                &cfg,
                &wifi,
                payloads,
                5,
                seed ^ 0xA,
            );
            ArqPoint {
                attenuation,
                single_shot_rate: single.frames_ok as f64 / single.frames_total as f64,
                arq_rate: arq.delivered as f64 / arq.payloads_total as f64,
                attempts_per_delivery: arq.attempts_per_delivery(),
                arq_goodput_bps: arq.goodput_bps,
            }
        })
        .collect();
    ExtArq { points }
}

impl ExtArq {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "Extension — stop-and-wait ARQ over the WiFi feedback loop (TX8 link, 5 retries)\n  atten    single-shot   ARQ rate   attempts/deliv   ARQ goodput\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>5.3}   {:>9.0} %   {:>6.0} %   {:>12.2}   {:>8.1} kb/s\n",
                p.attenuation,
                p.single_shot_rate * 100.0,
                p.arq_rate * 100.0,
                p.attempts_per_delivery,
                p.arq_goodput_bps / 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arq_dominates_single_shot_on_marginal_links() {
        let ext = run_study(&[0.045], 15, 301);
        let p = &ext.points[0];
        assert!(
            p.arq_rate >= p.single_shot_rate,
            "ARQ {} vs single {}",
            p.arq_rate,
            p.single_shot_rate
        );
        assert!(p.attempts_per_delivery > 1.0, "no retransmissions used");
    }

    #[test]
    fn clean_links_pay_no_arq_tax() {
        let ext = run_study(&[1.0], 10, 302);
        let p = &ext.points[0];
        assert_eq!(p.arq_rate, 1.0);
        assert!((p.attempts_per_delivery - 1.0).abs() < 0.11);
    }

    #[test]
    fn report_has_row_per_attenuation() {
        let ext = run_study(&[1.0, 0.05], 5, 303);
        assert_eq!(ext.report().lines().count(), 2 + 2);
    }
}
