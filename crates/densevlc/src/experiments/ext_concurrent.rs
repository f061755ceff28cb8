//! Extension: concurrent multi-beamspot transmission at the symbol level.
//!
//! The paper's Table 5 measures one beamspot at a time; the cell-free
//! claim, though, is that "multiple RXs can be served simultaneously"
//! (§2.1). This experiment runs all of a controller plan's beamspots at
//! once through the waveform-level simulator: every receiver's photodiode
//! sees the superposition of its own stream and the other beamspots'
//! interference, and we report per-receiver goodput and PER.

use crate::e2e::{run_concurrent, E2eBeamspot, E2eConfig, E2eResult};
use serde::{Deserialize, Serialize};
use vlc_mac::{Controller, ControllerConfig};
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// Per-receiver outcome of the concurrent run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrentRx {
    /// The receiver.
    pub rx: usize,
    /// TXs in its beamspot (zero-based).
    pub txs: Vec<usize>,
    /// Its end-to-end result.
    pub result: E2eResult,
}

/// The concurrent-transmission result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtConcurrent {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// Power budget in watts.
    pub budget_w: f64,
    /// One entry per beamspot.
    pub receivers: Vec<ConcurrentRx>,
}

/// Plans beamspots for a scenario and transmits all of them concurrently.
pub fn run(scenario: Scenario, budget_w: f64, frames: usize, seed: u64) -> ExtConcurrent {
    assert!(budget_w > 0.0 && frames > 0);
    let d = Deployment::scenario(scenario);
    let controller = Controller::new(
        ControllerConfig::paper(budget_w),
        d.grid.len(),
        d.receivers.len(),
    );
    let plan = controller.plan(&d.model.channel, Probe::off());
    let beamspots: Vec<E2eBeamspot> = plan
        .beamspots()
        .into_iter()
        .map(|s| E2eBeamspot {
            rx: s.rx,
            txs: s.txs,
        })
        .collect();
    let results = run_concurrent(
        &d.model.channel,
        &beamspots,
        &E2eConfig::default(),
        frames,
        seed,
    );
    ExtConcurrent {
        scenario,
        budget_w,
        receivers: beamspots
            .into_iter()
            .zip(results)
            .map(|(spot, result)| ConcurrentRx {
                rx: spot.rx,
                txs: spot.txs,
                result,
            })
            .collect(),
    }
}

impl ExtConcurrent {
    /// Aggregate goodput over all simultaneously-served receivers.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        self.receivers.iter().map(|r| r.result.goodput_bps).sum()
    }

    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Extension — concurrent beamspots, {} @ {} W (all streams on air together)\n",
            self.scenario.label(),
            self.budget_w
        );
        for r in &self.receivers {
            out.push_str(&format!(
                "  RX{} ({} TXs): {:>7.1} kb/s, PER {:>6.2} %\n",
                r.rx + 1,
                r.txs.len(),
                r.result.goodput_bps / 1e3,
                r.result.per * 100.0
            ));
        }
        out.push_str(&format!(
            "  aggregate: {:.1} kb/s across {} simultaneous receivers\n",
            self.aggregate_goodput_bps() / 1e3,
            self.receivers.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_receivers_decode_concurrently() {
        let ext = run(Scenario::Two, 1.2, 10, 91);
        assert_eq!(ext.receivers.len(), 4);
        for r in &ext.receivers {
            assert!(r.result.per < 0.3, "RX{} PER {}", r.rx + 1, r.result.per);
        }
        // Four concurrent ~30 kb/s streams aggregate to >90 kb/s.
        assert!(
            ext.aggregate_goodput_bps() > 90e3,
            "{}",
            ext.aggregate_goodput_bps()
        );
    }

    #[test]
    fn interference_free_scenario_is_clean() {
        let ext = run(Scenario::One, 0.9, 8, 92);
        for r in &ext.receivers {
            assert_eq!(r.result.per, 0.0, "RX{} PER {}", r.rx + 1, r.result.per);
        }
    }

    #[test]
    fn report_lists_every_receiver() {
        let rep = run(Scenario::Three, 0.9, 4, 93).report();
        for rx in 1..=4 {
            assert!(rep.contains(&format!("RX{rx}")));
        }
    }
}
