//! The controller's decision logic (paper §3.2, §7.2).
//!
//! After each channel-measurement round the controller rebuilds the channel
//! matrix from the receivers' reports, runs the SJR ranking heuristic under
//! the configured power budget, groups the selected TXs into per-receiver
//! beamspots, and appoints each beamspot's highest-ranked TX as its leading
//! TX for NLOS-VLC synchronization.

use crate::protocol::{ChannelReport, RxId, TxId};
use serde::{Deserialize, Serialize};
use vlc_alloc::heuristic::{allocate_by_ranking, rank_by_sjr};
use vlc_alloc::model::Allocation;
use vlc_alloc::HeuristicConfig;
use vlc_channel::ChannelMatrix;
use vlc_led::LedParams;
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// One CFM-MIMO beamspot: the TXs jointly serving one receiver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Beamspot {
    /// The served receiver.
    pub rx: RxId,
    /// The TXs in the beamspot, best-ranked first.
    pub txs: Vec<TxId>,
    /// The leading TX that emits the synchronization pilot.
    pub leader: TxId,
}

/// The controller's output for one adaptation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeamspotPlan {
    /// One beamspot per served receiver (receivers with no assigned TX
    /// under the current budget are absent).
    pub beamspots: Vec<Beamspot>,
    /// The full swing allocation backing the plan.
    pub allocation: Allocation,
}

impl BeamspotPlan {
    /// The beamspot serving `rx`, if any.
    pub fn beamspot_for(&self, rx: RxId) -> Option<&Beamspot> {
        self.beamspots.iter().find(|b| b.rx == rx)
    }

    /// All communicating TXs across beamspots.
    pub fn active_txs(&self) -> Vec<TxId> {
        let mut txs: Vec<TxId> = self
            .beamspots
            .iter()
            .flat_map(|b| b.txs.iter().copied())
            .collect();
        txs.sort_unstable();
        txs
    }
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Heuristic configuration (κ etc.).
    pub heuristic: HeuristicConfig,
    /// Communication power budget in watts.
    pub budget_w: f64,
    /// LED parameters (for power accounting).
    pub led: LedParams,
}

impl ControllerConfig {
    /// The paper's defaults: κ = 1.3, CREE XT-E.
    pub fn paper(budget_w: f64) -> Self {
        ControllerConfig {
            heuristic: HeuristicConfig::paper(),
            budget_w,
            led: LedParams::cree_xte_paper(),
        }
    }
}

/// The DenseVLC controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Controller {
    /// Configuration.
    pub config: ControllerConfig,
    n_tx: usize,
    n_rx: usize,
    /// Latest per-RX reports, indexed by RX.
    reports: Vec<Option<ChannelReport>>,
}

impl Controller {
    /// Creates a controller for an `n_tx × n_rx` deployment.
    pub fn new(config: ControllerConfig, n_tx: usize, n_rx: usize) -> Self {
        assert!(n_tx > 0 && n_rx > 0, "deployment must have TXs and RXs");
        Controller {
            config,
            n_tx,
            n_rx,
            reports: vec![None; n_rx],
        }
    }

    /// Ingests a channel report from a receiver.
    ///
    /// # Panics
    /// Panics if the report's shape doesn't match the deployment.
    pub fn ingest_report(&mut self, report: ChannelReport) {
        self.ingest_report_traced(report, &Registry::noop());
    }

    /// [`Self::ingest_report`] with telemetry: ingest time into the
    /// `mac.ingest_s` histogram and a `mac.reports_ingested` count.
    pub fn ingest_report_traced(&mut self, report: ChannelReport, telemetry: &Registry) {
        let _ingest_span = telemetry.span("mac.ingest_s");
        telemetry.counter("mac.reports_ingested").inc();
        assert!(report.rx < self.n_rx, "unknown RX {}", report.rx);
        assert_eq!(
            report.snr_per_tx.len(),
            self.n_tx,
            "report covers {} TXs, deployment has {}",
            report.snr_per_tx.len(),
            self.n_tx
        );
        let rx = report.rx;
        self.reports[rx] = Some(report);
    }

    /// True when every receiver has reported at least once.
    pub fn all_reported(&self) -> bool {
        self.reports.iter().all(Option::is_some)
    }

    /// Rebuilds the estimated channel matrix from the latest reports.
    /// Unreported receivers contribute zero gains.
    pub fn estimated_channel(&self, amp_per_gain_over_noise: f64) -> ChannelMatrix {
        self.estimated_channel_traced(amp_per_gain_over_noise, &Registry::noop())
    }

    /// [`Self::estimated_channel`] with telemetry: estimation time into the
    /// `mac.estimate_s` histogram.
    pub fn estimated_channel_traced(
        &self,
        amp_per_gain_over_noise: f64,
        telemetry: &Registry,
    ) -> ChannelMatrix {
        let _estimate_span = telemetry.span("mac.estimate_s");
        let mut gains = vec![0.0; self.n_tx * self.n_rx];
        for (rx, report) in self.reports.iter().enumerate() {
            if let Some(rep) = report {
                for (tx, g) in rep
                    .estimated_gains(amp_per_gain_over_noise)
                    .into_iter()
                    .enumerate()
                {
                    gains[tx * self.n_rx + rx] = g;
                }
            }
        }
        ChannelMatrix::from_gains(self.n_tx, self.n_rx, gains)
    }

    /// Runs the decision logic on a channel matrix, producing the beamspot
    /// plan (paper §7.2 "Decision logic": `Isw ∈ {0, Isw,max}` per TX based
    /// on the ranking).
    pub fn plan(&self, channel: &ChannelMatrix) -> BeamspotPlan {
        self.plan_traced(channel, &Registry::noop(), &Span::noop())
    }

    /// [`Self::plan`] with telemetry and tracing: total plan time into the
    /// `mac.plan_s` histogram with the ranking and allocation phases broken
    /// out (`mac.rank_s`, `mac.allocate_s`), a `mac.rounds_planned` count,
    /// and — when the budget serves no receiver — a `mac.infeasible_rounds`
    /// count plus an `infeasible_round` event. Records a `mac.plan` span
    /// under `parent`, with `mac.rank` and `mac.allocate` children for the
    /// two decision phases. With a noop registry and parent this is the
    /// plain path plus one branch per span site.
    pub fn plan_traced(
        &self,
        channel: &ChannelMatrix,
        telemetry: &Registry,
        parent: &Span,
    ) -> BeamspotPlan {
        assert_eq!(channel.n_tx(), self.n_tx);
        assert_eq!(channel.n_rx(), self.n_rx);
        let plan_trace = parent.child("mac.plan");
        if plan_trace.is_enabled() {
            plan_trace.attr("budget_w", &format!("{}", self.config.budget_w));
        }
        let _plan_span = telemetry.span("mac.plan_s");
        telemetry.counter("mac.rounds_planned").inc();
        let ranking = {
            let _rank_trace = plan_trace.child("mac.rank");
            let _rank_span = telemetry.span("mac.rank_s");
            rank_by_sjr(channel, &self.config.heuristic)
        };
        let allocation = {
            let _allocate_trace = plan_trace.child("mac.allocate");
            let _allocate_span = telemetry.span("mac.allocate_s");
            allocate_by_ranking(
                &ranking,
                self.n_tx,
                self.n_rx,
                &self.config.led,
                self.config.budget_w,
                &self.config.heuristic,
            )
        };
        // Group active TXs into beamspots, preserving rank order so the
        // first TX of each group (the best channel) becomes the leader.
        let mut beamspots: Vec<Beamspot> = Vec::new();
        for entry in &ranking {
            if allocation.swing(entry.tx, entry.rx) <= 0.0 {
                continue;
            }
            match beamspots.iter_mut().find(|b| b.rx == entry.rx) {
                Some(spot) => spot.txs.push(entry.tx),
                None => beamspots.push(Beamspot {
                    rx: entry.rx,
                    txs: vec![entry.tx],
                    leader: entry.tx,
                }),
            }
        }
        if beamspots.is_empty() {
            telemetry.counter("mac.infeasible_rounds").inc();
            telemetry.event(
                "mac.controller",
                "infeasible_round",
                &[("budget_w", &format!("{}", self.config.budget_w))],
            );
        }
        if plan_trace.is_enabled() {
            plan_trace.attr("beamspots", &beamspots.len().to_string());
        }
        BeamspotPlan {
            beamspots,
            allocation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::RxOptics;
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_led::power::dynamic_resistance;

    fn channel() -> ChannelMatrix {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper())
    }

    fn controller(budget_w: f64) -> Controller {
        Controller::new(ControllerConfig::paper(budget_w), 36, 4)
    }

    #[test]
    fn plan_groups_txs_into_beamspots_with_leaders() {
        let ctl = controller(1.2);
        let plan = ctl.plan(&channel());
        assert!(!plan.beamspots.is_empty());
        for spot in &plan.beamspots {
            assert_eq!(spot.leader, spot.txs[0], "leader is the best-ranked TX");
            assert!(!spot.txs.is_empty());
            // Every TX in the spot has full swing toward this RX.
            for &tx in &spot.txs {
                assert!(plan.allocation.swing(tx, spot.rx) > 0.0);
            }
        }
    }

    #[test]
    fn plan_respects_power_budget() {
        let ctl = controller(0.5);
        let plan = ctl.plan(&channel());
        let led = LedParams::cree_xte_paper();
        let r = dynamic_resistance(&led);
        let power: f64 = (0..36)
            .map(|t| r * (plan.allocation.tx_total_swing(t) / 2.0).powi(2))
            .sum();
        assert!(power <= 0.5 + 1e-9, "power {power}");
        // 0.5 W buys six full-swing TXs.
        assert_eq!(plan.active_txs().len(), 6);
    }

    #[test]
    fn beamspots_are_disjoint() {
        let ctl = controller(2.0);
        let plan = ctl.plan(&channel());
        let txs = plan.active_txs();
        let mut dedup = txs.clone();
        dedup.dedup();
        assert_eq!(txs, dedup, "a TX appears in two beamspots");
    }

    #[test]
    fn zero_budget_plan_is_counted_infeasible() {
        let ctl = controller(0.0);
        let telemetry = Registry::new();
        let plan = ctl.plan_traced(&channel(), &telemetry, &Span::noop());
        assert!(plan.beamspots.is_empty());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("mac.infeasible_rounds"), Some(1));
        assert_eq!(snap.counter("mac.rounds_planned"), Some(1));
        let event = snap
            .events_of_kind("infeasible_round")
            .next()
            .expect("infeasible event recorded");
        assert_eq!(event.target, "mac.controller");
        assert!(event
            .fields
            .iter()
            .any(|(k, v)| k == "budget_w" && v == "0"));
    }

    #[test]
    fn feasible_plan_records_phases_without_infeasible_signal() {
        let ctl = controller(1.2);
        let telemetry = Registry::new();
        let plan = ctl.plan_traced(&channel(), &telemetry, &Span::noop());
        assert!(!plan.beamspots.is_empty());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("mac.infeasible_rounds"), None);
        assert_eq!(snap.events_of_kind("infeasible_round").count(), 0);
        for phase in ["mac.plan_s", "mac.rank_s", "mac.allocate_s"] {
            assert!(
                snap.histogram(phase).is_some_and(|h| h.count == 1),
                "{phase} not timed"
            );
        }
    }

    #[test]
    fn traced_plan_records_the_phase_tree() {
        use vlc_telemetry::ManualClock;
        use vlc_trace::Tracer;

        let ctl = controller(1.2);
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("round");
        ctl.plan_traced(&channel(), &Registry::noop(), &root);
        drop(root);
        let snap = tracer.snapshot();
        let plan = snap.find("mac.plan").expect("plan span recorded");
        let phases: Vec<&str> = snap
            .children_of(plan.id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(phases, ["mac.rank", "mac.allocate"]);
        assert!(plan.attrs.iter().any(|(k, _)| k == "beamspots"));
    }

    #[test]
    fn untraced_plan_records_no_spans() {
        let ctl = controller(1.2);
        // The default path: noop registry and noop parent span. Nothing
        // may be recorded anywhere — this is the zero-cost opt-out.
        let plan = ctl.plan(&channel());
        assert!(!plan.beamspots.is_empty());
    }

    #[test]
    fn report_roundtrip_reconstructs_plan() {
        // Feed the controller reports derived from the true channel and
        // check the plan matches the one computed on the truth.
        let ch = channel();
        let mut ctl = controller(1.0);
        let cal = 2e6; // amplitude per unit gain / noise RMS
        for rx in 0..4 {
            let snrs: Vec<f64> = (0..36).map(|tx| (cal * ch.gain(tx, rx)).powi(2)).collect();
            ctl.ingest_report(ChannelReport {
                rx,
                snr_per_tx: snrs,
            });
        }
        assert!(ctl.all_reported());
        let est = ctl.estimated_channel(cal);
        let plan_est = ctl.plan(&est);
        let plan_true = ctl.plan(&ch);
        assert_eq!(plan_est.active_txs(), plan_true.active_txs());
    }

    #[test]
    fn missing_reports_leave_rx_unserved() {
        let ch = channel();
        let mut ctl = controller(1.0);
        let cal = 2e6;
        for rx in 0..3 {
            // RX4 never reports.
            let snrs: Vec<f64> = (0..36).map(|tx| (cal * ch.gain(tx, rx)).powi(2)).collect();
            ctl.ingest_report(ChannelReport {
                rx,
                snr_per_tx: snrs,
            });
        }
        assert!(!ctl.all_reported());
        let est = ctl.estimated_channel(cal);
        let plan = ctl.plan(&est);
        assert!(
            plan.beamspot_for(3).is_none(),
            "unreported RX must not be served"
        );
    }

    #[test]
    fn beamspot_lookup() {
        let ctl = controller(1.2);
        let plan = ctl.plan(&channel());
        for spot in &plan.beamspots {
            assert_eq!(plan.beamspot_for(spot.rx).expect("present").rx, spot.rx);
        }
        assert!(plan.beamspot_for(99).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown RX")]
    fn report_from_unknown_rx_panics() {
        let mut ctl = controller(1.0);
        ctl.ingest_report(ChannelReport {
            rx: 9,
            snr_per_tx: vec![0.0; 36],
        });
    }

    #[test]
    #[should_panic(expected = "report covers")]
    fn wrong_report_shape_panics() {
        let mut ctl = controller(1.0);
        ctl.ingest_report(ChannelReport {
            rx: 0,
            snr_per_tx: vec![0.0; 4],
        });
    }
}
