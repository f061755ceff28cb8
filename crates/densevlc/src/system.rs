//! The assembled DenseVLC system: testbed + controller + adaptation loop.

use vlc_alloc::analysis::SweepPoint;
use vlc_mac::{BeamspotPlan, Controller, ControllerConfig};
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// The outcome of one adaptation round.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRound {
    /// The beamspot plan the controller produced.
    pub plan: BeamspotPlan,
    /// Per-receiver throughput in bit/s under the plan.
    pub per_rx_bps: Vec<f64>,
    /// Total system throughput in bit/s.
    pub system_throughput_bps: f64,
    /// Communication power actually spent, in watts.
    pub power_w: f64,
}

/// A complete DenseVLC system instance.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    /// The physical deployment (room, grid, receivers, channel).
    pub deployment: Deployment,
    /// The controller (decision logic + configuration).
    pub controller: Controller,
}

impl System {
    /// Assembles a system on a deployment with a power budget in watts.
    pub fn new(deployment: Deployment, budget_w: f64) -> Self {
        let n_tx = deployment.grid.len();
        let n_rx = deployment.receivers.len();
        let controller = Controller::new(ControllerConfig::paper(budget_w), n_tx, n_rx);
        System {
            deployment,
            controller,
        }
    }

    /// A system on one of the paper's Table 6 scenarios.
    pub fn scenario(s: Scenario, budget_w: f64) -> Self {
        System::new(Deployment::scenario(s), budget_w)
    }

    /// Runs one adaptation round on the current (true) channel: the
    /// controller plans beamspots and the model evaluates the result.
    ///
    /// Records into `probe`: the full round timed under `sim.adapt_s`, the
    /// controller's planning phases, and `sim.system_bps`, `sim.power_w`
    /// and one `sim.rx{i}.bps` gauge per receiver. Records a `sim.adapt`
    /// span under `probe.span`, with the controller's `mac.plan` tree
    /// nested inside.
    pub fn adapt(&mut self, probe: Probe<'_>) -> AdaptationRound {
        let telemetry = probe.telemetry;
        let adapt = probe.span.child("sim.adapt");
        let _adapt_span = telemetry.span("sim.adapt_s");
        let plan = self.controller.plan(
            &self.deployment.model.channel,
            Probe {
                span: &adapt,
                ..probe
            },
        );
        let per_rx_bps = self.deployment.model.throughput(&plan.allocation);
        let round = AdaptationRound {
            power_w: self.deployment.model.comm_power(&plan.allocation),
            system_throughput_bps: per_rx_bps.iter().sum(),
            per_rx_bps,
            plan,
        };
        telemetry
            .gauge("sim.system_bps")
            .set(round.system_throughput_bps);
        telemetry.gauge("sim.power_w").set(round.power_w);
        for (i, &bps) in round.per_rx_bps.iter().enumerate() {
            telemetry.gauge(&format!("sim.rx{i}.bps")).set(bps);
        }
        adapt.attr("system_bps", &format!("{:.3}", round.system_throughput_bps));
        adapt.attr("power_w", &format!("{:.6}", round.power_w));
        round
    }

    /// Evaluates the current plan as a sweep point (for curves).
    pub fn evaluate(&self, plan: &BeamspotPlan) -> SweepPoint {
        SweepPoint::evaluate(&self.deployment.model, &plan.allocation)
    }

    /// Moves the receivers and recomputes the channel (mobility loop).
    pub fn move_receivers(&mut self, positions: &[(f64, f64)]) {
        let height = self.deployment.receivers[0].position.z;
        let poses = positions
            .iter()
            .map(|&(x, y)| vlc_geom::Pose::face_up(x, y, height))
            .collect();
        self.deployment.update_receivers(poses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapt_serves_all_receivers_with_enough_budget() {
        let mut sys = System::scenario(Scenario::Two, 1.2);
        let round = sys.adapt(Probe::off());
        assert_eq!(round.plan.beamspots().len(), 4);
        assert!(round.per_rx_bps.iter().all(|&t| t > 0.0));
        assert!(round.power_w <= 1.2 + 1e-9);
    }

    #[test]
    fn tiny_budget_serves_fewer_receivers() {
        let mut sys = System::scenario(Scenario::Two, 0.08); // one TX's worth
        let round = sys.adapt(Probe::off());
        assert_eq!(round.plan.active_txs().len(), 1);
    }

    #[test]
    fn moving_a_receiver_changes_the_plan() {
        let mut sys = System::scenario(Scenario::Two, 1.2);
        let before = sys.adapt(Probe::off());
        // RX1 walks toward the far corner.
        sys.move_receivers(&[(2.6, 2.6), (1.65, 0.65), (0.72, 1.93), (1.99, 1.69)]);
        let after = sys.adapt(Probe::off());
        assert_ne!(before.plan.active_txs(), after.plan.active_txs());
        // The moved receiver is still served (cell-free mobility!).
        assert!(after.plan.beamspot_for(0).is_some());
        assert!(after.per_rx_bps[0] > 0.0);
    }

    #[test]
    fn throughput_grows_with_budget() {
        let mut lo = System::scenario(Scenario::Two, 0.3);
        let mut hi = System::scenario(Scenario::Two, 1.2);
        assert!(
            hi.adapt(Probe::off()).system_throughput_bps
                > lo.adapt(Probe::off()).system_throughput_bps
        );
    }

    #[test]
    fn evaluate_agrees_with_adapt() {
        let mut sys = System::scenario(Scenario::Three, 0.9);
        let round = sys.adapt(Probe::off());
        let point = sys.evaluate(&round.plan);
        assert!((point.system_bps - round.system_throughput_bps).abs() < 1.0);
        assert!((point.power_w - round.power_w).abs() < 1e-9);
        assert_eq!(point.active_txs, round.plan.active_txs().len());
    }

    #[test]
    fn custom_deployment_is_supported() {
        // The builder accepts any deployment, not just the Table 6 ones.
        let d = vlc_testbed::Deployment::simulation(&[(1.0, 1.0), (2.0, 2.0)]);
        let mut sys = System::new(d, 0.6);
        let round = sys.adapt(Probe::off());
        assert_eq!(round.per_rx_bps.len(), 2);
        assert!(round.per_rx_bps.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn per_rx_throughput_sums_to_system() {
        let mut sys = System::scenario(Scenario::One, 1.0);
        let round = sys.adapt(Probe::off());
        let sum: f64 = round.per_rx_bps.iter().sum();
        assert!((sum - round.system_throughput_bps).abs() < 1e-6);
    }
}
