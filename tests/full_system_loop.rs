//! Integration: the full measure → report → plan → serve loop across
//! `vlc-mac`, `vlc-alloc`, `vlc-channel` and `vlc-testbed`.

use densevlc::e2e::{run as e2e_run, E2eConfig, E2eTx};
use densevlc::{Simulation, System};
use vlc_mac::protocol::ChannelReport;
use vlc_mac::{Controller, ControllerConfig};
use vlc_sync::SyncScheme;
use vlc_telemetry::Registry;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Probe;

/// The controller reconstructs (up to calibration) the channel from RX
/// reports and produces the same plan as on the ground-truth channel.
#[test]
fn report_driven_plan_matches_truth() {
    let d = Deployment::scenario(Scenario::Two);
    let truth = &d.model.channel;
    let mut ctl = Controller::new(ControllerConfig::paper(1.2), 36, 4);
    let cal = 3e6;
    for rx in 0..4 {
        let snr_per_tx: Vec<f64> = (0..36)
            .map(|tx| (cal * truth.gain(tx, rx)).powi(2))
            .collect();
        ctl.ingest_report(ChannelReport { rx, snr_per_tx });
    }
    assert!(ctl.all_reported());
    let estimated = ctl.estimated_channel(cal);
    let plan_est = ctl.plan(&estimated, Probe::off());
    let plan_truth = ctl.plan(truth, Probe::off());
    assert_eq!(plan_est.active_txs(), plan_truth.active_txs());
    assert_eq!(plan_est.beamspots().len(), plan_truth.beamspots().len());
}

/// The adaptation loop under mobility: the moving receiver keeps service
/// and its serving beamspot follows it across the room. (The walk stops
/// short of RX4's corner — Algorithm 1 is greedy and cannot split a TX
/// between two *co-located* receivers, a limitation inherited from the
/// paper's heuristic.)
#[test]
fn beamspot_follows_a_walking_receiver() {
    let mut system = System::scenario(Scenario::One, 1.2);
    let mut previous_leader = None;
    let mut leader_changes = 0;
    for step in 0..=8 {
        let x = 0.5 + 0.2 * step as f64; // RX1 walks diagonally
        let y = 0.5 + 0.2 * step as f64;
        system.move_receivers(&[(x, y), (2.5, 0.5), (0.5, 2.5), (2.5, 2.5)]);
        let round = system.adapt(Probe::off());
        let spot = round.plan.beamspot_for(0).expect("RX1 always served");
        assert!(round.per_rx_bps[0] > 0.0, "RX1 starved at step {step}");
        // The leader must stay a decent channel for the receiver: within
        // the top-4 gains toward RX1.
        let mut gains: Vec<(usize, f64)> = (0..36)
            .map(|t| (t, system.deployment.model.channel.gain(t, 0)))
            .collect();
        gains.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let top4: Vec<usize> = gains[..4].iter().map(|(t, _)| *t).collect();
        assert!(
            top4.contains(&spot.leader),
            "step {step}: leader TX{} not among the top channels",
            spot.leader + 1
        );
        if previous_leader != Some(spot.leader) {
            if previous_leader.is_some() {
                leader_changes += 1;
            }
            previous_leader = Some(spot.leader);
        }
    }
    // Walking 2.8 m diagonally across a 0.5 m grid must hand the beamspot
    // over several times.
    assert!(leader_changes >= 2, "only {leader_changes} handovers");
}

/// Budget monotonicity across the whole stack: more communication power
/// never reduces the (controller-planned) system throughput much, and
/// power spending respects the budget at every level.
#[test]
fn budget_sweep_is_consistent() {
    let mut prev_bps = 0.0;
    for budget in [0.15, 0.3, 0.6, 0.9, 1.2, 1.8] {
        let mut system = System::scenario(Scenario::Two, budget);
        let round = system.adapt(Probe::off());
        assert!(round.power_w <= budget + 1e-9, "overspent at {budget} W");
        assert!(
            round.system_throughput_bps >= prev_bps * 0.9,
            "throughput collapsed at {budget} W"
        );
        prev_bps = round.system_throughput_bps.max(prev_bps);
        // The plan's allocation must be feasible for the model too.
        assert!(system
            .deployment
            .model
            .is_feasible(&round.plan.allocation, budget));
    }
}

/// One registry watches the whole stack: a short mobility simulation
/// (controller planning) plus a clean-channel end-to-end frame run (PHY
/// codec) both record into the same live registry, and the snapshot shows
/// every layer did real work. The `Timeline` embeds the snapshot, while
/// uninstrumented runs carry none.
#[test]
fn telemetry_snapshot_reflects_the_full_loop() {
    let telemetry = Registry::new();

    let mut sim = Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2);
    sim.send_receiver(0, 2.0, 2.0);
    let timeline = sim.run(
        1.0,
        None,
        Probe {
            telemetry: &telemetry,
            ..Probe::off()
        },
    );

    // A clean single-host link: every frame should decode without ever
    // exhausting the Reed–Solomon budget.
    let txs = [E2eTx {
        gain: 2e-4,
        host: 0,
    }];
    let e2e = e2e_run(
        &txs,
        &SyncScheme::SyncOff,
        &E2eConfig::default(),
        5,
        7,
        Probe {
            telemetry: &telemetry,
            ..Probe::off()
        },
    );
    assert_eq!(e2e.frames_ok, 5, "clean channel should deliver all frames");

    let snap = telemetry.snapshot();
    assert!(snap.counter("mac.rounds_planned").unwrap_or(0) >= 1);
    assert!(snap.counter("phy.frames_decoded").unwrap_or(0) > 0);
    assert_eq!(snap.counter("phy.rs_uncorrectable").unwrap_or(0), 0);
    assert_eq!(snap.counter("sim.ticks"), Some(10));
    assert!(snap.histogram("sim.tick_s").is_some_and(|h| h.count == 10));
    assert!(snap.gauge("sim.rx0.bps").is_some_and(|bps| bps > 0.0));

    // The timeline embeds the (growing) registry's state at end-of-run;
    // an uninstrumented run embeds nothing.
    let embedded = timeline
        .telemetry
        .expect("instrumented run embeds telemetry");
    assert!(embedded.counter("mac.rounds_planned").unwrap_or(0) >= 1);
    assert!(embedded.counter("phy.frames_decoded").is_none());
    let plain =
        Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2).run(0.5, None, Probe::off());
    assert!(plain.telemetry.is_none());
}

/// Illumination invariance: whatever the controller decides, the average
/// drive current of every TX stays at the bias — communication never
/// changes perceived brightness.
#[test]
fn plans_never_perturb_illumination() {
    use vlc_led::{LedParams, OperatingMode};
    let led = LedParams::cree_xte_paper();
    let mut system = System::scenario(Scenario::Three, 2.0);
    let round = system.adapt(Probe::off());
    for tx in 0..36 {
        let swing = round.plan.allocation.tx_total_swing(tx);
        let mode = if swing > 0.0 {
            OperatingMode::IlluminationAndCommunication { swing }
        } else {
            OperatingMode::Illumination
        };
        mode.validate(&led).expect("valid mode");
        assert!(
            (mode.average_current(&led) - led.bias_current).abs() < 1e-12,
            "TX{} brightness changed",
            tx + 1
        );
    }
}
