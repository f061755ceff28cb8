//! Stability checks for the public configuration and result types:
//! `Clone`/`PartialEq` stability and determinism of the planning pipeline.

use vlc_trace::Probe;

#[test]
fn public_types_are_cloneable_and_comparable() {
    use vlc_alloc::model::Allocation;
    use vlc_alloc::HeuristicConfig;
    use vlc_channel::{ChannelMatrix, NoiseParams, RxOptics};
    use vlc_led::LedParams;
    use vlc_sync::SyncScheme;
    use vlc_testbed::{Deployment, Scenario};

    let led = LedParams::cree_xte_paper();
    assert_eq!(led.clone(), led);

    let noise = NoiseParams::paper();
    assert_eq!(noise, noise.clone());

    let optics = RxOptics::paper();
    assert_eq!(optics, optics.clone());

    let ch = ChannelMatrix::from_gains(2, 2, vec![1e-6, 0.0, 2e-6, 1e-7]);
    assert_eq!(ch, ch.clone());

    let mut alloc = Allocation::zeros(2, 2);
    alloc.set_swing(0, 1, 0.9);
    assert_eq!(alloc, alloc.clone());

    let cfg = HeuristicConfig::paper();
    assert_eq!(cfg, cfg.clone());

    let scheme = SyncScheme::nlos_paper();
    assert_eq!(scheme, scheme.clone());

    let d = Deployment::scenario(Scenario::Two);
    assert_eq!(d, d.clone());
}

#[test]
fn plans_and_rounds_are_stable_across_clones() {
    use densevlc::System;
    use vlc_testbed::Scenario;

    let mut a = System::scenario(Scenario::Three, 1.2);
    let mut b = a.clone();
    let ra = a.adapt(Probe::off());
    let rb = b.adapt(Probe::off());
    // Identical systems produce identical plans — the pipeline is
    // deterministic for a fixed channel.
    assert_eq!(ra.plan, rb.plan);
    assert_eq!(ra.per_rx_bps, rb.per_rx_bps);
}
