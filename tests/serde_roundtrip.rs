//! Stability checks for the public configuration and result types.
//!
//! Every public config/result type derives `Serialize`/`Deserialize` so a
//! deployment or plan can be persisted by downstream tooling. The approved
//! dependency set contains no serializer *format* crate, so these tests pin
//! the contracts those derives rest on: `Clone`/`PartialEq` stability,
//! determinism of the planning pipeline, and serde's value-level plumbing.

use serde::de::value::{Error as ValueError, F64Deserializer};
use serde::de::IntoDeserializer;
use serde::Deserialize;
use vlc_trace::Probe;

/// Round-trips an `f64` through serde's value deserializer — a smoke check
/// that the serde wiring compiles and runs end to end.
fn roundtrip_f64(x: f64) -> f64 {
    let de: F64Deserializer<ValueError> = x.into_deserializer();
    f64::deserialize(de).expect("f64 round-trip")
}

#[test]
fn serde_value_plumbing_works() {
    assert_eq!(roundtrip_f64(0.3675), 0.3675);
}

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
