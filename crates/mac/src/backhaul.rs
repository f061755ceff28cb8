//! Backhaul models: Ethernet multicast downlink and WiFi uplink (paper §7.2).
//!
//! The controller multicasts frames over Ethernet to the BBBs hosting the
//! TXs; receivers send channel reports and MAC ACKs back over WiFi (the BBB
//! Wireless has it built in, and "uplink packets are usually smaller in
//! quantity and size compared to downlink packets", so the WiFi link is not
//! easily congested). Both links are modeled as latency + jitter (+ loss
//! for WiFi), the quantities that matter to adaptation delay and to the
//! no-synchronization failure mode.

use rand::Rng;

/// One standard normal sample (Box–Muller, local to avoid a cross-crate
/// dependency for two lines of math).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The Ethernet multicast downlink (controller → TX hosts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthernetMulticast {
    /// Base one-way latency in seconds.
    pub base_latency_s: f64,
    /// Per-delivery jitter sigma in seconds (switch queuing + kernel).
    pub jitter_sigma_s: f64,
}

impl EthernetMulticast {
    /// A small switched LAN, as in the testbed.
    pub fn paper() -> Self {
        EthernetMulticast {
            base_latency_s: 200e-6,
            jitter_sigma_s: 10.5e-6,
        }
    }

    /// Samples the delivery time of one multicast copy to one host.
    /// Latencies never go below half the base (physical floor).
    pub fn delivery_s<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.base_latency_s + gaussian(rng) * self.jitter_sigma_s).max(self.base_latency_s / 2.0)
    }

    /// Samples the *skew* between two hosts' deliveries of the same
    /// multicast frame — the start misalignment when no synchronization is
    /// used.
    pub fn delivery_skew_s<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.delivery_s(rng) - self.delivery_s(rng)).abs()
    }
}

/// The WiFi uplink (RX → controller) used for reports and ACKs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiUplink {
    /// Base one-way latency in seconds.
    pub base_latency_s: f64,
    /// Latency jitter sigma in seconds (contention, retries).
    pub jitter_sigma_s: f64,
    /// Packet loss probability per transmission.
    pub loss_probability: f64,
}

impl WifiUplink {
    /// A lightly loaded 802.11n link, as in the testbed.
    pub fn paper() -> Self {
        WifiUplink {
            base_latency_s: 2e-3,
            jitter_sigma_s: 0.8e-3,
            loss_probability: 0.01,
        }
    }

    /// Samples one uplink delivery: `Some(latency)` or `None` when lost.
    pub fn delivery_s<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        if rng.gen::<f64>() < self.loss_probability {
            return None;
        }
        Some(
            (self.base_latency_s + gaussian(rng) * self.jitter_sigma_s)
                .max(self.base_latency_s / 4.0),
        )
    }

    /// Expected latency of a delivery with up to `retries` retransmissions
    /// (each costing one more base latency), or `None` if every attempt is
    /// lost.
    pub fn delivery_with_retries_s<R: Rng + ?Sized>(
        &self,
        retries: usize,
        rng: &mut R,
    ) -> Option<f64> {
        let mut spent = 0.0;
        for _ in 0..=retries {
            match self.delivery_s(rng) {
                Some(lat) => return Some(spent + lat),
                None => spent += self.base_latency_s * 2.0, // timeout + retry
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ethernet_latency_statistics() {
        let mut rng = StdRng::seed_from_u64(21);
        let eth = EthernetMulticast::paper();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| eth.delivery_s(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 200e-6).abs() < 2e-6, "mean {mean}");
    }

    #[test]
    fn multicast_skew_matches_sync_off_scale() {
        // The Table 4 "no synchronization" error comes from this skew:
        // its median should be ~10 µs for the testbed LAN.
        let mut rng = StdRng::seed_from_u64(22);
        let eth = EthernetMulticast::paper();
        let mut skews: Vec<f64> = (0..20_001).map(|_| eth.delivery_skew_s(&mut rng)).collect();
        skews.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = skews[skews.len() / 2];
        assert!((median - 10.0e-6).abs() < 1.5e-6, "median skew {median}");
    }

    #[test]
    fn wifi_sometimes_loses_packets() {
        let mut rng = StdRng::seed_from_u64(23);
        let wifi = WifiUplink::paper();
        let lost = (0..10_000)
            .filter(|_| wifi.delivery_s(&mut rng).is_none())
            .count();
        // ~1 % loss.
        assert!((50..200).contains(&lost), "lost {lost}/10000");
    }

    #[test]
    fn retries_recover_from_loss() {
        let mut rng = StdRng::seed_from_u64(24);
        let lossy = WifiUplink {
            loss_probability: 0.5,
            ..WifiUplink::paper()
        };
        let delivered = (0..2_000)
            .filter(|_| lossy.delivery_with_retries_s(5, &mut rng).is_some())
            .count();
        // 1 − 0.5⁶ ≈ 98.4 %.
        assert!(delivered > 1_900, "delivered {delivered}/2000");
    }

    #[test]
    fn retry_latency_grows_with_losses() {
        let mut rng = StdRng::seed_from_u64(25);
        let lossy = WifiUplink {
            loss_probability: 0.9,
            ..WifiUplink::paper()
        };
        let lats: Vec<f64> = (0..500)
            .filter_map(|_| lossy.delivery_with_retries_s(20, &mut rng))
            .collect();
        let mean = lats.iter().sum::<f64>() / lats.len() as f64;
        assert!(
            mean > 2.0 * lossy.base_latency_s,
            "mean retry latency {mean}"
        );
    }

    #[test]
    fn latencies_are_never_negative() {
        let mut rng = StdRng::seed_from_u64(26);
        let eth = EthernetMulticast::paper();
        let wifi = WifiUplink::paper();
        for _ in 0..5_000 {
            assert!(eth.delivery_s(&mut rng) > 0.0);
            if let Some(l) = wifi.delivery_s(&mut rng) {
                assert!(l > 0.0);
            }
        }
    }
}
