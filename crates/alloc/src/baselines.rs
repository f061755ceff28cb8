//! Baseline allocation schemes (paper §8.3).
//!
//! The paper benchmarks DenseVLC against two fixed strategies:
//!
//! * **SISO (nearest-TX)** — each RX is served only by its geometrically
//!   nearest TX at full swing (4 active TXs, 298 mW total).
//! * **D-MISO (all-TXs)** — every TX transmits at full swing toward its
//!   nearest RX regardless of positions; for the paper's grid this means
//!   each RX is served by its 9 surrounding TXs and the full 36-TX array
//!   burns 2.68 W.

use crate::model::Allocation;
use vlc_channel::ChannelMatrix;
use vlc_geom::{TxGrid, Vec3};
use vlc_led::LedParams;

/// The SISO baseline: each receiver's single best TX at full swing.
///
/// When two receivers share the same best TX (co-located receivers) the TX
/// serves the first of them and the later one falls back to its next-best
/// unclaimed TX, so every RX always has a dedicated serving TX.
pub fn siso_allocation(channel: &ChannelMatrix, led: &LedParams) -> Allocation {
    let n_tx = channel.n_tx();
    let n_rx = channel.n_rx();
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    let mut claimed = vec![false; n_tx];
    for rx in 0..n_rx {
        let mut best: Option<(usize, f64)> = None;
        for (tx, &taken) in claimed.iter().enumerate() {
            if taken {
                continue;
            }
            let g = channel.gain(tx, rx);
            if best.is_none_or(|(_, bg)| g > bg) {
                best = Some((tx, g));
            }
        }
        if let Some((tx, g)) = best {
            if g > 0.0 {
                claimed[tx] = true;
                alloc.set_swing(tx, rx, led.max_swing);
            }
        }
    }
    alloc
}

/// The D-MISO baseline: every TX at full swing, each serving the RX it has
/// the strongest channel to (TXs that reach no receiver stay dark — they
/// cannot contribute signal anywhere).
pub fn dmiso_allocation(channel: &ChannelMatrix, led: &LedParams) -> Allocation {
    let n_tx = channel.n_tx();
    let n_rx = channel.n_rx();
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    for tx in 0..n_tx {
        let mut best: Option<(usize, f64)> = None;
        for rx in 0..n_rx {
            let g = channel.gain(tx, rx);
            if g > 0.0 && best.is_none_or(|(_, bg)| g > bg) {
                best = Some((rx, g));
            }
        }
        if let Some((rx, _)) = best {
            alloc.set_swing(tx, rx, led.max_swing);
        }
    }
    alloc
}

/// The paper-faithful D-MISO: *every* TX transmits at full swing toward its
/// geometrically nearest RX, "independent of the position of the receivers"
/// (§8.3). Corner TXs that reach nobody still burn full communication power
/// — that inefficiency is exactly what Fig. 21 charges D-MISO for. For the
/// paper's 6 × 6 grid this is 36 full-swing TXs at 2.68 W.
pub fn dmiso_nearest_geometric(
    grid: &TxGrid,
    rx_positions: &[Vec3],
    led: &LedParams,
) -> Allocation {
    assert!(!rx_positions.is_empty(), "need at least one receiver");
    let n_tx = grid.len();
    let n_rx = rx_positions.len();
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    for tx in 0..n_tx {
        let p = grid.pose(tx).position;
        let nearest = (0..n_rx)
            .min_by(|&a, &b| {
                p.horizontal_distance(rx_positions[a])
                    .partial_cmp(&p.horizontal_distance(rx_positions[b]))
                    .expect("finite distances")
            })
            .expect("non-empty receivers");
        alloc.set_swing(tx, nearest, led.max_swing);
    }
    alloc
}

/// D-MISO restricted to the `per_rx` nearest TXs of each receiver — the
/// paper's experimental variant where "each RX is assigned 9 surrounding
/// TXs". TXs assigned to several receivers keep only their strongest one.
pub fn dmiso_k_allocation(channel: &ChannelMatrix, led: &LedParams, per_rx: usize) -> Allocation {
    let n_tx = channel.n_tx();
    let n_rx = channel.n_rx();
    // For each RX, find its `per_rx` strongest TXs.
    let mut choice: Vec<Option<(usize, f64)>> = vec![None; n_tx]; // tx -> (rx, gain)
    for rx in 0..n_rx {
        let mut order: Vec<(usize, f64)> = (0..n_tx).map(|t| (t, channel.gain(t, rx))).collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite gains"));
        for &(tx, g) in order.iter().take(per_rx) {
            if g <= 0.0 {
                break;
            }
            if choice[tx].is_none_or(|(_, bg)| g > bg) {
                choice[tx] = Some((rx, g));
            }
        }
    }
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    for (tx, c) in choice.iter().enumerate() {
        if let Some((rx, _)) = c {
            alloc.set_swing(tx, *rx, led.max_swing);
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SystemModel;
    use vlc_channel::RxOptics;
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_trace::Probe;

    fn scenario2() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        SystemModel::paper(ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        ))
    }

    #[test]
    fn siso_activates_one_tx_per_rx() {
        let m = scenario2();
        let a = siso_allocation(&m.channel, &m.led);
        assert_eq!(a.active_tx_count(), 4);
        // Paper: SISO operating point is 298 mW.
        let p = m.comm_power(&a);
        assert!((p - 0.298).abs() < 0.003, "SISO power {p} W");
    }

    #[test]
    fn siso_serves_every_rx() {
        let m = scenario2();
        let a = siso_allocation(&m.channel, &m.led);
        for (i, t) in m.throughput(&a).iter().enumerate() {
            assert!(*t > 0.0, "RX{} unserved", i + 1);
        }
    }

    #[test]
    fn siso_resolves_best_tx_conflicts() {
        // Two RXs directly under the same TX: both must end up served.
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.75, 2.25, 0.8),
            Pose::face_up(0.76, 2.25, 0.8),
        ];
        let ch = ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        );
        let led = vlc_led::LedParams::cree_xte_paper();
        let a = siso_allocation(&ch, &led);
        assert_eq!(a.active_tx_count(), 2);
        let m = SystemModel::paper(ch);
        assert!(m.throughput(&a).iter().all(|&t| t > 0.0));
    }

    #[test]
    fn dmiso_uses_whole_array_at_2_68_w() {
        let m = scenario2();
        let a = dmiso_allocation(&m.channel, &m.led);
        // Some corner TXs may reach nobody with 15° beams; the paper's
        // D-MISO burns the full array, ours burns every TX that can reach a
        // receiver. The power should be close to 36 × 74.42 mW = 2.68 W.
        let p = m.comm_power(&a);
        assert!(p > 2.0 && p <= 2.69, "D-MISO power {p} W");
    }

    #[test]
    fn dmiso_k_limits_per_rx_group_size() {
        let m = scenario2();
        let a = dmiso_k_allocation(&m.channel, &m.led, 9);
        // At most 9 TXs per RX → at most 36 active, and each active TX
        // serves exactly one RX at full swing.
        assert!(a.active_tx_count() <= 36);
        for t in 0..a.n_tx() {
            let s = a.tx_total_swing(t);
            assert!(s == 0.0 || (s - m.led.max_swing).abs() < 1e-12);
        }
        // Every RX group is bounded by 9.
        for rx in 0..a.n_rx() {
            let group = (0..a.n_tx()).filter(|&t| a.swing(t, rx) > 0.0).count();
            assert!(group <= 9, "RX{} has {group} serving TXs", rx + 1);
        }
    }

    #[test]
    fn geometric_dmiso_burns_the_full_array() {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rx_positions = vec![
            vlc_geom::Vec3::new(0.92, 0.92, 0.8),
            vlc_geom::Vec3::new(1.65, 0.65, 0.8),
            vlc_geom::Vec3::new(0.72, 1.93, 0.8),
            vlc_geom::Vec3::new(1.99, 1.69, 0.8),
        ];
        let m = scenario2();
        let a = dmiso_nearest_geometric(&grid, &rx_positions, &m.led);
        assert_eq!(a.active_tx_count(), 36);
        // Paper: D-MISO's operating point is 2.68 W.
        let p = m.comm_power(&a);
        assert!((p - 2.68).abs() < 0.01, "D-MISO power {p} W");
    }

    #[test]
    fn geometric_dmiso_wastes_power_vs_channel_aware() {
        // The geometric assignment achieves no more throughput than the
        // channel-aware one at the same (or higher) power.
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rx_positions = vec![
            vlc_geom::Vec3::new(0.92, 0.92, 0.8),
            vlc_geom::Vec3::new(1.65, 0.65, 0.8),
            vlc_geom::Vec3::new(0.72, 1.93, 0.8),
            vlc_geom::Vec3::new(1.99, 1.69, 0.8),
        ];
        let m = scenario2();
        let geo = dmiso_nearest_geometric(&grid, &rx_positions, &m.led);
        let aware = dmiso_allocation(&m.channel, &m.led);
        assert!(m.system_throughput(&geo) <= m.system_throughput(&aware) + 1.0);
        assert!(m.comm_power(&geo) >= m.comm_power(&aware) - 1e-9);
    }

    #[test]
    fn dmiso_outperforms_siso_in_throughput() {
        // More radiated signal power → more system throughput (at terrible
        // power efficiency — that's the paper's point).
        let m = scenario2();
        let siso = siso_allocation(&m.channel, &m.led);
        let dmiso = dmiso_k_allocation(&m.channel, &m.led, 9);
        assert!(m.system_throughput(&dmiso) > m.system_throughput(&siso));
    }
}
