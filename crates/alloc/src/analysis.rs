//! Evaluation helpers: budget sweeps and power-efficiency comparisons.
//!
//! These drive the paper's evaluation figures: throughput-vs-power curves
//! (Fig. 8, 11, 18–20) and the SISO/D-MISO power-efficiency comparison
//! (Fig. 21).

use crate::heuristic::{allocate_first_k, rank_by_sjr, HeuristicConfig};
use crate::model::{Allocation, SystemModel};
use serde::{Deserialize, Serialize};

/// One point of a throughput-vs-power curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Total communication power of the allocation, in watts.
    pub power_w: f64,
    /// Per-receiver throughput in bit/s.
    pub per_rx_bps: Vec<f64>,
    /// System throughput in bit/s.
    pub system_bps: f64,
    /// Sum-log objective value.
    pub objective: f64,
    /// Number of communicating TXs.
    pub active_txs: usize,
}

impl SweepPoint {
    /// Evaluates an allocation under a model into a sweep point.
    pub fn evaluate(model: &SystemModel, alloc: &Allocation) -> Self {
        let per_rx_bps = model.throughput(alloc);
        SweepPoint {
            power_w: model.comm_power(alloc),
            system_bps: per_rx_bps.iter().sum(),
            objective: per_rx_bps.iter().map(|t| t.ln()).sum(),
            per_rx_bps,
            active_txs: alloc.active_tx_count(),
        }
    }
}

/// Sweeps the heuristic by activating the ranked TXs one at a time
/// (the §8.2 experimental procedure): point `k` has the top-`k` TXs at full
/// swing. Returns `n_tx + 1` points (including the empty allocation).
pub fn heuristic_sweep(model: &SystemModel, config: &HeuristicConfig) -> Vec<SweepPoint> {
    let ranking = rank_by_sjr(&model.channel, config);
    (0..=model.n_tx())
        .map(|k| {
            let alloc = allocate_first_k(&ranking, k, model.n_tx(), model.n_rx(), &model.led);
            SweepPoint::evaluate(model, &alloc)
        })
        .collect()
}

/// Result of comparing DenseVLC with a baseline at matched throughput or
/// matched power (Fig. 21's two headline numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyComparison {
    /// The baseline's operating power in watts.
    pub baseline_power_w: f64,
    /// The baseline's system throughput in bit/s.
    pub baseline_bps: f64,
    /// DenseVLC's power to match the baseline's throughput, in watts.
    pub densevlc_power_at_match_w: f64,
    /// Power-efficiency factor: baseline power / DenseVLC power at equal
    /// throughput (the paper's 2.3×).
    pub power_efficiency_gain: f64,
    /// DenseVLC's throughput at the baseline's *power* (bit/s), for
    /// throughput-gain comparisons (the paper's +45 % vs SISO).
    pub densevlc_bps_at_same_power: f64,
}

/// Finds, on a (power, throughput) curve sorted by power, the smallest power
/// that reaches `target_bps` (linear interpolation between points). Returns
/// `None` when the curve never reaches the target.
pub fn power_to_reach(curve: &[SweepPoint], target_bps: f64) -> Option<f64> {
    let mut prev: Option<&SweepPoint> = None;
    for p in curve {
        if p.system_bps >= target_bps {
            return Some(match prev {
                Some(q) if p.system_bps > q.system_bps => {
                    let t = (target_bps - q.system_bps) / (p.system_bps - q.system_bps);
                    q.power_w + t * (p.power_w - q.power_w)
                }
                _ => p.power_w,
            });
        }
        prev = Some(p);
    }
    None
}

/// Interpolates a curve's throughput at a given power.
pub fn throughput_at_power(curve: &[SweepPoint], power_w: f64) -> f64 {
    let mut prev: Option<&SweepPoint> = None;
    for p in curve {
        if p.power_w >= power_w {
            return match prev {
                Some(q) if p.power_w > q.power_w => {
                    let t = (power_w - q.power_w) / (p.power_w - q.power_w);
                    q.system_bps + t * (p.system_bps - q.system_bps)
                }
                _ => p.system_bps,
            };
        }
        prev = Some(p);
    }
    curve.last().map_or(0.0, |p| p.system_bps)
}

/// Finds the power-efficiency knee of a sweep curve: the smallest power at
/// which the marginal throughput per watt drops below `fraction` of the
/// curve's initial slope. The paper's §4.1 observes this knee at ≈ 1.2 W
/// ("the system throughput increases more slowly with the same extra power
/// consumption when `PC,tot` exceeds 1.2 W").
///
/// Returns `None` for curves with fewer than three points or no positive
/// initial slope.
pub fn knee_budget(curve: &[SweepPoint], fraction: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
    if curve.len() < 3 {
        return None;
    }
    let initial_slope =
        (curve[1].system_bps - curve[0].system_bps) / (curve[1].power_w - curve[0].power_w);
    if !(initial_slope.is_finite() && initial_slope > 0.0) {
        return None;
    }
    for w in curve.windows(2).skip(1) {
        let dp = w[1].power_w - w[0].power_w;
        if dp <= 0.0 {
            continue;
        }
        let slope = (w[1].system_bps - w[0].system_bps) / dp;
        if slope < fraction * initial_slope {
            return Some(w[0].power_w);
        }
    }
    None
}

/// Jain's fairness index over per-receiver throughputs: `(Σx)² / (n·Σx²)`,
/// 1.0 for perfectly equal service, `1/n` when one receiver hogs it all.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fairness of an empty set is undefined");
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Compares a DenseVLC heuristic curve against a fixed baseline allocation.
pub fn compare_efficiency(
    model: &SystemModel,
    densevlc_curve: &[SweepPoint],
    baseline: &Allocation,
) -> EfficiencyComparison {
    let baseline_power_w = model.comm_power(baseline);
    let baseline_bps = model.system_throughput(baseline);
    let densevlc_power_at_match_w =
        power_to_reach(densevlc_curve, baseline_bps).unwrap_or(f64::INFINITY);
    EfficiencyComparison {
        baseline_power_w,
        baseline_bps,
        densevlc_power_at_match_w,
        power_efficiency_gain: baseline_power_w / densevlc_power_at_match_w,
        densevlc_bps_at_same_power: throughput_at_power(densevlc_curve, baseline_power_w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dmiso_nearest_geometric, siso_allocation};
    use vlc_channel::{ChannelMatrix, RxOptics};
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
    fn sweep_has_monotone_power() {
        let m = scenario2();
        let curve = heuristic_sweep(&m, &HeuristicConfig::paper());
        assert_eq!(curve.len(), 37);
        for w in curve.windows(2) {
            assert!(w[1].power_w >= w[0].power_w - 1e-12);
        }
        assert_eq!(curve[0].power_w, 0.0);
    }

    #[test]
    fn early_sweep_points_grow_throughput() {
        // Adding the first few well-chosen TXs must increase system
        // throughput (interference only bites much later).
        let m = scenario2();
        let curve = heuristic_sweep(&m, &HeuristicConfig::paper());
        for k in 1..=4 {
            assert!(
                curve[k].system_bps > curve[k - 1].system_bps,
                "adding ranked TX {k} did not help"
            );
        }
    }

    #[test]
    fn power_to_reach_interpolates() {
        let mk = |power_w: f64, system_bps: f64| SweepPoint {
            power_w,
            per_rx_bps: vec![],
            system_bps,
            objective: 0.0,
            active_txs: 0,
        };
        let curve = vec![mk(0.0, 0.0), mk(1.0, 10.0), mk(2.0, 14.0)];
        assert_eq!(power_to_reach(&curve, 5.0), Some(0.5));
        assert_eq!(power_to_reach(&curve, 12.0), Some(1.5));
        assert_eq!(power_to_reach(&curve, 20.0), None);
        assert_eq!(throughput_at_power(&curve, 0.25), 2.5);
        assert_eq!(throughput_at_power(&curve, 5.0), 14.0);
    }

    #[test]
    fn knee_sits_near_the_papers_1_2_w() {
        // §4.1 observes diminishing returns beyond ≈ 1.2 W. With a 25 %
        // marginal-slope threshold, the knee of the Scenario-2 curve lands
        // in that neighbourhood.
        let m = scenario2();
        let curve = heuristic_sweep(&m, &HeuristicConfig::paper());
        let knee = knee_budget(&curve, 0.25).expect("a knee exists");
        assert!(
            (0.7..=2.0).contains(&knee),
            "knee at {knee} W (paper: ≈ 1.2 W)"
        );
    }

    #[test]
    fn knee_handles_degenerate_curves() {
        assert_eq!(knee_budget(&[], 0.2), None);
        let flat = vec![
            SweepPoint {
                power_w: 0.0,
                per_rx_bps: vec![],
                system_bps: 5.0,
                objective: 0.0,
                active_txs: 0,
            };
            4
        ];
        assert_eq!(knee_budget(&flat, 0.2), None);
    }

    #[test]
    fn jain_index_properties() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn jain_of_empty_panics() {
        jain_fairness(&[]);
    }

    #[test]
    fn throughput_at_power_handles_degenerate_curves() {
        // Empty curve → 0; single point → its value beyond its power.
        assert_eq!(throughput_at_power(&[], 1.0), 0.0);
        let one = vec![SweepPoint {
            power_w: 0.5,
            per_rx_bps: vec![],
            system_bps: 7.0,
            objective: 0.0,
            active_txs: 1,
        }];
        assert_eq!(throughput_at_power(&one, 0.1), 7.0);
        assert_eq!(throughput_at_power(&one, 2.0), 7.0);
        assert_eq!(power_to_reach(&one, 8.0), None);
    }

    #[test]
    fn sweep_points_report_active_tx_counts() {
        let m = scenario2();
        let curve = heuristic_sweep(&m, &HeuristicConfig::paper());
        for (k, p) in curve.iter().enumerate() {
            assert!(
                p.active_txs <= k,
                "point {k} claims {} active TXs",
                p.active_txs
            );
        }
    }

    #[test]
    fn densevlc_matches_siso_efficiency_and_beats_dmiso() {
        // The Fig. 21 structure: DenseVLC reaches D-MISO's throughput at a
        // fraction of its power, and at SISO's power it does at least as
        // well as SISO.
        let m = scenario2();
        let curve = heuristic_sweep(&m, &HeuristicConfig::paper());
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rx_positions = vec![
            vlc_geom::Vec3::new(0.92, 0.92, 0.8),
            vlc_geom::Vec3::new(1.65, 0.65, 0.8),
            vlc_geom::Vec3::new(0.72, 1.93, 0.8),
            vlc_geom::Vec3::new(1.99, 1.69, 0.8),
        ];
        let dmiso = dmiso_nearest_geometric(&grid, &rx_positions, &m.led);
        let cmp_dmiso = compare_efficiency(&m, &curve, &dmiso);
        assert!(
            cmp_dmiso.power_efficiency_gain > 1.4,
            "efficiency gain over D-MISO was only {}",
            cmp_dmiso.power_efficiency_gain
        );

        let siso = siso_allocation(&m.channel, &m.led);
        let cmp_siso = compare_efficiency(&m, &curve, &siso);
        assert!(
            cmp_siso.densevlc_bps_at_same_power >= 0.95 * cmp_siso.baseline_bps,
            "DenseVLC at SISO power: {} vs SISO {}",
            cmp_siso.densevlc_bps_at_same_power,
            cmp_siso.baseline_bps
        );
    }
}
