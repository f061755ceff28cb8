//! Fig. 10: empirical CDF of the optimal swing levels of representative TXs
//! toward RX2, across random instances.
//!
//! The paper examines TX3, TX5, TX10 and TX15: TX10 (RX2's strongest
//! channel) has a steep CDF edge at full swing; TX5 follows with an offset;
//! TX3's CDF rises smoothly (it often sits at partial swings, but dropping
//! it costs only ~0.5 % of system throughput); TX15 is never used because
//! it would interfere too much.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_alloc::OptimalSolver;
use vlc_par::Pool;
use vlc_testbed::{random_instances, Deployment};
use vlc_trace::Probe;

/// Empirical CDF of one TX's optimal swing toward RX2.
#[derive(Debug, Clone, PartialEq)]
pub struct SwingCdf {
    /// Zero-based TX index.
    pub tx: usize,
    /// Sorted swing samples in amperes (one per instance).
    pub samples: Vec<f64>,
}

impl SwingCdf {
    /// The empirical CDF evaluated at `swing`.
    pub fn cdf(&self, swing: f64) -> f64 {
        let below = self.samples.partition_point(|&s| s <= swing);
        below as f64 / self.samples.len() as f64
    }

    /// Fraction of instances where this TX runs at ≥ 90 % of full swing.
    pub fn full_swing_share(&self, max_swing: f64) -> f64 {
        1.0 - self.cdf(0.9 * max_swing)
    }

    /// Fraction of instances where this TX is essentially off (< 2 %).
    pub fn off_share(&self, max_swing: f64) -> f64 {
        self.cdf(0.02 * max_swing)
    }
}

/// The Fig. 10 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// CDFs for the representative TXs.
    pub cdfs: Vec<SwingCdf>,
    /// Budget at which the instances were solved, in watts.
    pub budget_w: f64,
}

/// Solves `instances` random placements at one budget and collects the
/// swing samples of the requested TXs toward RX2.
pub fn run(txs: &[usize], budget_w: f64, instances: usize, seed: u64) -> Fig10 {
    assert!(!txs.is_empty() && instances > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let placements = random_instances(instances, 0.35, &mut rng);
    let solver = OptimalSolver::quick();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(instances); txs.len()];
    for placement in &placements {
        let model = Deployment::simulation(placement).model;
        let report = solver.solve(&model, budget_w, None, &Pool::from_env(), Probe::off());
        for (k, &tx) in txs.iter().enumerate() {
            samples[k].push(report.allocation.swing(tx, 1));
        }
    }
    let cdfs = txs
        .iter()
        .zip(samples)
        .map(|(&tx, mut s)| {
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite swings"));
            SwingCdf { tx, samples: s }
        })
        .collect();
    Fig10 { cdfs, budget_w }
}

impl Fig10 {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Fig. 10 — empirical CDF of optimal swings toward RX2 (budget {} W)\n",
            self.budget_w
        );
        for cdf in &self.cdfs {
            out.push_str(&format!(
                "  TX{:<3} off {:>5.1} %  partial {:>5.1} %  full {:>5.1} %\n",
                cdf.tx + 1,
                cdf.off_share(0.9) * 100.0,
                (1.0 - cdf.off_share(0.9) - cdf.full_swing_share(0.9)) * 100.0,
                cdf.full_swing_share(0.9) * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's representative TXs (zero-based): TX3, TX5, TX10, TX15.
    const PAPER_TXS: [usize; 4] = [2, 4, 9, 14];

    #[test]
    fn tx10_is_mostly_full_swing_and_tx15_mostly_off() {
        let fig = run(&PAPER_TXS, 1.2, 6, 11);
        let tx10 = &fig.cdfs[2];
        let tx15 = &fig.cdfs[3];
        assert!(
            tx10.full_swing_share(0.9) > tx15.full_swing_share(0.9),
            "TX10 {} vs TX15 {}",
            tx10.full_swing_share(0.9),
            tx15.full_swing_share(0.9)
        );
        assert!(
            tx15.off_share(0.9) > 0.5,
            "TX15 off share {}",
            tx15.off_share(0.9)
        );
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let fig = run(&[9], 1.0, 5, 12);
        let cdf = &fig.cdfs[0];
        assert_eq!(cdf.cdf(1.0), 1.0);
        assert!(cdf.cdf(0.0) <= cdf.cdf(0.45));
        assert!(cdf.cdf(0.45) <= cdf.cdf(0.9));
    }

    #[test]
    fn report_lists_requested_txs() {
        let fig = run(&[2, 9], 1.0, 3, 13);
        let rep = fig.report();
        assert!(rep.contains("TX3") && rep.contains("TX10"));
    }
}
