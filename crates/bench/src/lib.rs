//! Shared plumbing for the DenseVLC evaluation harness.
//!
//! `run_all` regenerates every paper artifact (table or figure) and the
//! design-choice ablations called out in `DESIGN.md`: all of them at
//! reduced scale, or the named ones at paper scale. With `--bench-out` it
//! also times each experiment plus the library hot paths ([`probes`]),
//! and `bench_compare` gates those timings against a baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec_lab;
pub mod probes;

/// Standard sweep of power budgets used by the figure jobs, in watts:
/// 0.15 W steps up to the full-array 2.7 W.
pub fn budget_sweep() -> Vec<f64> {
    (1..=18).map(|i| 0.15 * i as f64).collect()
}

/// Symbol-rate sweep for the Fig. 12 job, in symbols/s.
pub fn rate_sweep() -> Vec<f64> {
    vec![1e3, 2.5e3, 5e3, 10e3, 14.28e3, 20e3, 30e3, 40e3, 50e3, 60e3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_spans_the_paper_axis() {
        let b = budget_sweep();
        assert_eq!(b.len(), 18);
        assert!((b[0] - 0.15).abs() < 1e-12);
        assert!((b.last().unwrap() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn rate_sweep_covers_fig12_range() {
        let r = rate_sweep();
        assert_eq!(r.first().copied(), Some(1e3));
        assert_eq!(r.last().copied(), Some(60e3));
        assert!(r.contains(&14.28e3));
    }
}
