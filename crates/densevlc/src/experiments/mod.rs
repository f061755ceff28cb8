//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers).
//!
//! Every driver exposes a `run(...)` function returning a plain-data result
//! struct with a `report()` method that prints the same rows/series the
//! paper's artifact shows. `vlc-bench`'s `run_all` runs each driver as one
//! job, at reduced scale by default and at paper scale when named
//! (`run_all <id>`).

pub mod ablations;
pub mod complexity;
pub mod ext_adaptation;
pub mod ext_adaptive_kappa;
pub mod ext_arq;
pub mod ext_blockage;
pub mod ext_concurrent;
pub mod ext_density;
pub mod ext_dimming;
pub mod ext_ofdm;
pub mod ext_orientation;
pub mod fig04_taylor_error;
pub mod fig05_illuminance;
pub mod fig08_throughput_vs_power;
pub mod fig09_swing_levels;
pub mod fig10_swing_cdf;
pub mod fig11_heuristic_verification;
pub mod fig12_sync_delay;
pub mod fig18_20_scenarios;
pub mod fig21_baselines;
pub mod tab04_sync_error;
pub mod tab05_iperf;
pub mod validation_ber;

/// Formats a slice of `(x, y)` pairs as aligned rows.
pub(crate) fn format_series(header: &str, rows: &[(f64, f64)], unit: &str) -> String {
    let mut out = String::from(header);
    out.push('\n');
    for (x, y) in rows {
        out.push_str(&format!("  {x:>10.4}  {y:>12.4} {unit}\n"));
    }
    out
}

/// Mean and half-width of the 95 % confidence interval of a sample.
pub(crate) fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "need at least one sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci95_of_constant_sample_is_tight() {
        let (m, ci) = mean_ci95(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(ci, 0.0);
    }

    #[test]
    fn mean_ci95_singleton() {
        let (m, ci) = mean_ci95(&[5.0]);
        assert_eq!((m, ci), (5.0, 0.0));
    }

    #[test]
    fn format_series_contains_all_rows() {
        let s = format_series("hdr", &[(1.0, 2.0), (3.0, 4.0)], "u");
        assert!(s.starts_with("hdr\n"));
        assert_eq!(s.lines().count(), 3);
    }
}
