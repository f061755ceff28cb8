//! Turning a bench-gate failure into an explanation.
//!
//! `bench_compare` flags *phases* — leaf names of `run_all`'s probe
//! spans — but a phase name says nothing about which child owns the time.
//! [`explain_regressions`] cross-references the flagged phases against a
//! profile (and optionally a baseline profile) and prints, per
//! regression, the guilty subtree ranked by self time, with full call
//! paths.

use vlc_trace::Regression;

use crate::diff::ProfileDiff;
use crate::profile::{Profile, ProfileNode};

/// Paths relevant to one regressed phase: the phase's own paths plus
/// everything beneath them, ranked by self time (or by self-time delta
/// when a baseline profile is supplied).
fn phase_paths<'p>(profile: &'p Profile, phase: &str) -> Vec<&'p ProfileNode> {
    let prefixes: Vec<String> = profile
        .nodes_with_leaf(phase)
        .map(|n| n.path.clone())
        .collect();
    let mut hits: Vec<&ProfileNode> = profile
        .nodes
        .iter()
        .filter(|n| {
            prefixes
                .iter()
                .any(|p| n.path == *p || n.path.starts_with(&format!("{p};")))
        })
        .collect();
    hits.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.path.cmp(&b.path)));
    hits
}

/// Formats the explanation for a set of flagged regressions.
///
/// For each regression the output names the phase, then the top `top_n`
/// call paths inside it. With both profiles available the ranking uses
/// the self-time *delta* (what actually changed); with only the new
/// profile it falls back to absolute self time (where the time *is*).
/// Phases absent from the profile are reported as such rather than
/// silently skipped. Deterministic for deterministic inputs.
pub fn explain_regressions(
    regressions: &[Regression],
    new_profile: &Profile,
    old_profile: Option<&Profile>,
    top_n: usize,
) -> String {
    let mut out = String::new();
    let diff = old_profile.map(|old| ProfileDiff::between(old, new_profile));
    for r in regressions {
        out.push_str(&format!(
            "explain: {} regressed {:+.6}s (median {:.6}s -> {:.6}s)\n",
            r.name,
            r.new_median_s - r.old_median_s,
            r.old_median_s,
            r.new_median_s
        ));
        let paths = phase_paths(new_profile, &r.name);
        if paths.is_empty() {
            out.push_str(&format!(
                "  (no span named `{}` in the profile — was it traced?)\n",
                r.name
            ));
            continue;
        }
        match &diff {
            Some(diff) => {
                // Rank this phase's paths by how much *slower* they got.
                let mut rows: Vec<_> = diff
                    .entries
                    .iter()
                    .filter(|e| paths.iter().any(|p| p.path == e.path))
                    .collect();
                rows.sort_by(|a, b| {
                    b.delta_s()
                        .total_cmp(&a.delta_s())
                        .then(a.path.cmp(&b.path))
                });
                for e in rows.into_iter().take(top_n) {
                    out.push_str(&format!(
                        "  {:>+12.6}s self ({:.6}s -> {:.6}s, allocs {:+})  {}\n",
                        e.delta_s(),
                        e.old_self_s,
                        e.new_self_s,
                        e.alloc_delta,
                        e.path
                    ));
                }
            }
            None => {
                for n in paths.into_iter().take(top_n) {
                    out.push_str(&format!(
                        "  {:>12.6}s self  {:>7} calls  {:>9} allocs  {}\n",
                        n.self_s, n.calls, n.allocs, n.path
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileNode, PROF_SCHEMA};

    fn profile(rows: &[(&str, f64)]) -> Profile {
        let mut nodes: Vec<ProfileNode> = rows
            .iter()
            .map(|&(path, self_s)| ProfileNode {
                path: path.to_string(),
                calls: 1,
                incl_s: self_s,
                self_s,
                allocs: 0,
                deallocs: 0,
            })
            .collect();
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        Profile {
            schema: PROF_SCHEMA.to_string(),
            jobs: 1,
            nodes,
        }
    }

    fn regression(name: &str) -> Regression {
        Regression {
            name: name.to_string(),
            old_median_s: 0.010,
            new_median_s: 0.025,
            threshold_s: 0.012,
        }
    }

    #[test]
    fn names_the_guilty_child_path_without_a_baseline() {
        let p = profile(&[
            ("run;solve", 0.001),
            ("run;solve;rank", 0.020),
            ("run;solve;assign", 0.004),
            ("run;other", 0.9),
        ]);
        let text = explain_regressions(&[regression("solve")], &p, None, 2);
        assert!(text.contains("solve regressed +0.015000s"), "{text}");
        // Top path inside the phase, not the unrelated hot path.
        let rank_pos = text.find("run;solve;rank").expect("guilty path named");
        assert!(!text.contains("run;other"), "{text}");
        let assign_pos = text.find("run;solve;assign").expect("runner-up shown");
        assert!(rank_pos < assign_pos, "ranked by self time: {text}");
    }

    #[test]
    fn with_a_baseline_ranks_by_delta_not_absolute() {
        let old = profile(&[
            ("run;solve", 0.001),
            ("run;solve;rank", 0.018),
            ("run;solve;assign", 0.001),
        ]);
        let new = profile(&[
            ("run;solve", 0.001),
            ("run;solve;rank", 0.019),
            ("run;solve;assign", 0.013),
        ]);
        let text = explain_regressions(&[regression("solve")], &new, Some(&old), 1);
        // `assign` grew +0.012 vs `rank`'s +0.001: delta ranking puts
        // assign first even though rank has more absolute self time.
        assert!(text.contains("run;solve;assign"), "{text}");
        assert!(!text.contains("run;solve;rank"), "{text}");
    }

    #[test]
    fn missing_phases_are_reported_not_skipped() {
        let p = profile(&[("run", 1.0)]);
        let text = explain_regressions(&[regression("ghost")], &p, None, 3);
        assert!(text.contains("no span named `ghost`"), "{text}");
    }

    #[test]
    fn output_is_deterministic() {
        let p = profile(&[
            ("run;solve", 0.5),
            ("run;solve;a", 0.5),
            ("run;solve;b", 0.5),
        ]);
        let a = explain_regressions(&[regression("solve")], &p, None, 10);
        let b = explain_regressions(&[regression("solve")], &p, None, 10);
        assert_eq!(a, b);
        // Equal self times tie-break by path.
        let ia = a.find("run;solve;a").unwrap();
        let ib = a.find("run;solve;b").unwrap();
        assert!(ia < ib, "{a}");
    }
}
