//! The Signal-to-Jamming-Ratio ranking heuristic (paper §5, Algorithm 1).
//!
//! Solving the full nonlinear program takes minutes; the heuristic reduces
//! the complexity by ~99.96 % at a throughput loss of only ~1.8 % (κ = 1.3).
//! It ranks every TX by its custom Signal-to-Jamming Ratio
//! `SJR_{i,j} = H_{i,j}^κ / Σ_{j'} H_{i,j'}` — how good TX `i`'s channel to
//! RX `j` is relative to the interference TX `i` would create at everybody —
//! then assigns TXs in rank order at full swing (Insight 2) until the power
//! budget is exhausted.

use crate::model::Allocation;
use serde::{Deserialize, Serialize};
use vlc_channel::ChannelMatrix;
use vlc_led::{power::dynamic_resistance, LedParams};
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// Configuration of the ranking heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// The exponent κ weighting the desired channel against generated
    /// interference. The paper sweeps {1.0, 1.2, 1.3, 1.5} and finds 1.3
    /// best for its setup.
    pub kappa: f64,
    /// Optional per-TX κ override (paper §9, "personalized and adaptive κ").
    /// When set, entry `i` replaces `kappa` for TX `i`.
    pub per_tx_kappa: Option<Vec<f64>>,
    /// When true, the last TX that does not fit at full swing is assigned
    /// the partial swing the remaining budget affords. When false (strict
    /// Insight-2 operation) the leftover budget is simply unused.
    pub allow_partial_last: bool,
}

impl HeuristicConfig {
    /// The paper's best configuration: κ = 1.3, full-swing only.
    pub fn paper() -> Self {
        HeuristicConfig {
            kappa: 1.3,
            per_tx_kappa: None,
            allow_partial_last: false,
        }
    }

    /// A configuration with a specific κ.
    pub fn with_kappa(kappa: f64) -> Self {
        HeuristicConfig {
            kappa,
            ..HeuristicConfig::paper()
        }
    }

    fn kappa_for(&self, tx: usize) -> f64 {
        match &self.per_tx_kappa {
            Some(v) => v[tx],
            None => self.kappa,
        }
    }
}

/// One entry of the heuristic's output ranking: TX `tx` is assigned to RX
/// `rx` with the given SJR score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedTx {
    /// Zero-based TX index.
    pub tx: usize,
    /// Zero-based RX index this TX would serve.
    pub rx: usize,
    /// The SJR score at selection time.
    pub sjr: f64,
}

/// Algorithm 1: computes the SJR matrix and greedily ranks all TXs.
///
/// Returns a vector of length `n_tx`: the k-th element is the k-th best
/// (TX, RX) assignment. TXs whose channel is zero toward every RX receive an
/// SJR of zero and sink to the end of the ranking.
///
/// A TX row costs one `powf`, not one per RX: for κ > 0 the SJR is monotone
/// in the gain, so the row's best RX is found on the raw gains and only the
/// winner is raised to κ. Entries within a 1e-8 relative band of the best
/// gain are scored explicitly, which keeps the reference's first-maximum
/// tie-break bit for bit; κ ≤ 1e-6, non-finite κ and a non-normal winning
/// power or score fall back to scoring every entry. The row bests are then
/// ordered by one sort instead of a rescan per rank. The result is bitwise
/// identical to [`rank_by_sjr_scalar`] (`tests/rank_identity.rs`).
///
/// ```
/// use vlc_alloc::heuristic::{rank_by_sjr, HeuristicConfig};
/// use vlc_channel::ChannelMatrix;
///
/// // Two TXs, two RXs: TX0 is great for RX0, TX1 for RX1.
/// let h = ChannelMatrix::from_gains(2, 2, vec![1e-6, 1e-8, 1e-8, 1e-6]);
/// let ranking = rank_by_sjr(&h, &HeuristicConfig::paper());
/// assert_eq!(ranking.len(), 2);
/// assert_eq!(ranking[0].tx, ranking[0].rx); // each TX serves its receiver
/// ```
pub fn rank_by_sjr(channel: &ChannelMatrix, config: &HeuristicConfig) -> Vec<RankedTx> {
    if let Some(v) = &config.per_tx_kappa {
        assert_eq!(
            v.len(),
            channel.n_tx(),
            "per-TX κ vector has the wrong length"
        );
    }
    let n_tx = channel.n_tx();

    // Per-TX row best, computed once. The greedy extraction only ever
    // selects a row's best entry, and the reference scan keeps the
    // lexicographically-first entry attaining each maximum (strictly-greater
    // comparisons in ascending order), so precomputing (lowest-RX row best,
    // score) and ordering those by score, then TX, selects the exact same
    // sequence. `tests/rank_identity.rs` property-tests the equivalence
    // with [`rank_by_sjr_scalar`].
    let mut best_rx = vec![0usize; n_tx];
    let mut best_sjr = vec![0.0f64; n_tx];
    for i in 0..n_tx {
        let row = channel.tx_row(i);
        let denom: f64 = row.iter().sum();
        if denom <= 0.0 {
            // All-zero SJR row: the reference selects its RX 0 entry.
            continue;
        }
        (best_rx[i], best_sjr[i]) = row_best(row, config.kappa_for(i), denom);
    }

    let mut order: Vec<usize> = (0..n_tx).collect();
    if best_sjr.iter().any(|s| s.is_nan()) {
        // A NaN score never compares greater, so the reference's greedy
        // rounds are not a sort: replay them, taking the first untaken TX
        // unless a later one scores strictly higher.
        let mut tx_taken = vec![false; n_tx];
        for slot in order.iter_mut() {
            let mut best: Option<(usize, f64)> = None;
            for (i, &s) in best_sjr.iter().enumerate() {
                if tx_taken[i] {
                    continue;
                }
                if best.is_none_or(|(_, b)| s > b) {
                    best = Some((i, s));
                }
            }
            let (i, _) = best.expect("at least one unranked TX remains");
            tx_taken[i] = true;
            *slot = i;
        }
    } else {
        // Without NaNs each greedy round takes the highest score, lowest
        // TX first: a sort on (score descending, TX ascending).
        order.sort_unstable_by(|&a, &b| {
            best_sjr[b]
                .partial_cmp(&best_sjr[a])
                .expect("scores are not NaN")
                .then(a.cmp(&b))
        });
    }
    order
        .into_iter()
        .map(|i| RankedTx {
            tx: i,
            rx: best_rx[i],
            sjr: best_sjr[i],
        })
        .collect()
}

/// Relative half-width of the band below a row's largest gain inside which
/// [`row_best`] re-scores entries with `powf` instead of trusting the raw
/// gain order.
const TIE_BAND: f64 = 1e-8;

/// Smallest κ for which [`row_best`] takes its one-`powf` path. Below it
/// the band's score gap `κ · TIE_BAND` nears the rounding error, so the
/// row is scored in full.
const MIN_FAST_KAPPA: f64 = 1e-6;

/// The first RX attaining the row's largest `g^κ / denom`, with that score
/// — exactly what the reference's strictly-greater ascending scan keeps.
///
/// For κ > 0 the map `g ↦ g^κ / denom` is monotone, so the winner is found
/// on the raw gains and only it is raised to κ. Rounding can still tie (or,
/// for a merely faithfully rounded `powf`, reorder) gains that are nearly
/// equal, so every entry within [`TIE_BAND`] of the largest gain is scored
/// explicitly and compared the way the reference compares. An entry below
/// the band cannot reach the winner's score: its exact power lies a
/// relative `κ · TIE_BAND ≥ 1e-14` (≈ 45 ulps) below the winner's, `powf`
/// is faithfully rounded (under 1 ulp each), and a correctly rounded
/// division by the shared `denom` preserves a strict gap of more than a few
/// ulps as long as the winner's power and score are normal floats (below
/// `f64::MIN_POSITIVE` an ulp is no longer relative). Rows outside those
/// premises — κ tiny, non-positive or non-finite, or a winning power or
/// score that is zero, subnormal, infinite or NaN (e.g. `denom`
/// overflowing) — take the reference loop, one `powf` per entry.
fn row_best(row: &[f64], kappa: f64, denom: f64) -> (usize, f64) {
    if kappa.is_finite() && kappa > MIN_FAST_KAPPA {
        let mut top = 0usize;
        for (j, &g) in row.iter().enumerate().skip(1) {
            if g > row[top] {
                top = j;
            }
        }
        let top_pow = row[top].powf(kappa);
        let top_sjr = top_pow / denom;
        if top_pow.is_normal() && top_sjr.is_normal() {
            let band = row[top] * (1.0 - TIE_BAND);
            let (mut bj, mut bs) = (top, f64::NEG_INFINITY);
            for (j, &g) in row.iter().enumerate() {
                if g < band {
                    continue;
                }
                let s = if j == top {
                    top_sjr
                } else {
                    g.powf(kappa) / denom
                };
                if s > bs {
                    bj = j;
                    bs = s;
                }
            }
            return (bj, bs);
        }
    }
    let mut bj = 0usize;
    let mut bs = row[0].powf(kappa) / denom;
    for (j, &g) in row.iter().enumerate().skip(1) {
        let s = g.powf(kappa) / denom;
        if s > bs {
            bj = j;
            bs = s;
        }
    }
    (bj, bs)
}

/// The historical reference implementation of [`rank_by_sjr`]: materialize
/// the full SJR matrix, then rescan every unranked entry per round. Kept as
/// the bit-identity oracle for the fast row-best extraction above.
pub fn rank_by_sjr_scalar(channel: &ChannelMatrix, config: &HeuristicConfig) -> Vec<RankedTx> {
    if let Some(v) = &config.per_tx_kappa {
        assert_eq!(
            v.len(),
            channel.n_tx(),
            "per-TX κ vector has the wrong length"
        );
    }
    let n_tx = channel.n_tx();
    let n_rx = channel.n_rx();

    // SJR_{i,j} = H_{i,j}^κ / Σ_{j'} H_{i,j'} (zero when the TX reaches
    // no receiver at all).
    let mut sjr = vec![0.0f64; n_tx * n_rx];
    for i in 0..n_tx {
        let denom: f64 = (0..n_rx).map(|j| channel.gain(i, j)).sum();
        if denom <= 0.0 {
            continue;
        }
        let kappa = config.kappa_for(i);
        for j in 0..n_rx {
            sjr[i * n_rx + j] = channel.gain(i, j).powf(kappa) / denom;
        }
    }

    // Greedy extraction: take the global maximum, record it, remove the
    // whole TX row, repeat until every TX is ranked.
    let mut ranked = Vec::with_capacity(n_tx);
    let mut tx_taken = vec![false; n_tx];
    for _ in 0..n_tx {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n_tx {
            if tx_taken[i] {
                continue;
            }
            for j in 0..n_rx {
                let s = sjr[i * n_rx + j];
                let better = match best {
                    None => true,
                    Some((_, _, b)) => s > b,
                };
                if better {
                    best = Some((i, j, s));
                }
            }
        }
        let (i, j, s) = best.expect("at least one unranked TX remains");
        tx_taken[i] = true;
        ranked.push(RankedTx {
            tx: i,
            rx: j,
            sjr: s,
        });
    }
    ranked
}

/// Turns a ranking into an allocation under a power budget: TXs are switched
/// to full swing in rank order while the budget allows (Insight 1 + 2).
///
/// TXs with zero SJR are never activated — they reach no receiver (or, with
/// the paper's Insight 3, would only cause harm).
pub fn allocate_by_ranking(
    ranking: &[RankedTx],
    n_tx: usize,
    n_rx: usize,
    led: &LedParams,
    budget_w: f64,
    config: &HeuristicConfig,
) -> Allocation {
    let r = dynamic_resistance(led);
    let full = led.max_swing;
    let full_power = r * (full / 2.0) * (full / 2.0);
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    let mut spent = 0.0;
    for entry in ranking {
        if entry.sjr <= 0.0 {
            break;
        }
        if spent + full_power <= budget_w + 1e-12 {
            alloc.set_swing(entry.tx, entry.rx, full);
            spent += full_power;
        } else if config.allow_partial_last {
            let remaining = (budget_w - spent).max(0.0);
            if remaining > 0.0 {
                let swing = 2.0 * (remaining / r).sqrt();
                alloc.set_swing(entry.tx, entry.rx, swing.min(full));
            }
            break;
        } else {
            break;
        }
    }
    alloc
}

/// Convenience: rank and allocate in one call.
pub fn heuristic_allocation(
    channel: &ChannelMatrix,
    led: &LedParams,
    budget_w: f64,
    config: &HeuristicConfig,
) -> Allocation {
    heuristic_allocation_traced(
        channel,
        led,
        budget_w,
        config,
        &Registry::noop(),
        &Span::noop(),
    )
}

/// [`heuristic_allocation`] with telemetry and tracing: wall-time into the
/// `alloc.heuristic.solve_s` histogram (Fig. 11's cheap side), the number of
/// scored (TX, RX) candidates into `alloc.heuristic.candidates`, and — when
/// the budget activates no TX at all — an `alloc.heuristic.infeasible`
/// count plus an `infeasible_round` event. Records an
/// `alloc.heuristic.solve` span under `parent`, with `alloc.heuristic.rank`
/// and `alloc.heuristic.allocate` children for the two phases of
/// Algorithm 1. With a noop registry and parent this is the plain path
/// plus one branch per span site.
pub fn heuristic_allocation_traced(
    channel: &ChannelMatrix,
    led: &LedParams,
    budget_w: f64,
    config: &HeuristicConfig,
    telemetry: &Registry,
    parent: &Span,
) -> Allocation {
    let solve = parent.child("alloc.heuristic.solve");
    if solve.is_enabled() {
        solve.attr("kappa", &format!("{}", config.kappa));
        solve.attr("budget_w", &format!("{budget_w}"));
    }
    let _solve_span = telemetry.span("alloc.heuristic.solve_s");
    telemetry.counter("alloc.heuristic.solves").inc();
    telemetry
        .counter("alloc.heuristic.candidates")
        .add((channel.n_tx() * channel.n_rx()) as u64);
    let ranking = {
        let _rank = solve.child("alloc.heuristic.rank");
        rank_by_sjr(channel, config)
    };
    let alloc = {
        let _allocate = solve.child("alloc.heuristic.allocate");
        allocate_by_ranking(
            &ranking,
            channel.n_tx(),
            channel.n_rx(),
            led,
            budget_w,
            config,
        )
    };
    if alloc.active_tx_count() == 0 {
        telemetry.counter("alloc.heuristic.infeasible").inc();
        telemetry.event(
            "alloc.heuristic",
            "infeasible_round",
            &[("budget_w", &format!("{budget_w}"))],
        );
    }
    alloc
}

/// An allocation that activates exactly the first `k` ranked TXs at full
/// swing — used by the experimental §8.2 sweeps that "assign the TXs from
/// the ranked list one by one".
pub fn allocate_first_k(
    ranking: &[RankedTx],
    k: usize,
    n_tx: usize,
    n_rx: usize,
    led: &LedParams,
) -> Allocation {
    let mut alloc = Allocation::zeros(n_tx, n_rx);
    for entry in ranking.iter().take(k) {
        if entry.sjr <= 0.0 {
            break;
        }
        alloc.set_swing(entry.tx, entry.rx, led.max_swing);
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::RxOptics;
    use vlc_geom::{Pose, Room, TxGrid};

    fn scenario2_channel() -> ChannelMatrix {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper())
    }

    #[test]
    fn ranking_is_a_permutation_of_txs() {
        let ch = scenario2_channel();
        let ranking = rank_by_sjr(&ch, &HeuristicConfig::paper());
        assert_eq!(ranking.len(), 36);
        let mut seen = [false; 36];
        for e in &ranking {
            assert!(!seen[e.tx], "TX {} ranked twice", e.tx);
            seen[e.tx] = true;
            assert!(e.rx < 4);
        }
    }

    #[test]
    fn ranking_scores_are_non_increasing() {
        let ch = scenario2_channel();
        let ranking = rank_by_sjr(&ch, &HeuristicConfig::paper());
        for w in ranking.windows(2) {
            assert!(w[0].sjr >= w[1].sjr);
        }
    }

    #[test]
    fn top_ranked_tx_is_near_a_receiver() {
        let ch = scenario2_channel();
        let ranking = rank_by_sjr(&ch, &HeuristicConfig::paper());
        let top = ranking[0];
        // SJR trades signal for interference, so the winner need not be the
        // single strongest channel — but it must be in the same league as
        // the best TX of the RX it serves.
        let best = ch.gain(ch.best_tx_for(top.rx), top.rx);
        assert!(ch.gain(top.tx, top.rx) > best / 3.0);
    }

    #[test]
    fn budget_controls_active_tx_count() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let cfg = HeuristicConfig::paper();
        let full_power = dynamic_resistance(&led) * (led.max_swing / 2.0).powi(2);
        for n in [1usize, 4, 10] {
            let alloc = heuristic_allocation(&ch, &led, full_power * n as f64 + 1e-6, &cfg);
            assert_eq!(alloc.active_tx_count(), n, "budget for {n} TXs");
        }
    }

    #[test]
    fn partial_last_uses_leftover_budget() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let full_power = dynamic_resistance(&led) * (led.max_swing / 2.0).powi(2);
        let budget = full_power * 1.5;
        let strict = heuristic_allocation(&ch, &led, budget, &HeuristicConfig::paper());
        let partial = heuristic_allocation(
            &ch,
            &led,
            budget,
            &HeuristicConfig {
                allow_partial_last: true,
                ..HeuristicConfig::paper()
            },
        );
        assert_eq!(strict.active_tx_count(), 1);
        assert_eq!(partial.active_tx_count(), 2);
        // The partial TX's swing realizes exactly the leftover power.
        let r = dynamic_resistance(&led);
        let spent: f64 = (0..partial.n_tx())
            .map(|t| r * (partial.tx_total_swing(t) / 2.0).powi(2))
            .sum();
        assert!((spent - budget).abs() < 1e-9);
    }

    #[test]
    fn every_tx_serves_exactly_one_rx() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let alloc = heuristic_allocation(&ch, &led, 1.0, &HeuristicConfig::paper());
        for t in 0..alloc.n_tx() {
            if alloc.tx_total_swing(t) > 0.0 {
                assert!(alloc.dedicated_rx(t).is_some(), "TX {t} splits its swing");
            }
        }
    }

    #[test]
    fn zero_budget_activates_nothing() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let alloc = heuristic_allocation(&ch, &led, 0.0, &HeuristicConfig::paper());
        assert_eq!(alloc.active_tx_count(), 0);
    }

    #[test]
    fn infeasible_budget_is_counted_and_evented() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let telemetry = Registry::new();
        let alloc = heuristic_allocation_traced(
            &ch,
            &led,
            0.0,
            &HeuristicConfig::paper(),
            &telemetry,
            &Span::noop(),
        );
        assert_eq!(alloc.active_tx_count(), 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.heuristic.infeasible"), Some(1));
        let event = snap
            .events_of_kind("infeasible_round")
            .next()
            .expect("infeasible event recorded");
        assert_eq!(event.target, "alloc.heuristic");
        assert!(event
            .fields
            .iter()
            .any(|(k, v)| k == "budget_w" && v == "0"));
    }

    #[test]
    fn feasible_budget_raises_no_infeasible_signal() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let telemetry = Registry::new();
        let alloc = heuristic_allocation_traced(
            &ch,
            &led,
            1.0,
            &HeuristicConfig::paper(),
            &telemetry,
            &Span::noop(),
        );
        assert!(alloc.active_tx_count() > 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.heuristic.infeasible"), None);
        assert_eq!(snap.events_of_kind("infeasible_round").count(), 0);
        assert_eq!(snap.counter("alloc.heuristic.solves"), Some(1));
        assert!(snap
            .histogram("alloc.heuristic.solve_s")
            .is_some_and(|h| h.count == 1));
    }

    #[test]
    fn ranking_matches_scalar_reference_bitwise() {
        let ch = scenario2_channel();
        for kappa in [1.0, 1.2, 1.3, 1.5] {
            let cfg = HeuristicConfig::with_kappa(kappa);
            let fast = rank_by_sjr(&ch, &cfg);
            let scalar = rank_by_sjr_scalar(&ch, &cfg);
            assert_eq!(fast.len(), scalar.len());
            for (f, s) in fast.iter().zip(&scalar) {
                assert_eq!((f.tx, f.rx), (s.tx, s.rx), "κ={kappa}");
                assert_eq!(f.sjr.to_bits(), s.sjr.to_bits(), "κ={kappa}");
            }
        }
    }

    #[test]
    fn kappa_changes_the_ranking() {
        let ch = scenario2_channel();
        let low = rank_by_sjr(&ch, &HeuristicConfig::with_kappa(1.0));
        let high = rank_by_sjr(&ch, &HeuristicConfig::with_kappa(1.5));
        let order_low: Vec<usize> = low.iter().map(|e| e.tx).collect();
        let order_high: Vec<usize> = high.iter().map(|e| e.tx).collect();
        assert_ne!(order_low, order_high, "κ had no effect on the ranking");
    }

    #[test]
    fn per_tx_kappa_is_respected() {
        let ch = scenario2_channel();
        let uniform = rank_by_sjr(&ch, &HeuristicConfig::with_kappa(1.3));
        let per_tx = HeuristicConfig {
            kappa: 1.3,
            per_tx_kappa: Some(vec![1.3; 36]),
            allow_partial_last: false,
        };
        let same = rank_by_sjr(&ch, &per_tx);
        assert_eq!(
            uniform.iter().map(|e| (e.tx, e.rx)).collect::<Vec<_>>(),
            same.iter().map(|e| (e.tx, e.rx)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn allocate_first_k_matches_count() {
        let ch = scenario2_channel();
        let led = LedParams::cree_xte_paper();
        let ranking = rank_by_sjr(&ch, &HeuristicConfig::paper());
        for k in [0usize, 1, 5, 36] {
            let alloc = allocate_first_k(&ranking, k, 36, 4, &led);
            assert!(alloc.active_tx_count() <= k);
        }
        let all = allocate_first_k(&ranking, 36, 36, 4, &led);
        // Some corner TXs may have zero SJR; everyone activated is full swing.
        for t in 0..36 {
            let s = all.tx_total_swing(t);
            assert!(s == 0.0 || (s - led.max_swing).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn per_tx_kappa_wrong_length_panics() {
        let ch = scenario2_channel();
        let cfg = HeuristicConfig {
            kappa: 1.3,
            per_tx_kappa: Some(vec![1.3; 4]),
            allow_partial_last: false,
        };
        rank_by_sjr(&ch, &cfg);
    }
}
