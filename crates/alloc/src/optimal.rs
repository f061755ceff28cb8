//! The optimal swing-allocation solver (the paper's §3.4 nonlinear program).
//!
//! The paper solves Eq. 5–7 with Matlab's `fmincon` (165 s for 36 TX / 4 RX);
//! we implement a multi-start projected-gradient ascent with an analytic
//! gradient. The feasible set is
//!
//! * element-wise `0 ≤ I_sw^{j,k}`,
//! * per-TX total swing `Σ_k I_sw^{j,k} ≤ Isw,max` (Eq. 6),
//! * total communication power `Σ_j r·(Σ_k I^{j,k}/2)² ≤ P̄` (Eq. 7),
//!
//! and the projection used after each ascent step is: clamp to the
//! non-negative orthant, rescale over-limit rows onto the swing bound, then
//! rescale everything onto the power ball (power is homogeneous of degree 2
//! in the swings, so a global factor `√(P̄/P)` restores feasibility).
//! Backtracking line search guarantees monotone ascent of the projected
//! objective; multiple starts (heuristic warm starts across κ plus random
//! perturbations) handle the non-convexity introduced by interference.

use crate::heuristic::{heuristic_allocation, HeuristicConfig};
use crate::model::{Allocation, SystemModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vlc_channel::{ChannelMatrix, ChannelSoA, SparseChannelView};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::{Probe, Span};

/// Ascent iterations per `alloc.optimal.iters` child span: fine enough to
/// see where a start spends its time, coarse enough that a full solve adds
/// only a handful of records per start.
const ITER_BATCH: usize = 50;

/// Which objective/gradient kernels a solve runs on. Every public entry
/// point uses the fast engine; the dense engine is the historical reference
/// retained as the bit-identity oracle (`tests/sparse_solver_identity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Fast,
    Dense,
}

/// Per-solve immutable context for the fast kernels: the channel in both
/// orientations (padded TX-major rows for the objective's stream sweep, the
/// [`ChannelSoA`] transpose for the gradient's TX columns), the CSR
/// live-link lists ([`SparseChannelView`]) when some link is dead — the
/// zero pattern already drops every link outside a receiver's FOV, since
/// such a link has exactly-zero gain — and the model constants every dense
/// evaluation re-derived per call.
///
/// Every kernel reproduces the dense engine bit for bit: each product is
/// formed from the same operands in the same association, each division
/// stays last in its term, and every partial sum accumulates in the same
/// ascending order. The kernels only change *how often* a product is
/// formed and the loop nesting around it. The CSR arms skip zero-gain
/// terms of the non-negative stream/interference sums (`x + (+0.0) == x`
/// for `x ≥ +0.0`).
struct SolveContext {
    n_tx: usize,
    n_rx: usize,
    /// TX-major gain rows padded with zero gains to `padded_rx` (a
    /// multiple of [`RX_BLOCK`]): `tx_gains[t * padded_rx + i] ==
    /// channel.gain(t, i)` for `i < n_rx`.
    tx_gains: Vec<f64>,
    padded_rx: usize,
    soa: ChannelSoA,
    /// The live links when some gain is exactly zero; `None` when every
    /// link is live (the paper's wide-FOV geometries), where the kernels
    /// take branch-free contiguous sweeps instead of CSR indirection —
    /// same operations in the same order, so still bitwise.
    sparse: Option<SparseChannelView>,
    /// Stream-amplitude scale of Eq. 12: `R·η·r`.
    scale: f64,
    noise: f64,
    bandwidth_hz: f64,
    r: f64,
    max_swing: f64,
}

/// RX lanes per register block of the objective's stream sweep.
const RX_BLOCK: usize = 4;

impl SolveContext {
    fn new(model: &SystemModel) -> Self {
        let r = model.dyn_resistance();
        let all_live = (0..model.n_tx()).all(|t| model.channel.tx_row(t).iter().all(|&g| g != 0.0));
        let padded_rx = model.n_rx().div_ceil(RX_BLOCK) * RX_BLOCK;
        let mut tx_gains = vec![0.0; model.n_tx() * padded_rx];
        for (t, row) in tx_gains.chunks_exact_mut(padded_rx).enumerate() {
            row[..model.n_rx()].copy_from_slice(model.channel.tx_row(t));
        }
        SolveContext {
            n_tx: model.n_tx(),
            n_rx: model.n_rx(),
            tx_gains,
            padded_rx,
            soa: ChannelSoA::from_matrix(&model.channel),
            sparse: (!all_live).then(|| SparseChannelView::from_matrix(&model.channel)),
            scale: model.responsivity * model.led.wall_plug_efficiency * r,
            noise: model.noise.noise_power(),
            bandwidth_hz: model.noise.bandwidth_hz,
            r,
            max_swing: model.led.max_swing,
        }
    }

    /// `Σ_i ln(B·log2(1+SINR_i))` over the raw swing slice — bitwise equal
    /// to `SystemModel::sum_log_throughput` on the same swings.
    ///
    /// The all-live arm takes each stream `k` once: one sweep down the TX
    /// rows forms the half-swing `h_tk` once per row and adds
    /// `(g_ti·h_tk)·h_tk` to [`RX_BLOCK`] register sums at a time (the
    /// padding lanes see zero gains and are dropped). Each `(k, i)` sum
    /// runs in ascending-TX order, exactly the dense triple loop's.
    /// On top of the return value, the call leaves the stream amplitudes,
    /// denominators, SINRs, and throughput factors of `x` in `st` — exactly
    /// the state [`Self::gradient`] needs, so an accepted backtracking
    /// candidate's evaluation doubles as the next iteration's first two
    /// gradient passes.
    fn objective(&self, x: &[f64], st: &mut Scratch) -> f64 {
        let n_rx = self.n_rx;
        let ln2 = std::f64::consts::LN_2;
        // stream_at[k * n_rx + i]: amplitude of stream k at RX i.
        if let Some(view) = &self.sparse {
            st.stream_at.fill(0.0);
            for (t, row) in x.chunks_exact(n_rx).enumerate() {
                let (idx, gains) = view.tx_live(t);
                for (acc, &swing) in st.stream_at.chunks_exact_mut(n_rx).zip(row) {
                    let half = swing / 2.0;
                    for (&i, &g) in idx.iter().zip(gains) {
                        acc[i as usize] += g * half * half;
                    }
                }
            }
            for a in st.stream_at.iter_mut() {
                *a *= self.scale;
            }
        } else {
            for k in 0..n_rx {
                for block in (0..self.padded_rx).step_by(RX_BLOCK) {
                    let mut lane = [0.0f64; RX_BLOCK];
                    for (t, gains) in self.tx_gains.chunks_exact(self.padded_rx).enumerate() {
                        let half = x[t * n_rx + k] / 2.0;
                        for (a, &g) in lane.iter_mut().zip(&gains[block..block + RX_BLOCK]) {
                            *a += g * half * half;
                        }
                    }
                    let out = &mut st.stream_at[k * n_rx + block..(k + 1) * n_rx];
                    for (o, &a) in out.iter_mut().zip(&lane) {
                        *o = self.scale * a;
                    }
                }
            }
        }
        let mut obj = 0.0;
        for i in 0..n_rx {
            let mut interference = 0.0;
            for k in 0..n_rx {
                if k != i {
                    let b = st.stream_at[k * n_rx + i];
                    interference += b * b;
                }
            }
            st.denom[i] = self.noise + interference;
            let sig = st.stream_at[i * n_rx + i];
            let sinr = sig * sig / st.denom[i];
            st.sinr[i] = sinr;
            let t = (1.0 + sinr).log2();
            st.tfac[i] = if t > 0.0 {
                1.0 / (t * (1.0 + sinr) * ln2)
            } else {
                0.0
            };
            obj += (self.bandwidth_hz * t).ln();
        }
        obj
    }

    /// The analytic gradient into `st.grad`, returning its Euclidean norm —
    /// both bitwise equal to the dense `OptimalSolver::gradient` and the
    /// ascent's `√Σ g²` (squares summed in ascending index order).
    /// `st` must hold the stream/denominator/SINR state of `x` from an
    /// immediately preceding [`Self::objective`] call at the same point —
    /// the ascent's invariant (every gradient follows an accepted
    /// evaluation), which saves recomputing both shared passes.
    fn gradient(&self, x: &[f64], st: &mut Scratch) -> f64 {
        match &self.sparse {
            None => self.fill_gradient_all_live(x, st),
            Some(view) => {
                self.fill_gradient_sparse(view, x, st);
                st.grad.iter().map(|g| g * g).sum::<f64>().sqrt()
            }
        }
    }

    /// The gradient fill for an all-live channel, in three straight passes
    /// over contiguous TX columns.
    ///
    /// 1. The stream-independent interference prefix `((g_ji·tfac_i)·2)·SINR_i`,
    ///    once per `(RX i, TX j)` instead of once per stream.
    /// 2. Per stream `k`, signal minus interference for every TX: the jam
    ///    `Σ_{i≠k} (prefix·s_ki)/denom_i` in ascending `i`, then the signal
    ///    `(((g_jk·tfac_k)·2)·s_kk)/denom_k` minus it. Each division stays
    ///    last in its term.
    /// 3. `grad` in index order, `Σ g²` folded in as it is written.
    fn fill_gradient_all_live(&self, x: &[f64], st: &mut Scratch) -> f64 {
        let (n_tx, n_rx) = (self.n_tx, self.n_rx);
        for i in 0..n_rx {
            let (tfac, sinr) = (st.tfac[i], st.sinr[i]);
            let jam_pre = &mut st.jam_pre[i * n_tx..(i + 1) * n_tx];
            for (p, &g) in jam_pre.iter_mut().zip(self.soa.rx_row(i)) {
                *p = g * tfac * 2.0 * sinr;
            }
        }
        for k in 0..n_rx {
            let diff = &mut st.diff[k * n_tx..(k + 1) * n_tx];
            diff.fill(0.0);
            for i in (0..n_rx).filter(|&i| i != k) {
                let (s_ki, denom_i) = (st.stream_at[k * n_rx + i], st.denom[i]);
                for (d, &p) in diff.iter_mut().zip(&st.jam_pre[i * n_tx..]) {
                    *d += p * s_ki / denom_i;
                }
            }
            let (tfac_k, s_kk, denom_k) = (st.tfac[k], st.stream_at[k * n_rx + k], st.denom[k]);
            for (d, &g) in diff.iter_mut().zip(self.soa.rx_row(k)) {
                *d = g * tfac_k * 2.0 * s_kk / denom_k - *d;
            }
        }
        let cue = 1e-3 * self.scale;
        let mut sum_sq = 0.0;
        for (j, (grow, xrow)) in st
            .grad
            .chunks_exact_mut(n_rx)
            .zip(x.chunks_exact(n_rx))
            .enumerate()
        {
            for (k, (g, &swing)) in grow.iter_mut().zip(xrow).enumerate() {
                let diff = st.diff[k * n_tx + j];
                let dq = swing / 2.0;
                // Both arms are formed so the pick compiles to a select.
                let (off, on) = (cue * diff.max(0.0), dq * self.scale * diff);
                *g = if dq == 0.0 { off } else { on };
                sum_sq += *g * *g;
            }
        }
        sum_sq.sqrt()
    }

    /// The gradient fill over the CSR live lists: rows of TXs with no live
    /// link are exactly `+0.0` in the dense formula and are zero-filled
    /// without evaluation; jam sums skip zero-gain receivers (each skipped
    /// term is `+0.0` in a non-negative ascending sum).
    fn fill_gradient_sparse(&self, view: &SparseChannelView, x: &[f64], st: &mut Scratch) {
        let n_rx = self.n_rx;
        st.grad.fill(0.0);
        for j in 0..self.n_tx {
            if !view.tx_any_live(j) {
                continue;
            }
            let (jidx, jgains) = view.tx_live(j);
            for k in 0..n_rx {
                let dq = x[j * n_rx + k] / 2.0;
                let signal = self.soa.gain(j, k) * st.tfac[k] * 2.0 * st.stream_at[k * n_rx + k]
                    / st.denom[k];
                let mut jam = 0.0;
                for (&i, &g) in jidx.iter().zip(jgains) {
                    let i = i as usize;
                    if i == k {
                        continue;
                    }
                    jam += g * st.tfac[i] * 2.0 * st.sinr[i] * st.stream_at[k * n_rx + i]
                        / st.denom[i];
                }
                st.grad[j * n_rx + k] = if dq == 0.0 {
                    1e-3 * self.scale * (signal - jam).max(0.0)
                } else {
                    dq * self.scale * (signal - jam)
                };
            }
        }
    }
}

/// Reusable per-start buffers for [`OptimalSolver`]'s fast ascent: the
/// dense path allocated a fresh gradient (plus `n_rx` inner vectors) per
/// iteration and a fresh candidate clone per backtracking step.
struct Scratch {
    stream_at: Vec<f64>,
    denom: Vec<f64>,
    sinr: Vec<f64>,
    tfac: Vec<f64>,
    /// The all-live gradient's RX-major interference prefixes and
    /// per-stream signal-minus-jam columns, `n_rx × n_tx` each.
    jam_pre: Vec<f64>,
    diff: Vec<f64>,
    grad: Vec<f64>,
    cand: Vec<f64>,
}

impl Scratch {
    fn new(n_tx: usize, n_rx: usize) -> Self {
        Scratch {
            stream_at: vec![0.0; n_rx * n_rx],
            denom: vec![0.0; n_rx],
            sinr: vec![0.0; n_rx],
            tfac: vec![0.0; n_rx],
            jam_pre: vec![0.0; n_tx * n_rx],
            diff: vec![0.0; n_tx * n_rx],
            grad: vec![0.0; n_tx * n_rx],
            cand: vec![0.0; n_tx * n_rx],
        }
    }
}

/// The projection's non-negativity clamp of one swing: the value itself
/// when it is finite and `≥ 0` (`-0.0` included), else literal `0.0` —
/// exactly the historical `is_finite() && v >= 0.0` test. The range form
/// compiles to two float compares, so a pass of it vectorizes.
#[inline]
fn non_negative(v: f64) -> f64 {
    if (0.0..=f64::MAX).contains(&v) {
        v
    } else {
        0.0
    }
}

/// The feasible-set projection over a raw swing slice (see module docs) —
/// the one implementation behind both engines, operation-for-operation the
/// historical `Allocation`-based projection.
fn project_slice(x: &mut [f64], n_rx: usize, max_swing: f64, r: f64, budget_w: f64) {
    for v in x.iter_mut() {
        *v = non_negative(*v);
    }
    project_rows(x, n_rx, max_swing, r, budget_w);
}

/// The projection after the clamp: per-TX swing cap and power total in one
/// sweep, then the power ball. The historical form ran a second full pass
/// re-summing every row for the power ball; an uncapped row's re-sum is
/// bit-identical to the first (same elements, same fold), so only capped
/// rows are re-summed, and the per-row powers accumulate in the same
/// ascending-row order.
fn project_rows(x: &mut [f64], n_rx: usize, max_swing: f64, r: f64, budget_w: f64) {
    let mut p = 0.0;
    for row in x.chunks_exact_mut(n_rx) {
        let mut total: f64 = row.iter().sum();
        if total > max_swing {
            let f = max_swing / total;
            for v in row.iter_mut() {
                *v *= f;
            }
            total = row.iter().sum();
        }
        let half = total / 2.0;
        p += r * half * half;
    }
    // Power ball: power scales quadratically under a global factor.
    if p > budget_w {
        let f = (budget_w / p).sqrt();
        for v in x.iter_mut() {
            *v *= f;
        }
    }
}

/// Solver configuration.
///
/// ```
/// use vlc_alloc::{OptimalSolver, model::SystemModel};
/// use vlc_channel::ChannelMatrix;
/// use vlc_par::Pool;
/// use vlc_trace::Probe;
///
/// // A toy 2-TX / 2-RX system with clean, symmetric channels.
/// let h = ChannelMatrix::from_gains(2, 2, vec![1e-6, 0.0, 0.0, 1e-6]);
/// let model = SystemModel::paper(h);
/// let report = OptimalSolver::quick().solve(&model, 0.15, None, &Pool::from_env(), Probe::off());
/// assert!(model.is_feasible(&report.allocation, 0.15));
/// assert!(report.objective.is_finite()); // both receivers served
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalSolver {
    /// Maximum gradient-ascent iterations per start.
    pub max_iters: usize,
    /// Number of random restarts (in addition to the warm starts).
    pub random_starts: usize,
    /// Convergence tolerance on the relative objective improvement.
    pub tol: f64,
    /// RNG seed for reproducible restarts.
    pub seed: u64,
}

impl Default for OptimalSolver {
    fn default() -> Self {
        OptimalSolver {
            max_iters: 400,
            random_starts: 4,
            tol: 1e-9,
            seed: 0x5eed,
        }
    }
}

/// Outcome of a solve: the best allocation plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReport {
    /// The best feasible allocation found.
    pub allocation: Allocation,
    /// Its objective value `Σ ln(B·log2(1+SINR))`.
    pub objective: f64,
    /// Its total communication power in watts.
    pub power_w: f64,
    /// Total ascent iterations across all starts.
    pub iterations: usize,
    /// Receivers no TX reaches (an all-zero gain column): they get all-zero
    /// columns, and `objective` covers the others. When every receiver is
    /// unserved the allocation is all zero and `objective` is −∞.
    pub unserved: Vec<usize>,
}

impl OptimalSolver {
    /// A faster, slightly less thorough configuration for sweeps.
    pub fn quick() -> Self {
        OptimalSolver {
            max_iters: 150,
            random_starts: 2,
            tol: 1e-7,
            seed: 0x5eed,
        }
    }

    /// Solves the program for `model` under a communication power budget.
    ///
    /// `warm` is a previous allocation (projected back onto the feasible
    /// set) used as an extra ascent start. On a mobility tick the channel
    /// changes slightly, so the previous plan is usually in the optimum's
    /// basin: the warm start converges in a few iterations and — being
    /// start 0 in the tie-keeps-lowest-index reduction — wins ties,
    /// keeping plans stable across ticks. With `warm: None` this is
    /// exactly the cold solve. A used seed bumps `alloc.optimal.warm_starts`
    /// and tags the solve span `warm=true`.
    ///
    /// Telemetry into `probe.telemetry`: wall-time into the
    /// `alloc.optimal.solve_s` histogram, plus `alloc.optimal.solves`,
    /// `.iterations`, `.starts`, and `.obj_evals` counters — the cost side
    /// of the paper's Fig. 11 optimal-vs-heuristic comparison. Receivers no
    /// TX reaches count in `alloc.optimal.unserved` (see
    /// [`SolveReport::unserved`]). A result that activates no TX or has no
    /// finite objective counts as `alloc.optimal.infeasible` and emits an
    /// `infeasible_round` event.
    ///
    /// Each start's projected-gradient ascent is an independent work item
    /// on `pool`; the winner is selected by scanning the per-start results
    /// in start order (first finite objective seeds the incumbent, only a
    /// strictly greater objective replaces it), which is exactly the
    /// sequential selection rule — so ties keep the lowest start index and
    /// the report is bitwise identical for any worker count. No pool is
    /// created inside the solve, so a long-running control plane can hoist
    /// one pool across every solve.
    ///
    /// Tracing: an `alloc.optimal.solve` span under `probe.span`, with one
    /// `alloc.optimal.start` child per ascent start (indexed by start, so
    /// the span tree is worker-count independent) and an
    /// `alloc.optimal.iters` grandchild per batch of 50 ascent iterations.
    ///
    /// # Panics
    /// Panics if `budget_w` is non-positive (a zero budget admits only the
    /// all-zero allocation, whose objective is −∞).
    pub fn solve(
        &self,
        model: &SystemModel,
        budget_w: f64,
        warm: Option<&Allocation>,
        pool: &Pool,
        probe: Probe<'_>,
    ) -> SolveReport {
        self.solve_core(model, budget_w, warm, pool, probe, Engine::Fast)
    }

    /// [`Self::solve`] forced through the historical dense kernels
    /// (per-iteration gradient allocation, AoS gain loads, no live-link
    /// skipping). Retained as the bit-identity oracle for the sparse/SoA
    /// fast engine — `tests/sparse_solver_identity.rs` asserts both produce
    /// the same report to the last bit — and for perf A/Bs.
    pub fn solve_dense(&self, model: &SystemModel, budget_w: f64, pool: &Pool) -> SolveReport {
        self.solve_core(model, budget_w, None, pool, Probe::off(), Engine::Dense)
    }

    /// The one solve implementation behind every entry point: with
    /// `warm: None` it is byte-for-byte the historical cold solve (same
    /// starts, same spans, same counters), and the fast engine reproduces
    /// the dense engine's report bit for bit.
    ///
    /// A receiver whose gain column is all zero has zero throughput under
    /// every allocation, so every objective would be −∞. Such receivers are
    /// counted in `alloc.optimal.unserved`, listed in
    /// [`SolveReport::unserved`] with all-zero columns, and the program is
    /// solved over the rest.
    fn solve_core(
        &self,
        model: &SystemModel,
        budget_w: f64,
        warm: Option<&Allocation>,
        pool: &Pool,
        probe: Probe<'_>,
        engine: Engine,
    ) -> SolveReport {
        let (telemetry, parent) = (probe.telemetry, probe.span);
        assert!(budget_w > 0.0, "power budget must be positive");
        let trace = parent.child("alloc.optimal.solve");
        if trace.is_enabled() {
            trace.attr("budget_w", &format!("{budget_w}"));
        }
        let _solve_span = telemetry.span("alloc.optimal.solve_s");
        telemetry.counter("alloc.optimal.solves").inc();
        let (n_tx, n_rx) = (model.n_tx(), model.n_rx());
        let unserved: Vec<usize> = (0..n_rx)
            .filter(|&rx| (0..n_tx).all(|t| model.channel.gain(t, rx) == 0.0))
            .collect();
        let (allocation, objective, total_iters, obj_evals) = if unserved.is_empty() {
            self.search(model, budget_w, warm, telemetry, pool, &trace, engine)
        } else {
            telemetry
                .counter("alloc.optimal.unserved")
                .add(unserved.len() as u64);
            let served: Vec<usize> = (0..n_rx).filter(|rx| !unserved.contains(rx)).collect();
            let mut allocation = Allocation::zeros(n_tx, n_rx);
            if served.is_empty() {
                (allocation, f64::NEG_INFINITY, 0, 0)
            } else {
                // Row-major `n_tx × served` values of a full-width matrix.
                let served_columns = |value: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
                    (0..n_tx)
                        .flat_map(|t| served.iter().map(move |&rx| value(t, rx)))
                        .collect()
                };
                let gains = served_columns(&|t, rx| model.channel.gain(t, rx));
                let sub = SystemModel {
                    channel: ChannelMatrix::from_gains(n_tx, served.len(), gains),
                    ..model.clone()
                };
                let warm = warm
                    .filter(|w| w.n_tx() == n_tx && w.n_rx() == n_rx)
                    .map(|w| {
                        let swings = served_columns(&|t, rx| w.swing(t, rx));
                        Allocation::from_swings(n_tx, served.len(), swings)
                    });
                let (sub_alloc, objective, iters, evals) = self.search(
                    &sub,
                    budget_w,
                    warm.as_ref(),
                    telemetry,
                    pool,
                    &trace,
                    engine,
                );
                for (col, &rx) in served.iter().enumerate() {
                    for t in 0..n_tx {
                        allocation.set_swing(t, rx, sub_alloc.swing(t, col));
                    }
                }
                (allocation, objective, iters, evals)
            }
        };
        let power_w = model.comm_power(&allocation);
        telemetry
            .counter("alloc.optimal.iterations")
            .add(total_iters as u64);
        telemetry
            .counter("alloc.optimal.obj_evals")
            .add(obj_evals as u64);
        if !objective.is_finite() || allocation.active_tx_count() == 0 {
            telemetry.counter("alloc.optimal.infeasible").inc();
            telemetry.event(
                "alloc.optimal",
                "infeasible_round",
                &[("budget_w", &format!("{budget_w}"))],
            );
        }
        SolveReport {
            allocation,
            objective,
            power_w,
            iterations: total_iters,
            unserved,
        }
    }

    /// The multi-start ascent over a model whose every receiver has a live
    /// link: the best allocation, its objective, and the iterations and
    /// objective evaluations spent.
    ///
    /// When no start reaches a finite objective — a crowded room where two
    /// receivers share a best TX whose swing the first one's share already
    /// fills, so the second gets nothing — one more start gives each
    /// receiver in turn its best TX that still has swing room, and its
    /// ascent is the result.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        model: &SystemModel,
        budget_w: f64,
        warm: Option<&Allocation>,
        telemetry: &Registry,
        pool: &Pool,
        trace: &Span,
        engine: Engine,
    ) -> (Allocation, f64, usize, usize) {
        let ctx = match engine {
            Engine::Fast => Some(SolveContext::new(model)),
            Engine::Dense => None,
        };
        let n_tx = model.n_tx();
        let n_rx = model.n_rx();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut starts: Vec<Allocation> = Vec::new();
        // Warm starts: the heuristic at several κ values, projected onto the
        // budget (cheap and usually in the right basin).
        for kappa in [1.0, 1.2, 1.3, 1.5] {
            let cfg = HeuristicConfig {
                allow_partial_last: true,
                ..HeuristicConfig::with_kappa(kappa)
            };
            let a = heuristic_allocation(&model.channel, &model.led, budget_w, &cfg, Probe::off());
            if model.sum_log_throughput(&a).is_finite() {
                starts.push(a);
            }
        }
        // Baseline start: every RX served by its best TX with an equal share
        // of the budget. Finite unless two RXs share a best TX that the
        // first one's share fills (see the fallback below).
        starts.push(self.equal_share_start(model, budget_w, false));
        // Random perturbations of the equal-share start.
        for _ in 0..self.random_starts {
            let mut a = self.equal_share_start(model, budget_w, false);
            for v in a.as_mut_slice() {
                if *v > 0.0 {
                    *v *= rng.gen_range(0.25..1.0);
                }
            }
            // Give a few random extra TXs a nudge so restarts explore
            // different activation patterns.
            for _ in 0..n_tx / 4 {
                let t = rng.gen_range(0..n_tx);
                let r = rng.gen_range(0..n_rx);
                let idx = t * n_rx + r;
                a.as_mut_slice()[idx] += rng.gen_range(0.0..model.led.max_swing / 4.0);
            }
            self.project(model, &mut a, budget_w);
            starts.push(a);
        }
        // The warm seed goes first: the reduction keeps the lowest start
        // index on ties, so an equally-good warm start wins and the plan
        // stays stable across ticks.
        if let Some(prev) = warm {
            if prev.n_tx() == n_tx && prev.n_rx() == n_rx {
                let mut a = prev.clone();
                self.project(model, &mut a, budget_w);
                starts.insert(0, a);
                telemetry.counter("alloc.optimal.warm_starts").inc();
                trace.attr("warm", "true");
            }
        }

        let mut best: Option<(Allocation, f64)> = None;
        let mut total_iters = 0;
        let mut obj_evals = starts.len(); // one initial evaluation per start
        telemetry
            .counter("alloc.optimal.starts")
            .add(starts.len() as u64);
        if trace.is_enabled() {
            trace.attr("starts", &starts.len().to_string());
        }
        // Fan the independent ascents out, then reduce in start order: the
        // incumbent only changes on a strictly greater objective, so ties
        // keep the lowest start index — same as the sequential loop.
        let ascents = pool.map_indexed(starts.len(), |i| {
            self.ascend_start(model, ctx.as_ref(), &starts[i], budget_w, trace, i)
        });
        for (alloc, obj, iters, evals) in ascents {
            total_iters += iters;
            obj_evals += evals;
            let better = match &best {
                None => obj.is_finite(),
                Some((_, b)) => obj > *b,
            };
            if better {
                best = Some((alloc, obj));
            }
        }
        if let Some((alloc, obj)) = best {
            return (alloc, obj, total_iters, obj_evals);
        }
        telemetry.counter("alloc.optimal.starts").inc();
        let start = self.equal_share_start(model, budget_w, true);
        let (alloc, obj, iters, evals) =
            self.ascend_start(model, ctx.as_ref(), &start, budget_w, trace, starts.len());
        (alloc, obj, total_iters + iters, obj_evals + 1 + evals)
    }

    /// One start's projected ascent, under an `alloc.optimal.start` span
    /// indexed by start (so the span tree is worker-count independent).
    fn ascend_start(
        &self,
        model: &SystemModel,
        ctx: Option<&SolveContext>,
        start: &Allocation,
        budget_w: f64,
        trace: &Span,
        index: usize,
    ) -> (Allocation, f64, usize, usize) {
        let start_span = trace.child_indexed("alloc.optimal.start", index);
        let mut start = start.clone();
        self.project(model, &mut start, budget_w);
        let out = match ctx {
            Some(ctx) => self.ascend_fast(ctx, start, budget_w, &start_span),
            None => self.ascend(model, start, budget_w, &start_span),
        };
        if start_span.is_enabled() {
            start_span.attr("iters", &out.2.to_string());
        }
        out
    }

    /// Equal-budget-share start: each RX in turn gets the swing its share
    /// of the budget affords, clipped to the swing room left on its TX.
    /// The TX is the RX's best one, so two RXs sharing a best TX split its
    /// range and the second may get nothing; with `room_aware` (the
    /// crowded-room fallback) it is the RX's best TX that still has room.
    fn equal_share_start(
        &self,
        model: &SystemModel,
        budget_w: f64,
        room_aware: bool,
    ) -> Allocation {
        let (n_tx, n_rx) = (model.n_tx(), model.n_rx());
        let max_swing = model.led.max_swing;
        let r = model.dyn_resistance();
        let share = budget_w / n_rx as f64;
        let swing = (2.0 * (share / r).sqrt()).min(max_swing);
        let mut a = Allocation::zeros(n_tx, n_rx);
        for rx in 0..n_rx {
            let tx = if room_aware {
                let gain = |t: usize| model.channel.gain(t, rx);
                (0..n_tx)
                    .filter(|&t| gain(t) > 0.0 && a.tx_total_swing(t) < max_swing)
                    .max_by(|&p, &q| gain(p).total_cmp(&gain(q)))
            } else {
                Some(model.channel.best_tx_for(rx))
            };
            if let Some(tx) = tx {
                let room = (max_swing - a.tx_total_swing(tx)).max(0.0);
                a.set_swing(tx, rx, swing.min(room));
            }
        }
        a
    }

    /// Projected gradient ascent with backtracking line search. Returns the
    /// final point, its objective, the iteration count, and the number of
    /// objective evaluations spent (the dominant cost term).
    fn ascend(
        &self,
        model: &SystemModel,
        mut x: Allocation,
        budget_w: f64,
        span: &Span,
    ) -> (Allocation, f64, usize, usize) {
        let mut f = model.sum_log_throughput(&x);
        let mut step = 0.1 * model.led.max_swing;
        let mut iters = 0;
        let mut evals = 1;
        // RAII handle for the current iteration batch: reassigning it every
        // ITER_BATCH iterations closes the previous batch span. Underscore
        // name because on the untraced path the handle is never read.
        let mut _batch = Span::noop();
        for it in 0..self.max_iters {
            if span.is_enabled() && it % ITER_BATCH == 0 {
                let b = span.child("alloc.optimal.iters");
                b.attr("from_iter", &it.to_string());
                _batch = b;
            }
            iters += 1;
            let grad = self.gradient(model, &x);
            let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < 1e-14 {
                break;
            }
            // Backtracking: try the step, halve until the projected point
            // improves the objective.
            let mut improved = false;
            let mut local_step = step;
            for _ in 0..30 {
                let mut cand = x.clone();
                for (v, g) in cand.as_mut_slice().iter_mut().zip(&grad) {
                    *v += local_step * g / gnorm;
                }
                self.project(model, &mut cand, budget_w);
                let fc = model.sum_log_throughput(&cand);
                evals += 1;
                if fc > f {
                    let rel = (fc - f) / f.abs().max(1e-12);
                    x = cand;
                    f = fc;
                    improved = true;
                    // Grow the step again after a success.
                    step = (local_step * 1.5).min(model.led.max_swing);
                    if rel < self.tol {
                        return (x, f, iters, evals);
                    }
                    break;
                }
                local_step *= 0.5;
            }
            if !improved {
                break;
            }
        }
        (x, f, iters, evals)
    }

    /// [`Self::ascend`] on the fast kernels: identical control flow driven
    /// by bitwise-identical objective and gradient values, so the returned
    /// point, objective, iteration count, and evaluation count all match
    /// the dense engine exactly — without its per-iteration allocations.
    fn ascend_fast(
        &self,
        ctx: &SolveContext,
        start: Allocation,
        budget_w: f64,
        span: &Span,
    ) -> (Allocation, f64, usize, usize) {
        let mut st = Scratch::new(ctx.n_tx, ctx.n_rx);
        let mut cand = std::mem::take(&mut st.cand);
        let mut x: Vec<f64> = start.as_slice().to_vec();
        let mut f = ctx.objective(&x, &mut st);
        let mut step = 0.1 * ctx.max_swing;
        let mut iters = 0;
        let mut evals = 1;
        let mut _batch = Span::noop();
        for it in 0..self.max_iters {
            if span.is_enabled() && it % ITER_BATCH == 0 {
                let b = span.child("alloc.optimal.iters");
                b.attr("from_iter", &it.to_string());
                _batch = b;
            }
            iters += 1;
            let gnorm = ctx.gradient(&x, &mut st);
            if gnorm < 1e-14 {
                break;
            }
            let mut improved = false;
            let mut local_step = step;
            for _ in 0..30 {
                // One branch-free pass forms `x + step·g/gnorm` (the value
                // the dense path forms by cloning `x` then adding in place)
                // and clamps it; the row pass finishes the projection.
                for ((c, &xv), &g) in cand.iter_mut().zip(&x).zip(&st.grad) {
                    *c = non_negative(xv + local_step * g / gnorm);
                }
                project_rows(&mut cand, ctx.n_rx, ctx.max_swing, ctx.r, budget_w);
                let fc = ctx.objective(&cand, &mut st);
                evals += 1;
                if fc > f {
                    let rel = (fc - f) / f.abs().max(1e-12);
                    x.copy_from_slice(&cand);
                    f = fc;
                    improved = true;
                    step = (local_step * 1.5).min(ctx.max_swing);
                    if rel < self.tol {
                        return (
                            Allocation::from_swings(ctx.n_tx, ctx.n_rx, x),
                            f,
                            iters,
                            evals,
                        );
                    }
                    break;
                }
                local_step *= 0.5;
            }
            if !improved {
                break;
            }
        }
        (
            Allocation::from_swings(ctx.n_tx, ctx.n_rx, x),
            f,
            iters,
            evals,
        )
    }

    /// Analytic gradient of `Σ_i ln(B·log2(1+SINR_i))` with respect to each
    /// swing `I_sw^{j,k}` (see module docs; verified against finite
    /// differences in the tests).
    fn gradient(&self, model: &SystemModel, x: &Allocation) -> Vec<f64> {
        let n_tx = x.n_tx();
        let n_rx = x.n_rx();
        let r = model.dyn_resistance();
        let scale = model.responsivity * model.led.wall_plug_efficiency * r;
        let noise = model.noise.noise_power();
        let ln2 = std::f64::consts::LN_2;

        // stream_at[k][i]: amplitude of stream k measured at RX i.
        let mut stream_at = vec![vec![0.0f64; n_rx]; n_rx];
        for (k, row) in stream_at.iter_mut().enumerate() {
            for (i, slot) in row.iter_mut().enumerate() {
                let mut sum = 0.0;
                for t in 0..n_tx {
                    let half = x.swing(t, k) / 2.0;
                    sum += model.channel.gain(t, i) * half * half;
                }
                *slot = scale * sum;
            }
        }
        // Per-RX denominators, SINR, throughput factor.
        let mut denom = vec![0.0f64; n_rx];
        let mut sinr = vec![0.0f64; n_rx];
        let mut tfac = vec![0.0f64; n_rx]; // 1/(T_i·(1+SINR_i)·ln2)
        for i in 0..n_rx {
            let interference: f64 = (0..n_rx)
                .filter(|&k| k != i)
                .map(|k| stream_at[k][i].powi(2))
                .sum();
            denom[i] = noise + interference;
            let a = stream_at[i][i];
            sinr[i] = a * a / denom[i];
            let t = (1.0 + sinr[i]).log2();
            tfac[i] = if t > 0.0 {
                1.0 / (t * (1.0 + sinr[i]) * ln2)
            } else {
                0.0
            };
        }

        let mut grad = vec![0.0f64; n_tx * n_rx];
        for j in 0..n_tx {
            for k in 0..n_rx {
                let dq = x.swing(j, k) / 2.0; // d(half²)/dI = I/2
                if dq == 0.0 {
                    // Zero swing has zero analytic gradient; leave a small
                    // ascent direction toward the serving gain so inactive
                    // TXs can activate when beneficial. One-sided derivative
                    // of the objective at 0 is 0, so use the curvature cue.
                    let signal_cue =
                        model.channel.gain(j, k) * tfac[k] * 2.0 * stream_at[k][k] / denom[k];
                    let jam_cue: f64 = (0..n_rx)
                        .filter(|&i| i != k)
                        .map(|i| {
                            model.channel.gain(j, i) * tfac[i] * 2.0 * sinr[i] * stream_at[k][i]
                                / denom[i]
                        })
                        .sum();
                    grad[j * n_rx + k] = 1e-3 * scale * (signal_cue - jam_cue).max(0.0);
                    continue;
                }
                // Signal term at RX k.
                let signal = model.channel.gain(j, k) * tfac[k] * 2.0 * stream_at[k][k] / denom[k];
                // Interference terms at every other RX i.
                let jam: f64 = (0..n_rx)
                    .filter(|&i| i != k)
                    .map(|i| {
                        model.channel.gain(j, i) * tfac[i] * 2.0 * sinr[i] * stream_at[k][i]
                            / denom[i]
                    })
                    .sum();
                grad[j * n_rx + k] = dq * scale * (signal - jam);
            }
        }
        grad
    }

    /// Projects an allocation onto the feasible set (see module docs).
    fn project(&self, model: &SystemModel, x: &mut Allocation, budget_w: f64) {
        let n_rx = x.n_rx();
        project_slice(
            x.as_mut_slice(),
            n_rx,
            model.led.max_swing,
            model.dyn_resistance(),
            budget_w,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_channel::{ChannelMatrix, RxOptics};
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_led::power::dynamic_resistance;

    fn scenario2_model() -> SystemModel {
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

    fn two_rx_model() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::centered(&room, 3, 3, 1.0);
        let rxs = vec![Pose::face_up(0.5, 0.5, 0.8), Pose::face_up(2.5, 2.5, 0.8)];
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
    fn solution_is_feasible() {
        let m = scenario2_model();
        let budget = 0.5;
        let report =
            OptimalSolver::quick().solve(&m, budget, None, &Pool::from_env(), Probe::off());
        assert!(m.is_feasible(&report.allocation, budget));
        assert!(report.power_w <= budget + 1e-9);
        assert!(report.objective.is_finite());
    }

    #[test]
    fn every_rx_is_served() {
        // Proportional fairness: a starved RX makes the objective −∞, so the
        // optimum serves everyone.
        let m = scenario2_model();
        let report = OptimalSolver::quick().solve(&m, 0.5, None, &Pool::from_env(), Probe::off());
        for (i, t) in m.throughput(&report.allocation).iter().enumerate() {
            assert!(*t > 0.0, "RX{} starved", i + 1);
        }
    }

    #[test]
    fn objective_beats_heuristic() {
        // The solver must be at least as good as its own warm start.
        let m = scenario2_model();
        let budget = 0.5;
        let report =
            OptimalSolver::quick().solve(&m, budget, None, &Pool::from_env(), Probe::off());
        let h = heuristic_allocation(
            &m.channel,
            &m.led,
            budget,
            &HeuristicConfig {
                allow_partial_last: true,
                ..HeuristicConfig::paper()
            },
            Probe::off(),
        );
        let obj_h = m.sum_log_throughput(&h);
        assert!(
            report.objective >= obj_h - 1e-9,
            "solver {} < heuristic {}",
            report.objective,
            obj_h
        );
    }

    #[test]
    fn dead_channel_is_an_unserved_all_zero_outcome() {
        // A dead channel (every gain zero) starves every receiver: no
        // allocation serves anyone, so the solve returns the all-zero
        // allocation with every receiver unserved, and records the
        // infeasibility.
        let m = SystemModel::paper(ChannelMatrix::from_gains(4, 2, vec![0.0; 8]));
        let telemetry = Registry::new();
        let report = OptimalSolver::quick().solve(
            &m,
            0.5,
            None,
            &Pool::from_env().with_telemetry(&telemetry),
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert_eq!(report.unserved, vec![0, 1]);
        assert_eq!(report.allocation, Allocation::zeros(4, 2));
        assert_eq!(report.objective, f64::NEG_INFINITY);
        assert_eq!(report.power_w, 0.0);
        assert_eq!(report.iterations, 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.unserved"), Some(2));
        assert_eq!(snap.counter("alloc.optimal.infeasible"), Some(1));
        let event = snap
            .events_of_kind("infeasible_round")
            .next()
            .expect("infeasible event recorded");
        assert_eq!(event.target, "alloc.optimal");
        assert!(event
            .fields
            .iter()
            .any(|(k, v)| k == "budget_w" && v == "0.5"));
    }

    #[test]
    fn an_unreachable_receiver_gets_a_zero_column_and_the_rest_are_served() {
        // RX 1 sees no TX; RXs 0 and 2 each have a TX of their own.
        #[rustfmt::skip]
        let gains = vec![
            2e-5, 0.0, 1e-7,
            1e-7, 0.0, 1e-7,
            1e-7, 0.0, 2e-5,
        ];
        let m = SystemModel::paper(ChannelMatrix::from_gains(3, 3, gains));
        let telemetry = Registry::new();
        let report = OptimalSolver::quick().solve(
            &m,
            0.3,
            None,
            &Pool::sequential().with_telemetry(&telemetry),
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert_eq!(report.unserved, vec![1]);
        assert!(m.is_feasible(&report.allocation, 0.3));
        assert!(report.objective.is_finite());
        assert!((0..3).all(|t| report.allocation.swing(t, 1) == 0.0));
        let bps = m.throughput(&report.allocation);
        assert!(bps[0] > 0.0 && bps[2] > 0.0, "{bps:?}");
        // A warm seed reaches the served columns' solve.
        let warm = OptimalSolver::quick().solve(
            &m,
            0.3,
            Some(&report.allocation),
            &Pool::sequential().with_telemetry(&telemetry),
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert_eq!(warm.unserved, vec![1]);
        assert!(warm.objective >= report.objective);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.unserved"), Some(2));
        assert_eq!(snap.counter("alloc.optimal.warm_starts"), Some(1));
        assert_eq!(snap.counter("alloc.optimal.infeasible"), None);
    }

    /// A paper room (36 TX) with `n_rx` receivers at seeded uniform
    /// positions.
    fn random_paper_room(seed: u64, n_rx: usize) -> SystemModel {
        let mut state = seed;
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let room = Room::paper_simulation();
        let rxs: Vec<Pose> = (0..n_rx)
            .map(|_| Pose::face_up(0.1 + 2.8 * unit(), 0.1 + 2.8 * unit(), 0.8))
            .collect();
        SystemModel::paper(ChannelMatrix::compute(
            &TxGrid::paper(&room),
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
            &[],
            Probe::off(),
        ))
    }

    #[test]
    fn crowded_rooms_serve_every_receiver() {
        // At 10 sessions, seed 0 used to panic with "no start yields a
        // finite objective": two receivers share a best TX whose swing the
        // first one's share fills, and every start left one of them dark.
        for (n_rx, seeds) in [(6, 0..2), (8, 0..2), (10, 0..3), (16, 0..2)] {
            for seed in seeds {
                let m = random_paper_room(seed, n_rx);
                let report =
                    OptimalSolver::quick().solve(&m, 1.2, None, &Pool::from_env(), Probe::off());
                assert!(
                    m.is_feasible(&report.allocation, 1.2),
                    "{n_rx} RX, seed {seed}"
                );
                assert!(report.objective.is_finite(), "{n_rx} RX, seed {seed}");
                assert!(report.unserved.is_empty());
                for (i, bps) in m.throughput(&report.allocation).iter().enumerate() {
                    assert!(*bps > 0.0, "{n_rx} RX, seed {seed}: RX{i} starved");
                }
            }
        }
    }

    #[test]
    fn feasible_solve_records_work_but_no_infeasible_signal() {
        let m = two_rx_model();
        let telemetry = Registry::new();
        let report = OptimalSolver::quick().solve(
            &m,
            0.4,
            None,
            &Pool::from_env().with_telemetry(&telemetry),
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert!(report.allocation.active_tx_count() > 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.infeasible"), None);
        assert_eq!(snap.events_of_kind("infeasible_round").count(), 0);
        assert_eq!(snap.counter("alloc.optimal.solves"), Some(1));
        assert_eq!(
            snap.counter("alloc.optimal.iterations"),
            Some(report.iterations as u64)
        );
        // Every start costs one initial evaluation, plus at least one per
        // ascent iteration.
        let evals = snap.counter("alloc.optimal.obj_evals").expect("obj evals");
        let starts = snap.counter("alloc.optimal.starts").expect("starts");
        assert!(starts >= 1);
        assert!(evals >= starts + report.iterations as u64);
        assert!(snap
            .histogram("alloc.optimal.solve_s")
            .is_some_and(|h| h.count == 1 && h.max > 0.0));
    }

    #[test]
    fn more_budget_never_hurts() {
        let m = two_rx_model();
        let solver = OptimalSolver::quick();
        let lo = solver.solve(&m, 0.1, None, &Pool::from_env(), Probe::off());
        let hi = solver.solve(&m, 0.4, None, &Pool::from_env(), Probe::off());
        assert!(
            hi.objective >= lo.objective - 1e-6,
            "lo {} hi {}",
            lo.objective,
            hi.objective
        );
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let m = two_rx_model();
        let solver = OptimalSolver::default();
        // A strictly interior point with all streams active.
        let n_tx = m.n_tx();
        let n_rx = m.n_rx();
        let mut x = Allocation::zeros(n_tx, n_rx);
        for t in 0..n_tx {
            for r in 0..n_rx {
                x.set_swing(t, r, 0.05 + 0.01 * ((t * n_rx + r) % 7) as f64);
            }
        }
        let grad = solver.gradient(&m, &x);
        let eps = 1e-6;
        for idx in [0usize, 3, 7, n_tx * n_rx - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (m.sum_log_throughput(&xp) - m.sum_log_throughput(&xm)) / (2.0 * eps);
            let an = grad[idx];
            let denom = fd.abs().max(an.abs()).max(1e-9);
            assert!(
                ((fd - an) / denom).abs() < 1e-3,
                "idx {idx}: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn projection_restores_feasibility() {
        let m = two_rx_model();
        let solver = OptimalSolver::default();
        let n = m.n_tx() * m.n_rx();
        let mut x = Allocation::from_swings(m.n_tx(), m.n_rx(), vec![0.9; n]);
        let budget = 0.2;
        solver.project(&m, &mut x, budget);
        assert!(m.is_feasible(&x, budget));
    }

    #[test]
    fn solver_spends_most_of_a_small_budget() {
        // With a budget below one full-swing TX, the optimum transmits at
        // whatever swing the budget allows — power should not be left idle.
        let m = two_rx_model();
        let r = dynamic_resistance(&m.led);
        let budget = 0.5 * r * (m.led.max_swing / 2.0).powi(2);
        let report =
            OptimalSolver::quick().solve(&m, budget, None, &Pool::from_env(), Probe::off());
        assert!(
            report.power_w > 0.8 * budget,
            "spent {} of {}",
            report.power_w,
            budget
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        let m = two_rx_model();
        OptimalSolver::quick().solve(&m, 0.0, None, &Pool::from_env(), Probe::off());
    }

    #[test]
    fn warm_none_is_bitwise_identical_to_cold() {
        let m = scenario2_model();
        let solver = OptimalSolver::quick();
        let cold = solver.solve(&m, 0.5, None, &Pool::from_env(), Probe::off());
        let warm = solver.solve(&m, 0.5, None, &Pool::from_env(), Probe::off());
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_seed_never_loses_to_cold() {
        // The previous solution is one extra start: the warm solve's
        // objective can only match or beat the cold one.
        let m = scenario2_model();
        let solver = OptimalSolver::quick();
        let cold = solver.solve(&m, 0.5, None, &Pool::from_env(), Probe::off());
        let warm = solver.solve(
            &m,
            0.5,
            Some(&cold.allocation),
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(
            warm.objective >= cold.objective - 1e-12,
            "warm {} < cold {}",
            warm.objective,
            cold.objective
        );
        assert!(m.is_feasible(&warm.allocation, 0.5));
    }

    #[test]
    fn warm_seed_with_wrong_shape_is_ignored() {
        let m = two_rx_model();
        let solver = OptimalSolver::quick();
        let foreign = Allocation::zeros(3, 3);
        let telemetry = Registry::new();
        solver.solve(
            &m,
            0.4,
            Some(&foreign),
            &Pool::sequential().with_telemetry(&telemetry),
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.warm_starts"), None);
    }

    #[test]
    fn warm_seed_is_used_after_budget_or_channel_change() {
        let solver = OptimalSolver::quick();
        let telemetry = Registry::new();
        let pool = Pool::sequential().with_telemetry(&telemetry);
        let m = two_rx_model();
        let first = solver.solve(
            &m,
            0.4,
            None,
            &pool,
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        // A different budget re-solves seeded by the previous allocation.
        let second = solver.solve(
            &m,
            0.3,
            Some(&first.allocation),
            &pool,
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert!(m.is_feasible(&second.allocation, 0.3));
        // So does a perturbed channel.
        let bumped = SystemModel::paper(m.channel.map(|g| g * 1.01));
        let third = solver.solve(
            &bumped,
            0.3,
            Some(&second.allocation),
            &pool,
            Probe {
                telemetry: &telemetry,
                ..Probe::off()
            },
        );
        assert!(bumped.is_feasible(&third.allocation, 0.3));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.solves"), Some(3));
        assert_eq!(snap.counter("alloc.optimal.warm_starts"), Some(2));
    }
}
