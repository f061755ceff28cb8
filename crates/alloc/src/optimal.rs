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
use vlc_channel::{ChannelSoA, SparseChannelView};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

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

/// Per-solve immutable context for the fast kernels: the channel transposed
/// into contiguous per-RX gain rows ([`ChannelSoA`]), CSR live-link lists in
/// both orientations ([`SparseChannelView`] — the zero pattern already
/// contains every FOV-culled link, since a culled link has exactly-zero
/// gain), and the model constants every dense evaluation re-derived per
/// call.
///
/// Both kernels reproduce the dense fold orders bit for bit: zero-gain
/// terms of the non-negative stream/interference sums are skipped (`x +
/// (+0.0) == x` for `x ≥ +0.0`), everything else accumulates in the same
/// ascending order with the same association.
struct SolveContext {
    n_tx: usize,
    n_rx: usize,
    soa: ChannelSoA,
    view: SparseChannelView,
    /// Every link live (the paper's wide-FOV geometries): the kernels take
    /// branch-free lane paths with contiguous row sweeps instead of CSR
    /// indirection — same operations in the same order, so still bitwise.
    all_live: bool,
    /// Stream-amplitude scale of Eq. 12: `R·η·r`.
    scale: f64,
    noise: f64,
    bandwidth_hz: f64,
    r: f64,
    max_swing: f64,
}

/// Stream-axis lane width: the paper geometries carry four MRC streams, so
/// the per-RX accumulator of the stream pass fits one register lane.
const STREAM_LANE: usize = 4;

/// TX-axis lane width of the gradient fill: eight independent per-TX
/// evaluations run per step (each element-wise identical to the scalar op
/// sequence), deep enough to keep the divide pipeline busy.
const GRAD_LANE: usize = 8;

impl SolveContext {
    fn new(model: &SystemModel) -> Self {
        let r = model.dyn_resistance();
        let view = SparseChannelView::from_matrix(&model.channel);
        let all_live = view.live_links() == model.n_tx() * model.n_rx();
        SolveContext {
            n_tx: model.n_tx(),
            n_rx: model.n_rx(),
            soa: ChannelSoA::from_matrix(&model.channel),
            view,
            all_live,
            scale: model.responsivity * model.led.wall_plug_efficiency * r,
            noise: model.noise.noise_power(),
            bandwidth_hz: model.noise.bandwidth_hz,
            r,
            max_swing: model.led.max_swing,
        }
    }

    /// Accumulates all `n_rx` stream amplitudes at RX `i` into `acc`
    /// (before the `scale` factor), the shared first pass of both kernels:
    /// ascending-TX, stream-inner, exactly the dense triple loop's order.
    /// The all-live arm sweeps `x` row-chunks against the contiguous SoA
    /// gain row; the sparse arm hops the CSR live list (skipped terms are
    /// exactly `+0.0` in a non-negative ascending sum).
    #[inline]
    fn accumulate_streams_at(&self, i: usize, x: &[f64], acc: &mut [f64]) {
        acc.fill(0.0);
        if self.all_live && self.n_rx == STREAM_LANE {
            // Four streams exactly: the accumulator lane lives in registers
            // and the compiler sees a fixed-width inner loop. Same ops in
            // the same order as the generic arm below.
            let mut lane = [0.0f64; STREAM_LANE];
            for (row, &g) in x.chunks_exact(STREAM_LANE).zip(self.soa.rx_row(i)) {
                for (a, &swing) in lane.iter_mut().zip(row) {
                    let half = swing / 2.0;
                    *a += g * half * half;
                }
            }
            acc.copy_from_slice(&lane);
        } else if self.all_live {
            for (row, &g) in x.chunks_exact(self.n_rx).zip(self.soa.rx_row(i)) {
                for (a, &swing) in acc.iter_mut().zip(row) {
                    let half = swing / 2.0;
                    *a += g * half * half;
                }
            }
        } else {
            let (idx, gains) = self.view.rx_live(i);
            for (&t, &g) in idx.iter().zip(gains) {
                let row = &x[t as usize * self.n_rx..(t as usize + 1) * self.n_rx];
                for (a, &swing) in acc.iter_mut().zip(row) {
                    let half = swing / 2.0;
                    *a += g * half * half;
                }
            }
        }
    }

    /// `Σ_i ln(B·log2(1+SINR_i))` over the raw swing slice — bitwise equal
    /// to `SystemModel::sum_log_throughput` on the same swings. One pass
    /// over each RX's live TX list accumulates all `n_rx` stream amplitudes
    /// at that RX (one gain load shared across the stream lane; each
    /// stream's partial sum runs in ascending-TX order exactly as the dense
    /// triple loop).
    /// On top of the return value, the call leaves the stream amplitudes,
    /// denominators, SINRs, and throughput factors of `x` in `st` — exactly
    /// the state [`Self::gradient_cached`] needs, so an accepted
    /// backtracking candidate's evaluation doubles as the next iteration's
    /// first two gradient passes. Every intermediate is the same product in
    /// the same order as the historical fused objective, so the return is
    /// still bitwise `SystemModel::sum_log_throughput`.
    fn objective(&self, x: &[f64], st: &mut Scratch) -> f64 {
        let n_rx = self.n_rx;
        let ln2 = std::f64::consts::LN_2;
        for i in 0..n_rx {
            self.accumulate_streams_at(i, x, &mut st.acc);
            for (k, &a) in st.acc.iter().enumerate() {
                st.stream_at[k * n_rx + i] = self.scale * a;
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

    /// The analytic gradient into `st.grad` — bitwise equal to the dense
    /// `OptimalSolver::gradient`. Gradient rows of TXs with no live link
    /// are exactly `+0.0` in the dense formula and are zero-filled without
    /// evaluation; jam sums skip zero-gain receivers (each skipped term is
    /// `+0.0` in a non-negative ascending sum).
    /// `st` must hold the stream/denominator/SINR state of `x` from an
    /// immediately preceding [`Self::objective`] call at the same point —
    /// the ascent's invariant (every gradient follows an accepted
    /// evaluation), which saves recomputing both shared passes.
    fn gradient_cached(&self, x: &[f64], st: &mut Scratch) {
        if self.all_live {
            self.fill_gradient_lanes(x, st);
        } else {
            self.fill_gradient_sparse(x, st);
        }
    }

    /// The gradient fill for an all-live channel: per RX `k`, the TX axis
    /// runs in [`GRAD_LANE`]-wide batches over the contiguous SoA gain rows.
    /// Each lane element executes the dense reference's exact op sequence
    /// (`((((g·tfac)·2)·s)/denom)`, jam summed over ascending `i ≠ k`), so
    /// every `grad[j,k]` is bitwise the dense value; the batch only lets
    /// four independent divide chains overlap.
    fn fill_gradient_lanes(&self, x: &[f64], st: &mut Scratch) {
        let n_rx = self.n_rx;
        let tail = self.n_tx - self.n_tx % GRAD_LANE;
        for k in 0..n_rx {
            let gk = self.soa.rx_row(k);
            let tfac_k = st.tfac[k];
            let s_kk = st.stream_at[k * n_rx + k];
            let denom_k = st.denom[k];
            for base in (0..tail).step_by(GRAD_LANE) {
                let mut sig = [0.0f64; GRAD_LANE];
                for (l, s) in sig.iter_mut().enumerate() {
                    *s = gk[base + l] * tfac_k * 2.0 * s_kk / denom_k;
                }
                let mut jam = [0.0f64; GRAD_LANE];
                for i in 0..n_rx {
                    if i == k {
                        continue;
                    }
                    let gi = &self.soa.rx_row(i)[base..base + GRAD_LANE];
                    let tfac_i = st.tfac[i];
                    let sinr_i = st.sinr[i];
                    let s_ki = st.stream_at[k * n_rx + i];
                    let denom_i = st.denom[i];
                    for (j, &g) in jam.iter_mut().zip(gi) {
                        *j += g * tfac_i * 2.0 * sinr_i * s_ki / denom_i;
                    }
                }
                for l in 0..GRAD_LANE {
                    let j = base + l;
                    let dq = x[j * n_rx + k] / 2.0;
                    st.grad[j * n_rx + k] = if dq == 0.0 {
                        1e-3 * self.scale * (sig[l] - jam[l]).max(0.0)
                    } else {
                        dq * self.scale * (sig[l] - jam[l])
                    };
                }
            }
            for j in tail..self.n_tx {
                let dq = x[j * n_rx + k] / 2.0;
                let signal = gk[j] * tfac_k * 2.0 * s_kk / denom_k;
                let mut jam = 0.0;
                for i in 0..n_rx {
                    if i == k {
                        continue;
                    }
                    jam += self.soa.gain(j, i)
                        * st.tfac[i]
                        * 2.0
                        * st.sinr[i]
                        * st.stream_at[k * n_rx + i]
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

    /// The gradient fill over the CSR live lists: rows of TXs with no live
    /// link are exactly `+0.0` in the dense formula and are zero-filled
    /// without evaluation; jam sums skip zero-gain receivers (each skipped
    /// term is `+0.0` in a non-negative ascending sum).
    fn fill_gradient_sparse(&self, x: &[f64], st: &mut Scratch) {
        let n_rx = self.n_rx;
        st.grad.fill(0.0);
        for j in 0..self.n_tx {
            if !self.view.tx_any_live(j) {
                continue;
            }
            let (jidx, jgains) = self.view.tx_live(j);
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
    acc: Vec<f64>,
    stream_at: Vec<f64>,
    denom: Vec<f64>,
    sinr: Vec<f64>,
    tfac: Vec<f64>,
    grad: Vec<f64>,
    cand: Vec<f64>,
}

impl Scratch {
    fn new(n_tx: usize, n_rx: usize) -> Self {
        Scratch {
            acc: vec![0.0; n_rx],
            stream_at: vec![0.0; n_rx * n_rx],
            denom: vec![0.0; n_rx],
            sinr: vec![0.0; n_rx],
            tfac: vec![0.0; n_rx],
            grad: vec![0.0; n_tx * n_rx],
            cand: vec![0.0; n_tx * n_rx],
        }
    }
}

/// The feasible-set projection over a raw swing slice (see module docs) —
/// the one implementation behind both engines, operation-for-operation the
/// historical `Allocation`-based projection.
fn project_slice(x: &mut [f64], n_tx: usize, n_rx: usize, max_swing: f64, r: f64, budget_w: f64) {
    // Non-negativity. Written as a per-element select (each slot gets
    // either its own value or literal `0.0`, exactly as the branchy
    // historical form) so the pass vectorizes.
    for v in x.iter_mut() {
        *v = if v.is_finite() && *v >= 0.0 { *v } else { 0.0 };
    }
    // Per-TX swing cap and power total in one sweep. The historical form
    // ran a second full pass re-summing every row for the power ball; an
    // uncapped row's re-sum is bit-identical to the first (same elements,
    // same fold), so only capped rows are re-summed, and the per-row
    // powers accumulate in the same ascending-row order.
    let mut p = 0.0;
    for t in 0..n_tx {
        let row = &mut x[t * n_rx..(t + 1) * n_rx];
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
///
/// // A toy 2-TX / 2-RX system with clean, symmetric channels.
/// let h = ChannelMatrix::from_gains(2, 2, vec![1e-6, 0.0, 0.0, 1e-6]);
/// let model = SystemModel::paper(h);
/// let report = OptimalSolver::quick().solve(&model, 0.15);
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
    /// The independent ascent starts fan out over `DENSEVLC_JOBS` workers
    /// (sequential when that resolves to 1); the report is bitwise
    /// identical for any worker count — see [`Self::solve_traced`].
    ///
    /// # Panics
    /// Panics if `budget_w` is non-positive (a zero budget admits only the
    /// all-zero allocation, whose objective is −∞).
    pub fn solve(&self, model: &SystemModel, budget_w: f64) -> SolveReport {
        self.solve_traced(
            model,
            budget_w,
            None,
            &Registry::noop(),
            &Pool::from_env(),
            &Span::noop(),
        )
    }

    /// [`Self::solve`] with a warm seed, telemetry, a caller-supplied
    /// pool, and tracing.
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
    /// Telemetry: wall-time into the `alloc.optimal.solve_s` histogram,
    /// plus `alloc.optimal.solves`, `.iterations`, `.starts`, and
    /// `.obj_evals` counters — the cost side of the paper's Fig. 11
    /// optimal-vs-heuristic comparison. An all-zero result (no TX
    /// activated) counts as `alloc.optimal.infeasible` and emits an
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
    /// Tracing: an `alloc.optimal.solve` span under `parent`, with one
    /// `alloc.optimal.start` child per ascent start (indexed by start, so
    /// the span tree is worker-count independent) and an
    /// `alloc.optimal.iters` grandchild per batch of 50 ascent iterations.
    pub fn solve_traced(
        &self,
        model: &SystemModel,
        budget_w: f64,
        warm: Option<&Allocation>,
        telemetry: &Registry,
        pool: &Pool,
        parent: &Span,
    ) -> SolveReport {
        self.solve_core(model, budget_w, warm, telemetry, pool, parent, Engine::Fast)
    }

    /// [`Self::solve`] forced through the historical dense kernels
    /// (per-iteration gradient allocation, AoS gain loads, no live-link
    /// skipping). Retained as the bit-identity oracle for the sparse/SoA
    /// fast engine — `tests/sparse_solver_identity.rs` asserts both produce
    /// the same report to the last bit — and for perf A/Bs.
    pub fn solve_dense(&self, model: &SystemModel, budget_w: f64, pool: &Pool) -> SolveReport {
        self.solve_core(
            model,
            budget_w,
            None,
            &Registry::noop(),
            pool,
            &Span::noop(),
            Engine::Dense,
        )
    }

    /// The one solve implementation behind every entry point: with
    /// `warm: None` it is byte-for-byte the historical cold solve (same
    /// starts, same spans, same counters), and the fast engine reproduces
    /// the dense engine's report bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn solve_core(
        &self,
        model: &SystemModel,
        budget_w: f64,
        warm: Option<&Allocation>,
        telemetry: &Registry,
        pool: &Pool,
        parent: &Span,
        engine: Engine,
    ) -> SolveReport {
        assert!(budget_w > 0.0, "power budget must be positive");
        let ctx = match engine {
            Engine::Fast => Some(SolveContext::new(model)),
            Engine::Dense => None,
        };
        let trace = parent.child("alloc.optimal.solve");
        if trace.is_enabled() {
            trace.attr("budget_w", &format!("{budget_w}"));
        }
        let _solve_span = telemetry.span("alloc.optimal.solve_s");
        telemetry.counter("alloc.optimal.solves").inc();
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
            let a = heuristic_allocation(&model.channel, &model.led, budget_w, &cfg);
            if model.sum_log_throughput(&a).is_finite() {
                starts.push(a);
            }
        }
        // Baseline start: every RX served by its best TX with an equal share
        // of the budget (always gives a finite objective).
        starts.push(self.equal_share_start(model, budget_w));
        // Random perturbations of the equal-share start.
        for _ in 0..self.random_starts {
            let mut a = self.equal_share_start(model, budget_w);
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
            let start_span = trace.child_indexed("alloc.optimal.start", i);
            let mut start = starts[i].clone();
            self.project(model, &mut start, budget_w);
            let out = match &ctx {
                Some(ctx) => self.ascend_fast(ctx, start, budget_w, &start_span),
                None => self.ascend(model, start, budget_w, &start_span),
            };
            if start_span.is_enabled() {
                start_span.attr("iters", &out.2.to_string());
            }
            out
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
        let (allocation, objective) = match best {
            Some(found) => found,
            None => {
                // Record the infeasibility before unwinding so a monitoring
                // registry keeps the evidence.
                telemetry.counter("alloc.optimal.infeasible").inc();
                telemetry.event(
                    "alloc.optimal",
                    "infeasible_round",
                    &[("budget_w", &format!("{budget_w}"))],
                );
                panic!("no start yields a finite objective at {budget_w} W");
            }
        };
        let power_w = model.comm_power(&allocation);
        telemetry
            .counter("alloc.optimal.iterations")
            .add(total_iters as u64);
        telemetry
            .counter("alloc.optimal.obj_evals")
            .add(obj_evals as u64);
        if allocation.active_tx_count() == 0 {
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
        }
    }

    /// Equal-budget-share start: each RX's best TX gets the swing that its
    /// share of the budget affords.
    fn equal_share_start(&self, model: &SystemModel, budget_w: f64) -> Allocation {
        let n_rx = model.n_rx();
        let r = model.dyn_resistance();
        let share = budget_w / n_rx as f64;
        let swing = (2.0 * (share / r).sqrt()).min(model.led.max_swing);
        let mut a = Allocation::zeros(model.n_tx(), n_rx);
        for rx in 0..n_rx {
            let tx = model.channel.best_tx_for(rx);
            // Two RXs sharing a best TX split its swing range.
            let existing = a.tx_total_swing(tx);
            let room = (model.led.max_swing - existing).max(0.0);
            a.set_swing(tx, rx, swing.min(room));
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
            ctx.gradient_cached(&x, &mut st);
            let gnorm = st.grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < 1e-14 {
                break;
            }
            let mut improved = false;
            let mut local_step = step;
            for _ in 0..30 {
                // One fused pass: `cand = x + step·g/gnorm`, the same value
                // the dense path forms by cloning `x` then adding in place.
                for ((c, &xv), g) in cand.iter_mut().zip(&x).zip(&st.grad) {
                    *c = xv + local_step * g / gnorm;
                }
                project_slice(
                    &mut cand,
                    ctx.n_tx,
                    ctx.n_rx,
                    ctx.max_swing,
                    ctx.r,
                    budget_w,
                );
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
        let n_tx = x.n_tx();
        let n_rx = x.n_rx();
        project_slice(
            x.as_mut_slice(),
            n_tx,
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
        ))
    }

    #[test]
    fn solution_is_feasible() {
        let m = scenario2_model();
        let budget = 0.5;
        let report = OptimalSolver::quick().solve(&m, budget);
        assert!(m.is_feasible(&report.allocation, budget));
        assert!(report.power_w <= budget + 1e-9);
        assert!(report.objective.is_finite());
    }

    #[test]
    fn every_rx_is_served() {
        // Proportional fairness: a starved RX makes the objective −∞, so the
        // optimum serves everyone.
        let m = scenario2_model();
        let report = OptimalSolver::quick().solve(&m, 0.5);
        for (i, t) in m.throughput(&report.allocation).iter().enumerate() {
            assert!(*t > 0.0, "RX{} starved", i + 1);
        }
    }

    #[test]
    fn objective_beats_heuristic() {
        // The solver must be at least as good as its own warm start.
        let m = scenario2_model();
        let budget = 0.5;
        let report = OptimalSolver::quick().solve(&m, budget);
        let h = heuristic_allocation(
            &m.channel,
            &m.led,
            budget,
            &HeuristicConfig {
                allow_partial_last: true,
                ..HeuristicConfig::paper()
            },
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
    fn infeasible_model_is_counted_and_evented_before_unwinding() {
        // A dead channel (every gain zero) starves every receiver: no start
        // can produce a finite objective, so the solver records the
        // infeasibility and panics.
        let m = SystemModel::paper(ChannelMatrix::from_gains(4, 2, vec![0.0; 8]));
        let telemetry = Registry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            OptimalSolver::quick().solve_traced(
                &m,
                0.5,
                None,
                &telemetry,
                &Pool::from_env().with_telemetry(&telemetry),
                &Span::noop(),
            )
        }));
        assert!(result.is_err(), "dead channel must not yield a solution");
        let snap = telemetry.snapshot();
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
    fn feasible_solve_records_work_but_no_infeasible_signal() {
        let m = two_rx_model();
        let telemetry = Registry::new();
        let report = OptimalSolver::quick().solve_traced(
            &m,
            0.4,
            None,
            &telemetry,
            &Pool::from_env().with_telemetry(&telemetry),
            &Span::noop(),
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
        let lo = solver.solve(&m, 0.1);
        let hi = solver.solve(&m, 0.4);
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
        let report = OptimalSolver::quick().solve(&m, budget);
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
        OptimalSolver::quick().solve(&m, 0.0);
    }

    #[test]
    fn warm_none_is_bitwise_identical_to_cold() {
        let m = scenario2_model();
        let solver = OptimalSolver::quick();
        let cold = solver.solve(&m, 0.5);
        let warm = solver.solve_traced(
            &m,
            0.5,
            None,
            &Registry::noop(),
            &Pool::from_env(),
            &Span::noop(),
        );
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_seed_never_loses_to_cold() {
        // The previous solution is one extra start: the warm solve's
        // objective can only match or beat the cold one.
        let m = scenario2_model();
        let solver = OptimalSolver::quick();
        let cold = solver.solve(&m, 0.5);
        let warm = solver.solve_traced(
            &m,
            0.5,
            Some(&cold.allocation),
            &Registry::noop(),
            &Pool::from_env(),
            &Span::noop(),
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
        solver.solve_traced(
            &m,
            0.4,
            Some(&foreign),
            &telemetry,
            &Pool::sequential().with_telemetry(&telemetry),
            &Span::noop(),
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
        let first = solver.solve_traced(&m, 0.4, None, &telemetry, &pool, &Span::noop());
        // A different budget re-solves seeded by the previous allocation.
        let second = solver.solve_traced(
            &m,
            0.3,
            Some(&first.allocation),
            &telemetry,
            &pool,
            &Span::noop(),
        );
        assert!(m.is_feasible(&second.allocation, 0.3));
        // So does a perturbed channel.
        let bumped = SystemModel::paper(m.channel.map(|g| g * 1.01));
        let third = solver.solve_traced(
            &bumped,
            0.3,
            Some(&second.allocation),
            &telemetry,
            &pool,
            &Span::noop(),
        );
        assert!(bumped.is_feasible(&third.allocation, 0.3));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("alloc.optimal.solves"), Some(3));
        assert_eq!(snap.counter("alloc.optimal.warm_starts"), Some(2));
    }
}
