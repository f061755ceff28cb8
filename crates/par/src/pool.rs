//! The worker pool and its deterministic reduction primitives.

use crate::crew::Crew;
use crate::jobs::Jobs;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vlc_telemetry::Registry;

/// Default item count per reduction chunk for [`Pool::fold_chunks`] and
/// [`Pool::argmax_by`]. Fixed (independent of the worker count) so the
/// chunk boundaries — and therefore the merge tree — never depend on how
/// many workers happen to run.
pub const DEFAULT_CHUNK: usize = 1024;

/// A deterministic fan-out pool.
///
/// Work items are indexed `0..n`; workers claim items dynamically (an
/// atomic cursor) but every reduction is performed **in index order on the
/// calling thread**, so the output is bitwise identical to the sequential
/// path for any worker count. `jobs = 1` never spawns a thread and runs
/// the exact legacy sequential code.
///
/// Two kinds of fan-out share that contract:
///
/// * [`Pool::map_indexed`] (and [`Pool::fold_chunks`], [`Pool::argmax_by`])
///   take closures that **borrow** the caller's data, so they run on fresh
///   scoped threads spawned per call. Use them for one-shot batch work —
///   an experiment set, NLOS quadratures, solver starts — where a spawn
///   is small next to the work.
/// * [`Pool::map_owned`] takes an **owned** `'static` closure and runs it on
///   the pool's resident crew: at most `jobs − 1` threads, spawned once on
///   the first dispatch that needs them and joined when the last clone of
///   the pool drops. After a dispatch each helper spins for up to
///   [`CREW_SPIN`](crate::CREW_SPIN), so the next dispatch of a tight loop
///   finds it awake, and then parks on a condvar, so an idle pool uses no
///   CPU. Clones share the crew. Use it for a fan-out that repeats at a
///   high rate, such as a control tick, where a spawn would cost more than
///   the work.
///
/// With [`Pool::with_telemetry`], each dispatch records:
///
/// * `par.map_calls` / `par.items` — dispatches and total items,
/// * `par.spawns` — worker threads spawned (0 on the sequential path; once
///   per resident crew thread for `map_owned`),
/// * `par.worker.busy_s` — one span sample per participating worker per
///   dispatch,
/// * `par.worker{w}.items` — items completed by worker `w`.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: Jobs,
    telemetry: Registry,
    /// Resident workers for [`Pool::map_owned`], shared by clones; `None`
    /// on a one-worker pool, which never spawns.
    crew: Option<Arc<Crew>>,
}

impl Pool {
    /// A pool with an explicit worker count and no telemetry. No thread is
    /// spawned until a dispatch needs one.
    pub fn new(jobs: Jobs) -> Self {
        Pool {
            jobs,
            telemetry: Registry::noop(),
            crew: (!jobs.is_serial()).then(Arc::default),
        }
    }

    /// The sequential pool (`jobs = 1`).
    pub fn sequential() -> Self {
        Self::new(Jobs::serial())
    }

    /// A pool sized from `DENSEVLC_JOBS` / available parallelism.
    pub fn from_env() -> Self {
        Self::new(Jobs::from_env())
    }

    /// Attaches a telemetry registry recording the per-worker spans and
    /// counters listed in the type docs, and bumps `par.pool.created` —
    /// watching that counter shows how much pool reuse (one pool per
    /// matrix/solve instead of one per gain call) saves.
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        registry.counter("par.pool.created").inc();
        self.telemetry = registry.clone();
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Computes `f(i)` for every `i in 0..n` and returns the results in
    /// index order.
    ///
    /// Determinism contract: as long as `f` is a pure function of its
    /// index, the returned vector is bitwise identical for every worker
    /// count, including the thread-free `jobs = 1` path.
    ///
    /// # Panics
    /// If any item panics, the pool re-raises a panic naming the **lowest**
    /// panicking index (`parallel item {i} panicked: ...`) after all
    /// workers have drained — the same index the sequential path would hit
    /// first. Items are not aborted early on a sibling's panic.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.telemetry.counter("par.map_calls").inc();
        self.telemetry.counter("par.items").add(n as u64);
        let workers = self.jobs.get().min(n);
        if workers <= 1 {
            return self.map_inline(n, &f);
        }
        self.telemetry.counter("par.spawns").add(workers as u64);

        // Tag each worker thread with a trace lane derived from the
        // spawning thread's lane, so spans opened inside `f` land on
        // per-worker tracks in trace exports. Lane assignment is
        // scheduling metadata only — span identity and tree shape stay
        // independent of it.
        let track_base = vlc_trace::current_track();
        let next = AtomicUsize::new(0);
        let mut computed: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut panics: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let f = &f;
                    let next = &next;
                    let telemetry = &self.telemetry;
                    scope.spawn(move || {
                        vlc_trace::set_current_track(vlc_trace::worker_track(track_base, w));
                        let _busy = telemetry.span("par.worker.busy_s");
                        let items = telemetry.counter(&format!("par.worker{w}.items"));
                        let mut ok: Vec<(usize, T)> = Vec::new();
                        let mut bad: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                                Ok(v) => {
                                    ok.push((i, v));
                                    items.inc();
                                }
                                Err(payload) => bad.push((i, payload)),
                            }
                        }
                        (ok, bad)
                    })
                })
                .collect();
            for handle in handles {
                let (ok, bad) = handle.join().expect("pool workers catch item panics");
                computed.extend(ok);
                panics.extend(bad);
            }
        });

        if let Some((index, payload)) = panics.into_iter().min_by_key(|(i, _)| *i) {
            panic!(
                "parallel item {index} panicked: {}",
                payload_message(&payload)
            );
        }
        // Merge the partial results in index order.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, v) in computed {
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index was claimed exactly once"))
            .collect()
    }

    /// [`Pool::map_indexed`] for an owned closure, run on the pool's
    /// resident crew instead of freshly spawned threads (see the type
    /// docs): the calling thread takes part as worker 0 and the crew's
    /// helpers, still spinning from the last dispatch or parked, join
    /// without a spawn. A steady stream of dispatches with the same
    /// closure and result types reuses one job's storage, so the dispatch
    /// itself allocates nothing beyond the returned vector.
    ///
    /// The contract is `map_indexed`'s: results in index order, bitwise
    /// identical for every worker count; `jobs = 1` or `n ≤ 1` runs inline
    /// and spawns nothing; the same telemetry. `f` is dropped before this
    /// returns, so nothing it captured outlives the call — an `Arc` it
    /// shares with the caller is unique again afterwards.
    ///
    /// A dispatch from inside one of this crew's own items, or one that
    /// arrives while another thread's dispatch holds the crew, runs inline
    /// on its calling thread.
    ///
    /// # Panics
    /// As [`Pool::map_indexed`]: the lowest panicking index is re-raised as
    /// `parallel item {i} panicked: ...` after every worker has drained,
    /// and the crew stays usable.
    pub fn map_owned<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        self.telemetry.counter("par.map_calls").inc();
        self.telemetry.counter("par.items").add(n as u64);
        let workers = self.jobs.get().min(n);
        let f = match &self.crew {
            Some(crew) if workers > 1 => match crew.dispatch(n, workers, f, &self.telemetry) {
                Ok(out) => return out,
                Err(f) => f,
            },
            _ => f,
        };
        self.map_inline(n, &f)
    }

    /// The thread-free path of both maps: every item in order on the
    /// calling thread, recorded as worker 0.
    fn map_inline<T>(&self, n: usize, f: &impl Fn(usize) -> T) -> Vec<T> {
        let _busy = self.telemetry.span("par.worker.busy_s");
        let items = self.telemetry.counter("par.worker0.items");
        (0..n)
            .map(|i| {
                let v = guarded(i, f);
                items.inc();
                v
            })
            .collect()
    }

    /// Folds `0..n` into an accumulator in fixed-size chunks: each chunk is
    /// folded in index order (possibly on different workers), then the
    /// chunk partials are merged in chunk order on the calling thread.
    ///
    /// `jobs = 1` (or a single chunk) runs one flat fold with **no** merge
    /// calls — the exact legacy path. For `jobs ≥ 2` the result is
    /// identical for every worker count (the chunk grid depends only on
    /// `n` and `chunk`); it additionally equals the `jobs = 1` result
    /// whenever the `fold`/`merge` pair is chunking-invariant, as every
    /// order-respecting argmax/argmin is. Floating-point *sums* are not
    /// chunking-invariant — restructure those call sites so the sequential
    /// path folds the same partials (see `docs/PARALLELISM.md`).
    ///
    /// # Panics
    /// Panics if `chunk` is zero; item panics propagate as in
    /// [`Pool::map_indexed`].
    pub fn fold_chunks<A, I, F, M>(&self, n: usize, chunk: usize, init: I, fold: F, merge: M) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(A, usize) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let n_chunks = n.div_ceil(chunk);
        if self.jobs.get().min(n_chunks) <= 1 {
            return (0..n).fold(init(), |acc, i| guarded(i, |i| fold(acc, i)));
        }
        let partials = self.map_indexed(n_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            (lo..hi).fold(init(), &fold)
        });
        partials
            .into_iter()
            .reduce(merge)
            .expect("n_chunks >= 2 on the parallel path")
    }

    /// Leftmost argmax: returns `(index, score)` of the best item under the
    /// strict `better` predicate, skipping items whose `score` is `None`.
    /// Ties keep the lowest index — on every worker count, exactly as a
    /// sequential first-strictly-better scan would.
    ///
    /// `better(a, b)` must implement a strict weak ordering ("`a` is
    /// strictly better than `b`"); that is what makes the chunked reduction
    /// equal to the sequential scan.
    pub fn argmax_by<S, F, B>(
        &self,
        n: usize,
        chunk: usize,
        score: F,
        better: B,
    ) -> Option<(usize, S)>
    where
        S: Send,
        F: Fn(usize) -> Option<S> + Sync,
        B: Fn(&S, &S) -> bool + Sync,
    {
        self.fold_chunks(
            n,
            chunk,
            || None,
            |acc: Option<(usize, S)>, i| match score(i) {
                None => acc,
                Some(s) => match &acc {
                    Some((_, cur)) if !better(&s, cur) => acc,
                    _ => Some((i, s)),
                },
            },
            |a, b| match (&a, &b) {
                (Some((_, sa)), Some((_, sb))) => {
                    if better(sb, sa) {
                        b
                    } else {
                        a
                    }
                }
                (None, _) => b,
                (_, None) => a,
            },
        )
    }
}

/// Runs `f(i)` on the sequential path, rewrapping an item panic with its
/// index so both paths report `parallel item {i} panicked: ...`.
fn guarded<T>(i: usize, f: impl FnOnce(usize) -> T) -> T {
    match catch_unwind(AssertUnwindSafe(|| f(i))) {
        Ok(v) => v,
        Err(payload) => panic!("parallel item {i} panicked: {}", payload_message(&payload)),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn payload_message(payload: &Box<dyn Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_every_worker_count() {
        let expect: Vec<u64> = (0..137)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for jobs in [1, 2, 3, 7, 16] {
            let got =
                Pool::new(Jobs::of(jobs)).map_indexed(137, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_maps_work() {
        let pool = Pool::new(Jobs::of(4));
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn lowest_panicking_index_is_reported_on_every_path() {
        for jobs in [1, 4] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(Jobs::of(jobs)).map_indexed(20, |i| {
                    if i == 5 || i == 17 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
            .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("parallel item 5 panicked") && msg.contains("boom at 5"),
                "jobs={jobs}: {msg}"
            );
        }
    }

    #[test]
    fn fold_chunks_argmax_is_chunking_invariant() {
        // A vector with an exact tie: leftmost must win on every path.
        let scores = [1.0, 5.0, 3.0, 5.0, 2.0, 5.0];
        for jobs in [1, 2, 5] {
            let pool = Pool::new(Jobs::of(jobs));
            let best = pool.argmax_by(scores.len(), 2, |i| Some(scores[i]), |a, b| a > b);
            assert_eq!(best, Some((1, 5.0)), "jobs={jobs}");
        }
    }

    #[test]
    fn argmax_skips_none_items() {
        let pool = Pool::new(Jobs::of(3));
        let best = pool.argmax_by(10, 2, |i| (i % 2 == 1).then_some(i as f64), |a, b| a > b);
        assert_eq!(best, Some((9, 9.0)));
        let none = pool.argmax_by(10, 2, |_| Option::<f64>::None, |a, b| a > b);
        assert_eq!(none, None);
    }

    #[test]
    fn telemetry_records_workers_and_items() {
        let registry = Registry::new();
        let pool = Pool::new(Jobs::of(3)).with_telemetry(&registry);
        let out = pool.map_indexed(10, |i| i);
        assert_eq!(out.len(), 10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("par.map_calls"), Some(1));
        assert_eq!(snap.counter("par.items"), Some(10));
        assert_eq!(snap.counter("par.spawns"), Some(3));
        let per_worker: u64 = (0..3)
            .map(|w| snap.counter(&format!("par.worker{w}.items")).unwrap_or(0))
            .sum();
        assert_eq!(per_worker, 10);
        assert!(snap
            .histogram("par.worker.busy_s")
            .is_some_and(|h| h.count == 3));
    }

    #[test]
    fn map_owned_records_the_same_telemetry() {
        use std::sync::{Arc, Barrier};

        let registry = Registry::new();
        let pool = Pool::new(Jobs::of(3)).with_telemetry(&registry);
        // Items wait for each other, so all three participants take one.
        let barrier = Arc::new(Barrier::new(3));
        let out = pool.map_owned(3, move |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, [0, 1, 2]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("par.map_calls"), Some(1));
        assert_eq!(snap.counter("par.items"), Some(3));
        assert_eq!(
            snap.counter("par.spawns"),
            Some(2),
            "the caller is worker 0"
        );
        for w in 0..3 {
            assert_eq!(snap.counter(&format!("par.worker{w}.items")), Some(1));
        }
        assert!(snap
            .histogram("par.worker.busy_s")
            .is_some_and(|h| h.count == 3));
    }

    #[test]
    fn a_resident_crew_spawns_once_per_thread() {
        // (jobs, largest n dispatched) → min(jobs, n) − 1 resident threads.
        for (jobs, max_n) in [(3, 9), (7, 4), (2, 1)] {
            let registry = Registry::new();
            let pool = Pool::new(Jobs::of(jobs)).with_telemetry(&registry);
            let clone = pool.clone();
            for k in 0..1_000 {
                let n = k % (max_n + 1);
                let on = if k % 2 == 0 { &pool } else { &clone };
                assert_eq!(
                    on.map_owned(n, move |i| i * k),
                    (0..n).map(|i| i * k).collect::<Vec<_>>()
                );
            }
            let spawns = registry.snapshot().counter("par.spawns").unwrap_or(0);
            assert_eq!(
                spawns as usize,
                jobs.min(max_n) - 1,
                "jobs={jobs} max_n={max_n}"
            );
        }
    }

    #[test]
    fn a_pool_that_never_dispatches_never_spawns() {
        let registry = Registry::new();
        let pool = Pool::new(Jobs::of(4)).with_telemetry(&registry);
        drop(pool.clone());
        pool.map_owned(1, |i| i);
        assert_eq!(registry.snapshot().counter("par.spawns"), None);
    }

    #[test]
    fn map_owned_items_open_spans_on_worker_lanes() {
        use std::sync::Arc;
        use vlc_telemetry::ManualClock;
        use vlc_trace::{worker_track, Tracer};

        let tracer = Tracer::with_clock(ManualClock::new());
        let root = Arc::new(tracer.root("fanout"));
        let pool = Pool::new(Jobs::of(3));
        let parent = Arc::clone(&root);
        pool.map_owned(9, move |i| drop(parent.child_indexed("item", i)));
        let Ok(root) = Arc::try_unwrap(root) else {
            panic!("map_owned kept its closure alive");
        };
        drop(root);

        let snap = tracer.snapshot();
        assert_eq!(snap.spans_named("item").count(), 9);
        let lanes: Vec<u32> = (0..3).map(|w| worker_track(0, w)).collect();
        assert!(snap.spans_named("item").all(|s| lanes.contains(&s.track)));
        assert_eq!(snap.children_of(snap.find("fanout").unwrap().id).len(), 9);
        assert_eq!(
            vlc_trace::current_track(),
            0,
            "the caller gets its lane back"
        );
    }

    #[test]
    fn pool_creation_is_counted() {
        let registry = Registry::new();
        let _a = Pool::new(Jobs::of(2)).with_telemetry(&registry);
        let _b = Pool::sequential().with_telemetry(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("par.pool.created"), Some(2));
    }

    #[test]
    fn sequential_path_spawns_nothing() {
        let registry = Registry::new();
        let pool = Pool::sequential().with_telemetry(&registry);
        pool.map_indexed(4, |i| i);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("par.spawns"), None);
        assert_eq!(snap.counter("par.worker0.items"), Some(4));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        Pool::sequential().fold_chunks(4, 0, || 0usize, |a, i| a + i, |a, b| a + b);
    }

    #[test]
    fn workers_open_spans_on_worker_lanes() {
        use vlc_telemetry::ManualClock;
        use vlc_trace::{worker_track, Tracer};

        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("fanout");
        let pool = Pool::new(Jobs::of(3));
        pool.map_indexed(9, |i| drop(root.child_indexed("item", i)));
        drop(root);

        let snap = tracer.snapshot();
        assert_eq!(snap.spans_named("item").count(), 9);
        // Every item span was opened on one of the three worker lanes
        // spawned from the main lane (track 0).
        let lanes: Vec<u32> = (0..3).map(|w| worker_track(0, w)).collect();
        assert!(snap.spans_named("item").all(|s| lanes.contains(&s.track)));
        // The span *tree* stays lane-independent: ids are structural.
        assert_eq!(snap.children_of(snap.find("fanout").unwrap().id).len(), 9);
    }

    #[test]
    fn sequential_path_keeps_the_caller_lane() {
        use vlc_telemetry::ManualClock;
        use vlc_trace::Tracer;

        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("seq");
        Pool::sequential().map_indexed(3, |i| drop(root.child_indexed("item", i)));
        drop(root);
        assert!(tracer.snapshot().spans_named("item").all(|s| s.track == 0));
    }
}
