//! Property tests for the worker pool: the determinism contract must hold
//! for *arbitrary* item counts, worker counts, chunk sizes, and panic
//! placements — not just the handful of shapes the unit tests pin down.

use proptest::prelude::*;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use vlc_par::{Jobs, Pool};

/// A deterministic, index-dependent payload with enough structure to catch
/// out-of-order reassembly (not symmetric in `i`).
fn payload(i: usize) -> (usize, f64) {
    (i.wrapping_mul(2654435761) % 1000, (i as f64 + 0.5).sqrt())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `map_indexed` returns exactly the sequential result — same values,
    /// same order — for any item count and worker count.
    #[test]
    fn map_matches_sequential_for_any_shape(
        n in 0usize..80,
        workers in 1usize..9,
    ) {
        let expected: Vec<_> = (0..n).map(payload).collect();
        let got = Pool::new(Jobs::of(workers)).map_indexed(n, payload);
        prop_assert_eq!(got, expected);
    }

    /// `fold_chunks` performs an *ordered* reduction: with an
    /// order-sensitive merge (string concatenation) the result equals the
    /// left-to-right sequential fold for any chunk size and worker count.
    #[test]
    fn fold_reduction_is_ordered(
        n in 0usize..60,
        chunk in 1usize..20,
        workers in 1usize..9,
    ) {
        let expected: String = (0..n).map(|i| format!("{i},")).collect();
        let got = Pool::new(Jobs::of(workers)).fold_chunks(
            n,
            chunk,
            String::new,
            |acc, i| acc + &format!("{i},"),
            |a, b| a + &b,
        );
        prop_assert_eq!(got, expected);
    }

    /// `argmax_by` with a strict `better` predicate always returns the
    /// *leftmost* maximum — ties break to the lowest index — for any
    /// score landscape, chunk size, and worker count.
    #[test]
    fn argmax_is_leftmost_for_any_landscape(
        scores in proptest::collection::vec(0u32..6, 0..60),
        chunk in 1usize..16,
        workers in 1usize..9,
    ) {
        let expected = scores
            .iter()
            .enumerate()
            .fold(None::<(usize, u32)>, |best, (i, &s)| match best {
                Some((_, b)) if s <= b => best,
                _ => Some((i, s)),
            });
        let got = Pool::new(Jobs::of(workers)).argmax_by(
            scores.len(),
            chunk,
            |i| Some(scores[i]),
            |a, b| a > b,
        );
        prop_assert_eq!(got, expected);
    }

    /// A panicking item never deadlocks the pool, and the propagated panic
    /// names the *lowest* panicking index — the same one the sequential
    /// path would hit first — for any placement and worker count.
    #[test]
    fn panics_propagate_with_the_lowest_index(
        n in 1usize..40,
        panickers in proptest::collection::vec(0usize..40, 1..5),
        workers in 1usize..9,
    ) {
        let panickers: Vec<usize> =
            panickers.into_iter().map(|p| p % n).collect();
        let lowest = *panickers.iter().min().unwrap();
        let pool = Pool::new(Jobs::of(workers));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(n, |i| {
                if panickers.contains(&i) {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = result.expect_err("a panicking item must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string>".into());
        prop_assert_eq!(
            &msg,
            &format!("parallel item {lowest} panicked: boom at {lowest}"),
            "got panic message: {}", msg
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `map_owned` on the resident crew returns exactly the sequential
    /// result for any item count and worker count.
    #[test]
    fn map_owned_matches_sequential_for_any_shape(
        n in 0usize..80,
        pick in 0usize..4,
    ) {
        let jobs = [2, 3, 7, Jobs::max().get()][pick];
        let expected: Vec<_> = (0..n).map(payload).collect();
        let got = Pool::new(Jobs::of(jobs)).map_owned(n, payload);
        prop_assert_eq!(got, expected);
    }

    /// A panicking item on the crew names the lowest panicking index, and
    /// the same pool serves the next dispatch.
    #[test]
    fn map_owned_panics_name_the_lowest_index_and_the_crew_survives(
        n in 1usize..40,
        panickers in proptest::collection::vec(0usize..40, 1..5),
        workers in 2usize..9,
    ) {
        let panickers: Vec<usize> = panickers.into_iter().map(|p| p % n).collect();
        let lowest = *panickers.iter().min().unwrap();
        let pool = Pool::new(Jobs::of(workers));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_owned(n, move |i| {
                if panickers.contains(&i) {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let err = result.expect_err("a panicking item must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        prop_assert_eq!(msg, format!("parallel item {lowest} panicked: boom at {lowest}"));
        prop_assert_eq!(pool.map_owned(n, payload), (0..n).map(payload).collect::<Vec<_>>());
    }
}

/// Two threads dispatch on clones of one pool while the first dispatch is
/// provably still in flight: the second must complete (inline), not wait.
#[test]
fn concurrent_dispatches_on_one_crew_both_complete() {
    let pool = Pool::new(Jobs::of(3));
    let started = Arc::new(Barrier::new(2));
    let finished = Arc::new(Barrier::new(2));
    let other = {
        let pool = pool.clone();
        let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
        std::thread::spawn(move || {
            started.wait();
            let got = pool.map_owned(23, payload);
            finished.wait();
            got
        })
    };
    let (s, f) = (Arc::clone(&started), Arc::clone(&finished));
    let first = pool.map_owned(5, move |i| {
        if i == 0 {
            s.wait();
            f.wait();
        }
        payload(i)
    });
    assert_eq!(first, (0..5).map(payload).collect::<Vec<_>>());
    let second = other.join().expect("the second dispatch completes");
    assert_eq!(second, (0..23).map(payload).collect::<Vec<_>>());
}

/// An item that dispatches on its own pool must not deadlock the crew.
#[test]
fn reentrant_dispatch_completes() {
    let pool = Pool::new(Jobs::of(3));
    let inner = pool.clone();
    let got = pool.map_owned(6, move |i| inner.map_owned(i, payload));
    let expected: Vec<Vec<_>> = (0..6).map(|i| (0..i).map(payload).collect()).collect();
    assert_eq!(got, expected);
}

thread_local! {
    /// A token each crew helper keeps until its thread exits.
    static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
}

/// Dropping the last clone of a pool joins every resident worker: each
/// helper stashes a token in a thread-local, which is released only when
/// its thread exits, so the token's count falls to zero exactly when the
/// crew has been joined.
#[test]
fn dropping_the_last_clone_joins_every_worker() {
    let jobs = 4;
    let token = Arc::new(());
    let weak = Arc::downgrade(&token);
    let pool = Pool::new(Jobs::of(jobs));
    let clone = pool.clone();
    let caller = std::thread::current().id();
    // One item per participant, held at a barrier so every participant
    // takes exactly one.
    let barrier = Arc::new(Barrier::new(jobs));
    pool.map_owned(jobs, move |_| {
        barrier.wait();
        if std::thread::current().id() != caller {
            HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&token)));
        }
    });
    assert_eq!(weak.strong_count(), jobs - 1, "one token per helper");
    drop(pool);
    assert_eq!(weak.strong_count(), jobs - 1, "a live clone keeps the crew");
    drop(clone);
    assert_eq!(weak.strong_count(), 0, "every helper thread has exited");
}
