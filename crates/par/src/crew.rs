//! The resident crew behind [`Pool::map_owned`](crate::Pool::map_owned):
//! worker threads spawned once per pool and parked on a condvar between
//! dispatches, so a dispatch costs a wake-up instead of a thread spawn.
//!
//! A dispatch posts one type-erased job with a number of invitations; the
//! calling thread runs its own share as worker 0 while each helper that
//! wakes in time takes an invitation and runs its share. Once the caller
//! runs out of items it withdraws the invitations left, so it never waits
//! for a helper that has not started — a late helper finds nothing to do
//! and parks again. Helpers drop their handle on the job *before* they
//! signal completion, so the caller holds the only reference once the
//! last one reports and can take the results (and the closure) back by
//! value.

use crate::pool::payload_message;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use vlc_telemetry::Registry;

/// One dispatch's work with its types erased, so resident threads can run
/// any closure.
trait Task: Send + Sync {
    /// Runs participant `w`'s share: claims items until none are left.
    fn run(&self, w: usize);
}

/// `f` over `0..slots.len()`, each result placed in its index slot.
struct Job<T, F> {
    f: F,
    /// Claim cursor. `Relaxed` is enough: it publishes no data — results
    /// travel through the slot mutexes, and completion through the crew
    /// state mutex.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<T>>>,
    /// The lowest panicking index so far, with its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    telemetry: Registry,
    track_base: u32,
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Task for Job<T, F> {
    fn run(&self, w: usize) {
        vlc_trace::set_current_track(vlc_trace::worker_track(self.track_base, w));
        let _busy = self.telemetry.span("par.worker.busy_s");
        let mut done = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                Ok(v) => {
                    *lock(&self.slots[i]) = Some(v);
                    done += 1;
                }
                Err(payload) => {
                    let mut lowest = lock(&self.panic);
                    if lowest.as_ref().is_none_or(|(j, _)| i < *j) {
                        *lowest = Some((i, payload));
                    }
                }
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter(&format!("par.worker{w}.items"))
                .add(done);
        }
    }
}

/// Locks a mutex that no code panics while holding: item panics are
/// caught before any result or crew state is touched.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("vlc-par holds no lock across a panic")
}

/// What the dispatching thread and the parked workers share.
struct Shared {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    wake: Condvar,
    /// The dispatching thread waits here for its helpers.
    done: Condvar,
}

#[derive(Default)]
struct State {
    /// A dispatch is in flight. Another one — re-entrant from one of its
    /// items, or concurrent from a second thread — runs inline instead.
    busy: bool,
    /// Set once, when the crew is dropped.
    stop: bool,
    /// Bumped per dispatch; a helper takes part in a dispatch at most once.
    epoch: u64,
    /// Helpers that may still join the current dispatch.
    invites: usize,
    /// Helpers that joined the current dispatch and have not yet finished.
    pending: usize,
    job: Option<Arc<dyn Task>>,
    threads: Vec<JoinHandle<()>>,
}

/// Resident worker threads, spawned on demand and joined on drop.
pub(crate) struct Crew {
    shared: Arc<Shared>,
}

impl Default for Crew {
    fn default() -> Self {
        Crew {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }
}

impl std::fmt::Debug for Crew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crew").finish_non_exhaustive()
    }
}

impl Crew {
    /// Runs `f` over `0..n` on the caller plus up to `participants − 1`
    /// resident helpers, spawning the helpers this crew does not have yet
    /// (counted in `par.spawns`). Results come back in index order.
    ///
    /// Returns `Err(f)` untouched when the crew is already running a
    /// dispatch; the caller then runs `f` inline.
    ///
    /// # Panics
    /// Re-raises the lowest panicking item's panic once every helper has
    /// finished, leaving the crew ready for the next dispatch.
    pub(crate) fn dispatch<T, F>(
        &self,
        n: usize,
        participants: usize,
        f: F,
        telemetry: &Registry,
    ) -> Result<Vec<T>, F>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let helpers = {
            let mut state = lock(&self.shared.state);
            if state.busy {
                return Err(f);
            }
            state.busy = true;
            self.grow(&mut state, participants - 1, telemetry)
        };
        let track_base = vlc_trace::current_track();
        let job = Arc::new(Job {
            f,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
            telemetry: telemetry.clone(),
            track_base,
        });
        {
            let mut state = lock(&self.shared.state);
            state.epoch += 1;
            state.invites = helpers;
            state.job = Some(Arc::clone(&job) as Arc<dyn Task>);
        }
        self.shared.wake.notify_all();
        job.run(0);
        vlc_trace::set_current_track(track_base);
        {
            // Every item is claimed: a helper joining now would find none.
            let mut state = lock(&self.shared.state);
            state.invites = 0;
            while state.pending > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .expect("vlc-par holds no lock across a panic");
            }
            state.job = None;
            state.busy = false;
        }

        let Ok(Job { slots, panic, .. }) = Arc::try_unwrap(job) else {
            unreachable!("helpers drop the job before they signal completion");
        };
        if let Some((index, payload)) = panic.into_inner().expect("no panic under the lock") {
            panic!(
                "parallel item {index} panicked: {}",
                payload_message(&payload)
            );
        }
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no panic under the lock")
                    .expect("every index was claimed exactly once")
            })
            .collect())
    }

    /// Spawns helpers up to `wanted`, returning how many are available
    /// (fewer only if the OS refused a thread).
    fn grow(&self, state: &mut State, wanted: usize, telemetry: &Registry) -> usize {
        let before = state.threads.len();
        while state.threads.len() < wanted {
            let w = state.threads.len() + 1;
            let shared = Arc::clone(&self.shared);
            let epoch = state.epoch;
            let spawned = std::thread::Builder::new()
                .name(format!("vlc-par-{w}"))
                .spawn(move || work(&shared, w, epoch));
            match spawned {
                Ok(handle) => state.threads.push(handle),
                Err(_) => break,
            }
        }
        let spawned = state.threads.len() - before;
        if spawned > 0 {
            telemetry.counter("par.spawns").add(spawned as u64);
        }
        state.threads.len().min(wanted)
    }
}

/// Helper `w`'s life: park until a dispatch it can join (or stop), run
/// its share, release the job, report.
fn work(shared: &Shared, w: usize, mut seen: u64) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if state.stop {
                    return;
                }
                if state.epoch != seen {
                    seen = state.epoch;
                    if state.invites > 0 {
                        state.invites -= 1;
                        state.pending += 1;
                        break Arc::clone(state.job.as_ref().expect("an open dispatch has a job"));
                    }
                }
                state = shared
                    .wake
                    .wait(state)
                    .expect("vlc-par holds no lock across a panic");
            }
        };
        job.run(w);
        drop(job);
        let mut state = lock(&shared.state);
        state.pending -= 1;
        if state.pending == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let threads = {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.stop = true;
            std::mem::take(&mut state.threads)
        };
        self.shared.wake.notify_all();
        // Only pools own the crew and helpers own no pool, so this runs
        // on a thread outside the crew. Helpers catch every item panic, so
        // a join error would carry nothing to report, and `Drop` must not
        // panic.
        for handle in threads {
            let _ = handle.join();
        }
    }
}
