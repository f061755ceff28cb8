//! The resident crew behind [`Pool::map_owned`](crate::Pool::map_owned):
//! worker threads spawned once per pool that, between dispatches, spin
//! for up to [`CREW_SPIN`] on the dispatch epoch and then park on a
//! condvar. A dispatch that closely follows the last one
//! is a cache-line handoff to a helper that is already awake; one that
//! follows a pause costs a wake-up; neither costs a thread spawn.
//!
//! A dispatch posts one type-erased job with a number of invitations; the
//! calling thread runs its own share as worker 0 while each helper that
//! joins in time takes an invitation and runs its share. Once the caller
//! runs out of items it withdraws the invitations left, so it never waits
//! for a helper that has not started — a late helper finds nothing to do
//! and goes back to spinning. The caller then spins for up to
//! [`CREW_SPIN`] on the count of running helpers before it parks on a
//! condvar of its own. Helpers drop their handle on the job *before* they
//! report, so the caller holds the only reference once the last one has,
//! and can take the results and the closure back out.
//!
//! The finished job is kept for the next dispatch with the same closure
//! and result types, so a steady stream of dispatches (one per control
//! tick) reuses its job and result slots and allocates nothing.

use crate::pool::payload_message;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vlc_telemetry::Registry;

/// How long an idle resident helper, or a caller waiting for its helpers,
/// spins before it parks. Longer than the gap between two control ticks,
/// so a tick loop's helpers stay awake; short enough that an idle pool
/// stops using CPU at once. Only scheduling depends on it, never an
/// output.
pub const CREW_SPIN: Duration = Duration::from_micros(50);

/// One dispatch's work with its types erased, so resident threads can run
/// any closure.
trait Task: Send + Sync {
    /// Runs participant `w`'s share: claims items until none are left.
    fn run(&self, w: usize);
}

/// `f` over `0..slots.len()`, each result placed in its index slot. `f`
/// is `None` only while the job waits, unposted, for the next dispatch.
struct Job<T, F> {
    f: Option<F>,
    /// Claim cursor. `Relaxed` is enough: it publishes no data — results
    /// travel through the slot mutexes, and completion through the crew's
    /// running count.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<T>>>,
    /// The lowest panicking index so far, with its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    telemetry: Registry,
    track_base: u32,
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Task for Job<T, F> {
    fn run(&self, w: usize) {
        let f = self.f.as_ref().expect("a posted job has its closure");
        vlc_trace::set_current_track(vlc_trace::worker_track(self.track_base, w));
        let _busy = self.telemetry.span("par.worker.busy_s");
        let mut done = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
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

/// Spins until `ready` holds or [`CREW_SPIN`] has passed; returns `ready()`.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + CREW_SPIN;
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

/// What the dispatching thread and the helpers share.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Helpers park here once their spin runs out.
    wake: Condvar,
    /// The dispatching thread parks here once its spin runs out.
    done: Condvar,
    /// Bumped per dispatch; a helper takes part in a dispatch at most once.
    epoch: AtomicU64,
    /// Set once, when the crew is dropped.
    ///
    /// `epoch` and `stop` are written only under the `state` lock, and a
    /// read outside it only ends a helper's spin, after which the helper
    /// takes the lock; they publish no data, so `Relaxed` is enough.
    stop: AtomicBool,
    /// Helpers that joined the current dispatch and have not yet finished.
    /// A helper decrements it after dropping its job handle, so the
    /// caller's `Acquire` load that reads 0 sees every handle dropped.
    running: AtomicUsize,
    /// The dispatching thread is parked, or about to park, on `done`. The
    /// caller stores it and then loads `running`; a finishing helper
    /// decrements `running` and then loads it. All four are `SeqCst`, so
    /// the caller sees 0 or the helper sees the flag and notifies.
    waiting: AtomicBool,
}

#[derive(Default)]
struct State {
    /// Helpers that may still join the current dispatch.
    invites: usize,
    /// Helpers parked on `wake`.
    parked: usize,
    job: Option<Arc<dyn Task>>,
    threads: Vec<JoinHandle<()>>,
}

/// Resident worker threads, spawned on demand and joined on drop.
#[derive(Default)]
pub(crate) struct Crew {
    shared: Arc<Shared>,
    /// The last finished job, kept for reuse. A dispatch holds this lock
    /// from start to end, so another one — re-entrant from one of its
    /// items, or concurrent from a second thread — finds it taken and
    /// runs inline instead.
    spare: Mutex<Option<Arc<dyn Any + Send + Sync>>>,
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
        let mut spare = match self.spare.try_lock() {
            Ok(spare) => spare,
            Err(TryLockError::WouldBlock) => return Err(f),
            Err(TryLockError::Poisoned(spare)) => spare.into_inner(),
        };
        let mut job = match spare.take().map(Arc::downcast::<Job<T, F>>) {
            Some(Ok(job)) => job,
            _ => Arc::new(Job {
                f: None,
                next: AtomicUsize::new(0),
                slots: Vec::new(),
                panic: Mutex::new(None),
                telemetry: Registry::noop(),
                track_base: 0,
            }),
        };
        let track_base = vlc_trace::current_track();
        {
            let post = Arc::get_mut(&mut job).expect("a spare job is unshared");
            post.f = Some(f);
            *post.next.get_mut() = 0;
            post.slots.resize_with(n, Mutex::default);
            post.telemetry.clone_from(telemetry);
            post.track_base = track_base;
        }
        let parked = {
            let mut state = lock(&self.shared.state);
            let helpers = self.grow(&mut state, participants - 1, telemetry);
            self.shared.epoch.fetch_add(1, Ordering::Relaxed);
            state.invites = helpers;
            state.job = Some(Arc::clone(&job) as Arc<dyn Task>);
            state.parked > 0
        };
        if parked {
            self.shared.wake.notify_all();
        }
        job.run(0);
        vlc_trace::set_current_track(track_base);
        {
            // Every item is claimed: a helper joining now would find none.
            let mut state = lock(&self.shared.state);
            state.invites = 0;
            state.job = None;
        }
        self.wait_for_helpers();

        let done = Arc::get_mut(&mut job).expect("helpers drop the job before they report");
        drop(done.f.take());
        let panic = done
            .panic
            .get_mut()
            .expect("no panic under the lock")
            .take();
        let out = if panic.is_some() {
            done.slots.clear();
            Vec::new()
        } else {
            done.slots
                .iter_mut()
                .map(|slot| {
                    slot.get_mut()
                        .expect("no panic under the lock")
                        .take()
                        .expect("every index was claimed exactly once")
                })
                .collect()
        };
        *spare = Some(job);
        drop(spare);
        if let Some((index, payload)) = panic {
            panic!(
                "parallel item {index} panicked: {}",
                payload_message(&payload)
            );
        }
        Ok(out)
    }

    /// Returns once every helper that joined the dispatch has reported:
    /// spins on the running count first, then parks on `done`.
    fn wait_for_helpers(&self) {
        let shared = &*self.shared;
        if spin_until(|| shared.running.load(Ordering::Acquire) == 0) {
            return;
        }
        shared.waiting.store(true, Ordering::SeqCst);
        let mut state = lock(&shared.state);
        while shared.running.load(Ordering::SeqCst) > 0 {
            state = shared
                .done
                .wait(state)
                .expect("vlc-par holds no lock across a panic");
        }
        shared.waiting.store(false, Ordering::Relaxed);
    }

    /// Spawns helpers up to `wanted`, returning how many are available
    /// (fewer only if the OS refused a thread).
    fn grow(&self, state: &mut State, wanted: usize, telemetry: &Registry) -> usize {
        let before = state.threads.len();
        while state.threads.len() < wanted {
            let w = state.threads.len() + 1;
            let shared = Arc::clone(&self.shared);
            let epoch = self.shared.epoch.load(Ordering::Relaxed);
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

/// Helper `w`'s life: spin, then park, until a dispatch it can join (or
/// stop); run its share, release the job, report.
fn work(shared: &Shared, w: usize, mut seen: u64) {
    loop {
        let stop = || shared.stop.load(Ordering::Relaxed);
        let epoch = || shared.epoch.load(Ordering::Relaxed);
        spin_until(|| epoch() != seen || stop());
        let job = {
            let mut state = lock(&shared.state);
            while !stop() && epoch() == seen {
                state.parked += 1;
                state = shared
                    .wake
                    .wait(state)
                    .expect("vlc-par holds no lock across a panic");
                state.parked -= 1;
            }
            if stop() {
                return;
            }
            seen = epoch();
            if state.invites == 0 {
                // Too late for this dispatch: wait for the next one.
                continue;
            }
            state.invites -= 1;
            shared.running.fetch_add(1, Ordering::SeqCst);
            Arc::clone(state.job.as_ref().expect("an open dispatch has a job"))
        };
        job.run(w);
        drop(job);
        if shared.running.fetch_sub(1, Ordering::SeqCst) == 1
            && shared.waiting.load(Ordering::SeqCst)
        {
            let _state = lock(&shared.state);
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
            self.shared.stop.store(true, Ordering::Relaxed);
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
