//! Installed-allocator behavior of `vlc_prof::alloc_counter`.
//!
//! The crate's unit tests pin what happens WITHOUT the counting allocator
//! (all counts zero, no attributes attached); this integration test binary
//! installs it via `#[global_allocator]` and pins the other half of the
//! contract: counts move, `AllocScope` attaches `allocs`/`deallocs`
//! attributes to spans, and `Profile::from_snapshot` sums them per call
//! path.

use vlc_prof::alloc_counter::{
    allocations_during, counts_during, AllocScope, CountingAlloc, ALLOCS_ATTR, DEALLOCS_ATTR,
};
use vlc_prof::Profile;
use vlc_telemetry::{ManualClock, Registry};
use vlc_trace::Tracer;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counts_track_this_threads_allocations() {
    let n = allocations_during(|| {
        let v: Vec<u64> = Vec::with_capacity(64);
        drop(v);
    });
    assert_eq!(n, 1, "one Vec allocation, counted once");

    let c = counts_during(|| {
        let a = vec![0u8; 128];
        let b = vec![0u8; 256];
        drop(a);
        drop(b);
    });
    assert_eq!(c.allocs, 2);
    assert_eq!(c.deallocs, 2);
}

#[test]
fn realloc_counts_as_one_allocation() {
    let mut v: Vec<u8> = Vec::with_capacity(8);
    v.extend_from_slice(&[0; 8]);
    let n = allocations_during(|| {
        // Force a capacity grow: exactly one realloc (or alloc+copy under
        // the hood, but one call into the allocator either way).
        v.reserve_exact(16);
    });
    assert_eq!(n, 1, "a grow is one counted allocation");
}

#[test]
fn other_threads_do_not_pollute_this_threads_window() {
    let n = allocations_during(|| {
        std::thread::spawn(|| {
            let _noise: Vec<u8> = vec![0; 4096];
        })
        .join()
        .unwrap();
        // `spawn`/`join` allocate on *this* thread (closure box, handle),
        // so the window is not zero — but the spawned thread's vec must
        // not appear. Pin an upper bound well under "everything counted".
    });
    let direct = allocations_during(|| {
        let _noise: Vec<u8> = vec![0; 4096];
    });
    assert_eq!(direct, 1);
    assert!(
        n < 64,
        "spawn bookkeeping should be small; cross-thread bleed would add \
         the worker's allocations here (saw {n})"
    );
}

#[test]
fn alloc_scope_attaches_deltas_as_span_attrs() {
    let tracer = Tracer::with_clock(ManualClock::new());
    let root = tracer.root("audit");
    {
        let child = root.child("hot");
        let _scope = AllocScope::new(&child);
        let v: Vec<u64> = (0..100).collect();
        drop(v);
    }
    drop(root);

    let snap = tracer.snapshot();
    let hot = snap
        .spans
        .iter()
        .find(|s| s.name == "hot")
        .expect("child span recorded");
    let attr = |key: &str| {
        hot.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse::<u64>().expect("numeric attr"))
    };
    let allocs = attr(ALLOCS_ATTR).expect("allocs attr present");
    let deallocs = attr(DEALLOCS_ATTR).expect("deallocs attr present");
    assert!(allocs >= 1, "the Vec must be attributed (saw {allocs})");
    assert!(
        deallocs >= 1,
        "its drop must be attributed (saw {deallocs})"
    );
}

#[test]
fn profile_sums_attributed_allocations_per_path() {
    let tracer = Tracer::with_clock(ManualClock::new());
    let root = tracer.root("run");
    for _ in 0..3 {
        let step = root.child("step");
        let _scope = AllocScope::new(&step);
        let v: Vec<u8> = vec![7; 512];
        drop(v);
    }
    drop(root);

    let profile = Profile::from_snapshot(&tracer.snapshot(), 1);
    let node = profile.node("run;step").expect("aggregated path");
    assert_eq!(node.calls, 3);
    assert!(
        node.allocs >= 3,
        "each call allocates at least its Vec (saw {})",
        node.allocs
    );
    assert!(node.deallocs >= 3);
}

#[test]
fn registry_lookup_of_an_existing_name_allocates_nothing() {
    let registry = Registry::new();
    registry.counter("test.counter").inc();
    registry.gauge("test.gauge").set(1.0);
    registry.histogram("test.histogram").record(1.0);
    let n = allocations_during(|| {
        for _ in 0..8 {
            registry.counter("test.counter").inc();
            registry.gauge("test.gauge").set(2.0);
            registry.histogram("test.histogram").record(2.0);
            drop(registry.span("test.histogram"));
        }
    });
    assert_eq!(n, 0, "repeated lookups made {n} heap allocations");
}
