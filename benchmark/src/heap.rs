//! The benchmark binary's global allocator: `vlc-prof`'s per-thread
//! allocation counter plus a process-wide live and peak heap byte count.
//!
//! Peak heap is reported instead of peak RSS: the RSS of these small
//! processes moved by up to 7 % between runs of the same work, while the
//! heap peak only moves when the program's data does.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

use vlc_prof::alloc_counter::CountingAlloc;

// Plain statistics: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Install with `#[global_allocator]` in the benchmark binary.
pub struct HeapTracker;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, a valid `GlobalAlloc`, and returns its result; the
// byte counters never touch the memory.
unsafe impl GlobalAlloc for HeapTracker {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = CountingAlloc.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = CountingAlloc.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

/// The largest live heap the process has held, MiB (0 unless
/// [`HeapTracker`] is the global allocator).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
