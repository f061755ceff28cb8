//! The tracer, RAII span handles, and the bounded finished-span ring.

use crate::snapshot::TraceSnapshot;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vlc_telemetry::{Clock, MonotonicClock};

/// Default capacity of the finished-span ring. Large enough that every
/// workload in this repo fits without eviction; determinism of the recorded
/// tree is only guaranteed while the ring does not overflow (the eviction
/// order depends on span *finish* order, which is scheduling-dependent).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Sequence-number base for [`Span::child_indexed`], far above any
/// plausible [`Span::child`] counter so the two kinds of children never
/// collide in the structural-id hash.
const INDEXED_SEQ_BASE: u64 = 1 << 32;

thread_local! {
    static CURRENT_TRACK: Cell<u32> = const { Cell::new(0) };
}

/// The lane ("track") spans opened on the current thread are labelled
/// with. The main thread is track 0; `vlc-par` workers set their own via
/// [`set_current_track`].
pub fn current_track() -> u32 {
    CURRENT_TRACK.with(Cell::get)
}

/// Sets the current thread's track. Worker threads call this once right
/// after spawning; the thread-local dies with the thread.
pub fn set_current_track(track: u32) {
    CURRENT_TRACK.with(|c| c.set(track));
}

/// The track for worker `w` spawned from a thread on `spawner` track:
/// workers of the main thread get lanes `1..`, workers of nested pools get
/// `spawner·256 + w + 1` so lanes stay distinct one level down.
pub fn worker_track(spawner: u32, w: usize) -> u32 {
    spawner
        .saturating_mul(256)
        .saturating_add(w as u32)
        .saturating_add(1)
}

/// Structural span id: FNV-1a over `(parent id, name, sibling sequence)`.
/// Depends only on the span's position in the tree — never on which thread
/// created it or when — which is what makes the recorded tree identical
/// for any worker count.
fn span_id(parent_id: u64, name: &str, seq: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for b in parent_id
        .to_le_bytes()
        .into_iter()
        .chain([0xfe])
        .chain(name.bytes())
        .chain([0xff])
        .chain(seq.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    // Id 0 is reserved for "no parent"; remap the (astronomically rare)
    // collision instead of colliding with the root sentinel.
    if h == 0 {
        1
    } else {
        h
    }
}

/// One finished span, as stored in the ring and exported in snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Structural id (see module docs); never 0.
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent_id: u64,
    /// Sibling sequence used to derive the id: the per-parent counter for
    /// [`Span::child`], `2³² + index` for [`Span::child_indexed`].
    pub seq: u64,
    /// Span name (e.g. `mac.plan`).
    pub name: String,
    /// Clock time at open, seconds.
    pub start_s: f64,
    /// Clock time at drop, seconds.
    pub end_s: f64,
    /// Lane of the opening thread (0 = main, ≥1 = pool workers). Excluded
    /// from the determinism contract.
    pub track: u32,
    /// `key=value` attributes in attachment order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Bounded ring of finished spans: overflow evicts the oldest record and
/// counts it, so a runaway workload degrades to "recent history" instead
/// of unbounded memory.
struct SpanRing {
    capacity: usize,
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

impl SpanRing {
    fn push(&mut self, record: SpanRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(record);
    }
}

struct TracerInner {
    clock: Box<dyn Clock>,
    ring: Mutex<SpanRing>,
    root_seq: AtomicU64,
}

/// The span recorder. `Tracer::default()` is the no-op tracer, matching
/// `Registry`'s convention; clones share the same ring.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(noop)"),
            Some(inner) => {
                let ring = inner.ring.lock().unwrap();
                write!(
                    f,
                    "Tracer({} spans, {} dropped)",
                    ring.buf.len(),
                    ring.dropped
                )
            }
        }
    }
}

impl Tracer {
    /// A live tracer on the wall clock with the default ring capacity.
    pub fn new() -> Self {
        Self::with_clock(MonotonicClock::new())
    }

    /// A live tracer on an injected clock (deterministic runs pass
    /// [`ManualClock`](vlc_telemetry::ManualClock)).
    pub fn with_clock(clock: impl Clock + 'static) -> Self {
        Self::with_clock_and_capacity(clock, DEFAULT_SPAN_CAPACITY)
    }

    /// A live tracer with an explicit clock and ring capacity (min 1).
    pub fn with_clock_and_capacity(clock: impl Clock + 'static, capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock: Box::new(clock),
                ring: Mutex::new(SpanRing {
                    capacity: capacity.max(1),
                    buf: VecDeque::new(),
                    dropped: 0,
                }),
                root_seq: AtomicU64::new(0),
            })),
        }
    }

    /// The inert tracer: hands out no-op spans, records nothing, allocates
    /// nothing. Every operation costs one branch.
    pub fn noop() -> Self {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span (parent id 0). Roots are expected to be opened
    /// from one thread at a time; their sequence is a global counter.
    pub fn root(&self, name: &str) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => {
                let seq = inner.root_seq.fetch_add(1, Ordering::Relaxed);
                Span::open(Arc::clone(inner), 0, seq, name)
            }
        }
    }

    /// Snapshot of every finished span, sorted by `(start, parent, seq,
    /// name, id)` — a deterministic order under `ManualClock`.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot {
                spans: Vec::new(),
                dropped: 0,
            },
            Some(inner) => {
                let ring = inner.ring.lock().unwrap();
                let mut spans: Vec<SpanRecord> = ring.buf.iter().cloned().collect();
                spans.sort_by(|a, b| {
                    a.start_s
                        .total_cmp(&b.start_s)
                        .then(a.parent_id.cmp(&b.parent_id))
                        .then(a.seq.cmp(&b.seq))
                        .then(a.name.cmp(&b.name))
                        .then(a.id.cmp(&b.id))
                });
                TraceSnapshot {
                    spans,
                    dropped: ring.dropped,
                }
            }
        }
    }
}

struct SpanData {
    tracer: Arc<TracerInner>,
    id: u64,
    parent_id: u64,
    seq: u64,
    name: String,
    start_s: f64,
    track: u32,
    attrs: Mutex<Vec<(String, String)>>,
    child_seq: AtomicU64,
}

/// An in-flight span: records itself into the tracer's ring when dropped.
/// The no-op span ([`Span::noop`]) carries nothing and every operation on
/// it is a single branch.
#[must_use = "a span measures the scope it lives in; dropping it immediately records zero duration"]
pub struct Span {
    data: Option<Box<SpanData>>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.data {
            None => write!(f, "Span(noop)"),
            Some(d) => write!(f, "Span({} #{:#x})", d.name, d.id),
        }
    }
}

impl Span {
    /// The inert span: children are no-ops, attributes vanish, nothing is
    /// recorded on drop. This is what uninstrumented call paths pass.
    pub const fn noop() -> Span {
        Span { data: None }
    }

    /// Whether this span records anything.
    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }

    /// This span's structural id (`None` on the no-op span).
    pub fn id(&self) -> Option<u64> {
        self.data.as_ref().map(|d| d.id)
    }

    fn open(tracer: Arc<TracerInner>, parent_id: u64, seq: u64, name: &str) -> Span {
        let start_s = tracer.clock.now_s();
        Span {
            data: Some(Box::new(SpanData {
                id: span_id(parent_id, name, seq),
                parent_id,
                seq,
                name: name.to_string(),
                start_s,
                track: current_track(),
                attrs: Mutex::new(Vec::new()),
                child_seq: AtomicU64::new(0),
                tracer,
            })),
        }
    }

    /// Opens a child span at the next sibling sequence. Use this at call
    /// sites that create children *sequentially* (one thread at a time);
    /// for parallel fan-out use [`Span::child_indexed`] so the child's id
    /// does not depend on worker arrival order.
    pub fn child(&self, name: &str) -> Span {
        match &self.data {
            None => Span::noop(),
            Some(d) => {
                let seq = d.child_seq.fetch_add(1, Ordering::Relaxed);
                Span::open(Arc::clone(&d.tracer), d.id, seq, name)
            }
        }
    }

    /// Opens a child span whose sibling sequence is the work-item `index`
    /// — the fan-out form: the child's structural id depends only on
    /// `(parent, name, index)`, so the recorded tree is identical for any
    /// worker count.
    pub fn child_indexed(&self, name: &str, index: usize) -> Span {
        match &self.data {
            None => Span::noop(),
            Some(d) => Span::open(
                Arc::clone(&d.tracer),
                d.id,
                INDEXED_SEQ_BASE + index as u64,
                name,
            ),
        }
    }

    /// Attaches a `key=value` attribute (kept in attachment order).
    pub fn attr(&self, key: &str, value: &str) {
        if let Some(d) = &self.data {
            d.attrs
                .lock()
                .unwrap()
                .push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let end_s = d.tracer.clock.now_s();
            let record = SpanRecord {
                id: d.id,
                parent_id: d.parent_id,
                seq: d.seq,
                name: d.name,
                start_s: d.start_s,
                end_s,
                track: d.track,
                attrs: d.attrs.into_inner().unwrap(),
            };
            d.tracer.ring.lock().unwrap().push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_telemetry::ManualClock;

    #[test]
    fn noop_tracer_records_nothing_and_is_disabled() {
        let tracer = Tracer::noop();
        assert!(!tracer.is_enabled());
        let root = tracer.root("r");
        assert!(!root.is_enabled());
        assert_eq!(root.id(), None);
        let child = root.child("c");
        child.attr("k", "v");
        let indexed = root.child_indexed("i", 7);
        drop(indexed);
        drop(child);
        drop(root);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn spans_record_times_and_attrs_under_manual_clock() {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("round");
        clock.advance(1.0);
        let child = root.child("phase");
        child.attr("k", "v");
        clock.advance(0.5);
        drop(child);
        clock.advance(0.25);
        drop(root);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let round = snap.find("round").expect("root recorded");
        let phase = snap.find("phase").expect("child recorded");
        assert_eq!(round.parent_id, 0);
        assert_eq!(phase.parent_id, round.id);
        assert_eq!(round.start_s, 0.0);
        assert_eq!(round.end_s, 1.75);
        assert_eq!(phase.start_s, 1.0);
        assert_eq!(phase.duration_s(), 0.5);
        assert_eq!(phase.attrs, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn structural_ids_are_position_dependent_only() {
        // The same tree built twice (fresh tracers) yields the same ids.
        let build = || {
            let tracer = Tracer::with_clock(ManualClock::new());
            let root = tracer.root("r");
            let a = root.child("a");
            let b = root.child("a"); // same name, next sibling seq
            let i5 = root.child_indexed("item", 5);
            let ids = (a.id(), b.id(), i5.id(), root.id());
            drop((a, b, i5, root));
            ids
        };
        let first = build();
        let second = build();
        assert_eq!(first, second);
        // Sibling sequence disambiguates same-named children.
        assert_ne!(first.0, first.1);
        // Indexed children live in their own sequence namespace.
        assert_ne!(first.0, first.2);
    }

    #[test]
    fn indexed_children_ignore_creation_order() {
        let ids_in_order = |order: &[usize]| {
            let tracer = Tracer::with_clock(ManualClock::new());
            let root = tracer.root("r");
            let mut ids: Vec<(usize, u64)> = order
                .iter()
                .map(|&i| (i, root.child_indexed("item", i).id().unwrap()))
                .collect();
            ids.sort_by_key(|&(i, _)| i);
            drop(root);
            ids
        };
        assert_eq!(ids_in_order(&[0, 1, 2, 3]), ids_in_order(&[3, 1, 0, 2]));
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts() {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock_and_capacity(clock.clone(), 3);
        let root = tracer.root("r");
        for i in 0..5 {
            clock.advance(1.0);
            drop(root.child_indexed("item", i));
        }
        drop(root);
        let snap = tracer.snapshot();
        // Capacity 3: items 0 and 1 were evicted by 3 and 4; the root's
        // own record then evicted item 2.
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.spans.len(), 3);
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"r"));
        assert!(!snap
            .spans
            .iter()
            .any(|s| s.name == "item" && s.seq == INDEXED_SEQ_BASE));
    }

    #[test]
    fn worker_tracks_nest_without_colliding() {
        assert_eq!(worker_track(0, 0), 1);
        assert_eq!(worker_track(0, 3), 4);
        assert_eq!(worker_track(2, 0), 513);
        assert_ne!(worker_track(1, 0), worker_track(0, 1));
    }

    #[test]
    fn track_is_captured_from_the_opening_thread() {
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("r");
        std::thread::scope(|scope| {
            let root = &root;
            scope
                .spawn(move || {
                    set_current_track(worker_track(0, 1));
                    drop(root.child_indexed("on_worker", 0));
                })
                .join()
                .unwrap();
        });
        drop(root);
        let snap = tracer.snapshot();
        assert_eq!(snap.find("on_worker").unwrap().track, 2);
        assert_eq!(snap.find("r").unwrap().track, 0);
    }
}
