//! Dependency-free observability layer: span tracing, a metrics registry, and
//! trace export — the `soteria-exec` idiom (std-only, deterministic,
//! injectable) applied to *timing* visibility.
//!
//! The service's counters (`ServiceStats`, `CacheStats`, `StoreStats`) say how
//! often things happened but never where a job's wall-clock went across
//! ingest → IR → symbolic exec → model → union → check → cache/store. This
//! crate closes that gap with three pieces:
//!
//! * **Spans** ([`span`]) — RAII guards with monotonic timestamps, parent
//!   links, and `&'static str` stage labels. Open spans live in a per-thread
//!   buffer; when a thread's outermost span closes, the whole tree flushes
//!   into the global [`Collector`] in one lock acquisition. Spans carry the
//!   current [`TraceId`] (installed per job by the service via
//!   [`with_trace`]), so a drained buffer stitches back into per-job traces.
//! * **Metrics** ([`add`], [`record_duration`], [`metrics_snapshot`]) — named
//!   counters plus fixed-bucket latency histograms. Buckets are powers of two
//!   in nanoseconds, so p50/p90/p99 are derived with integer arithmetic only
//!   (no floats in keys or ranks) and a snapshot is a deterministic function
//!   of the recorded values. Every closed span feeds the histogram named by
//!   its label for free.
//! * **Exporters** ([`chrome_trace_json`], [`slow_jobs_summary`]) — Chrome
//!   `trace_event` JSON (loadable in `about:tracing` / Perfetto) and a human
//!   top-N summary of the slowest traces.
//!
//! # Cost model
//!
//! The layer is **off by default**: [`enabled`] is one relaxed atomic load,
//! and every instrumentation site branches on it before touching a clock or a
//! lock — a disabled span is an `Option<..>` holding `None`. Enabling costs
//! real time (measured honestly in `BENCH_pr9.json`) but never changes a
//! result: instrumentation only *reads* analysis state, so traced and
//! untraced runs are byte-identical (gated in `tests/observability.rs` and
//! the traced CI test leg). Tracing is enabled by the
//! `SOTERIA_TRACE` environment variable (read once, lazily) or explicitly via
//! [`set_enabled`] (`soteria-serve --trace-out` does this).
//!
//! # Determinism
//!
//! Timestamps come from [`now_ns`]: a process-epoch-relative monotonic clock,
//! replaceable by a **fake clock** ([`set_fake_clock`] / [`advance_fake_clock`])
//! that tests drive by hand — with it, histogram snapshots and span timings
//! are exact, reproducible values. Quantiles report bucket upper bounds, so
//! two runs recording the same durations snapshot identically regardless of
//! host speed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use soteria_sync::{Mutex, MutexGuard};
use std::sync::OnceLock;
use std::time::Instant;

mod export;
mod metrics;

pub use export::{chrome_trace_json, slow_jobs_summary, TraceSummary};
pub use metrics::{HistogramSnapshot, MetricsSnapshot};

/// The environment variable that enables tracing process-wide (`1`, `true`,
/// or `on`; anything else, or unset, leaves it off). Read once, lazily, on the
/// first [`enabled`] query; [`set_enabled`] overrides it either way.
pub const TRACE_ENV: &str = "SOTERIA_TRACE";

// ---------------------------------------------------------------------------
// Enabled state
// ---------------------------------------------------------------------------

/// 0 = uninitialised (consult `SOTERIA_TRACE`), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the collector is recording. One relaxed load on the hot path —
/// this is the branch every disabled span costs.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_enabled_from_env(),
        state => state == 2,
    }
}

#[cold]
fn init_enabled_from_env() -> bool {
    let on = std::env::var(TRACE_ENV)
        .map(|v| matches!(v.trim(), "1" | "true" | "on"))
        .unwrap_or(false);
    // A concurrent `set_enabled` wins: only replace the uninitialised state.
    let _ = ENABLED.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Turns the collector on or off explicitly (overriding `SOTERIA_TRACE`).
/// Spans already open keep recording until they close; new sites observe the
/// change at their next [`enabled`] branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static FAKE_ACTIVE: AtomicBool = AtomicBool::new(false);
static FAKE_NOW: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process observability epoch (the first
/// clock read), or the fake clock's current value when one is installed.
/// Cheap enough to call unconditionally (fault records stamp themselves with
/// it even when tracing is off).
pub fn now_ns() -> u64 {
    if FAKE_ACTIVE.load(Ordering::Relaxed) {
        FAKE_NOW.load(Ordering::Relaxed)
    } else {
        epoch().elapsed().as_nanos() as u64
    }
}

/// Installs a fake clock starting at `start_ns`. Until [`clear_fake_clock`],
/// [`now_ns`] returns exactly the value tests drive via
/// [`advance_fake_clock`] — the determinism hook for histogram and span
/// assertions.
pub fn set_fake_clock(start_ns: u64) {
    FAKE_NOW.store(start_ns, Ordering::Relaxed);
    FAKE_ACTIVE.store(true, Ordering::Relaxed);
}

/// Advances the fake clock by `delta_ns` (no-op warning: requires
/// [`set_fake_clock`] first — on the real clock this does nothing).
pub fn advance_fake_clock(delta_ns: u64) {
    FAKE_NOW.fetch_add(delta_ns, Ordering::Relaxed);
}

/// Returns to the real monotonic clock.
pub fn clear_fake_clock() {
    FAKE_ACTIVE.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// The identity of one job's trace. `TraceId(0)` means "no trace" — spans
/// recorded outside any job (process-level work) carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// True when this is a real per-job trace (not the sentinel).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh trace id (the service calls this once per accepted job).
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

thread_local! {
    static CURRENT_TRACE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The trace governing work on the current thread ([`TraceId::NONE`] outside
/// any [`with_trace`] scope).
pub fn current_trace() -> TraceId {
    TraceId(CURRENT_TRACE.with(std::cell::Cell::get))
}

/// Runs `f` with `trace` installed as the current thread's trace, restoring
/// the previous trace afterwards (even on unwind), so nested scopes compose —
/// the same shape as `soteria_exec::with_abort`.
pub fn with_trace<R>(trace: TraceId, f: impl FnOnce() -> R) -> R {
    let _scope = install_trace(trace);
    f()
}

/// Installs `trace` until the returned guard drops — the guard-shaped sibling
/// of [`with_trace`] for worker-loop prologues (the pool re-installs the
/// submitter's trace on whichever worker claims the task).
pub fn install_trace(trace: TraceId) -> TraceScope {
    let prev = CURRENT_TRACE.with(|slot| slot.replace(trace.0));
    TraceScope { prev }
}

/// Restores the previously installed trace on drop.
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|slot| slot.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One closed span: a labelled `[start, start + dur)` interval on one thread,
/// linked to its parent span (0 = root of its thread's tree) and its owning
/// trace (0 = none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// The owning job's trace id, or 0 outside any job.
    pub trace: u64,
    /// Stage label (also the histogram this span's duration feeds).
    pub label: &'static str,
    /// Start, nanoseconds since the observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the recording thread (assigned on first span).
    pub thread: u64,
}

impl SpanRecord {
    /// End of the interval, saturating.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct ThreadBuf {
    /// This thread's dense id (assigned lazily, stable for the thread's life).
    thread: u64,
    /// Spans of the current root tree, open ones with `dur_ns == u64::MAX`.
    spans: Vec<SpanRecord>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Opens a span. When the collector is disabled this is one branch and the
/// guard is inert; when enabled, the span records its start now and its
/// duration when the guard drops (including during an unwind — a cancelled
/// stage still closes every span it opened). When the thread's outermost span
/// closes, the whole tree flushes to the global collector.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { index: usize::MAX, _not_send: std::marker::PhantomData };
    }
    open_span(label)
}

#[cold]
fn open_span(label: &'static str) -> SpanGuard {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let index = THREAD_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let parent = buf.open.last().map(|&i| buf.spans[i].id).unwrap_or(0);
        let thread = buf.thread;
        let index = buf.spans.len();
        buf.spans.push(SpanRecord {
            id,
            parent,
            trace: current_trace().0,
            label,
            start_ns,
            dur_ns: u64::MAX, // open sentinel; closed on guard drop
            thread,
        });
        buf.open.push(index);
        index
    });
    SpanGuard { index, _not_send: std::marker::PhantomData }
}

/// RAII guard closing its span on drop. `!Send`: a span closes on the thread
/// that opened it (parent links are per-thread).
pub struct SpanGuard {
    /// Index into the thread buffer, or `usize::MAX` for an inert guard.
    index: usize,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.index == usize::MAX {
            return;
        }
        let end = now_ns();
        let flushed = THREAD_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            // Guards drop strictly innermost-first on one thread, so the top
            // of the open stack is this guard's span.
            debug_assert_eq!(buf.open.last().copied(), Some(self.index));
            buf.open.pop();
            let record = &mut buf.spans[self.index];
            record.dur_ns = end.saturating_sub(record.start_ns);
            let closed = (record.label, record.dur_ns);
            let flushed = if buf.open.is_empty() {
                Some(std::mem::take(&mut buf.spans))
            } else {
                None
            };
            (closed, flushed)
        });
        let ((label, dur), flushed) = flushed;
        metrics::record_histogram(label, dur);
        if let Some(tree) = flushed {
            collector_flush(tree);
        }
    }
}

/// Records an externally-measured span (no guard, no nesting): the pool uses
/// this for queue-wait intervals whose start was stamped at enqueue time on a
/// different thread. No-op when disabled. Feeds the `label` histogram like a
/// guard-closed span.
pub fn record_span(label: &'static str, trace: TraceId, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let dur_ns = end_ns.saturating_sub(start_ns);
    let record = SpanRecord {
        id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        trace: trace.0,
        label,
        start_ns,
        dur_ns,
        thread: THREAD_BUF.with(|buf| buf.borrow().thread),
    };
    metrics::record_histogram(label, dur_ns);
    collector_flush(vec![record]);
}

// ---------------------------------------------------------------------------
// The global collector
// ---------------------------------------------------------------------------

/// Retained-span bound: a long-lived service must not grow without bound, so
/// beyond this the oldest spans are dropped (counted in
/// [`Collector::dropped_spans`]).
pub const MAX_RETAINED_SPANS: usize = 1 << 16;

struct CollectorState {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

/// The process-wide span store behind [`span`] / [`drain_spans`]. One static
/// instance ([`collector`]); the handle exists so exporters and tests can name
/// the thing they are draining.
pub struct Collector {
    state: Mutex<CollectorState>,
}

impl Collector {
    fn lock(&self) -> MutexGuard<'_, CollectorState> {
        // Facade locks recover poison; one panicking span emitter cannot
        // wedge the collector for every other thread.
        self.state.lock()
    }

    /// Removes and returns every retained span, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.lock().spans.drain(..).collect()
    }

    /// Clones the retained spans without removing them.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Spans dropped to the retention bound since the last [`reset`].
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped
    }
}

/// The static collector handle.
pub fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        state: Mutex::new(CollectorState { spans: VecDeque::new(), dropped: 0 }),
    })
}

fn collector_flush(tree: Vec<SpanRecord>) {
    let mut state = collector().lock();
    for record in tree {
        if state.spans.len() >= MAX_RETAINED_SPANS {
            state.spans.pop_front();
            state.dropped += 1;
        }
        state.spans.push_back(record);
    }
}

/// Removes and returns every retained span, oldest first —
/// [`Collector::drain`] on the static handle.
pub fn drain_spans() -> Vec<SpanRecord> {
    collector().drain()
}

/// Clones the retained spans without removing them.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    collector().snapshot()
}

/// Clears every retained span and metric (test isolation and serve restarts).
/// Thread-local buffers of *open* spans are untouched — callers reset between
/// jobs, when no instrumented stage is mid-flight.
pub fn reset() {
    {
        let mut state = collector().lock();
        state.spans.clear();
        state.dropped = 0;
    }
    metrics::reset_metrics();
}

// ---------------------------------------------------------------------------
// Counters (histograms live in metrics.rs)
// ---------------------------------------------------------------------------

/// Adds `delta` to the named counter. No-op (one branch) when disabled.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    metrics::add_counter(name, delta);
}

/// Records one duration into the named histogram. No-op (one branch) when
/// disabled. Guard-closed spans call this implicitly with their label.
#[inline]
pub fn record_duration(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    metrics::record_histogram(name, ns);
}

/// A deterministic snapshot of every counter and histogram (name-ordered).
pub fn metrics_snapshot() -> MetricsSnapshot {
    metrics::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test that toggles the global collector serialises on this lock.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    fn enabled_scope() -> impl Drop {
        struct Scope;
        impl Drop for Scope {
            fn drop(&mut self) {
                set_enabled(false);
                clear_fake_clock();
                reset();
            }
        }
        reset();
        set_enabled(true);
        Scope
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = test_lock();
        reset();
        set_enabled(false);
        {
            let _a = span("stage.noop");
            add("counter.noop", 3);
            record_duration("hist.noop", 5);
        }
        assert!(drain_spans().is_empty());
        let snapshot = metrics_snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn span_trees_flush_with_parent_links_and_traces() {
        let _lock = test_lock();
        let _scope = enabled_scope();
        set_fake_clock(1_000);
        let trace = next_trace_id();
        with_trace(trace, || {
            let _root = span("job.root");
            advance_fake_clock(10);
            {
                let _child = span("job.child");
                advance_fake_clock(5);
            }
            advance_fake_clock(1);
        });
        let spans = drain_spans();
        assert_eq!(spans.len(), 2, "both spans flushed: {spans:?}");
        let child = spans.iter().find(|s| s.label == "job.child").unwrap();
        let root = spans.iter().find(|s| s.label == "job.root").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert_eq!((root.trace, child.trace), (trace.0, trace.0));
        assert_eq!((root.start_ns, root.dur_ns), (1_000, 16));
        assert_eq!((child.start_ns, child.dur_ns), (1_010, 5));
        assert!(root.start_ns <= child.start_ns && child.end_ns() <= root.end_ns());
        // The labels fed their histograms.
        let snapshot = metrics_snapshot();
        assert_eq!(
            snapshot.histograms.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(),
            vec!["job.child", "job.root"],
        );
    }

    #[test]
    fn spans_close_and_flush_across_an_unwind() {
        let _lock = test_lock();
        let _scope = enabled_scope();
        let result = std::panic::catch_unwind(|| {
            let _root = span("unwind.root");
            let _child = span("unwind.child");
            panic!("mid-span failure");
        });
        assert!(result.is_err());
        let spans = drain_spans();
        assert_eq!(spans.len(), 2, "unwind must close and flush both spans");
        assert!(spans.iter().all(|s| s.dur_ns != u64::MAX), "open sentinel leaked");
    }

    #[test]
    fn record_span_registers_external_intervals() {
        let _lock = test_lock();
        let _scope = enabled_scope();
        let trace = next_trace_id();
        record_span("pool.queue_wait", trace, 100, 250);
        let spans = drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "pool.queue_wait");
        assert_eq!((spans[0].start_ns, spans[0].dur_ns, spans[0].trace), (100, 150, trace.0));
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        let _lock = test_lock();
        assert_eq!(current_trace(), TraceId::NONE);
        let outer = next_trace_id();
        let inner = next_trace_id();
        with_trace(outer, || {
            assert_eq!(current_trace(), outer);
            with_trace(inner, || assert_eq!(current_trace(), inner));
            assert_eq!(current_trace(), outer);
        });
        assert_eq!(current_trace(), TraceId::NONE);
        // Restores across an unwind too.
        let _ = std::panic::catch_unwind(|| with_trace(outer, || panic!("boom")));
        assert_eq!(current_trace(), TraceId::NONE);
    }

    #[test]
    fn counters_and_histograms_snapshot_deterministically() {
        let _lock = test_lock();
        let _scope = enabled_scope();
        add("z.counter", 2);
        add("a.counter", 1);
        add("z.counter", 3);
        for ns in [10, 100, 1_000, 1_000_000] {
            record_duration("stage.latency", ns);
        }
        let first = metrics_snapshot();
        let second = metrics_snapshot();
        assert_eq!(first, second, "snapshots must be deterministic");
        assert_eq!(
            first.counters,
            vec![("a.counter".to_string(), 1), ("z.counter".to_string(), 5)],
        );
        let hist = &first.histograms[0];
        assert_eq!(hist.name, "stage.latency");
        assert_eq!((hist.count, hist.sum_ns, hist.max_ns), (4, 1_001_110, 1_000_000));
        // Quantiles are bucket upper bounds: integer-derived, host-independent.
        assert_eq!(hist.p50_ns, 127); // rank 2 of [10, 100, 1000, 1000000]
        assert_eq!(hist.p90_ns, 1_048_575);
        assert_eq!(hist.p99_ns, 1_048_575);
    }

    #[test]
    fn retention_bound_drops_oldest_spans() {
        let _lock = test_lock();
        let _scope = enabled_scope();
        for i in 0..(MAX_RETAINED_SPANS + 10) {
            record_span("bulk", TraceId::NONE, i as u64, i as u64 + 1);
        }
        assert_eq!(collector().dropped_spans(), 10);
        let spans = drain_spans();
        assert_eq!(spans.len(), MAX_RETAINED_SPANS);
        assert_eq!(spans[0].start_ns, 10, "oldest spans dropped first");
    }
}
