//! Dependency-free parallel execution layer for the analysis fan-out sites.
//!
//! Soteria's hot loops — the per-app corpus sweep, the per-group property sweeps,
//! and the union model's free sub-product enumeration — are all *independent
//! iterations over immutable inputs*: the analyzer borrows `&self`, the checker
//! borrows an immutable `Kripke`, and the union builder reads frozen per-app
//! models. This crate provides the primitives they share:
//!
//! * [`WorkerPool`] — a persistent pool of long-lived worker threads fed by an
//!   injector queue: [`WorkerPool::spawn`] for fire-and-forget `'static` jobs
//!   (the `soteria-service` job queue) and [`WorkerPool::install`] for scoped
//!   deterministic parallel maps over borrowed data;
//! * [`global_pool`] / [`pool_map`] — the process-wide shared pool used by the
//!   analysis batch helpers, eliminating the per-call thread-spawn overhead that
//!   PR 3 paid on ms-scale sweeps;
//! * [`par_map`] — the PR 3 entry point, now a thin wrapper that runs one
//!   [`WorkerPool::install`] on a transient pool (identical semantics:
//!   deterministic output ordering, dynamic chunk claiming, a strictly
//!   sequential fallback at one worker, first-panic propagation with the
//!   original payload);
//! * [`scoped_map`] — the original scoped-thread implementation, kept as the
//!   reference the pooled paths are gated against;
//! * [`resolve_threads`] — the worker-count policy: an explicit configuration
//!   value wins, then the `SOTERIA_THREADS` environment variable, then the
//!   machine's available parallelism.
//!
//! # Threading model
//!
//! Workers only ever *read* the shared inputs (`T: Sync`) and *own* their outputs
//! (`R: Send`); there is no locking on the data path. The mutexes in the pool
//! collect finished chunks (touched once per chunk, not per item) and guard the
//! injector queue (touched once per task). Callers that need per-worker mutable
//! scratch (e.g. the checker's sat-set memo) allocate it inside `f` — one
//! instance per chunk — instead of sharing it.
//!
//! Every call site must preserve the sequential result exactly: the map
//! primitives guarantee ordering, and the callers guarantee their per-item
//! closures are pure functions of the item (no iteration-order-dependent state).
//! This is what makes `SOTERIA_THREADS=1` and `SOTERIA_THREADS=8` byte-identical,
//! which `tests/parallel_determinism.rs` enforces at 1, 2, 4 and 8 threads.

use std::any::Any;
use std::cell::Cell;
use std::panic;
use soteria_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use soteria_sync::Mutex;

mod abort;
mod pool;

pub use abort::{current_abort, is_abort_payload, with_abort, AbortHandle, Aborted};
pub use pool::{global_pool, pool_map, TaskId, WorkerPool};

// The poison-recovery helpers moved into `soteria-sync` with the rest of the
// synchronization facade. They are re-exported for callers still holding raw
// `std::sync` locks (interop only): facade locks recover poison on their own,
// so code on the facade never needs them.
pub use soteria_sync::{lock_recover, recover};

/// The environment variable overriding the worker count (`0` or unset = auto).
pub const THREADS_ENV: &str = "SOTERIA_THREADS";

/// The environment variable overriding every state-count sharding threshold
/// (`0` or unset = the call site's default). One knob covers both the
/// property-level shard threshold (`soteria_checker::PARALLEL_UNIVERSE`) and
/// the in-formula fixpoint-shard threshold
/// (`soteria_checker::FIXPOINT_SHARD_STATES`): sharding is byte-identical to
/// sequential execution everywhere, so forcing it on (`SOTERIA_SHARD_STATES=1`)
/// only changes scheduling — which is exactly how CI exercises the sharded
/// fixpoints on small models.
pub const SHARD_STATES_ENV: &str = "SOTERIA_SHARD_STATES";

/// Resolves a state-count sharding threshold.
///
/// Priority: an explicit non-zero `configured` value (e.g.
/// `AnalysisConfig::fixpoint_shard_states`), then a non-zero
/// [`SHARD_STATES_ENV`] environment variable, then the call site's `default`.
pub fn resolve_shard_states(configured: usize, default: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(value) = std::env::var(SHARD_STATES_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default
}

thread_local! {
    /// True on parallel worker threads (pool workers, scoped workers, and callers
    /// participating in a pooled map). Nested fan-out sites (a batch analysis
    /// worker reaching a parallel union lift or property sweep) resolve to
    /// sequential execution instead of oversubscribing the machine with up to
    /// `threads²` live workers.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is executing inside a parallel fan-out.
pub fn in_par_worker() -> bool {
    IN_PAR_WORKER.with(Cell::get)
}

/// Marks the current thread as a parallel worker until the guard drops
/// (restoring the previous state, so nested scopes compose).
pub(crate) fn enter_par_worker() -> ParWorkerGuard {
    ParWorkerGuard { prev: IN_PAR_WORKER.with(|flag| flag.replace(true)) }
}

pub(crate) struct ParWorkerGuard {
    prev: bool,
}

impl Drop for ParWorkerGuard {
    fn drop(&mut self) {
        IN_PAR_WORKER.with(|flag| flag.set(self.prev));
    }
}

/// Resolves the worker count for a fan-out site.
///
/// Priority: an explicit non-zero `configured` value (e.g.
/// `AnalysisConfig::threads`), then a non-zero [`THREADS_ENV`] environment
/// variable, then [`std::thread::available_parallelism`] (1 if unknown). The
/// result is always at least 1; 1 means "run sequentially on the caller's thread".
///
/// On a parallel worker thread this always returns 1 — the outer fan-out owns
/// the machine, and inner sites run sequentially (results are thread-count
/// invariant, so only scheduling changes). A top-level *sequential* call
/// (`threads == 1` never spawns) does not mark the caller, so e.g. a lone
/// `analyze_environment` still parallelizes its union lift.
pub fn resolve_threads(configured: usize) -> usize {
    if in_par_worker() {
        return 1;
    }
    if configured > 0 {
        return configured;
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning the results in
/// input order.
///
/// Since PR 4 this is a thin wrapper over a *transient* [`WorkerPool`] (spawned
/// for the call, drained and joined before returning) with exactly the PR 3
/// contract: the output is identical to `items.iter().map(f).collect()` for
/// every `threads` value and every interleaving; contiguous chunks are claimed
/// dynamically off an atomic counter so uneven per-item cost still balances.
/// Repeated ms-scale batch calls should prefer [`pool_map`], which reuses the
/// shared [`global_pool`] instead of paying the per-call spawns.
///
/// With `threads <= 1`, a single item, an empty slice, or when already running
/// on a parallel worker, no thread is spawned and `f` runs on the caller's
/// thread.
///
/// # Panics
///
/// If `f` panics on any item, the first recorded worker panic is re-raised on the
/// caller's thread with its original payload once all workers have stopped, so a
/// corpus-app assertion failure reads the same under `SOTERIA_THREADS=8` as
/// sequentially. Unclaimed chunks are abandoned after a panic (workers check an
/// abort flag before claiming), bounding the wasted work to the chunks already in
/// flight.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if in_par_worker() { 1 } else { threads.max(1).min(items.len()) };
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Caller participates in `install`, so `threads - 1` pool workers reproduce
    // the PR 3 concurrency of `threads` scoped threads.
    let transient = WorkerPool::new(threads - 1);
    transient.install(items, threads, f)
}

/// The original PR 3 scoped-thread parallel map: spawns `threads` workers via
/// [`std::thread::scope`] on every call.
///
/// Kept as the reference implementation the pooled paths ([`par_map`],
/// [`pool_map`], [`WorkerPool::install`]) are gated against in
/// `tests/parallel_determinism.rs` — and as the per-call-spawn baseline that
/// the pool replaces.
pub fn scoped_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // A few chunks per worker: large enough to keep the collection mutex cold,
    // small enough that one expensive chunk doesn't serialize the tail.
    let chunk_len = items.len().div_ceil(threads * 4).max(1);
    let chunk_count = items.len().div_ceil(chunk_len);
    let next_chunk = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let finished: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunk_count));
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    // Workers inherit the caller's abort handle: a stage aborted mid-map stops
    // all of its scoped workers, and the sentinel unwind propagates to the
    // caller through the normal first-panic path.
    let abort_handle = current_abort();
    soteria_sync::thread::scope(|scope| {
        let worker = || {
            let _guard = enter_par_worker();
            let _abort_scope = abort::install_scoped(abort_handle.clone());
            loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunk_count {
                    break;
                }
                let start = chunk * chunk_len;
                let end = (start + chunk_len).min(items.len());
                let mapped = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                    items[start..end].iter().map(&f).collect::<Vec<R>>()
                }));
                match mapped {
                    Ok(mapped) => finished.lock().push((chunk, mapped)),
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        break;
                    }
                }
            }
        };
        for _ in 0..threads {
            scope.spawn(worker);
        }
    });

    if let Some(payload) = first_panic.into_inner() {
        panic::resume_unwind(payload);
    }
    let mut chunks = finished.into_inner();
    chunks.sort_unstable_by_key(|&(index, _)| index);
    debug_assert_eq!(chunks.len(), chunk_count);
    chunks.into_iter().flat_map(|(_, mapped)| mapped).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_single_item_run_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let empty: Vec<i32> = par_map(&[] as &[i32], 8, |x| *x);
        assert!(empty.is_empty());
        let one = par_map(&[7], 8, |x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn sequential_fallback_at_one_thread() {
        let caller = std::thread::current().id();
        let out = par_map(&[1, 2, 3], 1, |x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 10
        });
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panic_payload_is_propagated() {
        let result = panic::catch_unwind(|| {
            par_map(&[0usize, 1, 2, 3, 4, 5, 6, 7], 4, |&x| {
                if x == 5 {
                    panic!("item five failed");
                }
                x
            })
        });
        let payload = result.expect_err("par_map must propagate the worker panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(message.contains("item five failed"), "payload lost: {message:?}");
    }

    #[test]
    fn facade_mutex_recovers_from_poisoning() {
        let shared = Mutex::new(41);
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            let mut guard = shared.lock();
            *guard = 42; // complete the update, *then* panic: state is consistent
            panic!("poisoning panic");
        }));
        assert!(caught.is_err());
        assert!(shared.is_poisoned());
        assert_eq!(*shared.lock(), 42);
        assert_eq!(shared.into_inner(), 42);
    }

    #[test]
    fn resolve_threads_prefers_explicit_configuration() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_shard_states_prefers_explicit_configuration() {
        assert_eq!(resolve_shard_states(123, 500), 123);
        // Unconfigured resolution is the env override (the CI leg sets
        // SOTERIA_SHARD_STATES=1) or the call site's default — positive either way.
        assert!(resolve_shard_states(0, 500) >= 1);
    }

    #[test]
    fn nested_fan_out_resolves_to_sequential() {
        // On a parallel worker even an explicit configuration resolves to 1: the
        // outer fan-out owns the machine.
        let inner = par_map(&[(); 8], 4, |_| resolve_threads(8));
        assert!(inner.iter().all(|&n| n == 1), "nested resolution: {inner:?}");
        // Back on the caller's thread the explicit value wins again.
        assert_eq!(resolve_threads(8), 8);
        // A sequential par_map does not mark the caller as a worker.
        let seq = par_map(&[()], 1, |_| resolve_threads(6));
        assert_eq!(seq, vec![6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Order preservation: every map primitive equals the sequential map for
        /// any input length and worker count.
        #[test]
        fn map_primitives_match_sequential_map((len, threads) in (0usize..200, 1usize..9)) {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
            prop_assert_eq!(par_map(&items, threads, |x| x * 3 + 1), expected.clone());
            prop_assert_eq!(scoped_map(&items, threads, |x| x * 3 + 1), expected.clone());
            prop_assert_eq!(pool_map(&items, threads, |x| x * 3 + 1), expected);
        }
    }
}
