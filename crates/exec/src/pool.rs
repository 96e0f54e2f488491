//! Persistent worker pool: long-lived threads draining an injector queue.
//!
//! PR 3's [`scoped_map`](crate::scoped_map) spawns its workers anew on every call,
//! which is measurable on ms-scale workloads (a single-app MalIoT sweep pays
//! 10–20% in thread spawns alone). A [`WorkerPool`] spawns its threads once and
//! keeps them parked on a condvar; work arrives through two doors:
//!
//! * [`WorkerPool::spawn`] — a fire-and-forget `'static` task for the injector
//!   queue (the job-queue door used by `soteria-service`);
//! * [`WorkerPool::install`] — a *scoped* deterministic parallel map over borrowed
//!   data with exactly the [`scoped_map`](crate::scoped_map) contract: output
//!   identical to `items.iter().map(f)` at every worker count, dynamic chunk
//!   claiming, sequential fallback, first-panic propagation with the original
//!   payload.
//!
//! # How `install` borrows across `'static` tasks
//!
//! Pool tasks are `'static`, but `install` maps over a borrowed slice. The shared
//! job state lives on the caller's stack; helper tasks receive only its address
//! (a `usize`) and reconstruct the reference. This is sound because `install`
//! does not return — not even by unwinding — until every helper task it enqueued
//! has finished running (a completion latch counts them down, and panics inside
//! the chunk loop are caught and re-raised only after the latch reaches zero).
//! The pool itself cannot be dropped mid-call: `install` holds `&self`, and
//! [`WorkerPool`]'s drop joins its threads only after draining the queue.
//!
//! # Determinism and nesting
//!
//! Chunking is identical to `scoped_map` (`len / (threads * 4)` chunks claimed
//! off an atomic counter, reassembled by index), so pooled results are
//! byte-identical to the scoped path for any pool size, requested thread count,
//! and interleaving. Pool threads are permanently marked as parallel workers, and
//! the caller marks itself for the duration of its own chunk loop, so nested
//! fan-out sites resolve to 1 thread instead of oversubscribing (`threads²`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic;
use soteria_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use soteria_sync::{Condvar, Mutex};
use std::sync::{Arc, OnceLock};
use soteria_sync::thread::JoinHandle;

use crate::{enter_par_worker, resolve_threads};

/// A fire-and-forget task on the injector queue.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Observability stamp captured at enqueue time (only when the collector is
/// enabled — `None` costs nothing): the enqueue timestamp, from which the
/// claiming worker records the task's queue-wait interval, and the
/// submitter's trace id, re-installed on the worker for the task's duration
/// so a job's spans land in its trace no matter which thread runs them.
#[derive(Clone, Copy)]
struct TaskObs {
    enqueued_ns: u64,
    trace: soteria_obs::TraceId,
}

/// The identity of one enqueued task, unique for the pool's lifetime.
///
/// Returned by [`WorkerPool::spawn`] and accepted by [`WorkerPool::try_revoke`]
/// — the handle a job queue needs to *remove* work it no longer wants (a
/// cancelled analysis stage) before a worker picks it up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(u64);

struct QueueState {
    tasks: VecDeque<(u64, Task, Option<TaskObs>)>,
    next_id: u64,
    shutdown: bool,
    /// Workers currently inside a claimed task — incremented at claim time,
    /// decremented only after the task's whole epilogue (span close, flush,
    /// utilization counters) has run, so [`WorkerPool::quiesce`] is a real
    /// barrier for everything a task records, not just its side effects.
    busy: usize,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when a task is enqueued or shutdown is requested.
    work_available: Condvar,
    /// Signalled when a worker finishes a task and the pool may have gone
    /// quiet (empty queue, nobody busy) — the condvar behind `quiesce`.
    quiet: Condvar,
    /// Tasks executed over the pool's lifetime (scoped helpers + spawned jobs).
    tasks_executed: AtomicU64,
}

/// A pool of long-lived worker threads fed by an injector queue.
///
/// Construction spawns the threads; drop drains the queue and joins them. One
/// process-wide instance is shared by the analysis batch helpers
/// ([`global_pool`]); other instances are per-service pools with explicit
/// lifecycles.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("tasks_executed", &self.tasks_executed())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers.max(1)` long-lived threads.
    pub fn new(workers: usize) -> Self {
        // Each worker holds its own `Arc` of the queue state, so the state
        // outlives any thread that is still draining during (or detached by)
        // drop, and a dropped pool frees it when the last worker exits.
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                next_id: 0,
                shutdown: false,
                busy: 0,
            }),
            work_available: Condvar::new(),
            quiet: Condvar::new(),
            tasks_executed: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                soteria_sync::thread::spawn(move || {
                    // Pool threads are parallel workers for their whole lifetime:
                    // anything they run resolves nested fan-out to 1 thread.
                    let _guard = enter_par_worker();
                    worker_loop(&shared);
                })
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of long-lived worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total tasks executed since the pool started (scoped helpers + spawned
    /// jobs) — a cheap liveness/throughput counter for service stats.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks_executed.load(Ordering::Relaxed)
    }

    /// Enqueues a `'static` task on the injector queue, returning its identity
    /// (the handle [`WorkerPool::try_revoke`] accepts).
    ///
    /// Tasks run in FIFO order on whichever worker frees up first. A task that
    /// panics takes its worker thread down silently is *not* acceptable for a
    /// long-lived service, so the worker loop catches the panic and drops the
    /// payload — submitters that care about failures report them through their
    /// own result channel (the service's tickets do).
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) -> TaskId {
        let obs = if soteria_obs::enabled() {
            Some(TaskObs {
                enqueued_ns: soteria_obs::now_ns(),
                trace: soteria_obs::current_trace(),
            })
        } else {
            None
        };
        let mut queue = self.shared.queue.lock();
        let id = queue.next_id;
        queue.next_id += 1;
        queue.tasks.push_back((id, Box::new(task), obs));
        drop(queue);
        self.shared.work_available.notify_one();
        TaskId(id)
    }

    /// Removes a still-queued task from the injector queue.
    ///
    /// Returns `true` when the task was found in the queue and removed — it
    /// will never run. Returns `false` when it was not found: a worker already
    /// claimed it (it is running or finished), or it never belonged to this
    /// pool. The search and removal happen under the queue lock, so revocation
    /// cannot race a worker's claim — exactly one side wins, and the caller
    /// knows which. A `false` caller that still wants the task's *effects*
    /// suppressed must coordinate with the task itself (the service's job
    /// controls carry a cancelled flag the task checks before doing work).
    ///
    /// The revoked closure is dropped outside the lock (dropping it can release
    /// arbitrary captured state).
    pub fn try_revoke(&self, id: TaskId) -> bool {
        let mut queue = self.shared.queue.lock();
        let revoked = queue
            .tasks
            .iter()
            .position(|(task_id, _, _)| *task_id == id.0)
            .and_then(|index| queue.tasks.remove(index));
        drop(queue);
        revoked.is_some()
    }

    /// Blocks until the injector queue is empty and no worker is inside a task
    /// — including the task epilogue, where a worker closes and flushes its
    /// observability spans. After `quiesce` returns, every span of every task
    /// spawned before the call is in the global collector; a settled job
    /// ticket alone does *not* guarantee that (settling happens inside the
    /// task, before the worker's `pool.run` span closes).
    ///
    /// Must not be called from one of the pool's own workers (it would wait
    /// for itself); scoped `install` helpers don't call it.
    pub fn quiesce(&self) {
        let mut queue = self.shared.queue.lock();
        while !queue.tasks.is_empty() || queue.busy > 0 {
            queue = self.shared.quiet.wait(queue);
        }
    }

    /// Maps `f` over `items` on the caller plus up to `threads - 1` pool workers,
    /// returning results in input order — the pooled equivalent of
    /// [`scoped_map`](crate::scoped_map), byte-identical to it (and to the
    /// sequential map) for every `threads` value, pool size, and scheduling.
    ///
    /// With `threads <= 1`, a single item, or an empty slice, `f` runs entirely
    /// on the caller's thread and the pool is not touched.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic with its original payload after all
    /// participating workers have stopped (unclaimed chunks are abandoned).
    pub fn install<T, R, F>(&self, items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // On a parallel worker (this pool's or any other's) run sequentially: the
        // outer fan-out owns the machine, and blocking a pool worker on helpers
        // that need this very pool would deadlock a width-1 pool.
        let threads = if crate::in_par_worker() { 1 } else { threads.max(1).min(items.len()) };
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let job = ScopedJob::new(items, &f, threads);
        // Helpers beyond the pool's width still produce correct results (they
        // queue behind the others and usually find no chunks left), but they buy
        // no concurrency — don't enqueue more than the pool can run.
        let helpers = (threads - 1).min(self.workers());
        *job.latch.lock() = helpers;
        let job_addr = &job as *const ScopedJob<'_, T, R, F> as usize;
        for _ in 0..helpers {
            // SAFETY (of the later deref): `job` outlives every enqueued task
            // because `install` blocks on the completion latch below before
            // returning, and each task counts down exactly once.
            self.spawn(move || {
                let job = unsafe { &*(job_addr as *const ScopedJob<'_, T, R, F>) };
                job.run_chunks();
                job.complete_helper();
            });
        }

        // The caller participates too (marked as a worker so its items resolve
        // nested fan-out sequentially, exactly like the pool threads).
        {
            let _guard = enter_par_worker();
            job.run_chunks();
        }
        let mut outstanding = job.latch.lock();
        while *outstanding > 0 {
            outstanding = job.done.wait(outstanding);
        }
        drop(outstanding);
        job.into_output()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
        }
        self.shared.work_available.notify_all();
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            // A pool can be dropped *from one of its own workers* — the last
            // task holding the owning service's Arc finishes there. Joining
            // ourselves would deadlock; detaching is safe because the worker
            // owns its own Arc of `Shared` and exits at the shutdown flag.
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Stamped only while the collector is on: the interval from here to
        // the successful claim is this worker's idle time (condvar waits
        // included), split from run time in the pool-utilization counters.
        let idle_from = if soteria_obs::enabled() { Some(soteria_obs::now_ns()) } else { None };
        let (task, obs) = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some((_, task, obs)) = queue.tasks.pop_front() {
                    // Claim and busy-mark under one lock: `quiesce` can never
                    // observe the gap between a popped task and a busy worker.
                    queue.busy += 1;
                    break (task, obs);
                }
                // Drain-then-exit on shutdown: every already-enqueued task still
                // runs (scoped jobs count on it, and a dropped service should
                // finish accepted work).
                if queue.shutdown {
                    return;
                }
                queue = shared.work_available.wait(queue);
            }
        };
        shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
        let claimed_ns = idle_from.map(|from| {
            let now = soteria_obs::now_ns();
            soteria_obs::add("pool.idle_ns", now.saturating_sub(from));
            now
        });
        if let Some(obs) = obs {
            soteria_obs::record_span(
                "pool.queue_wait",
                obs.trace,
                obs.enqueued_ns,
                claimed_ns.unwrap_or_else(soteria_obs::now_ns),
            );
        }
        // A panicking job must not take the worker thread with it. Scoped jobs
        // catch their own panics (and re-raise on the caller); service jobs
        // report failures through their tickets.
        {
            // Re-install the submitter's trace so everything the task records
            // (stage spans, check batches) lands in the owning job's trace.
            let _trace = obs.map(|o| soteria_obs::install_trace(o.trace));
            let _run = if obs.is_some() { Some(soteria_obs::span("pool.run")) } else { None };
            let _ = panic::catch_unwind(panic::AssertUnwindSafe(task));
        }
        if let Some(claimed) = claimed_ns {
            soteria_obs::add(
                "pool.busy_ns",
                soteria_obs::now_ns().saturating_sub(claimed),
            );
        }
        {
            // The spans above are closed and flushed; only now does the worker
            // stop counting as busy (the `quiesce` barrier contract).
            let mut queue = shared.queue.lock();
            queue.busy -= 1;
            if queue.busy == 0 && queue.tasks.is_empty() {
                shared.quiet.notify_all();
            }
        }
    }
}

/// The on-stack state of one `install` call, shared with its helper tasks by
/// address.
struct ScopedJob<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    chunk_len: usize,
    chunk_count: usize,
    next_chunk: AtomicUsize,
    abort: AtomicBool,
    /// The caller's in-stage abort handle, re-installed on every helper thread
    /// so an aborted stage stops all of its workers (`crate::current_abort`).
    stage_abort: Option<crate::AbortHandle>,
    finished: Mutex<Vec<(usize, Vec<R>)>>,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion latch: helper tasks that have not yet finished running.
    latch: Mutex<usize>,
    done: Condvar,
}

impl<'a, T, R, F> ScopedJob<'a, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn new(items: &'a [T], f: &'a F, threads: usize) -> Self {
        // Identical chunking to `scoped_map`: a few chunks per requested worker —
        // large enough to keep the collection mutex cold, small enough that one
        // expensive chunk doesn't serialize the tail.
        let chunk_len = items.len().div_ceil(threads * 4).max(1);
        let chunk_count = items.len().div_ceil(chunk_len);
        ScopedJob {
            items,
            f,
            chunk_len,
            chunk_count,
            next_chunk: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            stage_abort: crate::current_abort(),
            finished: Mutex::new(Vec::with_capacity(chunk_count)),
            first_panic: Mutex::new(None),
            latch: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Claims and maps chunks until none are left or a panic aborted the job.
    fn run_chunks(&self) {
        let _abort_scope = crate::abort::install_scoped(self.stage_abort.clone());
        loop {
            if self.abort.load(Ordering::Relaxed) {
                break;
            }
            let chunk = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunk_count {
                break;
            }
            let start = chunk * self.chunk_len;
            let end = (start + self.chunk_len).min(self.items.len());
            let mapped = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                self.items[start..end].iter().map(self.f).collect::<Vec<R>>()
            }));
            match mapped {
                Ok(mapped) => self.finished.lock().push((chunk, mapped)),
                Err(payload) => {
                    self.abort.store(true, Ordering::Relaxed);
                    let mut slot = self.first_panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    break;
                }
            }
        }
    }

    /// Counts one helper task down; wakes the caller when all have finished.
    fn complete_helper(&self) {
        let mut latch = self.latch.lock();
        *latch -= 1;
        if *latch == 0 {
            self.done.notify_all();
        }
    }

    /// Reassembles the output (or re-raises the first panic). Caller must have
    /// waited for the latch first.
    fn into_output(self) -> Vec<R> {
        if let Some(payload) = self.first_panic.into_inner() {
            panic::resume_unwind(payload);
        }
        let mut chunks = self.finished.into_inner();
        chunks.sort_unstable_by_key(|&(index, _)| index);
        debug_assert_eq!(chunks.len(), self.chunk_count);
        chunks.into_iter().flat_map(|(_, mapped)| mapped).collect()
    }
}

// SAFETY: helper tasks only touch `items` (`T: Sync`), `f` (`F: Sync`), and the
// synchronised collection state; results (`R: Send`) move across threads once.
unsafe impl<T: Sync, R: Send, F: Sync> Sync for ScopedJob<'_, T, R, F> {}

/// The process-wide shared pool used by the analysis batch helpers.
///
/// Created on first use with [`resolve_threads`]`(0)` workers (the
/// `SOTERIA_THREADS` / available-parallelism policy) and kept for the process
/// lifetime. Callers still pass their *requested* thread count to
/// [`pool_map`] — results are byte-identical regardless of how many pool
/// workers actually serve the call.
pub fn global_pool() -> &'static WorkerPool {
    // A `OnceLock` static is never dropped, so the global pool's workers park
    // for the process lifetime and no shutdown/join ever runs for them.
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(resolve_threads(0)))
}

/// [`WorkerPool::install`] on the shared [`global_pool`]: the spawn-free
/// parallel map for repeated ms-scale batch calls.
pub fn pool_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global_pool().install(items, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_matches_sequential_map_for_any_pool_size() {
        for pool_workers in [1, 2, 4] {
            let pool = WorkerPool::new(pool_workers);
            for len in [0usize, 1, 7, 64, 200] {
                let items: Vec<usize> = (0..len).collect();
                let expected: Vec<usize> = items.iter().map(|x| x * 7 + 3).collect();
                for threads in [1, 2, 4, 8] {
                    let got = pool.install(&items, threads, |x| x * 7 + 3);
                    assert_eq!(got, expected, "pool={pool_workers} len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn install_reuses_the_same_threads_across_calls() {
        use std::collections::HashSet;
        let pool = WorkerPool::new(2);
        let observe = |pool: &WorkerPool| -> HashSet<String> {
            let caller = std::thread::current().id();
            pool.install(&[0u64; 64], 3, |_| {
                // Make each item slow enough that helpers actually claim chunks.
                std::thread::sleep(std::time::Duration::from_micros(50));
                std::thread::current().id()
            })
            .into_iter()
            .filter(|&id| id != caller)
            .map(|id| format!("{id:?}"))
            .collect()
        };
        let first = observe(&pool);
        let second = observe(&pool);
        // Any helper thread observed in both calls must come from the same
        // long-lived set of two pool workers.
        let union: HashSet<_> = first.union(&second).collect();
        assert!(union.len() <= pool.workers(), "more helper identities than pool workers");
    }

    #[test]
    fn install_propagates_panics_with_payload() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            pool.install(&items, 4, |&i| {
                if i == 21 {
                    panic!("pooled item {i} failed");
                }
                i
            })
        }))
        .expect_err("install must propagate the worker panic");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("pooled item 21 failed"), "payload lost: {message:?}");
        // The pool survives the panic and keeps serving.
        assert_eq!(pool.install(&items, 4, |&i| i + 1)[0], 1);
    }

    #[test]
    fn spawned_tasks_run_and_drain_on_drop() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains the queue before joining
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn try_revoke_removes_queued_tasks_and_rejects_claimed_ones() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let pool = WorkerPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));

        // Wedge the single worker so later spawns stay queued deterministically.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let wedge = Arc::clone(&gate);
        pool.spawn(move || {
            let (open, signal) = &*wedge;
            let mut open = open.lock();
            while !*open {
                open = signal.wait(open);
            }
        });

        let keep = Arc::clone(&ran);
        let keep_id = pool.spawn(move || {
            keep.fetch_add(1, Ordering::Relaxed);
        });
        let revoke = Arc::clone(&ran);
        let revoke_id = pool.spawn(move || {
            revoke.fetch_add(100, Ordering::Relaxed);
        });
        assert_ne!(keep_id, revoke_id, "task ids must be unique");
        assert!(pool.try_revoke(revoke_id), "queued task not revoked");
        assert!(!pool.try_revoke(revoke_id), "double revoke succeeded");

        // Open the gate; the kept task runs, the revoked one never does.
        {
            let (open, signal) = &*gate;
            *open.lock() = true;
            signal.notify_all();
        }
        drop(pool); // drains the queue
        assert_eq!(ran.load(Ordering::Relaxed), 1, "revoked task ran anyway");
        assert!(keep_id != revoke_id);
    }

    #[test]
    fn quiesce_waits_for_spawned_chains_including_epilogues() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let pool = Arc::new(WorkerPool::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            // Each task spawns a follow-up, like the service's ingest stage
            // scheduling its verify stage; quiesce must cover the whole chain.
            let pool2 = Arc::clone(&pool);
            let done2 = Arc::clone(&done);
            pool.spawn(move || {
                let done3 = Arc::clone(&done2);
                pool2.spawn(move || {
                    done3.fetch_add(1, Ordering::Relaxed);
                });
                done2.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(done.load(Ordering::Relaxed), 16, "quiesce returned with work in flight");
        pool.quiesce(); // idempotent on an idle pool
    }

    #[test]
    fn try_revoke_of_a_finished_task_returns_false() {
        let pool = WorkerPool::new(1);
        let id = pool.spawn(|| {});
        // Wait for the worker to drain the task.
        while pool.tasks_executed() == 0 {
            std::thread::yield_now();
        }
        assert!(!pool.try_revoke(id), "claimed task reported as revoked");
    }

    #[test]
    fn a_panicking_spawned_task_does_not_kill_the_worker() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let pool = WorkerPool::new(1);
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.spawn(|| panic!("service job failed"));
        let flag = Arc::clone(&ran_after);
        pool.spawn(move || flag.store(true, Ordering::Relaxed));
        drop(pool);
        assert!(ran_after.load(Ordering::Relaxed), "worker died with the panicking job");
    }

    #[test]
    fn nested_fanout_on_pool_workers_resolves_to_sequential() {
        let pool = WorkerPool::new(2);
        let resolved = pool.install(&[(); 32], 4, |_| crate::resolve_threads(8));
        assert!(resolved.iter().all(|&n| n == 1), "nested resolution: {resolved:?}");
        // Back on the caller: explicit values win again.
        assert_eq!(crate::resolve_threads(5), 5);
    }

    #[test]
    fn pool_map_matches_scoped_map_on_the_global_pool() {
        let items: Vec<usize> = (0..97).collect();
        let expected = crate::scoped_map(&items, 4, |x| x * 11);
        assert_eq!(pool_map(&items, 4, |x| x * 11), expected);
        assert!(global_pool().workers() >= 1);
        assert!(global_pool().tasks_executed() > 0 || global_pool().workers() == 1);
    }
}
