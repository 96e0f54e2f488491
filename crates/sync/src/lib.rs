//! The workspace synchronization facade.
//!
//! Every crate in the service stack (`soteria-exec`, `soteria-service`,
//! `soteria-obs`) takes its `Mutex`/`Condvar`/`RwLock`/atomics/`thread` through
//! this crate instead of `std::sync` directly — `soteria-lint` enforces it.
//! Two backends share the API shape:
//!
//! * the **real backend** (this crate's root, always on): thin newtypes over
//!   `std::sync` that are zero-cost by construction — every method is a
//!   `#[inline]` delegation — and that bake in the workspace's poisoning
//!   policy: [`Mutex::lock`] and [`Condvar::wait`] *recover* a poisoned lock
//!   instead of returning a `Result`, exactly the `lock_recover` semantics the
//!   service has shipped since PR 5. A panic while a guard is held cannot
//!   cascade `PoisonError`s across unrelated jobs, and no call site can write
//!   a bare `lock().unwrap()` again because there is no `Result` to unwrap.
//! * the **model backend** ([`model`], behind the `model` feature): the same
//!   vocabulary of primitives re-implemented on a deterministic cooperative
//!   scheduler. Every synchronization point yields; a schedule (seeded
//!   pseudo-random, or a preemption-bounded DFS branch) picks which model
//!   thread performs the next operation; a happens-before vector-clock race
//!   detector flags unsynchronized access pairs on the [`model::ModelCell`]
//!   shared-state wrapper. Failing schedules print as replayable seeds
//!   (`SOTERIA_SCHED_SEED`). `tests/sync_model.rs` model-checks the service's
//!   scariest protocols against it.
//!
//! The split is additive, not a switcheroo: enabling the `model` feature adds
//! the [`model`] module but leaves the real types untouched, so feature
//! unification across the workspace can never put the production service on
//! the model scheduler.
//!
//! # What the real backend guarantees
//!
//! * **Zero cost.** Each newtype is `#[repr(transparent)]`-shaped delegation;
//!   the facade-vs-raw ratio measured ~1.0x when it was introduced
//!   (`BENCH_pr10.json`), and the service suites run on it byte-identically.
//! * **Poison recovery.** Locks hand back the inner value after a panic
//!   (`unwrap_or_else(|p| p.into_inner())`). Mutex invariants in this
//!   workspace hold between any two operations — see the PR 5 poisoning sweep
//!   rationale on [`lock_recover`].
//! * **One vocabulary.** `soteria_sync::thread` re-exports the `std::thread`
//!   surface the workspace uses (spawn, Builder, scope, current, sleep,
//!   yield_now, available_parallelism), so the lint can forbid
//!   `std::thread::spawn` outside this crate and migrated code reads the same
//!   as before.

mod real;

pub use real::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

pub mod atomic {
    //! Atomics, re-exported from `std::sync::atomic`.
    //!
    //! The real backend adds nothing over std here (atomics cannot poison and
    //! need no recovery policy); the value of routing them through the facade
    //! is that the model backend mirrors this exact surface
    //! ([`crate::model::atomic`]) with scheduler yields and clock propagation,
    //! so code written against one backend reads identically under the other.
    pub use std::sync::atomic::{
        AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

pub mod thread {
    //! Thread primitives, re-exported from `std::thread`.
    //!
    //! `soteria-lint` forbids `std::thread::spawn` / `std::thread::Builder`
    //! outside `crates/sync`; every spawn in the workspace goes through this
    //! module so the model backend's [`crate::model::thread`] can mirror it.
    pub use std::thread::{
        available_parallelism, current, scope, sleep, spawn, yield_now, Builder, JoinHandle,
        Scope, ScopedJoinHandle, Thread, ThreadId,
    };
}

/// Locks a raw `std::sync::Mutex`, recovering the guard from a poisoned lock.
///
/// This is the interop helper for crates that still hold `std` mutexes (the
/// facade's own [`Mutex::lock`] recovers internally and needs no helper).
/// Every mutex in this workspace protects a *plain value* (queues, counters,
/// memo tables) whose invariants hold between any two operations — a panic
/// while the guard was held cannot leave state half-updated in a way later
/// readers would misinterpret. Propagating the poison instead would turn one
/// panicking analysis job into a cascade of unrelated `PoisonError` panics
/// across every other job sharing the service.
pub fn lock_recover<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    recover(mutex.lock())
}

/// Unwraps any `std` [`LockResult`](std::sync::LockResult) (a `lock()`, a
/// `Condvar::wait`, or an `into_inner()`), recovering the value from a
/// poisoned lock — same rationale as [`lock_recover`].
pub fn recover<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(feature = "model")]
pub mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_recovers_after_a_poisoning_panic() {
        let shared = Arc::new(Mutex::new(41));
        let poisoner = Arc::clone(&shared);
        let caught = std::panic::catch_unwind(move || {
            let mut guard = poisoner.lock();
            *guard = 42; // complete the update, *then* panic: state is consistent
            panic!("poisoning panic");
        });
        assert!(caught.is_err());
        assert!(shared.is_poisoned());
        assert_eq!(*shared.lock(), 42);
        let shared = Arc::into_inner(shared).unwrap();
        assert_eq!(shared.into_inner(), 42);
    }

    #[test]
    fn condvar_wakes_a_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let signaller = Arc::clone(&pair);
        let handle = thread::spawn(move || {
            let (flag, cv) = &*signaller;
            *flag.lock() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*pair;
        let mut ready = flag.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
        drop(ready);
        handle.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_reports_timeouts() {
        let flag = Mutex::new(());
        let cv = Condvar::new();
        let (guard, timed_out) =
            cv.wait_timeout(flag.lock(), std::time::Duration::from_millis(1));
        assert!(timed_out.timed_out());
        drop(guard);
    }

    #[test]
    fn rwlock_readers_and_writers_recover_poison() {
        let lock = Arc::new(RwLock::new(7));
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        let poisoner = Arc::clone(&lock);
        let caught = std::panic::catch_unwind(move || {
            let _guard = poisoner.write();
            panic!("poison the rwlock");
        });
        assert!(caught.is_err());
        assert_eq!(*lock.read(), 8);
        assert_eq!(*lock.write(), 8);
    }

    #[test]
    fn raw_helpers_still_cover_std_mutexes() {
        let raw = std::sync::Mutex::new(5);
        assert_eq!(*lock_recover(&raw), 5);
        assert_eq!(recover(raw.into_inner()), 5);
    }
}
