//! Cooperative in-stage abort: a shared atomic flag threaded from the service
//! into the analysis hot loops.
//!
//! PR 5's cancellation discards a running stage's *result*, but the stage still
//! runs to completion — a 46,944-state union lift nobody wants finishes anyway.
//! An [`AbortHandle`] closes that gap: the owner (a service job control, a
//! deadline sweeper, a drain) flips the flag, and long-running loops poll it at
//! round granularity via [`AbortHandle::bail_if_aborted`], unwinding with a
//! private [`Aborted`] sentinel payload.
//!
//! The unwind deliberately reuses the existing panic plumbing — every fan-out
//! site already funnels worker panics to exactly one `catch_unwind` with
//! first-panic propagation — but travels via [`std::panic::resume_unwind`], so
//! the process panic hook never fires and an abort is silent on stderr. Callers
//! that catch stage payloads tell an abort apart from a genuine fault with
//! [`is_abort_payload`].
//!
//! Handles propagate implicitly through a thread-local ([`with_abort`] installs,
//! [`current_abort`] observes), so deep callees — the invariant search's
//! queue loop, the union lift's per-edge loop — poll without every intermediate
//! signature changing. The pool's scoped maps re-install the caller's handle on
//! their helper threads, so a parallel stage aborts all of its workers, not just
//! the thread that happened to carry the flag.
//!
//! When no handle is installed (every non-service path), polling is a single
//! branch on a `None` — the determinism gates prove the polled engines remain
//! byte-identical to the unpolled ones.

use std::any::Any;
use std::cell::RefCell;
use soteria_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared abort flag: cloned handles observe the same flag.
///
/// `abort()` is a one-way latch — there is no reset; a fresh stage gets a fresh
/// handle.
#[derive(Clone, Debug, Default)]
pub struct AbortHandle {
    flag: Arc<AtomicBool>,
}

/// The sentinel payload an aborted stage unwinds with.
///
/// Private to the abort machinery in spirit: it only exists so
/// [`is_abort_payload`] can recognise an abort unwind amid genuine panics.
#[derive(Debug)]
pub struct Aborted;

impl AbortHandle {
    /// A fresh, unaborted handle.
    pub fn new() -> Self {
        AbortHandle::default()
    }

    /// Latches the flag; every pollster sharing this handle bails at its next
    /// poll point.
    pub fn abort(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`AbortHandle::abort`] has been called on any clone.
    pub fn is_aborted(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Poll point: unwinds with the [`Aborted`] sentinel when the flag is set.
    ///
    /// Uses [`std::panic::resume_unwind`], so the process panic hook does not
    /// run — aborting a stage prints nothing.
    pub fn bail_if_aborted(&self) {
        if self.is_aborted() {
            std::panic::resume_unwind(Box::new(Aborted));
        }
    }
}

/// True when a caught unwind payload is an abort sentinel rather than a panic.
pub fn is_abort_payload(payload: &(dyn Any + Send)) -> bool {
    payload.downcast_ref::<Aborted>().is_some()
}

thread_local! {
    /// The abort handle governing work on the current thread, if any.
    static CURRENT_ABORT: RefCell<Option<AbortHandle>> = const { RefCell::new(None) };
}

/// The abort handle installed on the current thread, if any. Hot loops capture
/// this once at entry (an `Option` branch per poll, not a thread-local access).
pub fn current_abort() -> Option<AbortHandle> {
    CURRENT_ABORT.with(|slot| slot.borrow().clone())
}

/// Runs `f` with `handle` installed as the current thread's abort handle,
/// restoring the previous handle afterwards (even on unwind), so nested scopes
/// compose. Passing `None` explicitly shields `f` from an outer handle.
pub fn with_abort<R>(handle: Option<AbortHandle>, f: impl FnOnce() -> R) -> R {
    let _scope = install_scoped(handle);
    f()
}

/// Installs `handle` until the returned guard drops — the guard-shaped sibling
/// of [`with_abort`] for worker-loop prologues.
pub(crate) fn install_scoped(handle: Option<AbortHandle>) -> AbortScope {
    let prev = CURRENT_ABORT.with(|slot| slot.replace(handle));
    AbortScope { prev: Some(prev) }
}

pub(crate) struct AbortScope {
    prev: Option<Option<AbortHandle>>,
}

impl Drop for AbortScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT_ABORT.with(|slot| slot.replace(prev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloned_handles_share_the_flag() {
        let handle = AbortHandle::new();
        let clone = handle.clone();
        assert!(!clone.is_aborted());
        handle.abort();
        assert!(clone.is_aborted());
    }

    #[test]
    fn bail_unwinds_with_the_sentinel_payload() {
        let handle = AbortHandle::new();
        handle.bail_if_aborted(); // unaborted: no-op
        handle.abort();
        let payload = std::panic::catch_unwind(|| handle.bail_if_aborted())
            .expect_err("aborted handle must unwind");
        // NB: `&payload` would coerce the *Box* to `&dyn Any` — deref first.
        assert!(is_abort_payload(payload.as_ref()));
        let genuine = std::panic::catch_unwind(|| panic!("real fault"))
            .expect_err("panic must unwind");
        assert!(!is_abort_payload(genuine.as_ref()));
    }

    #[test]
    fn with_abort_installs_and_restores() {
        assert!(current_abort().is_none());
        let handle = AbortHandle::new();
        with_abort(Some(handle.clone()), || {
            let seen = current_abort().expect("handle installed");
            handle.abort();
            assert!(seen.is_aborted());
            // An inner `None` shields from the outer handle...
            with_abort(None, || assert!(current_abort().is_none()));
            // ...and the outer handle is restored afterwards.
            assert!(current_abort().is_some());
        });
        assert!(current_abort().is_none());
    }

    #[test]
    fn with_abort_restores_across_an_unwind() {
        let result = std::panic::catch_unwind(|| {
            with_abort(Some(AbortHandle::new()), || panic!("inner"));
        });
        assert!(result.is_err());
        assert!(current_abort().is_none(), "handle leaked across unwind");
    }
}
