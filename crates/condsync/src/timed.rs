//! Timed and cancellable condition synchronization.
//!
//! The paper's `Retry` / `Await` / `WaitPred` model unbounded blocking, but
//! every production synchronization API this reproduction mirrors — pthread
//! condition variables, semaphores, bounded buffers — also needs *timed*
//! waits.  This module adds deadline-carrying variants of the three
//! constructs ([`retry_for`], [`await_for`], [`wait_pred_for`]) plus an
//! out-of-band [`cancel`] API, all built on the timed deschedule
//! (`tm_core::driver::deschedule_until`).
//!
//! # How a timed wait flows
//!
//! 1. The body calls, say, [`retry_for`]`(tx, timeout)`.  The construct
//!    stashes `now + timeout` in the attempt metadata
//!    ([`tm_core::TxCommon::wait_deadline`]) and requests the same
//!    deschedule as the unbounded form.
//! 2. The driver loop rolls the transaction back, materialises the wait
//!    condition, and parks the thread with that deadline.  The sleep ends
//!    with exactly one [`WakeReason`]: `Woken` (a writer established the
//!    condition), `Timeout` (deadline passed — delivered by the lazily
//!    polled timer wheel or the sleeper's own bounded semaphore wait), or
//!    `Cancelled` (someone called [`cancel`]).
//! 3. The driver re-executes the body with the reason visible through
//!    [`wake_reason`] / [`timed_out`] / [`was_cancelled`].  The body
//!    re-checks its condition first — if it now holds, the wait succeeded
//!    regardless of the reason — and otherwise gives up instead of waiting
//!    again.
//!
//! The re-check-first idiom (also what `pthread_cond_timedwait` callers do)
//! is what the `tm-sync` timed operations implement:
//!
//! ```text
//! if !condition(tx)? {
//!     if condsync::wait_interrupted(tx) { return Ok(None); }  // give up
//!     return condsync::retry_for(tx, timeout);                // wait (more)
//! }
//! ... proceed ...
//! ```
//!
//! # Scope
//!
//! The reason applies to the transaction's **most recent** deschedule: a
//! body that performs several independent waits in one transaction should
//! check [`wake_reason`] at the wait it just resumed from.  Each timed
//! construct computes its deadline at call time, so a wait that is woken
//! spuriously (condition no longer true by re-execution) and re-waits gets a
//! fresh full timeout; callers needing an absolute overall deadline can
//! compute the remaining budget themselves.
//!
//! `Retry-Orig` (the lock-metadata baseline, whose sleepers are cancellable
//! like any other) and the non-sleeping baselines (`Restart`, the lock-based
//! mechanisms) have no timed variants.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_core::{
    Addr, PredFn, ThreadId, TmSystem, Tx, TxCtl, TxResult, WaitSpec, Waiter, WakeReason,
};

/// Timed `Retry`: like [`crate::retry`], but the wait resolves as
/// [`WakeReason::Timeout`] once `timeout` elapses without any location in
/// the failed attempt's read set changing value.
///
/// Never returns `Ok`; the `T` parameter lets call sites use it in tail
/// position of any expression type.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use tm_core::{TmConfig, TmRuntime, TmSystem, TmVar};
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let th = system.register_thread();
/// let flag = TmVar::<u64>::alloc(&system, 0);
///
/// // Nobody ever sets the flag, so the bounded wait gives up: after the
/// // timeout the body is re-executed with `timed_out(tx)` true.
/// let got = rt.atomically(&th, |tx| {
///     if flag.get(tx)? == 0 {
///         if condsync::timed_out(tx) {
///             return Ok(None); // deadline passed, report failure
///         }
///         return condsync::retry_for(tx, Duration::from_millis(20));
///     }
///     Ok(Some(flag.get(tx)?))
/// });
/// assert_eq!(got, None);
/// ```
pub fn retry_for<T>(tx: &mut dyn Tx, timeout: Duration) -> TxResult<T> {
    tx.common_mut().wait_deadline = Some(Instant::now() + timeout);
    Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
}

/// Timed `Await`: like [`crate::await_addrs`], but bounded by `timeout`.
pub fn await_for<T>(tx: &mut dyn Tx, addrs: &[Addr], timeout: Duration) -> TxResult<T> {
    tx.common_mut().wait_deadline = Some(Instant::now() + timeout);
    Err(TxCtl::Deschedule(WaitSpec::Addrs(addrs.to_vec())))
}

/// Timed single-address `Await` (the common case), bounded by `timeout`.
pub fn await_one_for<T>(tx: &mut dyn Tx, addr: Addr, timeout: Duration) -> TxResult<T> {
    await_for(tx, &[addr], timeout)
}

/// Timed `WaitPred`: like [`crate::wait_pred`], but bounded by `timeout`.
pub fn wait_pred_for<T>(
    tx: &mut dyn Tx,
    pred: PredFn,
    args: &[u64],
    timeout: Duration,
) -> TxResult<T> {
    tx.common_mut().wait_deadline = Some(Instant::now() + timeout);
    Err(TxCtl::Deschedule(WaitSpec::Pred {
        f: pred,
        args: args.to_vec(),
    }))
}

/// How this transaction's most recent deschedule ended, or `None` if it has
/// not descheduled (in this `atomically` call).
pub fn wake_reason(tx: &dyn Tx) -> Option<WakeReason> {
    tx.common().wake_reason
}

/// True if this transaction's most recent wait ended because its deadline
/// passed.
pub fn timed_out(tx: &dyn Tx) -> bool {
    wake_reason(tx) == Some(WakeReason::Timeout)
}

/// True if this transaction's most recent wait was ended by [`cancel`].
pub fn was_cancelled(tx: &dyn Tx) -> bool {
    wake_reason(tx) == Some(WakeReason::Cancelled)
}

/// True if this transaction's most recent wait ended without the condition
/// being established (timeout or cancellation) — the "give up" test used by
/// the timed operations in `tm-sync`.
pub fn wait_interrupted(tx: &dyn Tx) -> bool {
    matches!(
        wake_reason(tx),
        Some(WakeReason::Timeout) | Some(WakeReason::Cancelled)
    )
}

/// Consumes the recorded wake reason: subsequent [`wake_reason`] /
/// [`timed_out`] / [`wait_interrupted`] calls in this attempt see `None`.
///
/// A timed operation must call this when its wait *resolves* — whether it
/// succeeds (the condition held, possibly despite a recorded timeout) or
/// gives up — so that a later, independent wait in the same transaction
/// body starts fresh instead of inheriting a stale `Timeout`/`Cancelled`.
/// The `tm-sync` timed operations follow this discipline; hand-rolled
/// bodies composing several waits should too.
///
/// The clear is per-attempt: if the attempt later aborts on a conflict, the
/// driver re-seeds the reason for the re-execution, so the give-up decision
/// remains stable until the transaction commits or waits again.
pub fn clear_wake_reason(tx: &mut dyn Tx) {
    tx.common_mut().wake_reason = None;
}

/// Ends `waiter`'s wait with [`WakeReason::Cancelled`].
///
/// Returns `true` if this call won the claim (the sleeper will observe
/// `Cancelled`); `false` if the waiter was already woken, timed out, or
/// cancelled.  Safe to call from any thread, including threads that never
/// run transactions; the cancelled transaction is re-executed by its driver
/// loop and decides for itself what cancellation means (the `tm-sync` timed
/// operations treat it like a timeout and return "no result").
pub fn cancel(waiter: &Arc<Waiter>) -> bool {
    if waiter.claim(WakeReason::Cancelled) {
        waiter.sem.post();
        true
    } else {
        false
    }
}

/// Cancels whatever wait `thread` currently has published in `system`'s
/// waiter registry.
///
/// Returns `true` if a sleeping waiter was found and this call cancelled it.
/// This is the discovery-by-thread-id convenience over [`cancel`]; it walks
/// the registry, so it belongs on control paths (shutdown, watchdogs), not
/// hot paths.  Holding the system, it also deregisters the waiter it
/// claims ([`WaitList::claim`](tm_core::WaitList::claim)) before posting.
pub fn cancel_thread(system: &TmSystem, thread: ThreadId) -> bool {
    match system.waiters.find_by_thread(thread) {
        Some(w) if system.waiters.claim(&w, WakeReason::Cancelled) => {
            w.sem.post();
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{Semaphore, TmConfig, WaitCondition};

    #[test]
    fn cancel_claims_and_signals_exactly_once() {
        let w = Waiter::new(
            3,
            WaitCondition::ValuesChanged(vec![(Addr(1), 0)]),
            Arc::new(Semaphore::new()),
        );
        assert!(cancel(&w));
        assert!(!cancel(&w), "second cancel must lose the claim");
        assert_eq!(w.sem.permits(), 1, "exactly one signal");
        assert_eq!(w.wake_reason(), Some(WakeReason::Cancelled));
    }

    #[test]
    fn cancel_loses_to_an_earlier_wake() {
        let w = Waiter::new(
            3,
            WaitCondition::ValuesChanged(vec![(Addr(1), 0)]),
            Arc::new(Semaphore::new()),
        );
        assert!(w.claim(WakeReason::Woken));
        assert!(!cancel(&w));
        assert_eq!(w.sem.permits(), 0, "losing cancel must not signal");
        assert_eq!(w.wake_reason(), Some(WakeReason::Woken));
    }

    #[test]
    fn cancel_thread_finds_the_registered_waiter() {
        let system = TmSystem::new(TmConfig::small());
        assert!(!cancel_thread(&system, 7), "empty registry: nothing to do");
        let w = Waiter::new(
            7,
            WaitCondition::ValuesChanged(vec![(Addr(1), 0)]),
            Arc::new(Semaphore::new()),
        );
        let stripes = w.condition.stripes(&system.orecs);
        system.waiters.register(Arc::clone(&w), &stripes);
        assert!(cancel_thread(&system, 7));
        assert_eq!(w.wake_reason(), Some(WakeReason::Cancelled));
        assert_eq!(w.sem.permits(), 1, "exactly one signal");
        assert!(system.waiters.is_empty(), "the claim's winner deregisters");
        assert!(!cancel_thread(&system, 7), "already claimed");
    }
}
