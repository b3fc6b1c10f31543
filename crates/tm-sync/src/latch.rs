//! A transactional count-down latch.
//!
//! `TmLatch` is the transactional analogue of `pthread`-style "wait for N
//! events" coordination (Java's `CountDownLatch`): worker transactions call
//! [`TmLatch::count_down`] as part of their commits, and any transaction can
//! wait until the count reaches zero using whichever condition-
//! synchronization mechanism the application has chosen.  It is a thin,
//! reusable packaging of the pattern the PARSEC-like kernels use for frame
//! completion.

use std::sync::Arc;
use std::time::Duration;

use condsync::Mechanism;
use tm_core::{Addr, TmSystem, TmVar, Tx, TxResult};

/// A transactional count-down latch.
///
/// The latch is created with an initial count; `count_down` decrements it
/// (saturating at zero) and `wait_open` blocks the calling transaction until
/// the count is zero.  Unlike a barrier it is single-use: once open it stays
/// open until [`TmLatch::reset_direct`] is called outside any transaction.
#[derive(Debug, Clone)]
pub struct TmLatch {
    remaining: TmVar<u64>,
}

/// `WaitPred` predicate: the latch identified by `args = [remaining_addr]`
/// is open (its count reached zero).
pub fn pred_latch_open(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? == 0)
}

impl TmLatch {
    /// Allocates a latch with `count` pending events in `system`'s heap.
    pub fn new(system: &Arc<TmSystem>, count: u64) -> Self {
        TmLatch {
            remaining: TmVar::alloc(system, count),
        }
    }

    /// Heap address of the remaining-count word (what `Await` waits on).
    pub fn addr(&self) -> Addr {
        self.remaining.addr()
    }

    /// Transactionally reads the remaining count.
    pub fn remaining(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        self.remaining.get(tx)
    }

    /// Non-transactional read (setup / verification only).
    pub fn remaining_direct(&self, system: &TmSystem) -> u64 {
        self.remaining.load_direct(system)
    }

    /// Resets the count outside of any transaction (only safe at quiescent
    /// points, e.g. between frames).
    pub fn reset_direct(&self, system: &TmSystem, count: u64) {
        self.remaining.store_direct(system, count);
    }

    /// True if the latch is open (count is zero).
    pub fn is_open(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        Ok(self.remaining.get(tx)? == 0)
    }

    /// Records one completed event.  Returns the remaining count after the
    /// decrement; the count saturates at zero so extra count-downs are
    /// harmless.
    pub fn count_down(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        let current = self.remaining.get_for_update(tx)?;
        let next = current.saturating_sub(1);
        self.remaining.set(tx, next)?;
        Ok(next)
    }

    /// From inside a transaction: proceed if the latch is open, otherwise
    /// wait with `mechanism`.
    ///
    /// # Panics
    ///
    /// Panics for the lock-based mechanisms ([`Mechanism::Pthreads`] and
    /// [`Mechanism::TmCondVar`] wait outside/around transactions).
    pub fn wait_open(&self, mechanism: Mechanism, tx: &mut dyn Tx) -> TxResult<()> {
        if self.is_open(tx)? {
            return Ok(());
        }
        let addr = self.addr();
        mechanism.wait(tx, addr, pred_latch_open, &[addr.0 as u64])
    }

    /// From inside a transaction: wait for the latch to open, giving up
    /// after `timeout`.  Returns `Ok(true)` if the latch is (or became)
    /// open, `Ok(false)` if the deadline passed (or the wait was cancelled)
    /// with the latch still closed.
    ///
    /// # Panics
    ///
    /// Panics for mechanisms without timed-wait support (`Pthreads`,
    /// `TMCondVar`, `Retry-Orig`, `Restart`).
    pub fn wait_for(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        timeout: Duration,
    ) -> TxResult<bool> {
        if self.is_open(tx)? {
            // This wait resolved (possibly despite a recorded timeout):
            // consume the reason so a later wait in the body starts fresh.
            condsync::clear_wake_reason(tx);
            return Ok(true);
        }
        if condsync::wait_interrupted(tx) {
            condsync::clear_wake_reason(tx);
            return Ok(false);
        }
        let addr = self.addr();
        mechanism.wait_for(tx, addr, pred_latch_open, &[addr.0 as u64], timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{AbortReason, DirectTx, TmConfig, TxCtl, WaitSpec};

    #[test]
    fn count_down_reaches_zero_and_saturates() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 3);
        let mut tx = DirectTx::new(&system);
        assert!(!latch.is_open(&mut tx).unwrap());
        assert_eq!(latch.count_down(&mut tx).unwrap(), 2);
        assert_eq!(latch.count_down(&mut tx).unwrap(), 1);
        assert_eq!(latch.count_down(&mut tx).unwrap(), 0);
        assert!(latch.is_open(&mut tx).unwrap());
        // Saturation: extra count-downs stay at zero.
        assert_eq!(latch.count_down(&mut tx).unwrap(), 0);
        assert_eq!(latch.remaining_direct(&system), 0);
    }

    #[test]
    fn wait_open_passes_through_when_open() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 0);
        let mut tx = DirectTx::new(&system);
        latch.wait_open(Mechanism::Retry, &mut tx).unwrap();
        latch.wait_open(Mechanism::WaitPred, &mut tx).unwrap();
    }

    #[test]
    fn wait_open_requests_the_right_deschedule() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            latch.wait_open(Mechanism::Retry, &mut tx),
            Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
        ));
        match latch.wait_open(Mechanism::Await, &mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(a))) => assert_eq!(a, vec![latch.addr()]),
            other => panic!("unexpected {other:?}"),
        }
        match latch.wait_open(Mechanism::WaitPred, &mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::Pred { args, .. })) => {
                assert_eq!(args, vec![latch.addr().0 as u64]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            latch.wait_open(Mechanism::Restart, &mut tx),
            Err(TxCtl::Abort(AbortReason::Explicit(_)))
        ));
    }

    #[test]
    fn wait_for_passes_gives_up_or_requests_timed_wait() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 1);
        let mut tx = DirectTx::new(&system);
        let t = Duration::from_millis(20);
        // Closed: requests a deadline-carrying deschedule.
        assert!(matches!(
            latch.wait_for(Mechanism::Retry, &mut tx, t),
            Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
        ));
        assert!(tx.common().wait_deadline.is_some());
        // The driver reported a timeout: give up.
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Timeout);
        assert!(!latch.wait_for(Mechanism::Await, &mut tx, t).unwrap());
        // Open latch passes immediately even after a timeout.
        latch.count_down(&mut tx).unwrap();
        assert!(latch.wait_for(Mechanism::WaitPred, &mut tx, t).unwrap());
    }

    #[test]
    fn predicate_reports_open_state() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 1);
        let mut tx = DirectTx::new(&system);
        let args = [latch.addr().0 as u64];
        assert!(!pred_latch_open(&mut tx, &args).unwrap());
        latch.count_down(&mut tx).unwrap();
        assert!(pred_latch_open(&mut tx, &args).unwrap());
    }

    #[test]
    fn reset_reloads_the_count() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 1);
        let mut tx = DirectTx::new(&system);
        latch.count_down(&mut tx).unwrap();
        assert!(latch.is_open(&mut tx).unwrap());
        latch.reset_direct(&system, 5);
        assert_eq!(latch.remaining_direct(&system), 5);
        assert!(!latch.is_open(&mut tx).unwrap());
    }

    #[test]
    #[should_panic(expected = "outside transactions")]
    fn lock_based_mechanisms_are_rejected() {
        let system = TmSystem::new(TmConfig::small());
        let latch = TmLatch::new(&system, 1);
        let mut tx = DirectTx::new(&system);
        let _ = latch.wait_open(Mechanism::Pthreads, &mut tx);
    }
}
