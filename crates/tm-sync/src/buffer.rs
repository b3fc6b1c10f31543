//! The multi-producer, multi-consumer bounded buffer of Algorithm 2 and
//! Figure 2.2, with one produce/consume entry point per condition-
//! synchronization mechanism.

use std::sync::Arc;
use std::time::Duration;

use condsync::{Mechanism, TmCondVar};
use tm_core::{Addr, TmArray, TmSystem, TmVar, Tx, TxResult};

/// The shared state of Algorithm 2: a circular array plus its indices and
/// element count, all living in the transactional heap, together with the two
/// condition variables used only by the `TMCondVar` mechanism.
///
/// # Examples
///
/// A producer and a consumer coordinating through `Retry` — the consumer
/// sleeps while the buffer is empty and a producer's commit wakes it:
///
/// ```
/// use std::sync::Arc;
/// use condsync::Mechanism;
/// use tm_core::{TmConfig, TmRuntime, TmSystem};
/// use tm_sync::TmBoundedBuffer;
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let buf = TmBoundedBuffer::new(&system, 4);
///
/// let (rt2, system2, buf2) = (Arc::clone(&rt), Arc::clone(&system), Arc::clone(&buf));
/// let consumer = std::thread::spawn(move || {
///     let th = system2.register_thread();
///     rt2.atomically(&th, |tx| buf2.consume(Mechanism::Retry, tx))
/// });
///
/// let th = system.register_thread();
/// rt.atomically(&th, |tx| buf.produce(Mechanism::Retry, tx, 42));
/// assert_eq!(consumer.join().unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct TmBoundedBuffer {
    cap: usize,
    buf: TmArray<u64>,
    count: TmVar<u64>,
    nextprod: TmVar<u64>,
    nextcons: TmVar<u64>,
    notempty: TmCondVar,
    notfull: TmCondVar,
}

/// `WaitPred` predicate: the buffer identified by `args = [count_addr, cap]`
/// is not full.
pub fn pred_not_full(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    let count = tx.read(Addr(args[0] as usize))?;
    Ok(count < args[1])
}

/// `WaitPred` predicate: the buffer identified by `args = [count_addr]` is
/// not empty.
pub fn pred_not_empty(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    let count = tx.read(Addr(args[0] as usize))?;
    Ok(count > 0)
}

/// `WaitPred` predicate for the composed consume-two scenario of §2.3:
/// `args = [count_addr, needed]` — the buffer holds at least `needed`
/// elements.
pub fn pred_at_least(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    let count = tx.read(Addr(args[0] as usize))?;
    Ok(count >= args[1])
}

impl TmBoundedBuffer {
    /// Allocates a buffer of capacity `cap` in `system`'s heap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or the heap is exhausted.
    pub fn new(system: &Arc<TmSystem>, cap: usize) -> Arc<Self> {
        assert!(cap > 0, "buffer capacity must be positive");
        Arc::new(TmBoundedBuffer {
            cap,
            buf: TmArray::alloc(system, cap, 0),
            count: TmVar::alloc(system, 0),
            nextprod: TmVar::alloc(system, 0),
            nextcons: TmVar::alloc(system, 0),
            notempty: TmCondVar::new(),
            notfull: TmCondVar::new(),
        })
    }

    /// Heap address of the element count (the location `Await` waits on,
    /// `⟨&count⟩` in Figure 2.2).
    pub fn count_addr(&self) -> Addr {
        self.count.addr()
    }

    /// Non-transactional element count (setup / verification only).
    pub fn len_direct(&self, system: &TmSystem) -> u64 {
        self.count.load_direct(system)
    }

    /// Fills the buffer with `n` elements non-transactionally (the paper
    /// half-fills the buffer before each trial).
    pub fn prefill(&self, system: &TmSystem, n: usize) {
        assert!(n <= self.cap);
        for i in 0..n {
            self.buf.store_direct(system, i, i as u64 + 1);
        }
        self.count.store_direct(system, n as u64);
        self.nextprod
            .store_direct(system, n as u64 % self.cap as u64);
        self.nextcons.store_direct(system, 0);
    }

    // ---- Internal methods of Algorithm 2 -------------------------------

    /// `Full()`: `count == cap`.
    pub fn full(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        Ok(self.count.get(tx)? == self.cap as u64)
    }

    /// `Empty()`: `count == 0`.
    pub fn empty(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        Ok(self.count.get(tx)? == 0)
    }

    /// `Put(x)`: store at `nextprod`, advance it, bump `count`.
    /// The caller must have established `!Full()`.
    pub fn put(&self, tx: &mut dyn Tx, x: u64) -> TxResult<()> {
        let np = self.nextprod.get_for_update(tx)?;
        self.buf.set(tx, np as usize, x)?;
        self.nextprod.set(tx, (np + 1) % self.cap as u64)?;
        let c = self.count.get_for_update(tx)?;
        self.count.set(tx, c + 1)
    }

    /// `Get()`: read from `nextcons`, advance it, decrement `count`.
    /// The caller must have established `!Empty()`.
    pub fn get(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        let nc = self.nextcons.get_for_update(tx)?;
        let x = self.buf.get(tx, nc as usize)?;
        self.nextcons.set(tx, (nc + 1) % self.cap as u64)?;
        let c = self.count.get_for_update(tx)?;
        self.count.set(tx, c - 1)?;
        Ok(x)
    }

    // ---- Per-mechanism public methods (Figure 2.2) ----------------------

    /// `Produce(x)` using `mechanism`; must be called from inside a
    /// transaction body.  `Pthreads` is handled by
    /// [`crate::pthread::PthreadBuffer`], not here.
    ///
    /// # Panics
    ///
    /// Panics if called with [`Mechanism::Pthreads`].
    pub fn produce(&self, mechanism: Mechanism, tx: &mut dyn Tx, x: u64) -> TxResult<()> {
        match mechanism {
            Mechanism::Pthreads => panic!("Pthreads producers do not run inside transactions"),
            Mechanism::TmCondVar => {
                while self.full(tx)? {
                    self.notfull.wait(tx)?;
                }
                self.put(tx, x)?;
                self.notempty.signal_from(tx)
            }
            _ => {
                if self.full(tx)? {
                    let count = self.count.addr();
                    let args = [count.0 as u64, self.cap as u64];
                    return mechanism.wait(tx, count, pred_not_full, &args);
                }
                self.put(tx, x)
            }
        }
    }

    /// `Consume()` using `mechanism`; must be called from inside a
    /// transaction body.
    ///
    /// # Panics
    ///
    /// Panics if called with [`Mechanism::Pthreads`].
    pub fn consume(&self, mechanism: Mechanism, tx: &mut dyn Tx) -> TxResult<u64> {
        match mechanism {
            Mechanism::Pthreads => panic!("Pthreads consumers do not run inside transactions"),
            Mechanism::TmCondVar => {
                while self.empty(tx)? {
                    self.notempty.wait(tx)?;
                }
                let x = self.get(tx)?;
                self.notfull.signal_from(tx)?;
                Ok(x)
            }
            _ => {
                if self.empty(tx)? {
                    let count = self.count.addr();
                    return mechanism.wait(tx, count, pred_not_empty, &[count.0 as u64]);
                }
                self.get(tx)
            }
        }
    }

    // ---- Timed variants --------------------------------------------------

    /// `Produce(x)` bounded by `timeout`: returns `Ok(true)` once the
    /// element is stored, or `Ok(false)` if the buffer stayed full past the
    /// deadline (or the wait was cancelled) — the element is then *not*
    /// stored and the transaction commits without effects.
    ///
    /// The deadline applies to each wait: a producer woken spuriously
    /// (buffer full again by re-execution) waits again with a fresh
    /// timeout.  Only the deschedule-based mechanisms support timed waits.
    ///
    /// # Panics
    ///
    /// Panics for mechanisms without timed-wait support (`Pthreads`,
    /// `TMCondVar`, `Retry-Orig`, `Restart`).
    pub fn produce_timeout(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        x: u64,
        timeout: Duration,
    ) -> TxResult<bool> {
        if self.full(tx)? {
            // Re-check first, then give up: a timeout whose condition has
            // meanwhile been established still succeeds (same contract as
            // pthread_cond_timedwait callers re-testing their predicate).
            if condsync::wait_interrupted(tx) {
                condsync::clear_wake_reason(tx);
                return Ok(false);
            }
            let count = self.count.addr();
            let args = [count.0 as u64, self.cap as u64];
            return mechanism.wait_for(tx, count, pred_not_full, &args, timeout);
        }
        // This wait resolved (possibly despite a recorded timeout): consume
        // the reason so a later wait in the same body starts fresh.
        condsync::clear_wake_reason(tx);
        self.put(tx, x)?;
        Ok(true)
    }

    /// `Consume()` bounded by `timeout`: returns `Ok(Some(x))` once an
    /// element is available, or `Ok(None)` if the buffer stayed empty past
    /// the deadline (or the wait was cancelled).
    ///
    /// # Panics
    ///
    /// Panics for mechanisms without timed-wait support (`Pthreads`,
    /// `TMCondVar`, `Retry-Orig`, `Restart`).
    pub fn consume_timeout(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        timeout: Duration,
    ) -> TxResult<Option<u64>> {
        if self.empty(tx)? {
            if condsync::wait_interrupted(tx) {
                condsync::clear_wake_reason(tx);
                return Ok(None);
            }
            let count = self.count.addr();
            return mechanism.wait_for(tx, count, pred_not_empty, &[count.0 as u64], timeout);
        }
        condsync::clear_wake_reason(tx);
        Ok(Some(self.get(tx)?))
    }

    /// The composed `Produce1Consume2` of Algorithm 3 / §2.3: produce one
    /// element and atomically consume two.
    ///
    /// With the paper's mechanisms the whole composition is a single atomic
    /// action (the implicit back-edge of a deschedule rolls back everything,
    /// including the produce); with `TMCondVar` atomicity is broken at the
    /// wait point, which is exactly the hazard §2.2.1 describes.
    ///
    /// Note the §2.3 caveat: for `WaitPred` the buffer-designer's
    /// `¬Empty()` predicate is insufficient here, so this method uses the
    /// stronger "at least two elements" predicate.
    pub fn produce1_consume2(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        x: u64,
    ) -> TxResult<(u64, u64)> {
        self.produce(mechanism, tx, x)?;
        // For WaitPred, consuming two elements atomically needs the
        // `count >= 2` precondition (not merely `¬Empty`), per §2.3.
        if mechanism == Mechanism::WaitPred {
            let c = self.count.get(tx)?;
            if c < 2 {
                return condsync::wait_pred(tx, pred_at_least, &[self.count.addr().0 as u64, 2]);
            }
        }
        let a = self.consume(mechanism, tx)?;
        let b = self.consume(mechanism, tx)?;
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{AbortReason, DirectTx, TmConfig, TxCtl};

    #[test]
    fn put_get_round_trip_preserves_fifo_order() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        let mut tx = DirectTx::new(&system);
        for i in 1..=4 {
            buf.put(&mut tx, i).unwrap();
        }
        assert!(buf.full(&mut tx).unwrap());
        for i in 1..=4 {
            assert_eq!(buf.get(&mut tx).unwrap(), i);
        }
        assert!(buf.empty(&mut tx).unwrap());
    }

    #[test]
    fn wraparound_reuses_slots() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        for round in 0..10u64 {
            buf.put(&mut tx, round).unwrap();
            assert_eq!(buf.get(&mut tx).unwrap(), round);
        }
        assert_eq!(buf.len_direct(&system), 0);
    }

    #[test]
    fn prefill_half_fills_like_the_paper() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 16);
        buf.prefill(&system, 8);
        assert_eq!(buf.len_direct(&system), 8);
        let mut tx = DirectTx::new(&system);
        assert!(!buf.full(&mut tx).unwrap());
        assert!(!buf.empty(&mut tx).unwrap());
        assert_eq!(buf.get(&mut tx).unwrap(), 1);
    }

    #[test]
    fn retry_mechanism_requests_deschedule_when_empty() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        let mut tx = DirectTx::new(&system);
        let r = buf.consume(Mechanism::Retry, &mut tx);
        assert!(matches!(
            r,
            Err(TxCtl::Deschedule(tm_core::WaitSpec::ReadSetValues))
        ));
    }

    #[test]
    fn await_mechanism_waits_on_count_address() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        let mut tx = DirectTx::new(&system);
        match buf.consume(Mechanism::Await, &mut tx) {
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Addrs(a))) => {
                assert_eq!(a, vec![buf.count_addr()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn waitpred_produce_requests_not_full_predicate() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        buf.put(&mut tx, 1).unwrap();
        buf.put(&mut tx, 2).unwrap();
        match buf.produce(Mechanism::WaitPred, &mut tx, 3) {
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Pred { args, .. })) => {
                assert_eq!(args, vec![buf.count_addr().0 as u64, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restart_mechanism_aborts_explicitly() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            buf.consume(Mechanism::Restart, &mut tx),
            Err(TxCtl::Abort(AbortReason::Explicit(_)))
        ));
    }

    #[test]
    fn predicates_evaluate_buffer_state() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        let args_full = [buf.count_addr().0 as u64, 2];
        let args_empty = [buf.count_addr().0 as u64];
        assert!(pred_not_full(&mut tx, &args_full).unwrap());
        assert!(!pred_not_empty(&mut tx, &args_empty).unwrap());
        buf.put(&mut tx, 9).unwrap();
        assert!(pred_not_empty(&mut tx, &args_empty).unwrap());
        buf.put(&mut tx, 9).unwrap();
        assert!(!pred_not_full(&mut tx, &args_full).unwrap());
        assert!(pred_at_least(&mut tx, &[buf.count_addr().0 as u64, 2]).unwrap());
        assert!(!pred_at_least(&mut tx, &[buf.count_addr().0 as u64, 3]).unwrap());
    }

    #[test]
    fn mechanism_produce_when_space_available_just_puts() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        for (i, mech) in [
            Mechanism::Retry,
            Mechanism::Await,
            Mechanism::WaitPred,
            Mechanism::Restart,
        ]
        .into_iter()
        .enumerate()
        {
            let mut tx = DirectTx::new(&system);
            buf.produce(mech, &mut tx, 100 + i as u64).unwrap();
        }
        assert_eq!(buf.len_direct(&system), 4);
    }

    #[test]
    fn timed_variants_operate_immediately_when_unblocked() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        let t = std::time::Duration::from_millis(5);
        assert!(buf
            .produce_timeout(Mechanism::Retry, &mut tx, 7, t)
            .unwrap());
        assert_eq!(
            buf.consume_timeout(Mechanism::Await, &mut tx, t).unwrap(),
            Some(7)
        );
    }

    #[test]
    fn timed_variants_request_deadline_carrying_descedules() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        let t = std::time::Duration::from_millis(50);
        // Empty buffer: a timed consume must stash a deadline and request
        // the same deschedule as its unbounded sibling.
        assert!(tx.common().wait_deadline.is_none());
        assert!(matches!(
            buf.consume_timeout(Mechanism::Retry, &mut tx, t),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::ReadSetValues))
        ));
        assert!(tx.common().wait_deadline.is_some());

        // Once the driver reports the wait as interrupted, the re-executed
        // body gives up instead of waiting again.
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Timeout);
        assert_eq!(
            buf.consume_timeout(Mechanism::Retry, &mut tx, t).unwrap(),
            None
        );
        // ...unless the condition has meanwhile been established, in which
        // case the late success wins over the recorded timeout.
        buf.put(&mut tx, 9).unwrap();
        assert_eq!(
            buf.consume_timeout(Mechanism::Retry, &mut tx, t).unwrap(),
            Some(9)
        );

        // A full buffer symmetrically bounds produce.
        buf.put(&mut tx, 1).unwrap();
        buf.put(&mut tx, 2).unwrap();
        tx.common_mut().wake_reason = None;
        assert!(matches!(
            buf.produce_timeout(Mechanism::WaitPred, &mut tx, 3, t),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Pred { .. }))
        ));
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Cancelled);
        assert!(!buf
            .produce_timeout(Mechanism::WaitPred, &mut tx, 3, t)
            .unwrap());
    }

    #[test]
    fn resolved_waits_consume_the_wake_reason() {
        // Composition: a first timed op that resolves (either way) must not
        // leave a stale Timeout behind that short-circuits a later,
        // independent wait in the same transaction body.
        let system = TmSystem::new(TmConfig::small());
        let a = TmBoundedBuffer::new(&system, 2);
        let b = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        let t = std::time::Duration::from_millis(50);

        // Op A timed out, but succeeds on re-execution (late success wins)…
        a.put(&mut tx, 1).unwrap();
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Timeout);
        assert_eq!(
            a.consume_timeout(Mechanism::Retry, &mut tx, t).unwrap(),
            Some(1)
        );
        // …so op B on the (empty) second buffer must WAIT, not give up.
        assert!(matches!(
            b.consume_timeout(Mechanism::Retry, &mut tx, t),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::ReadSetValues))
        ));

        // Give-up also consumes the reason.
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Timeout);
        assert_eq!(
            b.consume_timeout(Mechanism::Retry, &mut tx, t).unwrap(),
            None
        );
        assert!(tx.common().wake_reason.is_none());
        assert!(matches!(
            b.consume_timeout(Mechanism::Retry, &mut tx, t),
            Err(TxCtl::Deschedule(_))
        ));
    }

    #[test]
    #[should_panic(expected = "does not support timed waits")]
    fn timed_variants_reject_non_deschedule_mechanisms() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 2);
        let mut tx = DirectTx::new(&system);
        let _ = buf.consume_timeout(
            Mechanism::Restart,
            &mut tx,
            std::time::Duration::from_millis(1),
        );
    }

    #[test]
    #[should_panic(expected = "Pthreads")]
    fn pthreads_mechanism_is_rejected() {
        let system = TmSystem::new(TmConfig::small());
        let buf = TmBoundedBuffer::new(&system, 4);
        let mut tx = DirectTx::new(&system);
        let _ = buf.produce(Mechanism::Pthreads, &mut tx, 1);
    }
}
