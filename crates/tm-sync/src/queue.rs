//! An unbounded transactional FIFO queue built from heap-allocated nodes.
//!
//! Exercises transactional allocation and deferred reclamation (the paper's
//! "captured memory" concern), and serves as the hand-off structure in the
//! pipeline-style PARSEC kernels (dedup, ferret, x264).

use std::sync::Arc;
use std::time::Duration;

use condsync::Mechanism;
use tm_core::{Addr, TmSystem, TmVar, Tx, TxResult};

/// Node layout in the heap: `[value, next]`.
const NODE_WORDS: usize = 2;

/// An unbounded multi-producer multi-consumer FIFO queue.
#[derive(Debug, Clone)]
pub struct TmQueue {
    head: TmVar<Addr>,
    tail: TmVar<Addr>,
    len: TmVar<u64>,
}

/// `WaitPred` predicate: the queue whose length field is at `args[0]` is
/// non-empty.
pub fn pred_queue_nonempty(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? > 0)
}

impl TmQueue {
    /// Allocates an empty queue.
    pub fn new(system: &Arc<TmSystem>) -> Self {
        TmQueue {
            head: TmVar::alloc(system, Addr::NULL),
            tail: TmVar::alloc(system, Addr::NULL),
            len: TmVar::alloc(system, 0),
        }
    }

    /// Heap address of the length field (for `Await`).
    pub fn len_addr(&self) -> Addr {
        self.len.addr()
    }

    /// Transactional length.
    pub fn len(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        self.len.get(tx)
    }

    /// Transactional emptiness check.
    pub fn is_empty(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Non-transactional length (verification only).
    pub fn len_direct(&self, system: &TmSystem) -> u64 {
        self.len.load_direct(system)
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, tx: &mut dyn Tx, value: u64) -> TxResult<()> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node, value)?;
        tx.write(node.offset(1), Addr::NULL.0 as u64)?;
        let tail = self.tail.get(tx)?;
        if tail.is_null() {
            self.head.set(tx, node)?;
        } else {
            tx.write(tail.offset(1), node.0 as u64)?;
        }
        self.tail.set(tx, node)?;
        let n = self.len.get_for_update(tx)?;
        self.len.set(tx, n + 1)
    }

    /// Removes and returns the oldest element, or `None` if the queue is
    /// empty.  The removed node is freed transactionally (reclamation is
    /// deferred until commit by the runtimes).
    pub fn try_dequeue(&self, tx: &mut dyn Tx) -> TxResult<Option<u64>> {
        let head = self.head.get(tx)?;
        if head.is_null() {
            return Ok(None);
        }
        let value = tx.read(head)?;
        let next = Addr(tx.read(head.offset(1))? as usize);
        self.head.set(tx, next)?;
        if next.is_null() {
            self.tail.set(tx, Addr::NULL)?;
        }
        let n = self.len.get_for_update(tx)?;
        self.len.set(tx, n - 1)?;
        tx.free(head, NODE_WORDS)?;
        Ok(Some(value))
    }

    /// Dequeues, waiting with `mechanism` if the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics for the lock-based mechanisms, which do not wait inside
    /// transactions.
    pub fn dequeue_waiting(&self, mechanism: Mechanism, tx: &mut dyn Tx) -> TxResult<u64> {
        if let Some(v) = self.try_dequeue(tx)? {
            return Ok(v);
        }
        let len = self.len_addr();
        mechanism.wait(tx, len, pred_queue_nonempty, &[len.0 as u64])
    }

    /// Dequeues, waiting at most `timeout` if the queue is empty: returns
    /// `Ok(Some(v))` once an element arrives, or `Ok(None)` if the queue
    /// stayed empty past the deadline (or the wait was cancelled).  This is
    /// what a lossy pipeline stage uses to skip ahead instead of stalling
    /// behind a slow upstream.
    ///
    /// # Panics
    ///
    /// Panics for mechanisms without timed-wait support (`Pthreads`,
    /// `TMCondVar`, `Retry-Orig`, `Restart`).
    pub fn pop_timeout(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        timeout: Duration,
    ) -> TxResult<Option<u64>> {
        if let Some(v) = self.try_dequeue(tx)? {
            // This wait resolved (possibly despite a recorded timeout):
            // consume the reason so a later wait in the body starts fresh.
            condsync::clear_wake_reason(tx);
            return Ok(Some(v));
        }
        if condsync::wait_interrupted(tx) {
            condsync::clear_wake_reason(tx);
            return Ok(None);
        }
        let len = self.len_addr();
        mechanism.wait_for(tx, len, pred_queue_nonempty, &[len.0 as u64], timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{DirectTx, TmConfig, TxCtl};

    #[test]
    fn fifo_order() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let mut tx = DirectTx::new(&system);
        for i in 1..=5 {
            q.enqueue(&mut tx, i).unwrap();
        }
        assert_eq!(q.len(&mut tx).unwrap(), 5);
        for i in 1..=5 {
            assert_eq!(q.try_dequeue(&mut tx).unwrap(), Some(i));
        }
        assert_eq!(q.try_dequeue(&mut tx).unwrap(), None);
        assert!(q.is_empty(&mut tx).unwrap());
    }

    #[test]
    fn dequeue_empty_then_refill() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let mut tx = DirectTx::new(&system);
        assert_eq!(q.try_dequeue(&mut tx).unwrap(), None);
        q.enqueue(&mut tx, 42).unwrap();
        assert_eq!(q.try_dequeue(&mut tx).unwrap(), Some(42));
        q.enqueue(&mut tx, 43).unwrap();
        q.enqueue(&mut tx, 44).unwrap();
        assert_eq!(q.try_dequeue(&mut tx).unwrap(), Some(43));
        assert_eq!(q.try_dequeue(&mut tx).unwrap(), Some(44));
    }

    #[test]
    fn nodes_are_reclaimed() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let baseline = system.heap.allocated_words();
        let mut tx = DirectTx::new(&system);
        for round in 0..50 {
            q.enqueue(&mut tx, round).unwrap();
            q.try_dequeue(&mut tx).unwrap();
        }
        // The direct tx frees immediately; the heap must not grow unboundedly.
        assert_eq!(system.heap.allocated_words(), baseline);
    }

    #[test]
    fn dequeue_waiting_requests_mechanism_specific_wait() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            q.dequeue_waiting(Mechanism::Retry, &mut tx),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::ReadSetValues))
        ));
        assert!(matches!(
            q.dequeue_waiting(Mechanism::Await, &mut tx),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Addrs(_)))
        ));
        assert!(matches!(
            q.dequeue_waiting(Mechanism::WaitPred, &mut tx),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Pred { .. }))
        ));
    }

    #[test]
    fn pop_timeout_pops_or_requests_timed_wait() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let mut tx = DirectTx::new(&system);
        let t = std::time::Duration::from_millis(20);
        q.enqueue(&mut tx, 5).unwrap();
        assert_eq!(
            q.pop_timeout(Mechanism::Retry, &mut tx, t).unwrap(),
            Some(5)
        );
        // Empty: requests a deadline-carrying deschedule...
        assert!(matches!(
            q.pop_timeout(Mechanism::Await, &mut tx, t),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Addrs(_)))
        ));
        assert!(tx.common().wait_deadline.is_some());
        // ...and gives up once the driver reports the wait interrupted.
        tx.common_mut().wake_reason = Some(tm_core::WakeReason::Timeout);
        assert_eq!(q.pop_timeout(Mechanism::Await, &mut tx, t).unwrap(), None);
    }

    #[test]
    fn pred_queue_nonempty_tracks_len() {
        let system = TmSystem::new(TmConfig::small());
        let q = TmQueue::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(!pred_queue_nonempty(&mut tx, &[q.len_addr().0 as u64]).unwrap());
        q.enqueue(&mut tx, 1).unwrap();
        assert!(pred_queue_nonempty(&mut tx, &[q.len_addr().0 as u64]).unwrap());
    }
}
