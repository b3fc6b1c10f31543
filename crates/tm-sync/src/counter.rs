//! A shared transactional counter, plus a threshold wait expressed with each
//! of the paper's mechanisms.  Used by the PARSEC-like kernels for progress
//! tracking (e.g. "wait until all stage-1 items have been processed").

use std::sync::Arc;

use condsync::Mechanism;
use tm_core::{Addr, TmSystem, TmVar, Tx, TxResult};

/// A transactional counter living in the word heap.
#[derive(Debug, Clone)]
pub struct TmCounter {
    value: TmVar<u64>,
}

/// `WaitPred` predicate: the counter at `args[0]` has reached `args[1]`.
pub fn pred_reached(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? >= args[1])
}

impl TmCounter {
    /// Allocates a counter with the given initial value.
    pub fn new(system: &Arc<TmSystem>, init: u64) -> Self {
        TmCounter {
            value: TmVar::alloc(system, init),
        }
    }

    /// Heap address of the counter (for `Await`).
    pub fn addr(&self) -> Addr {
        self.value.addr()
    }

    /// Transactionally reads the counter.
    pub fn get(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        self.value.get(tx)
    }

    /// Transactionally adds `n`, returning the new value.
    pub fn add(&self, tx: &mut dyn Tx, n: u64) -> TxResult<u64> {
        let v = self.value.get_for_update(tx)? + n;
        self.value.set(tx, v)?;
        Ok(v)
    }

    /// Transactionally increments, returning the new value.
    pub fn increment(&self, tx: &mut dyn Tx) -> TxResult<u64> {
        self.add(tx, 1)
    }

    /// Non-transactional read (verification only).
    pub fn load_direct(&self, system: &TmSystem) -> u64 {
        self.value.load_direct(system)
    }

    /// Non-transactional write (setup only).
    pub fn store_direct(&self, system: &TmSystem, v: u64) {
        self.value.store_direct(system, v);
    }

    /// From inside a transaction: return the counter's value if it has
    /// reached `threshold`, otherwise wait using `mechanism`.
    ///
    /// # Panics
    ///
    /// Panics if called with [`Mechanism::Pthreads`] or
    /// [`Mechanism::TmCondVar`] — lock-based code paths do their waiting
    /// outside transactions.
    pub fn wait_for_at_least(
        &self,
        mechanism: Mechanism,
        tx: &mut dyn Tx,
        threshold: u64,
    ) -> TxResult<u64> {
        let v = self.value.get(tx)?;
        if v >= threshold {
            return Ok(v);
        }
        let addr = self.addr();
        mechanism.wait(tx, addr, pred_reached, &[addr.0 as u64, threshold])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{AbortReason, DirectTx, TmConfig, TxCtl};

    #[test]
    fn increment_and_add() {
        let system = TmSystem::new(TmConfig::small());
        let c = TmCounter::new(&system, 10);
        let mut tx = DirectTx::new(&system);
        assert_eq!(c.increment(&mut tx).unwrap(), 11);
        assert_eq!(c.add(&mut tx, 5).unwrap(), 16);
        assert_eq!(c.load_direct(&system), 16);
    }

    #[test]
    fn wait_for_at_least_returns_when_satisfied() {
        let system = TmSystem::new(TmConfig::small());
        let c = TmCounter::new(&system, 7);
        let mut tx = DirectTx::new(&system);
        assert_eq!(
            c.wait_for_at_least(Mechanism::Retry, &mut tx, 5).unwrap(),
            7
        );
    }

    #[test]
    fn wait_for_at_least_requests_deschedule_when_below_threshold() {
        let system = TmSystem::new(TmConfig::small());
        let c = TmCounter::new(&system, 1);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            c.wait_for_at_least(Mechanism::Await, &mut tx, 5),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Addrs(_)))
        ));
        assert!(matches!(
            c.wait_for_at_least(Mechanism::WaitPred, &mut tx, 5),
            Err(TxCtl::Deschedule(tm_core::WaitSpec::Pred { .. }))
        ));
        assert!(matches!(
            c.wait_for_at_least(Mechanism::Restart, &mut tx, 5),
            Err(TxCtl::Abort(AbortReason::Explicit(_)))
        ));
    }

    #[test]
    fn pred_reached_matches_threshold_semantics() {
        let system = TmSystem::new(TmConfig::small());
        let c = TmCounter::new(&system, 3);
        let mut tx = DirectTx::new(&system);
        assert!(pred_reached(&mut tx, &[c.addr().0 as u64, 3]).unwrap());
        assert!(!pred_reached(&mut tx, &[c.addr().0 as u64, 4]).unwrap());
    }
}
