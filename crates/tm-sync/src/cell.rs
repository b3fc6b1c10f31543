//! A transactional single-assignment cell ("future"/"promise").
//!
//! `TmOnceCell` holds a value that is written exactly once; readers that
//! arrive before the value exists wait with the application's chosen
//! condition-synchronization mechanism.  It is the smallest useful consumer
//! of the paper's constructs — a one-shot hand-off — and doubles as the
//! building block for dataflow-style pipelines where a stage's output is
//! awaited by several downstream transactions.

use std::sync::Arc;

use condsync::Mechanism;
use tm_core::{Addr, TmSystem, TmVar, Tx, TxResult};

/// A transactional write-once cell.
///
/// Internally two heap words: a `set` flag and the value.  The flag (rather
/// than a sentinel value) lets the cell store any `u64`, including zero and
/// `u64::MAX`.
#[derive(Debug, Clone)]
pub struct TmOnceCell {
    set: TmVar<u64>,
    value: TmVar<u64>,
}

/// `WaitPred` predicate: the cell identified by `args = [set_addr]` has been
/// assigned.
pub fn pred_cell_set(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

impl TmOnceCell {
    /// Allocates an empty cell in `system`'s heap.
    pub fn new(system: &Arc<TmSystem>) -> Self {
        TmOnceCell {
            set: TmVar::alloc(system, 0),
            value: TmVar::alloc(system, 0),
        }
    }

    /// Heap address of the `set` flag (the word `Await` waits on).
    pub fn flag_addr(&self) -> Addr {
        self.set.addr()
    }

    /// True if a value has been assigned.
    pub fn is_set(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        Ok(self.set.get(tx)? != 0)
    }

    /// Non-transactional check (setup / verification only).
    pub fn is_set_direct(&self, system: &TmSystem) -> bool {
        self.set.load_direct(system) != 0
    }

    /// Assigns the value.  Returns `true` if this call performed the
    /// assignment, `false` if the cell was already set (the existing value is
    /// left untouched, matching `OnceCell::set` semantics).
    pub fn try_set(&self, tx: &mut dyn Tx, value: u64) -> TxResult<bool> {
        if self.set.get(tx)? != 0 {
            return Ok(false);
        }
        self.value.set(tx, value)?;
        self.set.set(tx, 1)?;
        Ok(true)
    }

    /// Reads the value if it has been assigned.
    pub fn try_get(&self, tx: &mut dyn Tx) -> TxResult<Option<u64>> {
        if self.set.get(tx)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.value.get(tx)?))
    }

    /// Reads the value, waiting with `mechanism` until it is assigned.
    ///
    /// # Panics
    ///
    /// Panics for the lock-based mechanisms, which wait outside transactions.
    pub fn get_waiting(&self, mechanism: Mechanism, tx: &mut dyn Tx) -> TxResult<u64> {
        if let Some(v) = self.try_get(tx)? {
            return Ok(v);
        }
        let flag = self.flag_addr();
        mechanism.wait(tx, flag, pred_cell_set, &[flag.0 as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{DirectTx, TmConfig, TxCtl, WaitSpec};

    #[test]
    fn set_once_then_read_back() {
        let system = TmSystem::new(TmConfig::small());
        let cell = TmOnceCell::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(!cell.is_set(&mut tx).unwrap());
        assert_eq!(cell.try_get(&mut tx).unwrap(), None);
        assert!(cell.try_set(&mut tx, 99).unwrap());
        assert_eq!(cell.try_get(&mut tx).unwrap(), Some(99));
        assert!(cell.is_set_direct(&system));
    }

    #[test]
    fn second_set_is_rejected_and_preserves_first_value() {
        let system = TmSystem::new(TmConfig::small());
        let cell = TmOnceCell::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(cell.try_set(&mut tx, 1).unwrap());
        assert!(!cell.try_set(&mut tx, 2).unwrap());
        assert_eq!(cell.try_get(&mut tx).unwrap(), Some(1));
    }

    #[test]
    fn zero_and_max_are_representable_values() {
        let system = TmSystem::new(TmConfig::small());
        let mut tx = DirectTx::new(&system);
        let zero = TmOnceCell::new(&system);
        assert!(zero.try_set(&mut tx, 0).unwrap());
        assert_eq!(zero.try_get(&mut tx).unwrap(), Some(0));
        let max = TmOnceCell::new(&system);
        assert!(max.try_set(&mut tx, u64::MAX).unwrap());
        assert_eq!(max.try_get(&mut tx).unwrap(), Some(u64::MAX));
    }

    #[test]
    fn get_waiting_returns_immediately_when_set() {
        let system = TmSystem::new(TmConfig::small());
        let cell = TmOnceCell::new(&system);
        let mut tx = DirectTx::new(&system);
        cell.try_set(&mut tx, 7).unwrap();
        assert_eq!(cell.get_waiting(Mechanism::Retry, &mut tx).unwrap(), 7);
        assert_eq!(cell.get_waiting(Mechanism::Await, &mut tx).unwrap(), 7);
    }

    #[test]
    fn get_waiting_requests_the_right_deschedule_when_empty() {
        let system = TmSystem::new(TmConfig::small());
        let cell = TmOnceCell::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            cell.get_waiting(Mechanism::Retry, &mut tx),
            Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
        ));
        match cell.get_waiting(Mechanism::Await, &mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(a))) => assert_eq!(a, vec![cell.flag_addr()]),
            other => panic!("unexpected {other:?}"),
        }
        match cell.get_waiting(Mechanism::WaitPred, &mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::Pred { args, .. })) => {
                assert_eq!(args, vec![cell.flag_addr().0 as u64]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn predicate_tracks_the_flag() {
        let system = TmSystem::new(TmConfig::small());
        let cell = TmOnceCell::new(&system);
        let mut tx = DirectTx::new(&system);
        let args = [cell.flag_addr().0 as u64];
        assert!(!pred_cell_set(&mut tx, &args).unwrap());
        cell.try_set(&mut tx, 3).unwrap();
        assert!(pred_cell_set(&mut tx, &args).unwrap());
    }
}
