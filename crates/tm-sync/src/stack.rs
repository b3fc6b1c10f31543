//! A transactional LIFO stack (Treiber-style layout, transactional updates).
//!
//! Used by work-stealing-free task pools in the PARSEC-like kernels
//! (raytrace, bodytrack) where the processing order does not matter.

use std::sync::Arc;

use tm_core::{Addr, TmSystem, TmVar, Tx, TxResult};

/// Node layout in the heap: `[value, next]`.
const NODE_WORDS: usize = 2;

/// An unbounded transactional stack.
#[derive(Debug, Clone)]
pub struct TmStack {
    top: TmVar<Addr>,
    len: TmVar<u64>,
}

impl TmStack {
    /// Allocates an empty stack.
    pub fn new(system: &Arc<TmSystem>) -> Self {
        TmStack {
            top: TmVar::alloc(system, Addr::NULL),
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

    /// Pushes `value`.
    pub fn push(&self, tx: &mut dyn Tx, value: u64) -> TxResult<()> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node, value)?;
        let top = self.top.get(tx)?;
        tx.write(node.offset(1), top.0 as u64)?;
        self.top.set(tx, node)?;
        let n = self.len.get_for_update(tx)?;
        self.len.set(tx, n + 1)
    }

    /// Pops the most recently pushed value, or `None` if empty.
    pub fn try_pop(&self, tx: &mut dyn Tx) -> TxResult<Option<u64>> {
        let top = self.top.get(tx)?;
        if top.is_null() {
            return Ok(None);
        }
        let value = tx.read(top)?;
        let next = Addr(tx.read(top.offset(1))? as usize);
        self.top.set(tx, next)?;
        let n = self.len.get_for_update(tx)?;
        self.len.set(tx, n - 1)?;
        tx.free(top, NODE_WORDS)?;
        Ok(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{DirectTx, TmConfig};

    #[test]
    fn lifo_order() {
        let system = TmSystem::new(TmConfig::small());
        let s = TmStack::new(&system);
        let mut tx = DirectTx::new(&system);
        for i in 1..=5 {
            s.push(&mut tx, i).unwrap();
        }
        for i in (1..=5).rev() {
            assert_eq!(s.try_pop(&mut tx).unwrap(), Some(i));
        }
        assert_eq!(s.try_pop(&mut tx).unwrap(), None);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let system = TmSystem::new(TmConfig::small());
        let s = TmStack::new(&system);
        let mut tx = DirectTx::new(&system);
        assert!(s.is_empty(&mut tx).unwrap());
        s.push(&mut tx, 1).unwrap();
        s.push(&mut tx, 2).unwrap();
        assert_eq!(s.len(&mut tx).unwrap(), 2);
        s.try_pop(&mut tx).unwrap();
        assert_eq!(s.len_direct(&system), 1);
    }

    #[test]
    fn nodes_are_reclaimed() {
        let system = TmSystem::new(TmConfig::small());
        let s = TmStack::new(&system);
        let baseline = system.heap.allocated_words();
        let mut tx = DirectTx::new(&system);
        for i in 0..50 {
            s.push(&mut tx, i).unwrap();
            s.try_pop(&mut tx).unwrap();
        }
        assert_eq!(system.heap.allocated_words(), baseline);
    }
}
