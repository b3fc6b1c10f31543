//! A standalone log pool: cleared containers handed back with their
//! capacity.
//!
//! No runtime uses it: an attempt fills the thread's resident
//! [`super::Descriptor`], which needs no lock and no hand-off.  The pool
//! serves callers that keep access sets outside a transaction attempt.

use crate::lock::Mutex;

use super::index_set::IndexSet;
use super::read_set::ReadSet;
use super::write_log::WriteLog;

/// Spare instances kept per container kind.
const MAX_SPARES: usize = 4;

#[derive(Debug, Default)]
struct PoolInner {
    read_sets: Vec<ReadSet>,
    write_logs: Vec<WriteLog>,
    index_sets: Vec<IndexSet>,
}

/// A pool of cleared access-set containers.
///
/// A `put` clears the container and keeps it (up to a small bound per
/// kind) if it ever grew; a `take` hands one back with that capacity, or a
/// fresh empty one.
#[derive(Debug, Default)]
pub struct LogPool {
    inner: Mutex<PoolInner>,
}

/// What a take returned: a recycled container or a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taken {
    /// The container came from the pool with capacity already grown.
    Recycled,
    /// The pool was empty; the container is brand new (and empty).
    Fresh,
}

impl LogPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        LogPool::default()
    }

    /// Takes a cleared read set, recycling a pooled one when available.
    pub fn take_read_set(&self) -> (ReadSet, Taken) {
        match self.inner.lock().read_sets.pop() {
            Some(s) => (s, Taken::Recycled),
            None => (ReadSet::new(), Taken::Fresh),
        }
    }

    /// Takes a cleared write log, recycling a pooled one when available.
    pub fn take_write_log(&self) -> (WriteLog, Taken) {
        match self.inner.lock().write_logs.pop() {
            Some(l) => (l, Taken::Recycled),
            None => (WriteLog::new(), Taken::Fresh),
        }
    }

    /// Takes a cleared index set, recycling a pooled one when available.
    pub fn take_index_set(&self) -> (IndexSet, Taken) {
        match self.inner.lock().index_sets.pop() {
            Some(s) => (s, Taken::Recycled),
            None => (IndexSet::new(), Taken::Fresh),
        }
    }

    /// Returns a read set to the pool (cleared; dropped if it never grew or
    /// the pool is full).
    pub fn put_read_set(&self, mut s: ReadSet) {
        if s.capacity() == 0 {
            return;
        }
        s.clear();
        let mut inner = self.inner.lock();
        if inner.read_sets.len() < MAX_SPARES {
            inner.read_sets.push(s);
        }
    }

    /// Returns a write log to the pool (cleared; dropped if it never grew
    /// or the pool is full).
    pub fn put_write_log(&self, mut l: WriteLog) {
        if l.capacity() == 0 {
            return;
        }
        l.clear();
        let mut inner = self.inner.lock();
        if inner.write_logs.len() < MAX_SPARES {
            inner.write_logs.push(l);
        }
    }

    /// Returns an index set to the pool (cleared; dropped if it never grew
    /// or the pool is full).
    pub fn put_index_set(&self, mut s: IndexSet) {
        if s.capacity() == 0 {
            return;
        }
        s.clear();
        let mut inner = self.inner.lock();
        if inner.index_sets.len() < MAX_SPARES {
            inner.index_sets.push(s);
        }
    }

    /// Number of pooled containers across all kinds (for tests).
    pub fn spares(&self) -> usize {
        let inner = self.inner.lock();
        inner.read_sets.len() + inner.write_logs.len() + inner.index_sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn round_trip_recycles_capacity() {
        let pool = LogPool::new();
        let (mut rs, taken) = pool.take_read_set();
        assert_eq!(taken, Taken::Fresh);
        for i in 0..100 {
            rs.record(Addr(i), i);
        }
        let cap = rs.capacity();
        pool.put_read_set(rs);
        assert_eq!(pool.spares(), 1);
        let (rs, taken) = pool.take_read_set();
        assert_eq!(taken, Taken::Recycled);
        assert!(rs.is_empty(), "pooled containers come back cleared");
        assert_eq!(rs.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn zero_capacity_containers_are_not_pooled() {
        let pool = LogPool::new();
        pool.put_read_set(ReadSet::new());
        pool.put_write_log(WriteLog::new());
        pool.put_index_set(IndexSet::new());
        assert_eq!(pool.spares(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = LogPool::new();
        for _ in 0..(2 * MAX_SPARES) {
            let mut l = WriteLog::new();
            l.record(Addr(1), 1, || 0);
            pool.put_write_log(l);
        }
        assert_eq!(pool.spares(), MAX_SPARES);
    }
}
