//! A standalone read-set pool: cleared read sets handed back with their
//! capacity.
//!
//! No runtime uses it: an attempt fills the thread's resident
//! [`super::Descriptor`], which needs no lock and no hand-off.  The pool
//! serves callers that keep read sets outside a transaction attempt.

use crate::lock::Mutex;

use super::read_set::ReadSet;

/// Spare read sets kept.
const MAX_SPARES: usize = 4;

/// A pool of cleared read sets.
///
/// A `put` clears the read set and keeps it (up to a small bound) if it
/// ever grew; a `take` hands one back with that capacity, or a fresh empty
/// one.
#[derive(Debug, Default)]
pub struct LogPool {
    read_sets: Mutex<Vec<ReadSet>>,
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
        match self.read_sets.lock().pop() {
            Some(s) => (s, Taken::Recycled),
            None => (ReadSet::new(), Taken::Fresh),
        }
    }

    /// Returns a read set to the pool (cleared; dropped if it never grew or
    /// the pool is full).
    pub fn put_read_set(&self, mut s: ReadSet) {
        if s.capacity() == 0 {
            return;
        }
        s.clear();
        let mut read_sets = self.read_sets.lock();
        if read_sets.len() < MAX_SPARES {
            read_sets.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn grown() -> ReadSet {
        let mut rs = ReadSet::new();
        rs.record(Addr(1), 1);
        rs
    }

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
        let (rs, taken) = pool.take_read_set();
        assert_eq!(taken, Taken::Recycled);
        assert!(rs.is_empty(), "pooled containers come back cleared");
        assert_eq!(rs.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.take_read_set().1, Taken::Fresh, "it was the only one");
    }

    #[test]
    fn zero_capacity_containers_are_not_pooled() {
        let pool = LogPool::new();
        pool.put_read_set(ReadSet::new());
        assert_eq!(pool.take_read_set().1, Taken::Fresh);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = LogPool::new();
        for _ in 0..(2 * MAX_SPARES) {
            pool.put_read_set(grown());
        }
        for _ in 0..MAX_SPARES {
            assert_eq!(pool.take_read_set().1, Taken::Recycled);
        }
        assert_eq!(pool.take_read_set().1, Taken::Fresh);
    }
}
