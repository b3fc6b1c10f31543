//! The per-thread epoch table: the start times other threads poll at
//! commit time.
//!
//! One line-padded [`EpochSlot`] per registered thread carries the
//! **published start time** of the thread's in-flight software transaction
//! (or [`NOT_IN_TX`]) — what privatization quiescence
//! ([`crate::system::TmSystem::quiesce`]) and the serial gate's Dekker
//! handshake ([`crate::serial::SerialAttempt::begin`]) wait on.
//!
//! Each slot is owner-written and remote-read.  Before this table existed,
//! quiescence took the thread registry's `RwLock`, cloned the `Vec` of
//! thread handles (one allocation per writer commit) and chased `Arc`s to a
//! `start_time` field that shared its cache line with the thread's
//! statistics; the table replaces all of that with a bounded, lock-free,
//! allocation-free scan over isolated lines.
//!
//! The table has a fixed capacity ([`crate::config::TmConfig::max_threads`])
//! so slots never move: a `&EpochSlot` stays valid for the lifetime of the
//! system, which is what lets readers scan without any lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::pad::CachePadded;
use crate::thread::NOT_IN_TX;

/// One thread's padded share of the epoch table.
///
/// Written only by the owning thread and read by everyone else; the padding
/// guarantees two threads' slots never contend.
#[derive(Debug)]
pub struct EpochSlot {
    /// Published start time of the in-flight transaction, or [`NOT_IN_TX`].
    start: AtomicU64,
}

impl EpochSlot {
    fn new() -> Self {
        EpochSlot {
            start: AtomicU64::new(NOT_IN_TX),
        }
    }

    /// The published start time, or [`NOT_IN_TX`].
    #[inline]
    pub fn start(&self) -> u64 {
        self.start.load(Ordering::Acquire)
    }

    /// Publishes the start time of an in-flight transaction (owner only).
    #[inline]
    pub fn set_start(&self, start: u64) {
        self.start.store(start, Ordering::Release);
    }

    /// Publishes that the owner is no longer inside a transaction.
    #[inline]
    pub fn clear_start(&self) {
        self.start.store(NOT_IN_TX, Ordering::Release);
    }
}

/// The fixed-capacity table of per-thread epoch slots.
#[derive(Debug)]
pub struct EpochTable {
    slots: Box<[CachePadded<EpochSlot>]>,
    /// Number of slots handed out; scans cover `0..len`, not the capacity.
    len: AtomicUsize,
}

impl EpochTable {
    /// Creates a table with room for `capacity` threads (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| CachePadded::new(EpochSlot::new()))
            .collect::<Vec<_>>();
        EpochTable {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
        }
    }

    /// Maximum number of threads the table can serve.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of activated (registered) slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True while no thread has registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks slots `0..=id` active so scans cover them.  Called by the
    /// thread registry under its registration lock; panics when `id` is
    /// beyond the fixed capacity (raise
    /// [`crate::config::TmConfig::max_threads`]).
    pub fn activate(&self, id: usize) {
        assert!(
            id < self.slots.len(),
            "epoch table full ({} slots): raise TmConfig::max_threads",
            self.slots.len()
        );
        self.len.fetch_max(id + 1, Ordering::AcqRel);
    }

    /// The slot owned by thread `id`.
    #[inline]
    pub fn slot(&self, id: usize) -> &EpochSlot {
        &self.slots[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_start_idle() {
        let t = EpochTable::new(4);
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.len(), 0);
        t.activate(0);
        t.activate(1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.slot(0).start(), NOT_IN_TX);
    }

    #[test]
    fn start_round_trip() {
        let t = EpochTable::new(2);
        t.activate(0);
        t.slot(0).set_start(42);
        assert_eq!(t.slot(0).start(), 42);
        t.slot(0).clear_start();
        assert_eq!(t.slot(0).start(), NOT_IN_TX);
    }

    #[test]
    fn slots_are_line_isolated() {
        use crate::pad::CACHE_LINE_BYTES;
        let t = EpochTable::new(3);
        let a = t.slot(0) as *const EpochSlot as usize;
        let b = t.slot(1) as *const EpochSlot as usize;
        assert!(b - a >= CACHE_LINE_BYTES);
    }

    #[test]
    #[should_panic(expected = "epoch table full")]
    fn activation_beyond_capacity_panics() {
        let t = EpochTable::new(1);
        t.activate(1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let t = EpochTable::new(0);
        assert_eq!(t.capacity(), 1);
    }
}
