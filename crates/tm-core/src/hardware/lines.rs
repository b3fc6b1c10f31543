//! The slot table of the simulated coherence directory
//! ([`super::Directory`]): per-line reader/writer registrations used for
//! eager conflict detection.
//!
//! Each simulated cache line hashes to a slot holding a bitmask of threads
//! that currently read the line speculatively and the (single) thread that
//! currently writes it speculatively.  Conflicts are detected at access time
//! ("requester wins", like an invalidation-based coherence protocol): a new
//! writer dooms registered readers and any previous writer; a new reader that
//! finds a foreign writer aborts.
//!
//! Transactions track *which* slots they registered in per-attempt
//! [`crate::access::IndexSet`]s (see [`super::tx`]) and ask those first:
//! only the first touch of a line in an attempt reaches this table, and the
//! registration it leaves stands until the attempt ends, so a later
//! conflicting party always finds it.  This table only holds the global slot
//! states.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::LineId;
use crate::pad::{zeroed_slice, Zeroable};
use crate::thread::ThreadId;

/// Maximum number of threads the reader bitmask can represent.  A thread
/// with a larger id never speculates (see [`super::Directory::read_line`]).
pub const MAX_HW_THREADS: usize = 64;

/// `tid`'s bit in a reader or doom mask; no bit at all for a thread the mask
/// cannot represent (a plain `1 << tid` would wrap onto another thread's).
#[inline]
fn bit(tid: ThreadId) -> u64 {
    if tid < MAX_HW_THREADS {
        1 << tid
    } else {
        0
    }
}

/// One directory slot.
#[derive(Debug)]
pub struct LineState {
    /// Bitmask of thread ids currently reading this line speculatively.
    readers: AtomicU64,
    /// Thread id + 1 of the current speculative writer, or 0.
    writer: AtomicU64,
}

// SAFETY: both fields are atomic integers, and an all-zero slot is the
// empty one: no readers, no writer.
unsafe impl Zeroable for LineState {}

/// The global table of line states, hashed by [`LineId`].
#[derive(Debug)]
pub struct LineTable {
    slots: Box<[LineState]>,
    mask: usize,
}

impl LineTable {
    /// Creates a table with `size` slots (rounded up to a power of two).
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(2);
        LineTable {
            slots: zeroed_slice(size),
            mask: size - 1,
        }
    }

    /// Maps a line to its slot index.
    #[inline]
    pub fn slot_for(&self, line: LineId) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        ((line.0 as u64).wrapping_mul(K) >> 32) as usize & self.mask
    }

    /// Registers `tid` as a speculative reader of the slot.  Returns the
    /// conflicting speculative writer, if any (in which case the reader must
    /// abort; the caller is also expected to doom that writer, modelling the
    /// coherence invalidation its read request would cause).
    pub fn register_reader(&self, slot: usize, tid: ThreadId) -> Option<ThreadId> {
        debug_assert!(tid < MAX_HW_THREADS);
        let s = &self.slots[slot];
        s.readers.fetch_or(bit(tid), Ordering::SeqCst);
        let w = s.writer.load(Ordering::SeqCst);
        if w != 0 && w != tid as u64 + 1 {
            Some((w - 1) as ThreadId)
        } else {
            None
        }
    }

    /// Registers `tid` as the speculative writer of the slot.  `Ok` carries
    /// the bitmask (bit = thread id) of the foreign threads that had the
    /// line in their speculative read set, which the caller must doom; `Err`
    /// the foreign writer that could not be displaced (the caller must
    /// abort, and doom that writer as well).
    pub fn register_writer(&self, slot: usize, tid: ThreadId) -> Result<u64, ThreadId> {
        debug_assert!(tid < MAX_HW_THREADS);
        let s = &self.slots[slot];
        let me = tid as u64 + 1;
        match s
            .writer
            .compare_exchange(0, me, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {}
            Err(cur) if cur == me => {}
            // A foreign speculative writer holds the line.  Requester-wins:
            // our store request would invalidate its line, dooming it; but we
            // also abort ourselves rather than taking over mid-flight, which
            // keeps the protocol simple and still guarantees progress via the
            // serial fallback.
            Err(cur) => return Err((cur - 1) as ThreadId),
        }
        // Doom all foreign readers of the line.
        Ok(s.readers.load(Ordering::SeqCst) & !bit(tid))
    }

    /// Forcibly claims `slot` for a *software* transaction's commit
    /// write-back (the hybrid runtime's interlock): installs `tid` as the
    /// slot's writer unconditionally and returns the bitmask (bit = thread
    /// id) of every other thread currently registered on the slot, reader
    /// or writer, which the caller must doom.
    ///
    /// Unlike [`LineTable::register_writer`] this never fails — a software
    /// commit has already validated and *will* write this line; any
    /// speculative occupant loses, exactly as a non-transactional store
    /// invalidates speculative lines on real hardware.  A displaced
    /// hardware writer's own `clear_writer` CAS will simply miss.  The
    /// caller releases the claim with [`LineTable::clear_writer`] after the
    /// write-back; while it is held, speculative readers and writers of the
    /// slot observe a foreign writer and abort.  Any thread may claim,
    /// including one the reader mask cannot represent.
    pub fn claim_for_writeback(&self, slot: usize, tid: ThreadId) -> u64 {
        let s = &self.slots[slot];
        let prev = s.writer.swap(tid as u64 + 1, Ordering::SeqCst);
        let mut doomed = s.readers.load(Ordering::SeqCst);
        if prev != 0 {
            doomed |= bit(prev as usize - 1);
        }
        doomed & !bit(tid)
    }

    /// Removes `tid`'s reader registration from the slot.
    pub fn clear_reader(&self, slot: usize, tid: ThreadId) {
        self.slots[slot]
            .readers
            .fetch_and(!bit(tid), Ordering::SeqCst);
    }

    /// Removes `tid`'s writer registration from the slot (if it still owns
    /// it).
    pub fn clear_writer(&self, slot: usize, tid: ThreadId) {
        let _ = self.slots[slot].writer.compare_exchange(
            tid as u64 + 1,
            0,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// The current speculative writer of a slot, if any (for tests).
    pub fn writer_of(&self, slot: usize) -> Option<ThreadId> {
        let w = self.slots[slot].writer.load(Ordering::SeqCst);
        if w == 0 {
            None
        } else {
            Some((w - 1) as ThreadId)
        }
    }

    /// True if `tid` is registered as a reader of the slot (for tests).
    pub fn is_reader(&self, slot: usize, tid: ThreadId) -> bool {
        self.slots[slot].readers.load(Ordering::SeqCst) & bit(tid) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_registration_round_trip() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(3));
        assert_eq!(t.register_reader(slot, 2), None);
        assert!(t.is_reader(slot, 2));
        t.clear_reader(slot, 2);
        assert!(!t.is_reader(slot, 2));
    }

    #[test]
    fn reader_sees_foreign_writer() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(5));
        assert!(t.register_writer(slot, 1).is_ok());
        assert_eq!(t.register_reader(slot, 2), Some(1));
        // The writer itself can keep reading its own line.
        assert_eq!(t.register_reader(slot, 1), None);
    }

    #[test]
    fn writer_dooms_foreign_readers() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(7));
        t.register_reader(slot, 0);
        t.register_reader(slot, 3);
        t.register_reader(slot, 5);
        assert_eq!(
            t.register_writer(slot, 3),
            Ok(1 << 0 | 1 << 5),
            "own read registration is not doomed"
        );
    }

    #[test]
    fn second_writer_conflicts() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(9));
        assert!(t.register_writer(slot, 1).is_ok());
        assert_eq!(t.register_writer(slot, 2), Err(1));
        // Re-registration by the same writer is idempotent.
        assert!(t.register_writer(slot, 1).is_ok());
    }

    #[test]
    fn clear_writer_only_clears_owner() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(2));
        assert!(t.register_writer(slot, 4).is_ok());
        t.clear_writer(slot, 5);
        assert_eq!(t.writer_of(slot), Some(4));
        t.clear_writer(slot, 4);
        assert_eq!(t.writer_of(slot), None);
    }

    #[test]
    fn claim_for_writeback_displaces_and_dooms_occupants() {
        let t = LineTable::new(16);
        let slot = t.slot_for(LineId(11));
        t.register_reader(slot, 0);
        t.register_reader(slot, 2);
        assert!(t.register_writer(slot, 4).is_ok());
        assert_eq!(t.claim_for_writeback(slot, 7), 1 << 0 | 1 << 2 | 1 << 4);
        assert_eq!(t.writer_of(slot), Some(7), "claimant owns the slot");
        // The displaced hardware writer's own clear misses harmlessly.
        t.clear_writer(slot, 4);
        assert_eq!(t.writer_of(slot), Some(7));
        // Speculative access while claimed sees a foreign writer.
        assert_eq!(t.register_reader(slot, 1), Some(7));
        t.clear_writer(slot, 7);
        assert_eq!(t.writer_of(slot), None);
    }

    #[test]
    fn distinct_lines_usually_map_to_distinct_slots() {
        let t = LineTable::new(4096);
        let mut distinct = 0;
        for i in 0..1000 {
            if t.slot_for(LineId(i)) != t.slot_for(LineId(i + 1)) {
                distinct += 1;
            }
        }
        assert!(distinct > 900);
    }
}
