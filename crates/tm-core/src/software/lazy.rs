//! The lazy STM's protocol, in the style of TL2 — the paper's **Lazy STM**
//! configuration (a privatization-safe, redo-log variant of the GCC STM): a
//! redo log, commit-time locking of the write set's sorted cover and, on
//! the hybrid, claiming the written lines in the hardware directory, over
//! the shared [`super`] core.
//!
//! * Writes are buffered in a redo log; memory is untouched until commit.
//! * Reads check the redo log first (read-your-writes).
//! * Commit acquires the ownership records covering the write set, stamps
//!   the clock, validates the read set, writes the redo log back to memory,
//!   and releases the locks at the commit timestamp.
//! * Abort merely discards the logs (nothing was written in place), so
//!   `Await` captures its value snapshot from current memory.

use super::{reads_valid, SoftwareProtocol, SoftwareStm, SoftwareTx, SoftwareTxCore};
use crate::access::Descriptor;
use crate::addr::Addr;
use crate::ctl::{AbortReason, TxResult};
use crate::hardware::Directory;
use crate::orec::OrecValue;
use crate::system::TmSystem;
use crate::tx::TxMode;

/// The lazy protocol: the redo log is the borrowed descriptor's `writes`,
/// whose orec cover is sorted once for commit-time lock acquisition.
#[derive(Debug)]
pub struct Lazy;

/// An in-flight lazy-STM transaction attempt.  [`SoftwareTx::begin_with`]
/// optionally hands it the hybrid's hardware [`Directory`].
pub type LazyTx<'a> = SoftwareTx<'a, Lazy>;

/// The lazy (redo-log) software TM runtime.
pub type LazyStm = SoftwareStm<Lazy>;

impl SoftwareProtocol for Lazy {
    /// The hybrid's hardware directory, whose speculative occupants of the
    /// written lines a commit must doom; `None` for the plain lazy runtime.
    type State<'a> = Option<&'a Directory>;

    fn read(core: &mut SoftwareTxCore<'_>, addr: Addr) -> TxResult<u64> {
        // Read-your-writes: the redo log takes precedence (O(1) hash-index
        // lookup; the old implementation scanned the log backwards).
        if let Some(v) = core.d.writes.lookup(addr) {
            if core.common.mode == TxMode::SoftwareRetry {
                // The Retry value log must hold the value that will be in
                // memory after the (lazy) transaction is discarded, i.e. the
                // committed value, not our own pending write.
                let (mem, ..) = core.read_word(addr)?;
                core.d.waitset.record_first(addr, mem, || 0);
            }
            return Ok(v);
        }
        let val = core.read_tracked(addr)?;
        if core.common.mode == TxMode::SoftwareRetry {
            core.d.waitset.record_first(addr, val, || 0);
        }
        Ok(val)
    }

    fn write(core: &mut SoftwareTxCore<'_>, addr: Addr, val: u64) -> TxResult<()> {
        // One redo entry per address (last value wins); the orec stripe is
        // hashed once, on the first write.
        let orecs = &core.system.orecs;
        core.d.writes.record(addr, val, || orecs.index_for(addr));
        Ok(())
    }

    fn commit_writer(tx: &mut LazyTx<'_>) -> Result<u64, AbortReason> {
        // Acquire the ownership records covering the write set.  The cover
        // is the redo log's own sorted distinct-stripe list (borrowed, not
        // copied — the abort path stays allocation-free), so on failure at
        // position `k` the locks we hold are exactly the prefix `cover[..k]`
        // (this attempt holds no locks before commit).
        let me = tx.core.thread.id;
        let start = tx.core.start();
        let system: &TmSystem = tx.core.system;
        let thread = tx.core.thread;
        let directory = tx.state;
        let Descriptor {
            reads,
            writes,
            write_slots,
            cover,
            ..
        } = &mut *tx.core.d;
        let (entries, write_orecs) = writes.entries_with_cover();
        let release_prefix = |n: usize| {
            for &a in &write_orecs[..n] {
                let c = system.orecs.load(a);
                system.orecs.store(a, OrecValue::unlocked(c.version()));
            }
        };
        for (k, &idx) in write_orecs.iter().enumerate() {
            let cur = system.orecs.load(idx);
            let ok = if cur.is_locked() {
                cur.is_locked_by(me)
            } else if cur.version() <= start {
                system
                    .orecs
                    .cas(idx, cur, OrecValue::locked(cur.version(), me))
            } else {
                system.clock.note_stale(cur.version(), &thread.stats);
                false
            };
            if !ok {
                release_prefix(k);
                return Err(AbortReason::WriteConflict);
            }
        }

        // Stamped after the whole cover is held, which is what makes a
        // non-unique (lazy) stamp sound: any reader that began before this
        // point sees our locks, any later reader sees `end > rv`.
        let stamp = system.clock.commit_stamp(&thread.stats);
        let end = stamp.ts;
        // The nothing-committed-since-start fast path needs a *unique*
        // stamp (GV1): a lazy stamp may be shared with a concurrent
        // committer.  With a hardware directory, hardware commits publish to
        // the orecs under their own clock ticks, so the fast path is no
        // longer a proof of validity either: validate always.  Validation
        // and write-back then run inside the gate's hardware commit section,
        // mutually exclusive with hardware commits — a hardware commit
        // serialises entirely before (its orec releases fail our validation)
        // or entirely after (it observes our locked orecs / doomed lines)
        // this section.
        let must_validate = !stamp.unique || end != start + 1 || directory.is_some();
        let section = directory.map(|dir| (dir, system.serial.hw_commit_section()));
        // Validate first: it only reads orecs, so a failed validation aborts
        // without dooming a single speculative transaction.
        if must_validate && !reads_valid(reads, system, thread, start) {
            drop(section);
            release_prefix(write_orecs.len());
            return Err(AbortReason::CommitValidation);
        }
        // Claim the written lines before the first store, so no speculative
        // reader can see a torn mix of old and new words (one registering
        // mid-write-back observes the foreign writer and aborts).  The
        // attempt's idle write-slot set holds the claimed slots.
        if let Some((dir, _)) = &section {
            dir.claim_for_writeback(entries, write_slots, me);
        }
        // Write back the redo log (one entry per address already holding
        // the latest value) and release locks at the commit timestamp.
        for e in entries {
            system.heap.store(e.addr, e.val);
        }
        for &idx in write_orecs {
            system.orecs.store(idx, OrecValue::unlocked(end));
        }
        if let Some((dir, _)) = &section {
            dir.release_writeback(write_slots, me);
        }
        drop(section);
        // Success path only: leave the cover for the driver's wake path.
        // Commit-time lock acquisition covered every redo-log address with
        // an ownership record, so it is a complete stripe cover of the write
        // set.
        cover.clear();
        cover.extend_from_slice(write_orecs);
        Ok(end)
    }

    fn capture(core: &mut SoftwareTxCore<'_>, addrs: Vec<Addr>) -> Option<Vec<(Addr, u64)>> {
        // Memory was never modified, so the pre-transaction values are
        // simply the current contents — but each read must still be
        // consistent with our start time.
        core.read_words(addrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attempt, ThreadCtx, TmConfig, Tx, TxCommon, WaitCondition, WaitSpec};
    use std::sync::Arc;

    /// A thread context and a private descriptor for one test handle.
    fn party(system: &Arc<TmSystem>) -> (Arc<ThreadCtx>, Descriptor) {
        (system.register_thread(), Descriptor::default())
    }

    fn software() -> TxCommon {
        TxCommon::new(TxMode::Software, 0)
    }

    /// Commits `val` to `addr` from a fresh thread.
    fn commit_write(system: &Arc<TmSystem>, addr: Addr, val: u64) {
        let (th, mut d) = party(system);
        let rt = LazyStm::new(Arc::clone(system));
        let mut w = LazyTx::begin(&*rt, &th, &mut d, software());
        w.write(addr, val).unwrap();
        w.try_commit().unwrap();
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(
            system.heap.load(Addr(5)),
            0,
            "lazy STM must not write in place"
        );
        assert_eq!(tx.read(Addr(5)).unwrap(), 42, "read-your-writes");
        tx.try_commit().unwrap();
        assert_eq!(system.heap.load(Addr(5)), 42);
    }

    #[test]
    fn last_write_to_an_address_wins() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(3), 1).unwrap();
        tx.write(Addr(3), 2).unwrap();
        tx.write(Addr(3), 3).unwrap();
        assert_eq!(tx.read(Addr(3)).unwrap(), 3);
        tx.try_commit().unwrap();
        assert_eq!(system.heap.load(Addr(3)), 3);
    }

    #[test]
    fn rollback_discards_buffered_writes() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        system.heap.store(Addr(8), 9);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(8), 100).unwrap();
        drop(tx);
        assert_eq!(system.heap.load(Addr(8)), 9);
    }

    #[test]
    fn write_write_conflict_detected_at_commit() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let rt = LazyStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx2 = LazyTx::begin(&*rt, &th, &mut d, software());
        tx2.write(Addr(4), 2).unwrap();
        commit_write(&system, Addr(4), 1);
        // tx2 started before the other commit, so its lock acquisition sees
        // a version newer than its start and must abort.
        assert!(tx2.try_commit().is_err());
        assert_eq!(system.heap.load(Addr(4)), 1);
    }

    #[test]
    fn failed_lock_acquisition_releases_partial_locks() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let rt = LazyStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx2 = LazyTx::begin(&*rt, &th, &mut d, software());
        // Another commit to addr 10 makes its version newer than tx2's
        // start, forcing tx2's multi-location commit to fail and release the
        // lock it already took on addr 200.
        tx2.write(Addr(200), 1).unwrap();
        tx2.write(Addr(10), 2).unwrap();
        commit_write(&system, Addr(10), 7);
        assert!(tx2.try_commit().is_err());
        let idx200 = system.orecs.index_for(Addr(200));
        let idx10 = system.orecs.index_for(Addr(10));
        assert!(!system.orecs.load(idx200).is_locked());
        assert!(!system.orecs.load(idx10).is_locked());
    }

    #[test]
    fn retry_log_records_committed_values_not_pending_writes() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        system.heap.store(Addr(12), 50);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, TxCommon::new(TxMode::SoftwareRetry, 1));
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.core.d.waitset.pairs(), vec![(Addr(12), 50)]);
    }

    #[test]
    fn writer_commit_leaves_its_lock_cover_in_the_descriptor() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(5), 1).unwrap();
        tx.write(Addr(300), 2).unwrap();
        assert!(tx.try_commit().unwrap().was_writer);
        let mut expect = vec![
            system.orecs.index_for(Addr(5)),
            system.orecs.index_for(Addr(300)),
        ];
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(d.cover, expect);
    }

    #[test]
    fn await_snapshot_is_current_memory() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        system.heap.store(Addr(20), 5);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, software());
        assert_eq!(tx.read(Addr(20)).unwrap(), 5);
        tx.write(Addr(20), 6).unwrap();
        let cond = tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => assert_eq!(pairs, vec![(Addr(20), 5)]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5);
    }
}
