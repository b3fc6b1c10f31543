//! The eager STM's protocol (Algorithms 8–11 of the paper's Appendix A), in
//! the style of TinySTM and the GCC libitm "ml-wt" method the paper evaluates
//! as **Eager STM**: encounter-time locking, in-place writes and an undo
//! log, over the shared [`super`] core.
//!
//! * Writes acquire the ownership record covering the address at encounter
//!   time, log the old value in an undo log, and update memory in place.
//! * Commit validates the read set (with the TL2-style fast path when no
//!   other writer intervened) and releases locks at the new version.
//! * Abort undoes writes in reverse order, releases locks at `version + 1`
//!   and blindly bumps the clock.
//! * `Await` captures its value snapshot while the attempt's locks are held.

use super::{reads_valid, SoftwareProtocol, SoftwareStm, SoftwareTx, SoftwareTxCore};
use crate::addr::Addr;
use crate::ctl::{AbortReason, TxCtl, TxResult};
use crate::orec::OrecValue;
use crate::stats::TxStats;

/// The eager protocol: Algorithm 8's `undos` and `locks` are the borrowed
/// descriptor's `writes` (one entry per address holding the
/// pre-transaction value) and `locks`.
#[derive(Debug)]
pub struct Eager;

/// An in-flight eager-STM transaction attempt.
pub type EagerTx<'a> = SoftwareTx<'a, Eager>;

/// The eager (undo-log) software TM runtime.
pub type EagerStm = SoftwareStm<Eager>;

/// Acquires the ownership record covering `addr` for writing, or aborts if
/// it is held by another transaction or is too new.
fn acquire(core: &mut SoftwareTxCore<'_>, addr: Addr) -> TxResult<()> {
    let idx = core.system.orecs.index_for(addr);
    let cur = core.system.orecs.load(idx);
    if cur.is_locked_by(core.thread.id) {
        return Ok(());
    }
    if !cur.is_locked() {
        if cur.version() <= core.start() {
            let locked = OrecValue::locked(cur.version(), core.thread.id);
            if core.system.orecs.cas(idx, cur, locked) {
                core.d.locks.insert(idx);
                return Ok(());
            }
        } else {
            // Too new: fold the version into the clock so the retry
            // begins current even before the committer publishes its
            // epoch (lazy clock plane; no-op under GV1).
            core.system
                .clock
                .note_stale(cur.version(), &core.thread.stats);
        }
    }
    Err(TxCtl::Abort(AbortReason::WriteConflict))
}

impl SoftwareProtocol for Eager {
    type State<'a> = ();

    fn read(core: &mut SoftwareTxCore<'_>, addr: Addr) -> TxResult<u64> {
        let val = core.read_tracked(addr)?;
        core.log_pre_value(addr, val);
        Ok(val)
    }

    fn write(core: &mut SoftwareTxCore<'_>, addr: Addr, val: u64) -> TxResult<()> {
        // Algorithm 10, TxWrite: acquire the orec, log the old value (first
        // write per address only — the log is keyed by address), update in
        // place.  The stripe cover of the write set is the lock set
        // (`locks`), so the undo log's own cover is left degenerate
        // (constant index) rather than maintained for nobody.
        acquire(core, addr)?;
        core.write_in_place(addr, val);
        Ok(())
    }

    fn read_for_write(tx: &mut EagerTx<'_>, addr: Addr) -> TxResult<u64> {
        tx.core.refuse_on_snapshot()?;
        // "Read for write" (§2.2.4): acquire the lock immediately and do not
        // add the address to the read set — it is protected by the lock.
        acquire(&mut tx.core, addr)?;
        let val = tx.core.system.heap.load(addr);
        tx.core.log_pre_value(addr, val);
        Ok(val)
    }

    fn commit_writer(tx: &mut EagerTx<'_>) -> Result<u64, AbortReason> {
        let core = &mut tx.core;
        // Stamped after the lock phase: every orec this commit will touch is
        // already held, which is what makes a non-unique (lazy) stamp sound.
        let stamp = core.system.clock.commit_stamp(&core.thread.stats);
        let end = stamp.ts;
        // Fast path: if no other transaction committed since we started, the
        // read set cannot have been invalidated.  Requires a *unique* stamp —
        // a lazy stamp may be shared with a concurrent committer, so lazy
        // commits always validate.
        if (!stamp.unique || end != core.start() + 1)
            && !reads_valid(&core.d.reads, core.system, core.thread, core.start())
        {
            return Err(AbortReason::CommitValidation);
        }
        // The transaction is committed: release locks at the new version,
        // leaving the lock set as the cover for the driver's wake path.  The
        // lock set *is* the write set's stripe cover: every written address
        // hashed to one of these ownership records when its lock was
        // acquired, so a targeted scan over it cannot lose a wakeup.
        core.d.cover.clear();
        core.d.cover.extend_from_slice(core.d.locks.as_slice());
        for &idx in &core.d.cover {
            core.system.orecs.store(idx, OrecValue::unlocked(end));
        }
        Ok(end)
    }

    fn release(core: &mut SoftwareTxCore<'_>) {
        // Algorithm 11: undo writes, release locks at `version + 1`, bump
        // the clock.
        core.undo_writes();
        for idx in core.d.locks.iter() {
            let cur = core.system.orecs.load(idx);
            core.system
                .orecs
                .store(idx, OrecValue::unlocked(cur.version() + 1));
        }
        if !core.d.locks.is_empty() {
            // Keep the bumped lock versions legal with respect to the clock
            // (Algorithm 11, line 5): a blind tick under GV1; in lazy mode
            // the inflated versions are covered by `note_stale` on the
            // reader side instead, so the shared line stays untouched.
            core.system.clock.rollback_bump(&core.thread.stats);
        }
    }

    fn capture(core: &mut SoftwareTxCore<'_>, addrs: Vec<Addr>) -> Option<Vec<(Addr, u64)>> {
        // Record the write-set high-water mark now: the undo log is
        // drained below, before the rollback can observe its size.
        TxStats::record_max(&core.thread.stats.write_set_max, core.d.writes.len() as u64);
        // Algorithm 6: undo writes first so memory shows the state from
        // before the transaction, then read the requested addresses while
        // still holding our locks, validating each against the start time
        // so the snapshot is consistent.  Each read is lock–value–lock,
        // like `TxRead`: a verdict on the orec alone lets a writer lock,
        // write and release between the check and the load, and the value
        // captured under the stale verdict is already the changed one — the
        // double-check then sees "unchanged" and the thread sleeps on a
        // change that has happened.
        core.undo_writes();
        core.d.writes.clear();
        core.read_words(addrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Attempt, Descriptor, ThreadCtx, TmConfig, TmSystem, Tx, TxCommon, TxMode, WaitCondition,
        WaitSpec,
    };
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
        let rt = EagerStm::new(Arc::clone(system));
        let mut w = EagerTx::begin(&*rt, &th, &mut d, software());
        w.write(addr, val).unwrap();
        w.try_commit().unwrap();
    }

    #[test]
    fn read_your_own_write() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(tx.read(Addr(5)).unwrap(), 42);
    }

    #[test]
    fn writes_are_in_place_and_undone_on_rollback() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        system.heap.store(Addr(5), 7);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(5), 100).unwrap();
        assert_eq!(system.heap.load(Addr(5)), 100, "eager STM updates in place");
        drop(tx);
        assert_eq!(
            system.heap.load(Addr(5)),
            7,
            "rollback restores the old value"
        );
    }

    #[test]
    fn commit_releases_locks_at_new_version() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&*rt, &th, &mut d, software());
        tx.write(Addr(9), 3).unwrap();
        let idx = system.orecs.index_for(Addr(9));
        assert!(system.orecs.load(idx).is_locked());
        let info = tx.try_commit().unwrap();
        assert!(info.was_writer);
        assert!(info.commit_time > 0);
        let o = system.orecs.load(idx);
        assert!(!o.is_locked());
        assert_eq!(o.version(), info.commit_time);
        assert_eq!(system.heap.load(Addr(9)), 3);
        assert_eq!(d.cover, vec![idx], "the lock set is the commit's cover");
    }

    #[test]
    fn conflicting_write_lock_aborts_second_writer() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        let (t1, mut d1) = party(&system);
        let (t2, mut d2) = party(&system);
        let mut tx1 = EagerTx::begin(&*rt, &t1, &mut d1, software());
        let mut tx2 = EagerTx::begin(&*rt, &t2, &mut d2, software());
        tx1.write(Addr(4), 1).unwrap();
        assert!(matches!(
            tx2.write(Addr(4), 2),
            Err(TxCtl::Abort(AbortReason::WriteConflict))
        ));
    }

    #[test]
    fn read_of_locked_location_aborts() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        let (t1, mut d1) = party(&system);
        let (t2, mut d2) = party(&system);
        let mut tx1 = EagerTx::begin(&*rt, &t1, &mut d1, software());
        tx1.write(Addr(8), 5).unwrap();
        let mut tx2 = EagerTx::begin(&*rt, &t2, &mut d2, software());
        assert!(tx2.read(Addr(8)).is_err());
    }

    #[test]
    fn retry_mode_logs_pre_transaction_values() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        system.heap.store(Addr(12), 50);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&*rt, &th, &mut d, TxCommon::new(TxMode::SoftwareRetry, 1));
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        // A read-after-write must log the value from *before* the write,
        // because the write is undone when the transaction deschedules.
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.core.d.waitset.pairs(), vec![(Addr(12), 50)]);
    }

    #[test]
    fn deschedule_rollback_captures_await_values() {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        system.heap.store(Addr(20), 5);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&*rt, &th, &mut d, software());
        assert_eq!(tx.read(Addr(20)).unwrap(), 5);
        tx.write(Addr(20), 6).unwrap();
        let cond = tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => {
                assert_eq!(
                    pairs,
                    vec![(Addr(20), 5)],
                    "must capture the pre-transaction value"
                );
            }
            other => panic!("unexpected condition: {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5, "write must be undone");
        let idx = system.orecs.index_for(Addr(20));
        assert!(
            !system.orecs.load(idx).is_locked(),
            "locks must be released"
        );
        assert_eq!(
            th.stats.snapshot().write_set_max,
            1,
            "the Await deschedule path must record the write-set high-water \
             mark before draining the undo log"
        );
    }

    #[test]
    fn await_capture_rejects_a_location_committed_after_begin() {
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let rt = EagerStm::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let tx = EagerTx::begin(&*rt, &th, &mut d, software());
        commit_write(&system, Addr(20), 8);
        // The word's version is past our start: the capture must refuse
        // rather than record the new value as the one to wait on.
        assert!(tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .is_err());
    }
}
