//! The per-attempt transaction descriptor for the eager STM
//! (Algorithms 8–11 of the paper's Appendix A).

use std::sync::Arc;

use tm_core::access::{cover_valid_at, Descriptor};
use tm_core::driver::CommitOutcome;
use tm_core::serial::{subscribe_begin, SerialAttempt};
use tm_core::stats::TxStats;
use tm_core::{
    AbortReason, Addr, OrecValue, SnapshotMode, ThreadCtx, TmSystem, Tx, TxCommon, TxCtl, TxKind,
    TxMode, TxResult, WaitCondition, WaitSpec,
};

/// An in-flight eager-STM transaction attempt.
///
/// It owns no log: Algorithm 8's `reads`, `undos` and `locks` are the
/// borrowed thread [`Descriptor`]'s `reads`, `writes` (one entry per
/// address holding the pre-transaction value) and `locks`
/// (`tm_core::access`), so read-after-write old-value lookups and lock-set
/// membership are O(1), the read set's orec cover is sorted at most once,
/// and a re-executed attempt starts on the capacity the previous one grew.
#[derive(Debug)]
pub struct EagerTx<'a> {
    common: TxCommon,
    system: &'a Arc<TmSystem>,
    thread: &'a Arc<ThreadCtx>,
    d: &'a mut Descriptor,
    /// Global-clock value sampled at begin (Algorithm 9, `start`).
    start: u64,
    /// `Some` when this attempt runs serially behind the system's
    /// [`tm_core::SerialGate`] ([`TxMode::Serial`]): all accesses go
    /// straight to the shared serial attempt, the instrumented logs stay
    /// empty.
    serial: Option<SerialAttempt<'a>>,
    /// True when this attempt runs on the snapshot read path: a declared
    /// read-only transaction in plain [`TxMode::Software`] mode with
    /// [`SnapshotMode`] enabled.  Reads validate against `start` only, no
    /// read set is kept, writes abort with
    /// [`AbortReason::ReadOnlyWrite`], and the commit is free.  Under
    /// [`SnapshotMode::Extend`] the distinct stripes read so far are kept in
    /// the descriptor's `snap_cover`, so a too-new version can be survived
    /// by re-checking that no covered stripe moved past `start`.
    snapshot: bool,
    /// Whether the snapshot attempt has completed at least one read
    /// (gates the [`SnapshotMode::On`] first-read refresh).
    snap_observed: bool,
}

impl<'a> EagerTx<'a> {
    /// Begins a new attempt of `thread` on the empty logs of `d`: samples
    /// the clock and publishes the start time for quiescence (through the
    /// serial gate's subscription protocol), or acquires the serial gate for
    /// [`TxMode::Serial`] attempts.
    pub fn begin(
        system: &'a Arc<TmSystem>,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        let (serial, start) = if common.mode == TxMode::Serial {
            (
                Some(SerialAttempt::begin(system, thread)),
                system.clock.now(),
            )
        } else {
            (None, subscribe_begin(system, thread))
        };
        let snapshot = common.kind == TxKind::ReadOnly
            && common.mode == TxMode::Software
            && system.config.snapshot.is_enabled();
        EagerTx {
            common,
            system,
            thread,
            d,
            start,
            serial,
            snapshot,
            snap_observed: false,
        }
    }

    /// The clock value sampled at begin.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Ownership-record indices covering the read set (used by `Retry-Orig`),
    /// sorted and deduplicated — the read set's own stripe cover, not
    /// recomputed from the address list.
    pub fn read_orec_indices(&mut self) -> Vec<usize> {
        self.d.reads.orec_cover().to_vec()
    }

    fn me(&self) -> usize {
        self.thread.id
    }

    /// Records an `(addr, value)` pair in the Retry value log, substituting
    /// the pre-transaction value for locations this transaction has written
    /// (Algorithm 5, `TxRead` lines 2–5): after the rollback that accompanies
    /// a deschedule, memory holds the *old* value, so that is what the
    /// wake-up check must compare against.
    fn retry_log(&mut self, addr: Addr, observed: u64) {
        if self.common.mode != TxMode::SoftwareRetry {
            return;
        }
        let logged = self.d.writes.lookup(addr).unwrap_or(observed);
        self.d.waitset.record_first(addr, logged, || 0);
    }

    /// One snapshot-path read: lock–value–lock against `start` only.  No
    /// read set, no value logging; a too-new version first tries a snapshot
    /// refresh ([`EagerTx::try_snapshot_refresh`]) before aborting.
    fn snapshot_read(&mut self, addr: Addr) -> TxResult<u64> {
        let idx = self.system.orecs.index_for(addr);
        loop {
            let before = self.system.orecs.load(idx);
            let val = self.system.heap.load(addr);
            let after = self.system.orecs.load(idx);
            if before == after && !before.is_locked() {
                if before.version() <= self.start {
                    self.snap_observed = true;
                    if self.system.config.snapshot == SnapshotMode::Extend {
                        self.d.snap_cover.insert(idx);
                    }
                    return Ok(val);
                }
                self.system
                    .clock
                    .note_stale(before.version(), &self.thread.stats);
                if self.try_snapshot_refresh() {
                    continue;
                }
            }
            return Err(TxCtl::Abort(AbortReason::ReadConflict));
        }
    }

    /// Attempts to advance the begin snapshot past a too-new version.
    ///
    /// Under [`SnapshotMode::On`] this is sound only before the first
    /// successful read (nothing has been observed, so any snapshot is still
    /// admissible).  Under [`SnapshotMode::Extend`] the accumulated stripe
    /// cover is re-checked at the *old* snapshot: if no covered stripe is
    /// locked or newer than `start`, no covered location changed between the
    /// old snapshot and now, so every prior read is also valid at the new
    /// one.  The new start is re-published through the serial-gate
    /// subscription handshake, exactly like a fresh begin.
    fn try_snapshot_refresh(&mut self) -> bool {
        let extendable = match self.system.config.snapshot {
            SnapshotMode::Extend => true,
            SnapshotMode::On => !self.snap_observed,
            SnapshotMode::Off => false,
        };
        if !extendable {
            return false;
        }
        self.thread.exit_tx();
        let new_start = subscribe_begin(self.system, self.thread);
        // Re-validate *after* the new snapshot is published: anything the
        // check admits was unchanged up to a point at or after `new_start`.
        if self.system.config.snapshot == SnapshotMode::Extend
            && !cover_valid_at(&self.system.orecs, self.d.snap_cover.as_slice(), self.start)
        {
            // A covered stripe moved; the attempt is doomed.  Keep the newly
            // published start — the caller aborts and the rollback exits.
            self.start = new_start;
            return false;
        }
        self.start = new_start;
        TxStats::bump(&self.thread.stats.snapshot_refreshes);
        true
    }

    /// Acquires the ownership record covering `addr` for writing, returning
    /// the orec index, or an abort if it is held by another transaction or
    /// is too new.
    fn acquire(&mut self, addr: Addr) -> TxResult<usize> {
        let idx = self.system.orecs.index_for(addr);
        let cur = self.system.orecs.load(idx);
        if cur.is_locked_by(self.me()) {
            return Ok(idx);
        }
        if !cur.is_locked() {
            if cur.version() <= self.start {
                let locked = OrecValue::locked(cur.version(), self.me());
                if self.system.orecs.cas(idx, cur, locked) {
                    self.d.locks.insert(idx);
                    return Ok(idx);
                }
            } else {
                // Too new: fold the version into the clock so the retry
                // begins current even before the committer publishes its
                // epoch (lazy clock plane; no-op under GV1).
                self.system
                    .clock
                    .note_stale(cur.version(), &self.thread.stats);
            }
        }
        Err(TxCtl::Abort(AbortReason::WriteConflict))
    }

    /// Rolls the attempt back: undoes writes in reverse order, releases locks
    /// at `version + 1`, bumps the clock, undoes allocations, and clears all
    /// logs (Algorithm 11).  Serial attempts undo their direct writes and
    /// release the gate.  Safe to call more than once.
    pub fn rollback(&mut self) {
        if let Some(serial) = &mut self.serial {
            serial.rollback();
            return;
        }
        for e in self.d.writes.iter().rev() {
            self.system.heap.store(e.addr, e.val);
        }
        for idx in self.d.locks.iter() {
            let cur = self.system.orecs.load(idx);
            self.system
                .orecs
                .store(idx, OrecValue::unlocked(cur.version() + 1));
        }
        if !self.d.locks.is_empty() {
            // Keep the bumped lock versions legal with respect to the clock
            // (Algorithm 11, line 5): a blind tick under GV1; in lazy mode
            // the inflated versions are covered by `note_stale` on the
            // reader side instead, so the shared line stays untouched.
            self.system.clock.rollback_bump(&self.thread.stats);
        }
        for &(addr, words) in &self.d.mallocs {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
        self.thread.exit_tx();
    }

    fn reset_logs(&mut self) {
        self.d.reset(&self.thread.stats);
        self.snap_observed = false;
    }

    /// Attempts to commit (Algorithm 9, `TxCommit`).  On failure the caller
    /// must invoke [`EagerTx::rollback`].
    pub fn try_commit(&mut self) -> Result<CommitOutcome, TxCtl> {
        if let Some(serial) = &mut self.serial {
            return Ok(serial.commit());
        }
        // Read-only fast path: every read was validated at the time it
        // happened, so nothing further is required.
        if self.d.locks.is_empty() {
            if self.snapshot {
                // The snapshot commit did zero read-set pushes and performs
                // zero commit-time orec loads.
                TxStats::bump(&self.thread.stats.ro_fast_commits);
            }
            for &(addr, words) in &self.d.frees {
                self.system.heap.dealloc_for(self.thread, addr, words);
            }
            self.reset_logs();
            self.thread.exit_tx();
            return Ok(CommitOutcome::read_only());
        }

        // Stamped after the lock phase: every orec this commit will touch is
        // already held, which is what makes a non-unique (lazy) stamp sound.
        let stamp = self.system.clock.commit_stamp(&self.thread.stats);
        let end = stamp.ts;
        // Fast path: if no other transaction committed since we started, the
        // read set cannot have been invalidated.  Requires a *unique* stamp —
        // a lazy stamp may be shared with a concurrent committer, so lazy
        // commits always validate.
        if !stamp.unique || end != self.start + 1 {
            for e in self.d.reads.iter() {
                // The stripe index was cached when the read was validated,
                // so validation does not hash the address a second time.
                let o = self.system.orecs.load(e.stripe);
                let ok = if o.is_locked() {
                    o.is_locked_by(self.me())
                } else if o.version() <= self.start {
                    true
                } else {
                    self.system
                        .clock
                        .note_stale(o.version(), &self.thread.stats);
                    false
                };
                if !ok {
                    return Err(TxCtl::Abort(AbortReason::CommitValidation));
                }
            }
        }

        // The transaction is committed: release locks at the new version,
        // leaving the lock set as the cover for the driver's wake path.
        self.d.cover.clear();
        self.d.cover.extend_from_slice(self.d.locks.as_slice());
        for &idx in &self.d.cover {
            self.system.orecs.store(idx, OrecValue::unlocked(end));
        }
        // Finalize deferred frees; allocations simply survive.
        for &(addr, words) in &self.d.frees {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
        // Publish the commit epoch only now that every lock is released and
        // the write-back is visible; later begins start at or above `end`,
        // which also bounds the quiescence wait below.
        self.thread.publish_epoch(end);
        self.thread.exit_tx();
        // Privatization-safety quiescence (Algorithm 9, line 20).
        self.system.quiesce(self.thread, end);
        Ok(CommitOutcome::software_writer(end))
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request.  Returns `Err` (with the transaction already rolled back) if
    /// the condition could not be captured consistently, in which case the
    /// driver simply re-executes the transaction.
    pub fn rollback_for_deschedule(&mut self, spec: WaitSpec) -> Result<WaitCondition, TxCtl> {
        if let Some(serial) = &mut self.serial {
            return serial.rollback_for_deschedule(spec, &mut self.d.waitset);
        }
        match spec {
            WaitSpec::ReadSetValues => {
                let pairs = self.d.waitset.drain_pairs();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => {
                // Record the write-set high-water mark now: the undo log is
                // drained below, before `rollback` can observe its size.
                TxStats::record_max(&self.thread.stats.write_set_max, self.d.writes.len() as u64);
                // Algorithm 6: undo writes first so memory shows the state
                // from before the transaction, then read the requested
                // addresses while still holding our locks, validating each
                // against the start time so the snapshot is consistent.
                for e in self.d.writes.iter().rev() {
                    self.system.heap.store(e.addr, e.val);
                }
                self.d.writes.clear();
                let mut pairs = Vec::with_capacity(addrs.len());
                let mut consistent = true;
                for addr in addrs {
                    // Lock–value–lock, like `TxRead`: a verdict on the orec
                    // alone lets a writer lock, write and release between
                    // the check and the load, and the value captured under
                    // the stale verdict is already the changed one — the
                    // double-check then sees "unchanged" and the thread
                    // sleeps on a change that has happened.
                    let idx = self.system.orecs.index_for(addr);
                    let before = self.system.orecs.load(idx);
                    let val = self.system.heap.load(addr);
                    let after = self.system.orecs.load(idx);
                    let ok = before == after
                        && if before.is_locked() {
                            before.is_locked_by(self.me())
                        } else {
                            before.version() <= self.start
                        };
                    if !ok {
                        consistent = false;
                        break;
                    }
                    pairs.push((addr, val));
                }
                self.rollback();
                if consistent {
                    Ok(WaitCondition::ValuesChanged(pairs))
                } else {
                    Err(TxCtl::Abort(AbortReason::ReadConflict))
                }
            }
            WaitSpec::Pred { f, args } => {
                self.rollback();
                Ok(WaitCondition::Pred { f, args })
            }
            WaitSpec::OrigReadLocks => {
                // Handled by the driver (it needs the read-orec list *and*
                // the registry); reaching this point is a logic error.
                self.rollback();
                Err(TxCtl::Abort(AbortReason::ReadConflict))
            }
        }
    }
}

impl Tx for EagerTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Serial attempts read directly: the gate holder runs alone.  Their
        // reads are never value-logged — a serial `Retry` relogs in
        // SoftwareRetry mode (see the driver's ReadSetValues dispatch).
        if let Some(serial) = &self.serial {
            return Ok(serial.read(addr));
        }
        if self.snapshot {
            return self.snapshot_read(addr);
        }
        // Algorithm 10, TxRead: atomically read lock–value–lock and accept
        // only if the snapshot is consistent and not too new.
        let idx = self.system.orecs.index_for(addr);
        let before = self.system.orecs.load(idx);
        let val = self.system.heap.load(addr);
        let after = self.system.orecs.load(idx);

        if before.is_locked_by(self.me()) {
            self.retry_log(addr, val);
            return Ok(val);
        }
        if before == after && !before.is_locked() {
            if before.version() <= self.start {
                // The stripe computed for this validation is cached in the
                // entry, so commit-time re-validation never hashes again.
                self.d.reads.record(addr, idx);
                self.retry_log(addr, val);
                return Ok(val);
            }
            self.system
                .clock
                .note_stale(before.version(), &self.thread.stats);
        }
        Err(TxCtl::Abort(AbortReason::ReadConflict))
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if let Some(serial) = &mut self.serial {
            serial.write(addr, val);
            return Ok(());
        }
        if self.snapshot {
            // Discovered-read-only speculation failed: the driver upgrades
            // the transaction to a full update attempt and restarts it.
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        // Algorithm 10, TxWrite: acquire the orec, log the old value (first
        // write per address only — the log is keyed by address), update in
        // place.  The stripe cover of the write set is the lock set
        // (`locks`), so the undo log's own cover is left degenerate
        // (constant index) rather than maintained for nobody.
        self.acquire(addr)?;
        let old = self.system.heap.load(addr);
        self.d.writes.record_first(addr, old, || 0);
        self.system.heap.store(addr, val);
        Ok(())
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        if self.serial.is_some() {
            return self.read(addr);
        }
        if self.snapshot {
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        // "Read for write" (§2.2.4): acquire the lock immediately and do not
        // add the address to the read set — it is protected by the lock.
        self.acquire(addr)?;
        let val = self.system.heap.load(addr);
        self.retry_log(addr, val);
        Ok(val)
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        if let Some(serial) = &mut self.serial {
            return serial
                .alloc(words)
                .ok_or(TxCtl::Abort(AbortReason::OutOfMemory));
        }
        if self.snapshot {
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        match self.system.heap.alloc_for(self.thread, words) {
            Some(addr) => {
                self.d.mallocs.push((addr, words));
                Ok(addr)
            }
            None => Err(TxCtl::Abort(AbortReason::OutOfMemory)),
        }
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        if let Some(serial) = &mut self.serial {
            serial.free(addr, words);
            return Ok(());
        }
        if self.snapshot {
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        self.d.frees.push((addr, words));
        Ok(())
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        // Used only by transaction-safe condition variables: commit the work
        // so far (breaking atomicity), run the blocking section outside any
        // transaction, then begin a fresh transaction for the remainder.
        if self.serial.is_some() {
            let outcome = self.try_commit()?;
            // Same accounting rule as the non-serial branch below — only
            // writer segments count — plus the serial_commits ⊆ sw_commits
            // invariant the stats docs establish.
            if outcome.was_writer {
                TxStats::bump(&self.thread.stats.sw_commits);
                TxStats::bump(&self.thread.stats.serial_commits);
            }
            block();
            // Continue in the same (serial) flavour: re-acquire the gate.
            self.serial = Some(SerialAttempt::begin(self.system, self.thread));
            self.start = self.system.clock.now();
            return Ok(());
        }
        match self.try_commit() {
            Ok(info) => {
                if info.was_writer {
                    TxStats::bump(&self.thread.stats.sw_commits);
                }
                block();
                self.start = subscribe_begin(self.system, self.thread);
                Ok(())
            }
            Err(ctl) => Err(ctl),
        }
    }

    fn explicit_abort(&mut self, code: u8) -> TxCtl {
        TxCtl::Abort(AbortReason::Explicit(code))
    }

    fn common(&self) -> &TxCommon {
        &self.common
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        &mut self.common
    }

    fn system(&self) -> &Arc<TmSystem> {
        self.system
    }

    fn thread(&self) -> &Arc<ThreadCtx> {
        self.thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::TmConfig;

    /// A thread context and a private descriptor for one test handle.
    fn party(system: &Arc<TmSystem>) -> (Arc<ThreadCtx>, Descriptor) {
        (system.register_thread(), Descriptor::default())
    }

    fn software() -> TxCommon {
        TxCommon::new(TxMode::Software, 0)
    }

    fn read_only() -> TxCommon {
        software().with_kind(TxKind::ReadOnly)
    }

    /// Commits `val` to `addr` from a fresh thread.
    fn commit_write(system: &Arc<TmSystem>, addr: Addr, val: u64) {
        let (th, mut d) = party(system);
        let mut w = EagerTx::begin(system, &th, &mut d, software());
        w.write(addr, val).unwrap();
        w.try_commit().unwrap();
    }

    #[test]
    fn read_your_own_write() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(tx.read(Addr(5)).unwrap(), 42);
    }

    #[test]
    fn writes_are_in_place_and_undone_on_rollback() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(5), 7);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        tx.write(Addr(5), 100).unwrap();
        assert_eq!(system.heap.load(Addr(5)), 100, "eager STM updates in place");
        tx.rollback();
        assert_eq!(
            system.heap.load(Addr(5)),
            7,
            "rollback restores the old value"
        );
    }

    #[test]
    fn commit_releases_locks_at_new_version() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
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
        drop(tx);
        assert_eq!(d.cover, vec![idx], "the lock set is the commit's cover");
    }

    #[test]
    fn read_only_commit_is_trivial() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(3), 11);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        assert_eq!(tx.read(Addr(3)).unwrap(), 11);
        let info = tx.try_commit().unwrap();
        assert!(!info.was_writer);
        assert_eq!(info.commit_time, 0);
    }

    #[test]
    fn conflicting_write_lock_aborts_second_writer() {
        let system = TmSystem::new(TmConfig::small());
        let (t1, mut d1) = party(&system);
        let (t2, mut d2) = party(&system);
        let mut tx1 = EagerTx::begin(&system, &t1, &mut d1, software());
        let mut tx2 = EagerTx::begin(&system, &t2, &mut d2, software());
        tx1.write(Addr(4), 1).unwrap();
        assert!(matches!(
            tx2.write(Addr(4), 2),
            Err(TxCtl::Abort(AbortReason::WriteConflict))
        ));
        tx1.rollback();
        tx2.rollback();
    }

    #[test]
    fn read_of_locked_location_aborts() {
        let system = TmSystem::new(TmConfig::small());
        let (t1, mut d1) = party(&system);
        let (t2, mut d2) = party(&system);
        let mut tx1 = EagerTx::begin(&system, &t1, &mut d1, software());
        tx1.write(Addr(8), 5).unwrap();
        let mut tx2 = EagerTx::begin(&system, &t2, &mut d2, software());
        assert!(tx2.read(Addr(8)).is_err());
        tx1.rollback();
        tx2.rollback();
    }

    #[test]
    fn stale_read_detected_at_commit() {
        // Two handles are driven from one OS thread, so the committer must
        // not quiesce waiting for the other handle (it could never finish).
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        // tx1 reads addr 6, then another transaction commits a write to it,
        // then tx1 writes something else and tries to commit: validation
        // must fail.
        let (t1, mut d1) = party(&system);
        let mut tx1 = EagerTx::begin(&system, &t1, &mut d1, software());
        assert_eq!(tx1.read(Addr(6)).unwrap(), 0);
        commit_write(&system, Addr(6), 9);
        tx1.write(Addr(7), 1).unwrap();
        assert!(matches!(
            tx1.try_commit(),
            Err(TxCtl::Abort(AbortReason::CommitValidation))
        ));
        tx1.rollback();
        assert_eq!(system.heap.load(Addr(7)), 0);
        assert_eq!(system.heap.load(Addr(6)), 9);
    }

    #[test]
    fn read_after_foreign_commit_aborts_immediately() {
        // See stale_read_detected_at_commit: single-threaded test, two
        // handles, so quiescence must be off.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (t1, mut d1) = party(&system);
        let mut tx1 = EagerTx::begin(&system, &t1, &mut d1, software());
        let _ = tx1.read(Addr(2)).unwrap();
        // Another transaction commits a write to a different orec: tx1 can
        // still read locations whose version predates its start.
        commit_write(&system, Addr(100), 1);
        // Reading the *updated* location must abort tx1 (version too new).
        assert!(tx1.read(Addr(100)).is_err());
        tx1.rollback();
    }

    #[test]
    fn retry_mode_logs_pre_transaction_values() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(12), 50);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(
            &system,
            &th,
            &mut d,
            TxCommon::new(TxMode::SoftwareRetry, 1),
        );
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        // A read-after-write must log the value from *before* the write,
        // because the write is undone when the transaction deschedules.
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.d.waitset.pairs(), vec![(Addr(12), 50)]);
        tx.rollback();
    }

    #[test]
    fn reexecuted_attempts_start_on_the_grown_descriptor() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        let _ = tx.read(Addr(1)).unwrap();
        tx.write(Addr(2), 2).unwrap();
        tx.rollback();
        drop(tx);
        assert!(d.grown());
        assert!(d.reads.is_empty() && d.writes.is_empty() && d.locks.is_empty());
        assert!(d.reads.capacity() > 0 && d.writes.capacity() > 0 && d.locks.capacity() > 0);
        let snap = th.stats.snapshot();
        assert_eq!((snap.read_set_max, snap.write_set_max), (1, 1));
    }

    #[test]
    fn deschedule_rollback_captures_await_values() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(20), 5);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
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
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        commit_write(&system, Addr(20), 8);
        // The word's version is past our start: the capture must refuse
        // rather than record the new value as the one to wait on.
        assert!(tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .is_err());
    }

    #[test]
    fn transactional_alloc_is_undone_on_rollback() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        let before = system.heap.allocated_words();
        let a = tx.alloc(8).unwrap();
        assert!(!a.is_null());
        assert_eq!(system.heap.allocated_words(), before + 8);
        tx.rollback();
        assert_eq!(system.heap.allocated_words(), before);
    }

    #[test]
    fn transactional_free_is_deferred_to_commit() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        let a = system.heap.alloc(4).unwrap();
        let before = system.heap.allocated_words();
        tx.free(a, 4).unwrap();
        assert_eq!(
            system.heap.allocated_words(),
            before,
            "free deferred until commit"
        );
        tx.try_commit().unwrap();
        assert_eq!(system.heap.allocated_words(), before - 4);
    }

    #[test]
    fn read_orec_indices_deduplicate() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(31)).unwrap();
        let idx = tx.read_orec_indices();
        assert!(idx.len() <= 2);
        tx.rollback();
    }

    #[test]
    fn rollback_is_idempotent() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, software());
        tx.write(Addr(40), 1).unwrap();
        tx.rollback();
        tx.rollback();
        assert_eq!(system.heap.load(Addr(40)), 0);
    }

    #[test]
    fn snapshot_read_keeps_no_read_set_and_commits_free() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(3), 7);
        system.heap.store(Addr(4), 8);
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert!(tx.snapshot, "small config enables snapshots");
        assert_eq!(tx.read(Addr(3)).unwrap(), 7);
        assert_eq!(tx.read(Addr(4)).unwrap(), 8);
        assert!(tx.d.reads.is_empty(), "snapshot reads record nothing");
        let info = tx.try_commit().unwrap();
        assert!(!info.was_writer);
        let snap = th.stats.snapshot();
        assert_eq!(snap.ro_fast_commits, 1);
        assert_eq!(snap.read_set_max, 0, "no read set was ever built");
    }

    #[test]
    fn snapshot_write_aborts_with_read_only_write() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert!(matches!(
            tx.write(Addr(1), 9),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        assert!(matches!(
            tx.read_for_write(Addr(1)),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        assert!(matches!(
            tx.alloc(4),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        assert!(matches!(
            tx.free(Addr(1), 1),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        tx.rollback();
    }

    #[test]
    fn snapshot_refreshes_at_first_read_instead_of_aborting() {
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        // A foreign commit moves Addr(6) past the snapshot's start.
        commit_write(&system, Addr(6), 9);
        // First read: too new, but nothing observed yet — refresh, not abort.
        assert_eq!(tx.read(Addr(6)).unwrap(), 9);
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().snapshot_refreshes, 1);
    }

    #[test]
    fn snapshot_on_aborts_on_too_new_after_first_read() {
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert_eq!(tx.read(Addr(5)).unwrap(), 0, "pin the snapshot");
        commit_write(&system, Addr(6), 9);
        assert!(matches!(
            tx.read(Addr(6)),
            Err(TxCtl::Abort(AbortReason::ReadConflict))
        ));
        tx.rollback();
    }

    #[test]
    fn snapshot_extend_advances_past_disjoint_commits() {
        let system = TmSystem::new(
            TmConfig::small()
                .without_quiescence()
                .with_snapshot(SnapshotMode::Extend),
        );
        system.heap.store(Addr(5), 1);
        // An address on a different orec stripe than Addr(5).
        let other = (6..300)
            .map(Addr)
            .find(|&a| system.orecs.index_for(a) != system.orecs.index_for(Addr(5)))
            .unwrap();
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert_eq!(tx.read(Addr(5)).unwrap(), 1, "pin the snapshot");
        // A commit to a *different* stripe moves the clock forward.
        commit_write(&system, other, 9);
        // The cover (only Addr(5)'s stripe) still holds at the old start, so
        // the snapshot extends instead of aborting.
        assert_eq!(tx.read(other).unwrap(), 9);
        tx.try_commit().unwrap();
        let snap = th.stats.snapshot();
        assert_eq!(snap.snapshot_refreshes, 1);
        assert_eq!(snap.ro_fast_commits, 1);
        assert_eq!(snap.read_set_max, 0);
    }

    #[test]
    fn snapshot_extend_aborts_when_a_covered_stripe_moves() {
        let system = TmSystem::new(
            TmConfig::small()
                .without_quiescence()
                .with_snapshot(SnapshotMode::Extend),
        );
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert_eq!(tx.read(Addr(5)).unwrap(), 0);
        // A commit to the *same* address invalidates the cover; the next
        // too-new read cannot extend.
        commit_write(&system, Addr(5), 9);
        assert!(tx.read(Addr(5)).is_err());
        tx.rollback();
    }

    #[test]
    fn snapshot_off_disables_the_fast_path() {
        let system = TmSystem::new(TmConfig::small().with_snapshot(SnapshotMode::Off));
        let (th, mut d) = party(&system);
        let mut tx = EagerTx::begin(&system, &th, &mut d, read_only());
        assert!(!tx.snapshot);
        assert_eq!(tx.read(Addr(3)).unwrap(), 0);
        assert_eq!(tx.d.reads.len(), 1, "falls back to the tracked read path");
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().ro_fast_commits, 0);
    }
}
