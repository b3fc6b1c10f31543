//! The per-attempt transaction descriptor for the lazy (TL2-style) STM.

use std::sync::Arc;

use tm_core::access::{cover_valid_at, Descriptor, WriteEntry};
use tm_core::driver::CommitOutcome;
use tm_core::serial::{subscribe_begin, SerialAttempt};
use tm_core::stats::TxStats;
use tm_core::{
    AbortReason, Addr, OrecValue, SnapshotMode, ThreadCtx, ThreadId, TmSystem, Tx, TxCommon, TxCtl,
    TxKind, TxMode, TxResult, WaitCondition, WaitSpec,
};

/// Hook a hybrid runtime installs around the redo-log write-back so that
/// software commits and (simulated) hardware commits exclude each other.
///
/// [`CommitInterlock::commit_section`] must (1) take whatever barrier also
/// serialises hardware commits, (2) run `validate` (the read-set check —
/// before any hardware state is disturbed, so a doomed validation costs
/// nobody else anything), and if it passes (3) claim/doom the hardware
/// state covering `write_entries` so no speculative reader can observe a
/// partial write-back, (4) run `writeback` (the write-back and lock
/// release), and (5) release its claims.  The plain lazy runtime installs
/// no interlock and runs the two phases back to back.
pub trait CommitInterlock: Send + Sync + std::fmt::Debug {
    /// Runs a commit's validate and write-back + unlock phases under mutual
    /// exclusion with hardware commits.  `writer` is the committing thread,
    /// `write_entries` the redo-log entries about to be written back
    /// (borrowed straight from the log — the commit path allocates
    /// nothing); returns `validate`'s verdict (false = validation failed,
    /// nothing written, no hardware transaction disturbed).
    fn commit_section(
        &self,
        writer: ThreadId,
        write_entries: &[WriteEntry],
        validate: &mut dyn FnMut() -> bool,
        writeback: &mut dyn FnMut(),
    ) -> bool;
}

/// An in-flight lazy-STM transaction attempt.
///
/// It owns no log: the read set (`reads`) and redo log (`writes`) are the
/// borrowed thread [`Descriptor`]'s containers (`tm_core::access`), so
/// read-after-write lookups are O(1), the write set's orec cover is sorted
/// once for commit-time lock acquisition, and a re-executed attempt starts
/// on the capacity the previous one grew.
#[derive(Debug)]
pub struct LazyTx<'a> {
    common: TxCommon,
    system: &'a Arc<TmSystem>,
    thread: &'a Arc<ThreadCtx>,
    d: &'a mut Descriptor,
    start: u64,
    /// `Some` when this attempt runs serially behind the system's
    /// [`tm_core::SerialGate`] ([`TxMode::Serial`]): all accesses go
    /// straight to the shared serial attempt, the instrumented logs stay
    /// empty.
    serial: Option<SerialAttempt<'a>>,
    /// Hybrid-runtime hook serialising the commit write-back against
    /// hardware commits; `None` for the plain lazy runtime.
    interlock: Option<&'a dyn CommitInterlock>,
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

impl<'a> LazyTx<'a> {
    /// Begins a new attempt of `thread` on the empty logs of `d` (no hybrid
    /// interlock).
    pub fn begin(
        system: &'a Arc<TmSystem>,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        Self::begin_with(system, thread, d, common, None)
    }

    /// Begins a new attempt, optionally installing a hybrid-runtime commit
    /// interlock.  Serial-mode attempts acquire the system's serial gate;
    /// instrumented attempts publish their start time through the gate's
    /// subscription protocol so a serial acquirer can quiesce them.
    pub fn begin_with(
        system: &'a Arc<TmSystem>,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
        interlock: Option<&'a dyn CommitInterlock>,
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
        LazyTx {
            common,
            system,
            thread,
            d,
            start,
            serial,
            interlock,
            snapshot,
            snap_observed: false,
        }
    }

    /// The clock value sampled at begin.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Ownership-record indices covering the read set (for `Retry-Orig`),
    /// sorted and deduplicated — the read set's own stripe cover, not
    /// recomputed from the address list.
    pub fn read_orec_indices(&mut self) -> Vec<usize> {
        self.d.reads.orec_cover().to_vec()
    }

    fn me(&self) -> usize {
        self.thread.id
    }

    /// Validated read of the *in-memory* value (ignoring the redo log),
    /// returning the value together with the address's orec stripe so
    /// callers can cache it instead of hashing again.
    fn read_memory(&self, addr: Addr) -> TxResult<(u64, usize)> {
        let idx = self.system.orecs.index_for(addr);
        let before = self.system.orecs.load(idx);
        let val = self.system.heap.load(addr);
        let after = self.system.orecs.load(idx);
        if before == after && !before.is_locked() {
            if before.version() <= self.start {
                return Ok((val, idx));
            }
            // Too new: fold the version into the clock so the retry begins
            // current even before the committer publishes its epoch (lazy
            // clock plane; no-op under GV1).
            self.system
                .clock
                .note_stale(before.version(), &self.thread.stats);
        }
        Err(TxCtl::Abort(AbortReason::ReadConflict))
    }

    /// One snapshot-path read: lock–value–lock against `start` only.  No
    /// read set, no value logging; a too-new version first tries a snapshot
    /// refresh ([`LazyTx::try_snapshot_refresh`]) before aborting.
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

    fn reset_logs(&mut self) {
        self.d.reset(&self.thread.stats);
        self.snap_observed = false;
    }

    /// Discards the attempt (nothing was written in place; serial attempts
    /// undo their direct writes).  Safe to call more than once.
    pub fn rollback(&mut self) {
        if let Some(serial) = &mut self.serial {
            serial.rollback();
            return;
        }
        for &(addr, words) in &self.d.mallocs {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
        self.thread.exit_tx();
    }

    /// Attempts to commit.  On failure the caller must invoke
    /// [`LazyTx::rollback`].
    pub fn try_commit(&mut self) -> Result<CommitOutcome, TxCtl> {
        if let Some(serial) = &mut self.serial {
            return Ok(serial.commit());
        }
        if self.d.writes.is_empty() {
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

        // Acquire the ownership records covering the write set.  The cover
        // is the redo log's own sorted distinct-stripe list (borrowed, not
        // copied — the abort path stays allocation-free), so on failure at
        // position `k` the locks we hold are exactly the prefix `cover[..k]`
        // (this attempt holds no locks before commit).
        let me = self.me();
        let start = self.start;
        let system: &TmSystem = self.system;
        let interlock = self.interlock;
        let Descriptor {
            reads,
            writes,
            cover,
            frees,
            ..
        } = &mut *self.d;
        let (entries, write_orecs) = writes.entries_with_cover();
        let release_prefix = |n: usize| {
            for &a in &write_orecs[..n] {
                let c = system.orecs.load(a);
                system.orecs.store(a, OrecValue::unlocked(c.version()));
            }
        };
        let stats = &self.thread.stats;
        for (k, &idx) in write_orecs.iter().enumerate() {
            let cur = system.orecs.load(idx);
            let ok = if cur.is_locked() {
                cur.is_locked_by(me)
            } else if cur.version() <= start {
                system
                    .orecs
                    .cas(idx, cur, OrecValue::locked(cur.version(), me))
            } else {
                system.clock.note_stale(cur.version(), stats);
                false
            };
            if !ok {
                release_prefix(k);
                return Err(TxCtl::Abort(AbortReason::WriteConflict));
            }
        }

        // Stamped after the whole cover is held, which is what makes a
        // non-unique (lazy) stamp sound: any reader that began before this
        // point sees our locks, any later reader sees `end > rv`.
        let stamp = system.clock.commit_stamp(stats);
        let end = stamp.ts;
        // The nothing-committed-since-start fast path needs a *unique*
        // stamp (GV1): a lazy stamp may be shared with a concurrent
        // committer.  With a hybrid interlock installed, hardware commits
        // publish to the orecs under their own clock ticks, so the fast
        // path is no longer a proof of validity either: validate always.
        // Validation and write-back then run inside the interlock's
        // `commit_section`, mutually exclusive with hardware commits — a
        // hardware commit serialises entirely before (its orec releases fail
        // our validation) or entirely after (it observes our locked orecs /
        // doomed lines) this section.
        let must_validate = !stamp.unique || end != start + 1 || interlock.is_some();
        let mut validate = || -> bool {
            if must_validate {
                for e in reads.iter() {
                    // The stripe index was cached when the read was
                    // validated, so validation does not hash the address a
                    // second time.
                    let o = system.orecs.load(e.stripe);
                    let ok = if o.is_locked() {
                        o.is_locked_by(me)
                    } else if o.version() <= start {
                        true
                    } else {
                        system.clock.note_stale(o.version(), stats);
                        false
                    };
                    if !ok {
                        return false;
                    }
                }
            }
            true
        };
        // Write back the redo log (one entry per address already holding
        // the latest value) and release locks at the commit timestamp.
        let mut writeback = || {
            for e in entries {
                system.heap.store(e.addr, e.val);
            }
            for &idx in write_orecs {
                system.orecs.store(idx, OrecValue::unlocked(end));
            }
        };
        let committed = match interlock {
            Some(interlock) => interlock.commit_section(me, entries, &mut validate, &mut writeback),
            None => {
                let ok = validate();
                if ok {
                    writeback();
                }
                ok
            }
        };
        if !committed {
            release_prefix(write_orecs.len());
            return Err(TxCtl::Abort(AbortReason::CommitValidation));
        }

        // Success path only: leave the cover for the driver's wake path.
        cover.clear();
        cover.extend_from_slice(write_orecs);
        for &(addr, words) in frees.iter() {
            system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
        // Publish the commit epoch only now that the write-back is visible
        // and every lock is released; later begins start at or above `end`,
        // which also bounds the quiescence wait below.
        self.thread.publish_epoch(end);
        self.thread.exit_tx();
        self.system.quiesce(self.thread, end);
        Ok(CommitOutcome::software_writer(end))
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request.
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
                // Memory was never modified, so the pre-transaction values
                // are simply the current contents — but each read must still
                // be consistent with our start time.
                let mut pairs = Vec::with_capacity(addrs.len());
                let mut consistent = true;
                for addr in addrs {
                    match self.read_memory(addr) {
                        Ok((v, _)) => pairs.push((addr, v)),
                        Err(_) => {
                            consistent = false;
                            break;
                        }
                    }
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
                self.rollback();
                Err(TxCtl::Abort(AbortReason::ReadConflict))
            }
        }
    }
}

impl Tx for LazyTx<'_> {
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
        // Read-your-writes: the redo log takes precedence (O(1) hash-index
        // lookup; the old implementation scanned the log backwards).
        if let Some(v) = self.d.writes.lookup(addr) {
            if self.common.mode == TxMode::SoftwareRetry {
                // The Retry value log must hold the value that will be in
                // memory after the (lazy) transaction is discarded, i.e. the
                // committed value, not our own pending write.
                let (mem, _) = self.read_memory(addr)?;
                self.d.waitset.record_first(addr, mem, || 0);
            }
            return Ok(v);
        }
        let (val, idx) = self.read_memory(addr)?;
        // The stripe computed by the validated read is cached in the entry,
        // so commit-time re-validation never hashes the address again.
        self.d.reads.record(addr, idx);
        if self.common.mode == TxMode::SoftwareRetry {
            self.d.waitset.record_first(addr, val, || 0);
        }
        Ok(val)
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
        // One redo entry per address (last value wins); the orec stripe is
        // hashed once, on the first write.
        let orecs = &self.system.orecs;
        self.d.writes.record(addr, val, || orecs.index_for(addr));
        Ok(())
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        // Lazy STM has no encounter-time locking; a read-for-write is just a
        // read (the address still enters the read set, unlike the eager
        // runtime).
        self.read(addr)
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
        let mut w = LazyTx::begin(system, &th, &mut d, software());
        w.write(addr, val).unwrap();
        w.try_commit().unwrap();
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
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
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
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
        system.heap.store(Addr(8), 9);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
        tx.write(Addr(8), 100).unwrap();
        tx.rollback();
        assert_eq!(system.heap.load(Addr(8)), 9);
    }

    #[test]
    fn commit_validation_detects_stale_reads() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (th, mut d) = party(&system);
        let mut tx1 = LazyTx::begin(&system, &th, &mut d, software());
        assert_eq!(tx1.read(Addr(6)).unwrap(), 0);
        commit_write(&system, Addr(6), 5);
        tx1.write(Addr(7), 1).unwrap();
        assert!(matches!(
            tx1.try_commit(),
            Err(TxCtl::Abort(AbortReason::CommitValidation))
        ));
        tx1.rollback();
        assert_eq!(system.heap.load(Addr(7)), 0);
    }

    #[test]
    fn write_write_conflict_detected_at_commit() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (th, mut d) = party(&system);
        let mut tx2 = LazyTx::begin(&system, &th, &mut d, software());
        tx2.write(Addr(4), 2).unwrap();
        commit_write(&system, Addr(4), 1);
        // tx2 started before the other commit, so its lock acquisition sees
        // a version newer than its start and must abort.
        assert!(tx2.try_commit().is_err());
        tx2.rollback();
        assert_eq!(system.heap.load(Addr(4)), 1);
    }

    #[test]
    fn failed_lock_acquisition_releases_partial_locks() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let (th, mut d) = party(&system);
        let mut tx2 = LazyTx::begin(&system, &th, &mut d, software());
        // Another commit to addr 10 makes its version newer than tx2's
        // start, forcing tx2's multi-location commit to fail and release the
        // lock it already took on addr 200.
        tx2.write(Addr(200), 1).unwrap();
        tx2.write(Addr(10), 2).unwrap();
        commit_write(&system, Addr(10), 7);
        assert!(tx2.try_commit().is_err());
        tx2.rollback();
        let idx200 = system.orecs.index_for(Addr(200));
        let idx10 = system.orecs.index_for(Addr(10));
        assert!(!system.orecs.load(idx200).is_locked());
        assert!(!system.orecs.load(idx10).is_locked());
    }

    #[test]
    fn retry_log_records_committed_values_not_pending_writes() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(12), 50);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(
            &system,
            &th,
            &mut d,
            TxCommon::new(TxMode::SoftwareRetry, 1),
        );
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.d.waitset.pairs(), vec![(Addr(12), 50)]);
        tx.rollback();
    }

    #[test]
    fn reexecuted_attempts_start_on_the_grown_descriptor() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
        let _ = tx.read(Addr(1)).unwrap();
        tx.write(Addr(2), 2).unwrap();
        tx.rollback();
        drop(tx);
        assert!(d.grown());
        assert!(d.reads.is_empty() && d.writes.is_empty());
        assert!(d.reads.capacity() > 0 && d.writes.capacity() > 0);
        let snap = th.stats.snapshot();
        assert_eq!((snap.read_set_max, snap.write_set_max), (1, 1));
    }

    #[test]
    fn writer_commit_leaves_its_lock_cover_in_the_descriptor() {
        let system = TmSystem::new(TmConfig::small());
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
        tx.write(Addr(5), 1).unwrap();
        tx.write(Addr(300), 2).unwrap();
        assert!(tx.try_commit().unwrap().was_writer);
        drop(tx);
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
        system.heap.store(Addr(20), 5);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
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

    #[test]
    fn alloc_rolls_back_and_free_defers() {
        let system = TmSystem::new(TmConfig::small());
        let base = system.heap.allocated_words();
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
        tx.alloc(8).unwrap();
        tx.rollback();
        drop(tx);
        assert_eq!(system.heap.allocated_words(), base);

        let a = system.heap.alloc(4).unwrap();
        let mut tx = LazyTx::begin(&system, &th, &mut d, software());
        tx.free(a, 4).unwrap();
        tx.write(Addr(1), 1).unwrap();
        tx.try_commit().unwrap();
        assert_eq!(system.heap.allocated_words(), base);
    }

    #[test]
    fn snapshot_read_keeps_no_read_set_and_commits_free() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(3), 7);
        system.heap.store(Addr(4), 8);
        let (th, mut d) = party(&system);
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
        assert!(matches!(
            tx.write(Addr(1), 9),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        // Lazy read-for-write is just a read — still legal on the snapshot
        // path (the upgrade happens at the first actual write).
        assert_eq!(tx.read_for_write(Addr(1)).unwrap(), 0);
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
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
        let mut tx = LazyTx::begin(&system, &th, &mut d, read_only());
        assert!(!tx.snapshot);
        assert_eq!(tx.read(Addr(3)).unwrap(), 0);
        assert_eq!(tx.d.reads.len(), 1, "falls back to the tracked read path");
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().ro_fast_commits, 0);
    }
}
