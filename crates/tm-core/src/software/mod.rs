//! The software TM: the paper's Appendix-A STM, in one place.
//!
//! The paper's Appendix A states its STM substrate once per idea; the eager
//! and the TL2-style runtime differ only in *when* an ownership record is
//! locked and *which* log is kept.  This module owns everything else:
//!
//! * [`SoftwareTxCore`] — begin and the serial rung, the validated
//!   lock–value–lock read, the snapshot read path, in-place writes and
//!   their undo, transactional alloc/free, the read-only commit, the
//!   writer-commit epilogue and the rollback tail, all over the thread's
//!   borrowed [`Descriptor`];
//! * [`SoftwareProtocol`] — what a protocol adds: its tracked read, its
//!   write, its writer commit, and (eager only) undoing in-place writes;
//! * [`SoftwareTx`] — the attempt type: a core plus a protocol, implementing
//!   [`Tx`] once and rolling back when dropped unended.  [`EagerTx`] and
//!   [`LazyTx`] are this type at their protocol, by static dispatch;
//! * [`eager`] and [`lazy`] — the two protocols (paper: "Eager STM" and
//!   "Lazy STM");
//! * [`engine`] — [`SoftwareStm`], the one [`crate::TxEngine`] over
//!   [`SoftwareTx`]; [`EagerStm`] and [`LazyStm`] are it at their protocol.
//!
//! `Retry-Orig` (Algorithm 1) needs only this module's lock metadata: it is
//! a [`WaitCondition::LocksMoved`] on [`TmSystem::waiters`].

pub mod eager;
pub mod engine;
pub mod lazy;

pub use eager::{Eager, EagerStm, EagerTx};
pub use engine::SoftwareStm;
pub use lazy::{Lazy, LazyStm, LazyTx};

use std::fmt;
use std::sync::Arc;

use crate::access::{Descriptor, ReadSet};
use crate::addr::Addr;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitCondition, WaitSpec};
use crate::driver::{deschedule_until, wake_after_commit, Attempt, CommitOutcome};
use crate::runtime::TmRuntime;
use crate::serial::{subscribe_begin, SerialAttempt};
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon, TxKind, TxMode};

/// The protocol-independent state and steps of one software attempt.
///
/// It owns no log: Algorithm 8's `reads`, `writes`/`undos` and `locks` are
/// the borrowed thread [`Descriptor`]'s containers (`crate::access`), so
/// read-after-write lookups and lock-set membership are O(1), orec covers
/// are sorted at most once, and a re-executed attempt starts on the capacity
/// the previous one grew.
#[derive(Debug)]
pub struct SoftwareTxCore<'a> {
    /// The attempt's metadata.
    pub common: TxCommon,
    /// The runtime that began the attempt: a [`Tx::commit_and_wait`] sleeps
    /// on it.
    pub rt: &'a dyn TmRuntime,
    /// The system the attempt runs against (`rt`'s).
    pub system: &'a Arc<TmSystem>,
    /// The executing thread.
    pub thread: &'a Arc<ThreadCtx>,
    /// The thread's attempt descriptor, lent for the attempt.
    pub d: &'a mut Descriptor,
    /// Global-clock value sampled at begin (Algorithm 9, `start`).
    start: u64,
    /// `Some` while this attempt runs serially behind the system's
    /// [`crate::SerialGate`] ([`TxMode::Serial`], or any mode of an attempt
    /// begun with [`SoftwareTx::begin_serial`]): accesses go straight to the
    /// heap, `writes` is an undo log and the read set stays empty.
    serial: Option<SerialAttempt<'a>>,
    /// True when this attempt runs on the snapshot read path: a declared
    /// read-only transaction in plain [`TxMode::Software`] mode, not serial.
    /// Reads validate against `start` only, no read set is kept, writes
    /// abort with [`AbortReason::ReadOnlyWrite`], and the commit is free.
    snapshot: bool,
    /// Whether the snapshot attempt has completed at least one read (gates
    /// the first-read refresh).
    snap_observed: bool,
}

/// Opens an attempt: acquires the serial gate for a `serial` one, otherwise
/// samples the clock and publishes the start time for quiescence through the
/// gate's subscription protocol.
fn open<'a>(
    system: &'a Arc<TmSystem>,
    thread: &ThreadCtx,
    serial: bool,
) -> (Option<SerialAttempt<'a>>, u64) {
    if serial {
        (
            Some(SerialAttempt::begin(system, thread)),
            system.clock.now(),
        )
    } else {
        (None, subscribe_begin(system, thread))
    }
}

/// The read-set validation loop (Algorithm 9, `TxCommit`): every read stripe
/// is still unlocked (or locked by `thread` itself) and no newer than
/// `start`.  The stripe index was cached when the read was validated, so
/// validation does not hash the address a second time.
#[inline]
pub fn reads_valid(reads: &ReadSet, system: &TmSystem, thread: &ThreadCtx, start: u64) -> bool {
    reads.iter().all(|e| {
        let o = system.orecs.load(e.stripe);
        if o.is_locked() {
            o.is_locked_by(thread.id)
        } else if o.version() <= start {
            true
        } else {
            system.clock.note_stale(o.version(), &thread.stats);
            false
        }
    })
}

impl<'a> SoftwareTxCore<'a> {
    /// The clock value sampled at begin.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Algorithm 10, `TxRead`: atomically reads lock–value–lock and accepts
    /// only if the snapshot is consistent and not too new.  Returns the
    /// in-memory value, the address's orec stripe (so callers can cache it
    /// instead of hashing again) and whether the stripe is locked by this
    /// attempt itself, which only an encounter-time locker can observe.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> TxResult<(u64, usize, bool)> {
        let idx = self.system.orecs.index_for(addr);
        let before = self.system.orecs.load(idx);
        let val = self.system.heap.load(addr);
        let after = self.system.orecs.load(idx);
        if before == after {
            if !before.is_locked() {
                if before.version() <= self.start {
                    return Ok((val, idx, false));
                }
                // Too new: fold the version into the clock so the retry
                // begins current even before the committer publishes its
                // epoch (lazy clock plane; no-op under GV1).
                self.system
                    .clock
                    .note_stale(before.version(), &self.thread.stats);
            } else if before.is_locked_by(self.thread.id) {
                return Ok((val, idx, true));
            }
        }
        Err(TxCtl::Abort(AbortReason::ReadConflict))
    }

    /// [`SoftwareTxCore::read_word`] plus the read-set entry, which caches
    /// the stripe computed for this validation so commit-time re-validation
    /// never hashes again.  A location under the attempt's own lock is
    /// protected by that lock and stays out of the read set.
    #[inline]
    pub fn read_tracked(&mut self, addr: Addr) -> TxResult<u64> {
        let (val, idx, mine) = self.read_word(addr)?;
        if !mine {
            self.d.reads.record(addr, idx);
        }
        Ok(val)
    }

    /// [`SoftwareTxCore::read_word`] over `addrs`, for an `Await` capture:
    /// `None` as soon as one location cannot be read consistently with
    /// `start`.
    pub fn read_words(&self, addrs: Vec<Addr>) -> Option<Vec<(Addr, u64)>> {
        addrs
            .into_iter()
            .map(|addr| self.read_word(addr).ok().map(|(val, ..)| (addr, val)))
            .collect()
    }

    /// One snapshot-path read: lock–value–lock against `start` only.  No
    /// read set, no value logging; a too-new version first tries a snapshot
    /// refresh before aborting.
    #[inline]
    fn snapshot_read(&mut self, addr: Addr) -> TxResult<u64> {
        let idx = self.system.orecs.index_for(addr);
        loop {
            let before = self.system.orecs.load(idx);
            let val = self.system.heap.load(addr);
            let after = self.system.orecs.load(idx);
            if before == after && !before.is_locked() {
                if before.version() <= self.start {
                    self.snap_observed = true;
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

    /// Attempts to advance the begin snapshot past a too-new version.  This
    /// is sound only before the first successful read (nothing has been
    /// observed, so any snapshot is still admissible); afterwards the
    /// attempt aborts and retries with a fresh snapshot.  The new start is
    /// re-published through the serial-gate subscription handshake, exactly
    /// like a fresh begin.
    fn try_snapshot_refresh(&mut self) -> bool {
        if self.snap_observed {
            return false;
        }
        self.thread.exit_tx();
        self.start = subscribe_begin(self.system, self.thread);
        TxStats::bump(&self.thread.stats.snapshot_refreshes);
        true
    }

    /// Refuses an update operation on the snapshot path: the
    /// discovered-read-only speculation failed, and the driver upgrades the
    /// transaction to a full update attempt and restarts it.
    #[inline]
    pub fn refuse_on_snapshot(&self) -> TxResult<()> {
        if self.snapshot {
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        Ok(())
    }

    /// Records `observed` at `addr` in the `Retry` value log, substituting
    /// the pre-transaction value of a location written in place (Algorithm
    /// 5, `TxRead` lines 2–5): after the rollback that accompanies a
    /// deschedule, memory holds the *old* value, so that is what the wake-up
    /// check must compare against.
    #[inline]
    fn log_pre_value(&mut self, addr: Addr, observed: u64) {
        if self.common.mode == TxMode::SoftwareRetry {
            let logged = self.d.writes.lookup(addr).unwrap_or(observed);
            self.d.waitset.record_first(addr, logged, || 0);
        }
    }

    /// Writes `val` to `addr` in place, logging the pre-transaction value in
    /// `writes` once (first write wins): the eager protocol, once it holds
    /// the orec, and the serial rung.
    #[inline]
    fn write_in_place(&mut self, addr: Addr, val: u64) {
        let old = self.system.heap.load(addr);
        self.d.writes.record_first(addr, old, || 0);
        self.system.heap.store(addr, val);
    }

    /// Undoes the in-place writes, newest first.
    fn undo_writes(&self) {
        for e in self.d.writes.iter().rev() {
            self.system.heap.store(e.addr, e.val);
        }
    }

    /// Transactional allocation, undone on abort ("captured memory",
    /// §2.2.4).
    #[inline]
    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.refuse_on_snapshot()?;
        let addr = self.system.heap.alloc_for(self.thread, words);
        let addr = addr.ok_or(AbortReason::OutOfMemory)?;
        self.d.mallocs.push((addr, words));
        Ok(addr)
    }

    /// Transactional free, deferred until commit.
    #[inline]
    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        self.refuse_on_snapshot()?;
        self.d.frees.push((addr, words));
        Ok(())
    }

    /// Finalizes the deferred frees (allocations simply survive) and empties
    /// the logs: the tail of every commit.
    #[inline]
    fn retire_logs(&mut self) {
        for &(addr, words) in &self.d.frees {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
    }

    #[inline]
    fn reset_logs(&mut self) {
        self.d.reset(&self.thread.stats);
        self.snap_observed = false;
    }

    /// Read-only fast path: every read was validated at the time it
    /// happened, so nothing further is required.
    #[inline]
    fn commit_read_only(&mut self) -> CommitOutcome {
        if self.snapshot {
            // The snapshot commit did zero read-set pushes and performs
            // zero commit-time orec loads.
            TxStats::bump(&self.thread.stats.ro_fast_commits);
        }
        self.retire_logs();
        self.thread.exit_tx();
        CommitOutcome::read_only()
    }

    /// The epilogue of a writer commit at timestamp `end`, once the
    /// protocol has released its locks and left its cover in
    /// [`Descriptor::cover`].
    #[inline]
    fn finish_writer_commit(&mut self, end: u64) -> CommitOutcome {
        self.retire_logs();
        // Publish the commit epoch only now that every lock is released and
        // the write-back is visible; later begins start at or above `end`,
        // which also bounds the quiescence wait below.
        self.thread.publish_epoch(end);
        self.thread.exit_tx();
        // Privatization-safety quiescence (Algorithm 9, line 20).
        self.system.quiesce(self.thread, end);
        CommitOutcome::software_writer(end)
    }

    /// The tail of a rollback, once the protocol has restored memory and
    /// released its locks: undoes allocations, clears all logs and leaves
    /// the epoch slot.
    #[inline]
    fn discard(&mut self) {
        for &(addr, words) in &self.d.mallocs {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
        self.reset_logs();
        self.thread.exit_tx();
    }
}

/// What distinguishes one software TM from the other: *when* an ownership
/// record is locked and *which* log is kept.
///
/// Implemented by a marker type per protocol; every hook is called only on
/// instrumented attempts (never serial), and `read`/`write` never on the
/// snapshot path.
pub trait SoftwareProtocol: fmt::Debug + Send + Sync + Sized + 'static {
    /// Per-attempt protocol state beyond the shared logs.
    type State<'a>: Default + fmt::Debug;

    /// A tracked read, including read-your-writes and `Retry` value logging.
    fn read(core: &mut SoftwareTxCore<'_>, addr: Addr) -> TxResult<u64>;

    /// A write of `val` to `addr`.
    fn write(core: &mut SoftwareTxCore<'_>, addr: Addr, val: u64) -> TxResult<()>;

    /// "Read for write" (§2.2.4).  Without encounter-time locking it is just
    /// a read (the address still enters the read set).
    fn read_for_write(tx: &mut SoftwareTx<'_, Self>, addr: Addr) -> TxResult<u64> {
        tx.read(addr)
    }

    /// Commits a writer: validates the read set, makes the writes visible
    /// and releases every lock at the returned commit timestamp, leaving the
    /// stripe cover of the write set in [`Descriptor::cover`].  On `Err` the
    /// protocol holds exactly the locks it held on entry.
    fn commit_writer(tx: &mut SoftwareTx<'_, Self>) -> Result<u64, AbortReason>;

    /// Restores memory and releases the locks held by an attempt that is
    /// being rolled back (dropped unended).  Nothing to do for a protocol that neither writes
    /// in place nor holds locks outside its commit.
    fn release(core: &mut SoftwareTxCore<'_>) {
        let _ = core;
    }

    /// Captures the pre-transaction values of `addrs` for an `Await`
    /// deschedule, consistently with `start`; `None` if some location could
    /// not be read consistently.  The attempt is rolled back right after.
    fn capture(core: &mut SoftwareTxCore<'_>, addrs: Vec<Addr>) -> Option<Vec<(Addr, u64)>>;
}

/// An in-flight software-TM attempt under protocol `P`.  Dropping it
/// without ending it rolls it back.
#[derive(Debug)]
pub struct SoftwareTx<'a, P: SoftwareProtocol> {
    /// The protocol-independent part.
    pub core: SoftwareTxCore<'a>,
    /// The protocol's own per-attempt state.
    pub state: P::State<'a>,
}

impl<'a, P: SoftwareProtocol> SoftwareTx<'a, P> {
    /// Begins a new attempt of `thread` on `rt` on the empty logs of `d`:
    /// samples the clock and publishes the start time for quiescence
    /// (through the serial gate's subscription protocol), or acquires the
    /// serial gate for [`TxMode::Serial`] attempts.
    pub fn begin(
        rt: &'a dyn TmRuntime,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        Self::begin_with(rt, thread, d, common, Default::default())
    }

    /// [`SoftwareTx::begin`] with explicit protocol state.
    pub fn begin_with(
        rt: &'a dyn TmRuntime,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
        state: P::State<'a>,
    ) -> Self {
        let serial = common.mode == TxMode::Serial;
        Self::begin_as(rt, thread, d, common, state, serial)
    }

    /// Begins an attempt that runs behind the serial gate whatever
    /// `common.mode` says: the only software mode of an engine with no
    /// instrumented rung (the pure HTM, whose descheduling transactions
    /// re-execute "in a software mode with escape actions", §2.2.2).  Under
    /// [`TxMode::SoftwareRetry`] its reads are value-logged.
    pub fn begin_serial(
        rt: &'a dyn TmRuntime,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        Self::begin_as(rt, thread, d, common, Default::default(), true)
    }

    fn begin_as(
        rt: &'a dyn TmRuntime,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
        state: P::State<'a>,
        serial: bool,
    ) -> Self {
        let system = rt.system();
        let snapshot =
            !serial && common.kind == TxKind::ReadOnly && common.mode == TxMode::Software;
        let (serial, start) = open(system, thread, serial);
        let core = SoftwareTxCore {
            common,
            rt,
            system,
            thread,
            d,
            start,
            serial,
            snapshot,
            snap_observed: false,
        };
        SoftwareTx { core, state }
    }
}

impl<P: SoftwareProtocol> SoftwareTx<'_, P> {
    /// Commits in place (Algorithm 9, `TxCommit`), leaving the attempt
    /// ended on `Ok` and still to be rolled back on `Err`.
    fn commit(&mut self) -> Result<CommitOutcome, AbortReason> {
        if let Some(serial) = self.core.serial.take() {
            let was_writer = !self.core.d.writes.is_empty();
            self.core.retire_logs();
            return Ok(serial.commit(was_writer));
        }
        // A writer holds a lock (eager) or has logged a write (lazy).
        if self.core.d.locks.is_empty() && self.core.d.writes.is_empty() {
            return Ok(self.core.commit_read_only());
        }
        let end = P::commit_writer(self)?;
        Ok(self.core.finish_writer_commit(end))
    }
}

impl<P: SoftwareProtocol> Attempt for SoftwareTx<'_, P> {
    fn try_commit(mut self) -> Result<CommitOutcome, AbortReason> {
        let outcome = self.commit()?;
        // Committed: there is nothing left to roll back.
        std::mem::forget(self);
        Ok(outcome)
    }

    /// Materialises the wait condition for a deschedule request, then rolls
    /// back by dropping the attempt.
    fn rollback_for_deschedule(mut self, spec: WaitSpec) -> Result<WaitCondition, AbortReason> {
        let core = &mut self.core;
        let serial = core.serial.is_some();
        let cond = match spec {
            // Captured while the start is still published, so the serial
            // count is the one from begin.  A serial attempt keeps no
            // read-orec cover; its value log stands in.
            WaitSpec::OrigReadLocks if !serial => Some(WaitCondition::LocksMoved {
                cover: core.d.reads.orec_cover().to_vec(),
                start: core.start,
                serial: core.system.serial.writer_commits(),
            }),
            WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => {
                Some(WaitCondition::ValuesChanged(core.d.waitset.drain_pairs()))
            }
            // The gate holder runs alone: plain loads, with its own writes
            // looked through to their undo entries, are a consistent
            // pre-transaction snapshot.
            WaitSpec::Addrs(addrs) if serial => {
                let pre = |a| {
                    core.d
                        .writes
                        .lookup(a)
                        .unwrap_or_else(|| core.system.heap.load(a))
                };
                let pairs = addrs.into_iter().map(|a| (a, pre(a))).collect();
                Some(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => P::capture(core, addrs).map(WaitCondition::ValuesChanged),
            WaitSpec::Pred { f, args } => Some(WaitCondition::Pred { f, args }),
        };
        cond.ok_or(AbortReason::ReadConflict)
    }
}

/// The rollback of an attempt that did not commit (Algorithm 11): the
/// protocol — or the serial rung's undo log — restores memory and releases
/// its locks, then allocations are undone, all logs cleared and the epoch
/// slot left; a serial attempt's gate is released last, with the field.
impl<P: SoftwareProtocol> Drop for SoftwareTx<'_, P> {
    fn drop(&mut self) {
        if self.core.serial.is_some() {
            self.core.undo_writes();
        } else {
            P::release(&mut self.core);
        }
        self.core.discard();
    }
}

impl<P: SoftwareProtocol> Tx for SoftwareTx<'_, P> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Serial attempts read directly: the gate holder runs alone.  A
        // `TxMode::Serial` attempt's reads are not value-logged — its `Retry`
        // relogs in SoftwareRetry mode (see the driver's ReadSetValues
        // dispatch), which is serial only under `begin_serial`.
        if self.core.serial.is_some() {
            let val = self.core.system.heap.load(addr);
            self.core.log_pre_value(addr, val);
            return Ok(val);
        }
        if self.core.snapshot {
            return self.core.snapshot_read(addr);
        }
        P::read(&mut self.core, addr)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if self.core.serial.is_some() {
            self.core.write_in_place(addr, val);
            return Ok(());
        }
        self.core.refuse_on_snapshot()?;
        P::write(&mut self.core, addr, val)
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        if self.core.serial.is_some() {
            return self.read(addr);
        }
        P::read_for_write(self, addr)
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.core.alloc(words)
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        self.core.free(addr, words)
    }

    fn commit_and_wait(&mut self, condition: WaitCondition) -> TxResult<()> {
        // Commit the work so far (breaking atomicity), sleep holding nothing,
        // then begin the remainder in the same flavour (a serial attempt
        // re-acquires the gate).
        let serial = self.core.serial.is_some();
        let outcome = self.commit()?;
        let (rt, thread) = (self.core.rt, self.core.thread);
        // Only writer segments count, and serial_commits ⊆ sw_commits as the
        // stats docs establish.
        if outcome.was_writer {
            TxStats::bump(&thread.stats.sw_commits);
            if serial {
                TxStats::bump(&thread.stats.serial_commits);
            }
            wake_after_commit(rt, thread, outcome.serial, &mut self.core.d.cover);
        }
        deschedule_until(rt, thread, condition, None);
        let (reopened, start) = open(self.core.system, thread, serial);
        self.core.serial = reopened;
        self.core.start = start;
        Ok(())
    }

    fn common(&self) -> &TxCommon {
        &self.core.common
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        &mut self.core.common
    }

    fn system(&self) -> &Arc<TmSystem> {
        self.core.system
    }

    fn thread(&self) -> &Arc<ThreadCtx> {
        self.core.thread
    }
}
