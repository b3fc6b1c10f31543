//! The per-attempt transaction descriptor for the HTM simulator.
//!
//! A transaction attempt is either **hardware** (speculative: redo-buffered
//! writes, line-granularity conflict detection, capacity limits, no escape
//! actions) or **serial** (runs while holding the global fallback lock:
//! direct writes with an undo log so that condition synchronization can still
//! roll it back).  The serial flavour doubles as the "software mode with
//! escape actions" that descheduling hardware transactions must fall back to
//! (§2.2.2), and as GCC-style serial-irrevocable execution after repeated
//! aborts.

use std::sync::Arc;

use tm_core::access::{Descriptor, WriteLog};
use tm_core::driver::CommitOutcome;
use tm_core::hwtm::{HwAbort, HwTm};
use tm_core::lock::MutexGuard;
use tm_core::stats::TxStats;
use tm_core::{
    AbortReason, Addr, OrecValue, ThreadCtx, TmSystem, Tx, TxCommon, TxCtl, TxMode, TxResult,
    WaitCondition, WaitSpec,
};

use crate::runtime::HtmSim;

/// Converts a hardware-plane abort into the driver-level control request,
/// counting injected faults as they surface.
fn hw_fault(thread: &ThreadCtx, fault: HwAbort) -> TxCtl {
    if fault.injected {
        TxStats::bump(&thread.stats.hw_faults_injected);
    }
    TxCtl::Abort(fault.kind.reason())
}

/// Writes the stripe cover of the cache lines `redo` wrote (a superset of
/// the written words' stripes) into `cover`, sorted and distinct.
fn written_cover(plane: &dyn HwTm, redo: &WriteLog, cover: &mut Vec<usize>) {
    cover.clear();
    let mut last = None;
    for e in redo.iter() {
        let line = e.addr.line();
        // Runs of writes to one line are the common case; the final dedup
        // absorbs the rest.
        if last != Some(line) {
            plane.line_cover(line, cover);
            last = Some(line);
        }
    }
    cover.sort_unstable();
    cover.dedup();
}

/// An in-flight attempt on the HTM simulator.
///
/// It owns no log: the borrowed thread [`Descriptor`] holds them
/// (`tm_core::access`, so slot membership and read-after-write lookups are
/// O(1) and a re-executed attempt starts on grown capacity).  A hardware
/// attempt uses `read_slots` / `write_slots` (directory slots registered as
/// read / written) and `writes` as its redo buffer (one entry per address,
/// last value wins); a serial attempt uses `writes` as its undo log (old
/// values, first write wins).
#[derive(Debug)]
pub struct HtmTx<'a> {
    rt: &'a HtmSim,
    thread: &'a Arc<ThreadCtx>,
    d: &'a mut Descriptor,
    common: TxCommon,
    /// True for a speculative attempt, false for a serial one.
    hardware: bool,
    /// True from begin until the attempt commits or rolls back (and again
    /// once `commit_and_reopen` begins its continuation); a live serial
    /// attempt holds the global serial lock.
    live: bool,
}

impl<'a> HtmTx<'a> {
    /// Begins a new attempt of `thread` on the empty logs of `d`.  Hardware
    /// attempts wait for the fallback lock to be free before starting
    /// (lock-elision subscription); serial attempts acquire the lock and
    /// doom all in-flight hardware transactions.
    pub fn begin(
        rt: &'a HtmSim,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        let mut tx = HtmTx {
            rt,
            thread,
            d,
            common,
            hardware: common.mode == TxMode::Hardware,
            live: false,
        };
        tx.enter();
        tx
    }

    /// Starts (or, after `commit_and_reopen`, restarts) the attempt in its
    /// flavour.
    fn enter(&mut self) {
        if self.hardware {
            self.rt.wait_fallback_clear();
            // A stale doom flag from a previous attempt must not kill this one.
            self.thread.take_doomed();
            self.rt.plane().begin_attempt(self.thread.id);
        } else {
            self.rt.acquire_serial(self.thread);
        }
        self.live = true;
    }

    /// True if this attempt is speculative (hardware).
    pub fn is_hardware(&self) -> bool {
        self.hardware
    }

    fn retry_log(&mut self, addr: Addr, observed: u64) {
        if self.common.mode != TxMode::SoftwareRetry {
            return;
        }
        // Substitute the pre-transaction value for locations this (serial)
        // attempt has already written, as Algorithm 5 does with the undo log.
        let logged = if self.hardware {
            observed
        } else {
            self.d.writes.lookup(addr).unwrap_or(observed)
        };
        self.d.waitset.record_first(addr, logged, || 0);
    }

    /// Clears this attempt's directory registrations (hardware attempts).
    fn clear_slots(&self) {
        let (plane, me) = (self.rt.plane(), self.thread.id);
        for slot in self.d.write_slots.iter() {
            plane.clear_write(slot, me);
        }
        for slot in self.d.read_slots.iter() {
            plane.clear_read(slot, me);
        }
    }

    /// Rolls the attempt back.  Safe to call more than once.  Serial attempts
    /// release the fallback lock.
    pub fn rollback(&mut self) {
        if !self.live {
            return;
        }
        self.live = false;
        if self.hardware {
            self.clear_slots();
            self.thread.take_doomed();
        } else {
            for e in self.d.writes.iter().rev() {
                self.rt.system().heap.store(e.addr, e.val);
            }
            self.rt.release_serial();
        }
        for &(addr, words) in &self.d.mallocs {
            self.rt.system().heap.dealloc_for(self.thread, addr, words);
        }
        self.d.reset(&self.thread.stats);
    }

    /// Attempts to commit.  On failure the caller must call
    /// [`HtmTx::rollback`].
    pub fn try_commit(&mut self) -> Result<CommitOutcome, TxCtl> {
        let was_writer = !self.d.writes.is_empty();
        // A hardware commit finishes under the commit barrier; a serial one
        // under the serial lock.
        let barrier = if self.hardware {
            Some(self.commit_hardware(was_writer)?)
        } else {
            None
        };
        for &(addr, words) in &self.d.frees {
            self.rt.system().heap.dealloc_for(self.thread, addr, words);
        }
        self.d.reset(&self.thread.stats);
        self.live = false;
        Ok(if self.hardware {
            drop(barrier);
            CommitOutcome::hardware(was_writer)
        } else {
            self.rt.release_serial();
            CommitOutcome::serial(was_writer)
        })
    }

    /// The hardware commit window: doom check, orec coupling, write-back,
    /// directory clear, and the stripe cover for the wake path.  Returns the
    /// commit barrier it took.
    fn commit_hardware(&mut self, was_writer: bool) -> Result<MutexGuard<'a, ()>, TxCtl> {
        let rt = self.rt;
        let system: &TmSystem = rt.system();
        // The doom check and the write-back must be one atomic step
        // with respect to other commits and to serial-lock
        // acquisition (on real hardware the coherence protocol
        // guarantees this); otherwise two mutually conflicting
        // transactions can both pass their doom checks and interleave
        // write-backs, losing updates.  A hybrid runtime's software
        // write-backs take the same barrier (`commit_barrier`).
        let commit_guard = rt.commit_barrier();
        if self.thread.is_doomed() {
            drop(commit_guard);
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        // The backend's commit-window check: past the doom check,
        // before anything is written, so an abort here (a fault
        // plane's injection point) can never lose an update.
        let plane = rt.plane().as_ref();
        let me = self.thread.id;
        if let Err(f) = plane.commit_check(me) {
            drop(commit_guard);
            return Err(hw_fault(self.thread, f));
        }
        let Descriptor {
            writes: redo,
            cover,
            ..
        } = &mut *self.d;
        // Hybrid coupling: publish this commit through the software
        // STM's metadata, with the *same* protocol a software
        // committer uses.  Every stripe covering a written line is
        // CAS-acquired (abort on any stripe a software commit
        // already holds — overlapping data is mid-commit), held
        // across the write-back, and released at a freshly ticked
        // clock value after it.  Holding the locks is what makes
        // the write-back opaque to software readers: a validated
        // read can never interleave with it, and any transaction
        // that began before the release observes the new version
        // and aborts rather than mixing old and new values.  An
        // acquisition failure releases the acquired prefix at its
        // original versions and aborts before memory is touched.
        let coupled = was_writer && rt.orec_coupled();
        if coupled {
            written_cover(plane, redo, cover);
            for (k, &idx) in cover.iter().enumerate() {
                let cur = system.orecs.load(idx);
                let ok = !cur.is_locked()
                    && system
                        .orecs
                        .cas(idx, cur, OrecValue::locked(cur.version(), me));
                if !ok {
                    for &held in &cover[..k] {
                        let c = system.orecs.load(held);
                        system.orecs.store(held, OrecValue::unlocked(c.version()));
                    }
                    return Err(TxCtl::Abort(AbortReason::HwConflict));
                }
            }
        }
        // Write back the buffered stores.  All conflicting in-flight
        // transactions were doomed when we registered as writer of
        // their lines, and our writer registrations are still in
        // place, so no new reader can adopt a partial view without
        // observing the conflict.
        for e in redo.iter() {
            system.heap.store(e.addr, e.val);
        }
        if coupled {
            // Release the coupled stripes at a fresh commit timestamp,
            // making the hardware write-back visible to software read
            // validation exactly like a software commit's.  The stamp is
            // taken while the whole CAS cover is held (the ordering the
            // lazy clock plane's soundness requires), and the epoch is
            // published only after every stripe is released.
            let stamp = system.clock.commit_stamp(&self.thread.stats);
            for &idx in cover.iter() {
                system.orecs.store(idx, OrecValue::unlocked(stamp.ts));
            }
            self.thread.publish_epoch(stamp.ts);
        } else if was_writer && !system.waiters.is_empty() {
            // Map the committed cache lines back to orec stripes for the
            // targeted post-commit wake scan (the word-level write set is
            // architecturally invisible; the line cover is a superset) —
            // but only if someone is actually waiting, so the common
            // no-sleeper case pays one atomic load and nothing else.
            // A waiter that registers after this check double-checks its
            // condition after registering, and the write-back above is
            // already complete, so no wakeup is lost.  (The coupled path
            // already left the cover in place.)
            written_cover(plane, redo, cover);
        } else {
            cover.clear();
        }
        self.clear_slots();
        Ok(commit_guard)
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request.  Only meaningful for serial attempts (hardware attempts are
    /// switched to the serial mode by the driver before descheduling).
    pub fn rollback_for_deschedule(&mut self, spec: WaitSpec) -> Result<WaitCondition, TxCtl> {
        match spec {
            WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => {
                let pairs = self.d.waitset.drain_pairs();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => {
                // Record the write-set high-water mark now: the undo log is
                // drained below, before `rollback` can observe its size.
                TxStats::record_max(&self.thread.stats.write_set_max, self.d.writes.len() as u64);
                // Undo our writes first so the captured snapshot reflects the
                // pre-transaction state; as the serial-lock holder we are the
                // only transaction running, so plain loads are consistent.
                if !self.hardware {
                    for e in self.d.writes.iter().rev() {
                        self.rt.system().heap.store(e.addr, e.val);
                    }
                    self.d.writes.clear();
                }
                let pairs = addrs
                    .iter()
                    .map(|&a| (a, self.rt.system().heap.load(a)))
                    .collect();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Pred { f, args } => {
                self.rollback();
                Ok(WaitCondition::Pred { f, args })
            }
        }
    }
}

impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        // Defensive: never leak the serial lock or stale line registrations
        // if a body panics.
        self.rollback();
    }
}

impl Tx for HtmTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if addr.index() >= self.rt.system().heap.len() {
            // A zombie transaction may compute a garbage address; turn that
            // into an abort instead of a panic.
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if !self.hardware {
            let val = self.rt.system().heap.load(addr);
            self.retry_log(addr, val);
            return Ok(val);
        }
        if self.rt.fallback_held() {
            return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
        }
        // Read-your-writes from the buffered store, O(1) by hash index.
        if let Some(v) = self.d.writes.lookup(addr) {
            return Ok(v);
        }
        let plane = self.rt.plane();
        let line = addr.line();
        let slot = plane.slot_for(line);
        if let Err(f) = plane.read_line(line, slot, self.thread.id) {
            // A conflicting speculative writer has been doomed by the backend
            // (our coherence request invalidates its line); we abort as well
            // rather than consuming a possibly torn value.
            return Err(hw_fault(self.thread, f));
        }
        if self.d.read_slots.insert(slot) {
            if let Err(f) = plane.check_read_footprint(self.d.read_slots.len()) {
                return Err(hw_fault(self.thread, f));
            }
        }
        let val = self.rt.system().heap.load(addr);
        // The doom check must follow the load: a conflicting writer dooms
        // its readers (release) before its first store, so a load that
        // observes a post-commit word (acquire) also observes the doom, and
        // the body never sees that word next to pre-commit ones.
        if self.thread.is_doomed() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        Ok(val)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if addr.index() >= self.rt.system().heap.len() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if !self.hardware {
            let old = self.rt.system().heap.load(addr);
            // First write per address keeps the pre-transaction value.
            self.d.writes.record_first(addr, old, || 0);
            self.rt.system().heap.store(addr, val);
            return Ok(());
        }
        if self.thread.is_doomed() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if self.rt.fallback_held() {
            return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
        }
        let plane = self.rt.plane();
        let line = addr.line();
        let slot = plane.slot_for(line);
        // The backend registers us as the line's writer, dooming
        // every conflicting speculative occupant; a conflict abort
        // means a foreign writer could not be displaced.
        if let Err(f) = plane.write_line(line, slot, self.thread.id) {
            return Err(hw_fault(self.thread, f));
        }
        if self.d.write_slots.insert(slot) {
            if let Err(f) = plane.check_write_footprint(self.d.write_slots.len()) {
                return Err(hw_fault(self.thread, f));
            }
        }
        // Buffer the store.  The HTM never consults ownership
        // records and nothing reads this log's cover (commit maps
        // written *lines* to stripes), so the cached index is left
        // degenerate rather than maintained for nobody.
        self.d.writes.record(addr, val, || 0);
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        match self.rt.system().heap.alloc_for(self.thread, words) {
            Some(addr) => {
                self.d.mallocs.push((addr, words));
                Ok(addr)
            }
            None => Err(TxCtl::Abort(AbortReason::OutOfMemory)),
        }
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        self.d.frees.push((addr, words));
        Ok(())
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        let info = self.try_commit()?;
        let stats = &self.thread.stats;
        if info.hardware {
            TxStats::bump(&stats.hw_commits);
        } else {
            TxStats::bump(&stats.sw_commits);
        }
        if info.serial {
            TxStats::bump(&stats.serial_commits);
        }
        block();
        // Begin the continuation transaction in the same flavour, on the
        // committed attempt's (emptied) logs.
        self.enter();
        Ok(())
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
        self.rt.system()
    }

    fn thread(&self) -> &Arc<ThreadCtx> {
        self.thread
    }
}
