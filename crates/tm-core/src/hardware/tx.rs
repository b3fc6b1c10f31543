//! The attempt types of the two hardware engines.
//!
//! [`HtmTx`] is a **hardware** attempt: speculative, redo-buffered writes,
//! line-granularity conflict detection, capacity limits, no escape actions.
//! Everything a hardware attempt cannot do — value logging, descheduling,
//! irrevocability, finishing after repeated aborts — runs on a software
//! rung, which is a [`crate::software::LazyTx`]: instrumented on the
//! hybrid, behind the serial gate ([`crate::serial::SerialAttempt`], the
//! "software mode with escape actions" of §2.2.2 and GCC-style
//! serial-irrevocable execution) on both.  [`LadderTx`] is the one attempt
//! type of both engines: whichever rung the attempt is on.

use std::sync::Arc;

use super::directory::{Directory, HwAbort};
use super::runtime::HtmSim;
use crate::access::{Descriptor, WriteLog};
use crate::addr::Addr;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitCondition, WaitSpec};
use crate::driver::{deschedule_until, wake_after_commit, Attempt, CommitOutcome};
use crate::orec::{OrecTable, OrecValue};
use crate::runtime::TmRuntime;
use crate::software::LazyTx;
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon};

/// Converts a directory abort into the attempt's abort reason, counting
/// injected faults as they surface.
fn hw_fault(thread: &ThreadCtx, fault: HwAbort) -> AbortReason {
    if fault.injected {
        TxStats::bump(&thread.stats.hw_faults_injected);
    }
    fault.kind.reason()
}

/// Writes the stripes of the words `redo` wrote into `cover`, sorted and
/// distinct: the cover a software committer locks for the same write set.
fn word_cover(orecs: &OrecTable, redo: &WriteLog, cover: &mut Vec<usize>) {
    cover.clear();
    cover.extend(redo.iter().map(|e| orecs.index_for(e.addr)));
    cover.sort_unstable();
    cover.dedup();
}

/// Writes the stripe cover of the cache lines `redo` wrote (a superset of
/// the written words' stripes) into `cover`, sorted and distinct — all an
/// uncoupled HTM, whose word-level write set is architecturally invisible,
/// can report to the wake scan.
fn written_cover(dir: &Directory, redo: &WriteLog, cover: &mut Vec<usize>) {
    cover.clear();
    let mut last = None;
    for e in redo.iter() {
        let line = e.addr.line();
        // Runs of writes to one line are the common case; the final dedup
        // absorbs the rest.
        if last != Some(line) {
            dir.line_cover(line, cover);
            last = Some(line);
        }
    }
    cover.sort_unstable();
    cover.dedup();
}

/// An in-flight speculative attempt on the HTM simulator; dropping it
/// without committing rolls it back.
///
/// It owns no log: the borrowed thread [`Descriptor`] holds them
/// (`crate::access`, so slot membership and read-after-write lookups are
/// O(1) and a re-executed attempt starts on grown capacity): `read_slots` /
/// `write_slots` (directory slots registered as read / written) and `writes`
/// as its redo buffer (one entry per address, last value wins).
#[derive(Debug)]
pub struct HtmTx<'a> {
    rt: &'a HtmSim,
    /// The runtime that began the attempt — `rt`, or the hybrid around it:
    /// a [`Tx::commit_and_wait`] sleeps on it.
    engine: &'a dyn TmRuntime,
    thread: &'a Arc<ThreadCtx>,
    d: &'a mut Descriptor,
    common: TxCommon,
}

impl<'a> HtmTx<'a> {
    /// Begins a new speculative attempt of `thread` on `rt`, for `engine`,
    /// on the empty logs of `d`, once the serial gate is free (lock-elision
    /// subscription).
    pub fn begin(
        rt: &'a HtmSim,
        engine: &'a dyn TmRuntime,
        thread: &'a Arc<ThreadCtx>,
        d: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self {
        let tx = HtmTx {
            rt,
            engine,
            thread,
            d,
            common,
        };
        tx.enter();
        tx
    }

    /// Starts (or, after `commit_and_wait`, restarts) the attempt.
    fn enter(&self) {
        self.rt.system().serial.wait_clear();
        // A stale doom flag from a previous attempt must not kill this one.
        self.thread.take_doomed();
    }

    /// Clears this attempt's directory registrations.
    fn clear_slots(&self) {
        let (dir, me) = (self.rt.directory(), self.thread.id);
        for slot in self.d.write_slots.iter() {
            dir.clear_write(slot, me);
        }
        for slot in self.d.read_slots.iter() {
            dir.clear_read(slot, me);
        }
    }

    /// Commits the attempt; on `Err` it has already been rolled back.
    pub fn try_commit(mut self) -> Result<CommitOutcome, AbortReason> {
        let outcome = self.commit()?;
        // Committed: there is nothing left to roll back.
        std::mem::forget(self);
        Ok(outcome)
    }

    /// Commits in place, leaving the attempt ended on `Ok` and still to be
    /// rolled back on `Err`.
    fn commit(&mut self) -> Result<CommitOutcome, AbortReason> {
        let was_writer = !self.d.writes.is_empty();
        self.commit_hardware(was_writer)?;
        for &(addr, words) in &self.d.frees {
            self.rt.system().heap.dealloc_for(self.thread, addr, words);
        }
        self.d.reset(&self.thread.stats);
        Ok(CommitOutcome::hardware(was_writer))
    }

    /// The hardware commit window: doom check, orec coupling, write-back,
    /// directory clear, and the stripe cover for the wake path, all inside
    /// the gate's hardware commit section.
    fn commit_hardware(&mut self, was_writer: bool) -> Result<(), AbortReason> {
        let rt = self.rt;
        let system: &TmSystem = rt.system();
        // The doom check and the write-back must be one atomic step
        // with respect to other commits and to serial-gate
        // acquisition (on real hardware the coherence protocol
        // guarantees this); otherwise two mutually conflicting
        // transactions can both pass their doom checks and interleave
        // write-backs, losing updates.  A hybrid runtime's software
        // write-backs enter the same section.
        let _section = system.serial.hw_commit_section();
        if self.thread.is_doomed() {
            return Err(AbortReason::HwConflict);
        }
        // The directory's commit-window check: past the doom check,
        // before anything is written, so an abort here (a fault
        // injection point) can never lose an update.
        let dir = rt.directory();
        let me = self.thread.id;
        if let Err(f) = dir.commit_check(me) {
            return Err(hw_fault(self.thread, f));
        }
        let Descriptor {
            writes: redo,
            cover,
            ..
        } = &mut *self.d;
        // Hybrid coupling: publish this commit through the software
        // STM's metadata, with the *same* protocol a software
        // committer uses, over the same cover: the stripes of the
        // written words (word-disjoint writers of one line are the
        // directory's business, not the orecs').  Every such stripe is
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
            word_cover(&system.orecs, redo, cover);
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
                    return Err(AbortReason::HwConflict);
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
            written_cover(dir, redo, cover);
        } else {
            cover.clear();
        }
        self.clear_slots();
        Ok(())
    }
}

/// The rollback of an attempt that did not commit: its directory
/// registrations are cleared, a doom aimed at it is consumed, its
/// allocations are freed and its logs emptied.
impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        self.clear_slots();
        self.thread.take_doomed();
        for &(addr, words) in &self.d.mallocs {
            self.rt.system().heap.dealloc_for(self.thread, addr, words);
        }
        self.d.reset(&self.thread.stats);
    }
}

impl Tx for HtmTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if addr.index() >= self.rt.system().heap.len() {
            // A zombie transaction may compute a garbage address; turn that
            // into an abort instead of a panic.
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if self.rt.system().serial.held() {
            return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
        }
        // Read-your-writes from the buffered store, O(1) by hash index.
        if let Some(v) = self.d.writes.lookup(addr) {
            return Ok(v);
        }
        let dir = self.rt.directory();
        let line = addr.line();
        let slot = dir.slot_for(line);
        // Only the first touch of a line goes to the directory; a line this
        // attempt already registered (as writer, which subsumes reader) is a
        // cache hit.  The registration stands until `clear_slots`, so any
        // conflicting party that arrives later finds it and dooms us, which
        // the check after the load observes.
        if !self.d.write_slots.contains(slot) && self.d.read_slots.insert(slot) {
            if let Err(f) = dir.read_line(line, slot, self.thread.id) {
                // A conflicting speculative writer has been doomed by the
                // directory (our coherence request invalidates its line); we
                // abort as well rather than consuming a possibly torn value.
                return Err(hw_fault(self.thread, f).into());
            }
            if let Err(f) = dir.check_footprint(false, self.d.read_slots.len()) {
                return Err(hw_fault(self.thread, f).into());
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
        if self.thread.is_doomed() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if self.rt.system().serial.held() {
            return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
        }
        let dir = self.rt.directory();
        let line = addr.line();
        let slot = dir.slot_for(line);
        // First write to the line: the directory registers us as its
        // writer, dooming every conflicting speculative occupant; a
        // conflict abort means a foreign writer could not be displaced.
        // Later writes hit the resident line: whoever displaces the
        // registration dooms us, which the commit section checks.
        if self.d.write_slots.insert(slot) {
            if let Err(f) = dir.write_line(line, slot, self.thread.id) {
                return Err(hw_fault(self.thread, f).into());
            }
            if let Err(f) = dir.check_footprint(true, self.d.write_slots.len()) {
                return Err(hw_fault(self.thread, f).into());
            }
        }
        // Buffer the store.  Nothing reads this log's cover (commit
        // derives its stripes from the entries: their words when
        // orec-coupled, their lines otherwise), so the cached index is
        // left degenerate rather than maintained for nobody.
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

    fn commit_and_wait(&mut self, condition: WaitCondition) -> TxResult<()> {
        // The commit clears every directory slot, so the sleep holds none.
        let outcome = self.commit()?;
        TxStats::bump(&self.thread.stats.hw_commits);
        if outcome.was_writer {
            wake_after_commit(self.engine, self.thread, outcome.serial, &mut self.d.cover);
        }
        deschedule_until(self.engine, self.thread, condition, None);
        // Begin the continuation transaction, speculative again, on the
        // committed attempt's (emptied) logs.
        self.enter();
        Ok(())
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

/// One in-flight attempt of a hardware engine ([`HtmSim`],
/// [`super::HybridTm`]): speculative, or on a software rung.
//
// The variants differ in size, but the attempt lives on the driver loop's
// stack and is rebuilt on every re-execution — boxing the software variant
// would put a heap allocation on exactly the path the per-thread descriptor
// keeps allocation-free.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum LadderTx<'a> {
    /// Hardware (speculative) attempt.
    Hw(HtmTx<'a>),
    /// Software attempt: instrumented (plain or value-logging) or serial.
    Sw(LazyTx<'a>),
}

macro_rules! delegate {
    ($self:ident, $tx:ident => $body:expr) => {
        match $self {
            LadderTx::Hw($tx) => $body,
            LadderTx::Sw($tx) => $body,
        }
    };
}

impl Attempt for LadderTx<'_> {
    // A hardware commit leaves a stripe cover of its writes in the
    // descriptor — the written words' stripes when orec-coupled, else those
    // of the written cache lines (a superset) — so the wake scan can be
    // targeted even where orecs were never touched; a serial commit has no
    // metadata at all and reports `serial`, which wakes every shard.
    fn try_commit(self) -> Result<CommitOutcome, AbortReason> {
        delegate!(self, tx => tx.try_commit())
    }

    /// Only a software attempt can serve a deschedule request: the driver
    /// re-executes a descheduling hardware attempt in software first.
    fn rollback_for_deschedule(self, spec: WaitSpec) -> Result<WaitCondition, AbortReason> {
        match self {
            LadderTx::Hw(_) => unreachable!("hardware attempts have no escape actions"),
            LadderTx::Sw(tx) => tx.rollback_for_deschedule(spec),
        }
    }
}

impl Tx for LadderTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        delegate!(self, tx => tx.read(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        delegate!(self, tx => tx.write(addr, val))
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        delegate!(self, tx => tx.read_for_write(addr))
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        delegate!(self, tx => tx.alloc(words))
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        delegate!(self, tx => tx.free(addr, words))
    }

    fn commit_and_wait(&mut self, condition: WaitCondition) -> TxResult<()> {
        delegate!(self, tx => tx.commit_and_wait(condition))
    }

    fn common(&self) -> &TxCommon {
        delegate!(self, tx => tx.common())
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        delegate!(self, tx => tx.common_mut())
    }

    fn system(&self) -> &Arc<TmSystem> {
        delegate!(self, tx => tx.system())
    }

    fn thread(&self) -> &Arc<ThreadCtx> {
        delegate!(self, tx => tx.thread())
    }
}
