//! The system-wide serial/irrevocable gate and the shared serial attempt.
//!
//! * [`SerialGate`] — one flag per [`crate::system::TmSystem`] that every
//!   engine honors, plus the hardware commit barrier.  Hardware transactions
//!   subscribe to the flag as lock-elided transactions subscribe to a
//!   fallback lock (refuse to start / abort while it is held) and commit inside
//!   [`SerialGate::hw_commit_section`]; software transactions re-check the
//!   flag after publishing their start time.  The acquirer dooms every
//!   in-flight hardware attempt, quiesces every in-flight software attempt
//!   and drains the commit barrier before entering its serial section, so
//!   the holder runs truly alone whichever engine it came from.
//! * [`SerialAttempt`] — the one serial attempt shape of all four runtimes:
//!   direct heap access (no ownership records, no read set) with an undo log
//!   kept only so condition synchronization can still roll the attempt back
//!   and capture a wait condition.
//!
//! The acquisition protocol is a Dekker-style store/load handshake with the
//! per-thread published start times (see [`crate::thread::ThreadCtx`]):
//!
//! ```text
//!   acquirer                        software attempt
//!   ────────                        ────────────────
//!   flag.swap(true)   (SeqCst)      enter_tx(start)   (then SeqCst fence)
//!   fence(SeqCst)                   if gate.held() { exit_tx; wait; retry }
//!   wait: ∀ other t,
//!     t.published_start == NOT_IN_TX
//! ```
//!
//! Either the attempt sees the flag (and backs out), or the acquirer sees the
//! published start (and waits it out); both running concurrently is
//! impossible.  Hardware attempts never publish a start time — for them the
//! gate's doom sweep plus its drain of the commit barrier play the same role.
//!
//! Releasing the gate ticks the global clock (a "clock fence"): transactions
//! that begin after a serial section observe a commit event, so no
//! version-based fast path can conclude that nothing happened while they
//! were excluded.

use std::mem::take;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use crate::access::{Descriptor, WriteLog};
use crate::addr::Addr;
use crate::backoff::SpinWait;
use crate::ctl::{TxCtl, WaitCondition, WaitSpec};
use crate::driver::CommitOutcome;
use crate::lock::{Mutex, MutexGuard};
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::{ThreadCtx, NOT_IN_TX};

/// The system-wide serial/irrevocable flag, honored by every engine, and the
/// hardware commit barrier its acquisition drains.
///
/// Doubles as the HTM fallback lock's subscription word: hardware
/// transactions check [`SerialGate::held`] before starting and on every
/// access, exactly as lock-elided transactions subscribe to the fallback
/// lock on real hardware.
#[derive(Debug, Default)]
pub struct SerialGate {
    flag: AtomicBool,
    /// Serialises hardware commits (doom check + redo write-back + directory
    /// clear) against each other, against a hybrid runtime's software
    /// write-backs and against gate acquisition.  On real hardware a
    /// transactional commit is atomic at the coherence layer; without this
    /// lock a conflicting commit (or a serial section's direct stores) could
    /// interleave between a transaction's final doom check and its
    /// write-back, losing updates.
    hw_commit: Mutex<()>,
    /// Serial sections that committed a write, bumped before release: how a
    /// `Retry-Orig` sleeper ([`crate::WaitCondition::LocksMoved`]) sees them.
    writer_commits: AtomicU64,
}

impl SerialGate {
    /// Creates a released gate.
    pub fn new() -> Self {
        SerialGate::default()
    }

    /// True while some transaction runs serially.
    #[inline]
    pub fn held(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// How many serial sections have committed a write; while an attempt's
    /// start is published no serial section runs, so it reads its begin's.
    pub(crate) fn writer_commits(&self) -> u64 {
        self.writer_commits.load(Ordering::SeqCst)
    }

    /// Spins until the gate is free (the hardware-transaction subscription,
    /// and the software engines' begin-time courtesy wait).
    pub fn wait_clear(&self) {
        let mut spin = SpinWait::new();
        while self.held() {
            spin.pause();
        }
    }

    /// Enters the hardware commit section: every hardware commit's doom
    /// check + write-back, and every software write-back of a runtime that
    /// shares the system with hardware attempts (the hybrid's lazy commit),
    /// runs under this guard.
    pub fn hw_commit_section(&self) -> MutexGuard<'_, ()> {
        self.hw_commit.lock()
    }

    /// Acquires the gate for `thread` and excludes every other transaction:
    ///
    /// 1. spins until the flag CAS succeeds (one serial holder at a time),
    /// 2. dooms every other thread's in-flight *hardware* transaction (the
    ///    coherence-triggered abort acquiring the fallback lock causes on
    ///    real hardware; harmless for software threads),
    /// 3. quiesces every other thread's in-flight *software* transaction by
    ///    waiting for its published start time to clear,
    /// 4. drains the hardware commit section.
    fn acquire(&self, system: &TmSystem, thread: &ThreadCtx) {
        let mut spin = SpinWait::new();
        while self
            .flag
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            spin.pause();
        }
        TxStats::bump(&thread.stats.serial_acquires);
        // The flag store above must be ordered before the published-start
        // loads below (the other half of the Dekker handshake is in the
        // software engines' begin paths).
        fence(Ordering::SeqCst);
        system.threads.for_each_other(thread.id, |t| t.doom());
        // Quiesce over the padded epoch table: lock-free, allocation-free,
        // one isolated line per thread polled (same plane privatization
        // quiescence scans).
        let epochs = system.threads.epochs();
        for id in 0..epochs.len() {
            if id == thread.id {
                continue;
            }
            let slot = epochs.slot(id);
            let mut spin = SpinWait::new();
            while slot.start() != NOT_IN_TX {
                spin.pause();
            }
        }
        // Wait out any hardware commit that passed its doom check before the
        // dooms above landed: once the section has been entered and left,
        // every in-flight write-back has finished and every later hardware
        // commit observes its doom flag and aborts.  Without this the serial
        // section's direct stores could interleave with a lagging
        // speculative write-back.
        drop(self.hw_commit_section());
    }

    /// Releases the gate, ticking the global clock so later transactions see
    /// a commit event for the serial section (the "clock fence").
    fn release(&self, system: &TmSystem) {
        system.clock.tick();
        self.flag.store(false, Ordering::SeqCst);
    }

    /// Software engines call this after publishing a start time: if the gate
    /// was taken concurrently, the attempt must back out (exit the published
    /// transaction) and wait, because the gate holder may already have
    /// missed it in the quiescence sweep.
    #[inline]
    pub fn must_back_out(&self) -> bool {
        // Pairs with the fence in `acquire`: the caller's `enter_tx` store
        // must be ordered before this load.
        fence(Ordering::SeqCst);
        self.held()
    }
}

/// Publishes a software attempt's start time while honoring the serial
/// gate: waits for the gate to clear, samples the clock, publishes via
/// [`ThreadCtx::enter_tx`], then re-checks the gate (the attempt's half of
/// the Dekker handshake with [`SerialAttempt::begin`]).  Returns the sampled
/// start time; on return the attempt may run — any gate acquirer from here
/// on will quiesce on the published start.
pub fn subscribe_begin(system: &TmSystem, thread: &ThreadCtx) -> u64 {
    loop {
        system.serial.wait_clear();
        let start = system.clock.now();
        thread.enter_tx(start);
        if !system.serial.must_back_out() {
            return start;
        }
        thread.exit_tx();
    }
}

/// One serial (irrevocable) attempt: direct heap access while holding the
/// [`SerialGate`].
///
/// No ownership records are read or written and no read set is kept — the
/// gate's acquisition guarantees the holder runs alone, which is what makes
/// serial mode a guaranteed-progress path for transactions that keep losing
/// (or that requested irrevocability via `TxCtl::BecomeSerial`), and the
/// "software mode with escape actions" a descheduling hardware transaction
/// re-executes in (§2.2.2).  The undo log exists only so the attempt can
/// still be rolled back when the body requests a deschedule or an explicit
/// abort.  Its three logs are the thread descriptor's `writes`, `mallocs`
/// and `frees`, taken at begin and handed back when the attempt ends — so a
/// warm serial attempt allocates nothing, and dropping one that never ended
/// (a panicking body) can still undo and release without the descriptor.
#[derive(Debug)]
pub struct SerialAttempt<'a> {
    system: &'a TmSystem,
    thread: &'a ThreadCtx,
    /// Old values of written locations, one entry per address (first write
    /// wins, as in the eager STM's undo log).
    undo: WriteLog,
    /// True from begin until the attempt commits or rolls back.
    holding: bool,
    mallocs: Vec<(Addr, usize)>,
    frees: Vec<(Addr, usize)>,
}

impl<'a> SerialAttempt<'a> {
    /// Acquires the gate and begins a serial attempt for `thread` on the
    /// (empty) logs of `d`.
    pub fn begin(system: &'a TmSystem, thread: &'a ThreadCtx, d: &mut Descriptor) -> Self {
        system.serial.acquire(system, thread);
        SerialAttempt {
            system,
            thread,
            undo: take(&mut d.writes),
            holding: true,
            mallocs: take(&mut d.mallocs),
            frees: take(&mut d.frees),
        }
    }

    /// Reads the word at `addr` directly.
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.system.heap.load(addr)
    }

    /// The pre-transaction value of `addr` if this attempt has written it
    /// (substituted into the `Retry` value log, as Algorithm 5 does with the
    /// undo log).
    #[inline]
    pub fn undo_lookup(&self, addr: Addr) -> Option<u64> {
        self.undo.lookup(addr)
    }

    /// Writes `val` to `addr` in place, logging the old value once.
    pub fn write(&mut self, addr: Addr, val: u64) {
        let old = self.system.heap.load(addr);
        self.undo.record_first(addr, old, || 0);
        self.system.heap.store(addr, val);
    }

    /// Allocates `words` heap words, undone on rollback.  `None` when the
    /// allocator is exhausted (the caller converts that to `OutOfMemory`).
    pub fn alloc(&mut self, words: usize) -> Option<Addr> {
        let addr = self.system.heap.alloc_for(self.thread, words)?;
        self.mallocs.push((addr, words));
        Some(addr)
    }

    /// Defers freeing `words` words at `addr` until commit.
    pub fn free(&mut self, addr: Addr, words: usize) {
        self.frees.push((addr, words));
    }

    /// Restores the pre-transaction values, newest write first.
    fn undo_writes(&self) {
        for e in self.undo.iter().rev() {
            self.system.heap.store(e.addr, e.val);
        }
    }

    fn dealloc_all(&self, blocks: &[(Addr, usize)]) {
        for &(addr, words) in blocks {
            self.system.heap.dealloc_for(self.thread, addr, words);
        }
    }

    /// Ends the attempt: hands the logs back to `d` — whose reset records
    /// the write-set high-water mark and empties them — and releases the
    /// gate.
    fn end(&mut self, d: &mut Descriptor) {
        d.writes = take(&mut self.undo);
        d.mallocs = take(&mut self.mallocs);
        d.frees = take(&mut self.frees);
        d.reset(&self.thread.stats);
        self.holding = false;
        self.system.serial.release(self.system);
    }

    /// Rolls the attempt back: undoes writes in reverse order, undoes
    /// allocations, releases the gate.  Safe to call more than once.
    pub fn rollback(&mut self, d: &mut Descriptor) {
        if self.holding {
            self.undo_writes();
            self.dealloc_all(&self.mallocs);
            self.end(d);
        }
    }

    /// Commits the attempt: finalizes deferred frees and releases the gate.
    /// Serial commits carry no metadata, so the outcome tells the wake path
    /// to scan conservatively.
    pub fn commit(&mut self, d: &mut Descriptor) -> CommitOutcome {
        let was_writer = !self.undo.is_empty();
        if was_writer {
            let commits = &self.system.serial.writer_commits;
            commits.fetch_add(1, Ordering::SeqCst);
        }
        self.dealloc_all(&self.frees);
        self.end(d);
        CommitOutcome::serial(was_writer)
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request, mirroring the instrumented engines' rollback paths
    /// (`d.waitset` is the attempt's `Retry` value log).  The writes are
    /// undone first, so an `Addrs` capture reflects the pre-transaction
    /// state; as the gate holder runs alone, plain loads are a consistent
    /// snapshot.
    pub fn rollback_for_deschedule(
        &mut self,
        spec: WaitSpec,
        d: &mut Descriptor,
    ) -> Result<WaitCondition, TxCtl> {
        debug_assert!(self.holding, "deschedule of an ended serial attempt");
        self.undo_writes();
        let cond = match spec {
            WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => {
                WaitCondition::ValuesChanged(d.waitset.drain_pairs())
            }
            WaitSpec::Addrs(addrs) => WaitCondition::ValuesChanged(
                addrs
                    .iter()
                    .map(|&a| (a, self.system.heap.load(a)))
                    .collect(),
            ),
            WaitSpec::Pred { f, args } => WaitCondition::Pred { f, args },
        };
        self.dealloc_all(&self.mallocs);
        self.end(d);
        Ok(cond)
    }
}

impl Drop for SerialAttempt<'_> {
    fn drop(&mut self) {
        // Defensive: never leak the gate (or half a transaction's writes) if
        // a body panics mid-attempt.
        if self.holding {
            self.undo_writes();
            self.dealloc_all(&self.mallocs);
            self.system.serial.release(self.system);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;
    use std::sync::Arc;

    #[test]
    fn gate_round_trip() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut d = Descriptor::default();
        assert!(!system.serial.held());
        let mut s = SerialAttempt::begin(&system, &th, &mut d);
        assert!(system.serial.held());
        let before = system.clock.now();
        s.commit(&mut d);
        assert!(!system.serial.held());
        assert!(system.clock.now() > before, "release must fence the clock");
        assert_eq!(th.stats.snapshot().serial_acquires, 1);
    }

    #[test]
    fn acquire_quiesces_in_flight_software_transactions() {
        let system = TmSystem::new(TmConfig::small());
        let me = system.register_thread();
        let other = system.register_thread();
        other.enter_tx(3);
        let other2 = Arc::clone(&other);
        let system2 = Arc::clone(&system);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            system2.heap.store(Addr(1), 1);
            other2.exit_tx();
        });
        let mut d = Descriptor::default();
        let mut s = SerialAttempt::begin(&system, &me, &mut d);
        assert_eq!(
            s.read(Addr(1)),
            1,
            "acquire returned before the in-flight transaction exited"
        );
        assert!(other.is_doomed(), "acquire dooms in-flight hardware work");
        s.commit(&mut d);
        h.join().unwrap();
    }

    #[test]
    fn serial_attempt_commits_writes_in_place() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let mut s = SerialAttempt::begin(&system, &th, &mut d);
        assert!(system.serial.held());
        s.write(Addr(5), 42);
        assert_eq!(s.read(Addr(5)), 42);
        assert_eq!(system.heap.load(Addr(5)), 42, "serial writes are direct");
        let outcome = s.commit(&mut d);
        assert!(outcome.was_writer);
        assert!(outcome.serial);
        assert!(!outcome.hardware);
        assert!(!system.serial.held(), "commit releases the gate");
        assert_eq!(th.stats.snapshot().write_set_max, 1);
        assert!(
            d.writes.is_empty() && d.writes.capacity() > 0,
            "the lent log comes back emptied, capacity kept"
        );
    }

    #[test]
    fn serial_attempt_rollback_restores_and_releases() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(7), 9);
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let mut s = SerialAttempt::begin(&system, &th, &mut d);
        s.write(Addr(7), 100);
        s.write(Addr(7), 200);
        let a = s.alloc(4).unwrap();
        assert!(!a.is_null());
        s.rollback(&mut d);
        assert_eq!(system.heap.load(Addr(7)), 9, "first-write-wins undo");
        assert!(!system.serial.held());
        // Idempotent.
        s.rollback(&mut d);
        assert_eq!(system.heap.load(Addr(7)), 9);
        assert!(
            d.writes.capacity() > 0,
            "a second rollback hands nothing back"
        );
    }

    #[test]
    fn serial_attempt_drop_releases_the_gate() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        {
            let mut s = SerialAttempt::begin(&system, &th, &mut Descriptor::default());
            s.write(Addr(3), 1);
            // Dropped without commit or rollback (panic path).
        }
        assert!(!system.serial.held());
        assert_eq!(system.heap.load(Addr(3)), 0, "drop rolls the writes back");
    }

    #[test]
    fn deschedule_capture_reflects_pre_transaction_state() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(20), 5);
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let mut s = SerialAttempt::begin(&system, &th, &mut d);
        s.write(Addr(20), 6);
        let cond = s
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]), &mut d)
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => assert_eq!(pairs, vec![(Addr(20), 5)]),
            other => panic!("unexpected condition {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5);
        assert!(!system.serial.held());
    }
}
