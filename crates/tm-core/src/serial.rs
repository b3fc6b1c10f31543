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
//! * [`SerialAttempt`] — the gate held by the one serial attempt shape of
//!   all four runtimes: a [`crate::software::SoftwareTx`] with direct heap
//!   access (no ownership records, no read set) and an undo log, kept only
//!   so condition synchronization can still roll the attempt back and
//!   capture a wait condition.
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

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use crate::backoff::SpinWait;
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

/// The [`SerialGate`] as held by one serial (irrevocable) attempt, from
/// [`SerialAttempt::begin`] until the attempt commits or is dropped.
///
/// The attempt itself is a [`crate::software::SoftwareTx`] on its serial
/// rung: direct heap access, no ownership records read or written and no
/// read set kept — the gate's acquisition guarantees the holder runs alone,
/// which is what makes serial mode a guaranteed-progress path for
/// transactions that keep losing (or that requested irrevocability via
/// `TxCtl::BecomeSerial`), and the "software mode with escape actions" a
/// descheduling hardware transaction re-executes in (§2.2.2).  Like every
/// other rung it keeps its logs in the thread descriptor it borrows —
/// `writes` as an undo log, so the attempt can still be rolled back when
/// the body requests a deschedule, aborts or unwinds — and owns nothing but
/// the gate, which dropping it releases.
#[derive(Debug)]
pub struct SerialAttempt<'a> {
    system: &'a TmSystem,
}

impl<'a> SerialAttempt<'a> {
    /// Acquires the gate for `thread`.
    pub fn begin(system: &'a TmSystem, thread: &ThreadCtx) -> Self {
        system.serial.acquire(system, thread);
        SerialAttempt { system }
    }

    /// Commits the serial section whose logs are already retired, and
    /// releases the gate.  Serial commits carry no metadata, so the outcome
    /// tells the wake path to scan conservatively.
    pub fn commit(self, was_writer: bool) -> CommitOutcome {
        if was_writer {
            let commits = &self.system.serial.writer_commits;
            commits.fetch_add(1, Ordering::SeqCst);
        }
        CommitOutcome::serial(was_writer)
    }
}

impl Drop for SerialAttempt<'_> {
    fn drop(&mut self) {
        self.system.serial.release(self.system);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Descriptor;
    use crate::addr::Addr;
    use crate::config::TmConfig;
    use crate::ctl::{WaitCondition, WaitSpec};
    use crate::driver::Attempt;
    use crate::software::{LazyStm, LazyTx};
    use crate::tx::{Tx, TxCommon, TxMode};
    use std::sync::Arc;

    fn serial() -> TxCommon {
        TxCommon::new(TxMode::Serial, 0)
    }

    #[test]
    fn gate_round_trip() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        assert!(!system.serial.held());
        let s = SerialAttempt::begin(&system, &th);
        assert!(system.serial.held());
        let before = system.clock.now();
        s.commit(false);
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
        let s = SerialAttempt::begin(&system, &me);
        assert_eq!(
            system.heap.load(Addr(1)),
            1,
            "acquire returned before the in-flight transaction exited"
        );
        assert!(other.is_doomed(), "acquire dooms in-flight hardware work");
        s.commit(false);
        h.join().unwrap();
    }

    #[test]
    fn serial_attempt_commits_writes_in_place() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, serial());
        assert!(system.serial.held());
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(tx.read(Addr(5)).unwrap(), 42);
        assert_eq!(system.heap.load(Addr(5)), 42, "serial writes are direct");
        let outcome = tx.try_commit().unwrap();
        assert!(outcome.was_writer);
        assert!(outcome.serial);
        assert!(!outcome.hardware);
        assert!(!system.serial.held(), "commit releases the gate");
        assert_eq!(th.stats.snapshot().write_set_max, 1);
        assert!(
            d.writes.is_empty() && d.writes.capacity() > 0,
            "the descriptor's undo log is emptied, capacity kept"
        );
    }

    #[test]
    fn dropping_a_serial_attempt_restores_frees_and_releases() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        system.heap.store(Addr(7), 9);
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let before = system.heap.allocated_words();
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, serial());
        tx.write(Addr(7), 100).unwrap();
        tx.write(Addr(7), 200).unwrap();
        assert!(!tx.alloc(4).unwrap().is_null());
        drop(tx);
        assert_eq!(system.heap.load(Addr(7)), 9, "first-write-wins undo");
        assert_eq!(system.heap.allocated_words(), before);
        assert!(!system.serial.held());
        assert!(d.writes.is_empty() && d.mallocs.is_empty());
    }

    #[test]
    fn deschedule_capture_reflects_pre_transaction_state() {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        system.heap.store(Addr(20), 5);
        let th = system.register_thread();
        let mut d = Descriptor::default();
        let mut tx = LazyTx::begin(&*rt, &th, &mut d, serial());
        tx.write(Addr(20), 6).unwrap();
        let cond = tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => assert_eq!(pairs, vec![(Addr(20), 5)]),
            other => panic!("unexpected condition {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5);
        assert!(!system.serial.held());
    }
}
