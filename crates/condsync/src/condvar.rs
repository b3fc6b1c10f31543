//! Transaction-safe condition variables (the `TMCondVar` baseline).
//!
//! This is a transliteration of lock-based condition-variable code into
//! transactions, in the style of Wang et al. (SPAA 2014): a `wait` commits
//! the in-flight transaction at the wait point, blocks, and then starts a new
//! transaction for the remainder of the critical section.  **It breaks the
//! atomicity of the enclosing transaction** — the partial updates made before
//! the wait become visible while the thread sleeps (this is exactly the
//! hazard of Algorithm 3 that the paper's mechanisms avoid).
//!
//! Signals take effect immediately on the shared generation counter; a
//! signal with no registered sleeper is lost, as with POSIX condition
//! variables.  Waits are subject to spurious wake-ups, so callers must
//! re-check their predicate in a loop, as the paper's Algorithm 2 does.
//!
//! # The signal-before-commit hazard, and the watchdog that bounds it
//!
//! On the HTM and hybrid runtimes, a signaler's *data* commit and its
//! `signal` are separate events: the signal bumps the generation the moment
//! it is issued, while the shared-state update it announces becomes visible
//! only when the enclosing transaction later commits.  A waiter can
//! therefore check its predicate against the pre-commit state (false), and
//! sample its ticket *after* the signal already landed — so the generation
//! never moves again and, with no further signal coming, the waiter would
//! sleep forever.  (This is the Algorithm-3 atomicity break surfacing as a
//! lost wake-up; it reproduced as a rare `producer_consumer` hang.)
//!
//! The fix is a watchdog on the sleep itself: every wait uses a bounded
//! [`Condvar::wait_for`] and, when the timeout fires with the generation
//! still unmoved, returns as a *spurious wake-up* (counted in
//! `TxStats::watchdog_redeliveries`).  Callers already re-check their
//! predicate in a loop, so re-delivery is semantics-preserving — the lost
//! signal is re-derived from the now-committed state within
//! [`WATCHDOG_INTERVAL`] instead of never.

use std::sync::Arc;
use std::time::Duration;

use tm_core::lock::{Condvar, Mutex};

use tm_core::stats::TxStats;
use tm_core::{Tx, TxResult};

/// Upper bound on how long a lost signal stays lost: a waiter whose
/// generation has not moved re-checks its predicate this often.  Large
/// enough that healthy waits (signal actually coming) practically never pay
/// the re-check; small enough that the recovery path is invisible in tests.
pub const WATCHDOG_INTERVAL: Duration = Duration::from_millis(2);

/// A condition variable usable from inside transactions.
#[derive(Debug, Default)]
pub struct TmCondVar {
    /// Generation counter: incremented by every signal/broadcast.
    gen: Mutex<u64>,
    cv: Condvar,
}

impl TmCondVar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        TmCondVar::default()
    }

    /// Waits on the condition variable from inside a transaction.
    ///
    /// Commits the caller's in-flight transaction (breaking its atomicity),
    /// blocks until a signal issued *after* this call began arrives — or
    /// until the watchdog re-delivers a possibly-lost one as a spurious
    /// wake-up (see the module docs) — then starts a fresh transaction for
    /// the rest of the body.
    pub fn wait(&self, tx: &mut dyn Tx) -> TxResult<()> {
        let thread = Arc::clone(tx.thread());
        TxStats::bump(&thread.stats.condvar_waits);
        // Sample the generation before committing so a signal that lands
        // between our commit and our sleep is not lost.
        let ticket = *self.gen.lock();
        tx.commit_and_reopen(&mut || {
            let mut gen = self.gen.lock();
            while *gen == ticket {
                let timed_out = self.cv.wait_for(&mut gen, WATCHDOG_INTERVAL);
                if timed_out && *gen == ticket {
                    // The generation never moved: either nobody has signaled
                    // yet, or a signal raced our ticket sample before its
                    // data commit landed (the signal-before-commit window).
                    // Return as a spurious wake-up; the caller's predicate
                    // loop distinguishes the two against committed state.
                    TxStats::bump(&thread.stats.watchdog_redeliveries);
                    break;
                }
            }
        })
    }

    /// Wakes one waiter.  May be called from inside or outside a transaction;
    /// the effect is immediate.
    pub fn signal_from(&self, tx: &mut dyn Tx) {
        TxStats::bump(&tx.thread().stats.condvar_signals);
        self.signal();
    }

    /// Wakes one waiter (non-transactional callers).
    pub fn signal(&self) {
        let mut gen = self.gen.lock();
        *gen += 1;
        drop(gen);
        self.cv.notify_one();
    }

    /// Wakes all waiters.
    pub fn broadcast_from(&self, tx: &mut dyn Tx) {
        TxStats::bump(&tx.thread().stats.condvar_signals);
        self.broadcast();
    }

    /// Wakes all waiters (non-transactional callers).
    pub fn broadcast(&self) {
        let mut gen = self.gen.lock();
        *gen += 1;
        drop(gen);
        self.cv.notify_all();
    }

    /// Number of signals/broadcasts ever issued (for tests).
    pub fn generation(&self) -> u64 {
        *self.gen.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use tm_core::{Addr, ThreadCtx, TmConfig, TmSystem, TxCommon, TxMode};

    /// A tx whose commit_and_reopen just runs the block, for driving the
    /// condvar protocol without a full STM.
    struct PassTx {
        common: TxCommon,
        system: Arc<TmSystem>,
        thread: Arc<ThreadCtx>,
        reopened: usize,
    }

    impl Tx for PassTx {
        fn read(&mut self, a: Addr) -> TxResult<u64> {
            Ok(self.system.heap.load(a))
        }
        fn write(&mut self, a: Addr, v: u64) -> TxResult<()> {
            self.system.heap.store(a, v);
            Ok(())
        }
        fn alloc(&mut self, w: usize) -> TxResult<Addr> {
            Ok(self.system.heap.alloc(w).unwrap())
        }
        fn free(&mut self, a: Addr, w: usize) -> TxResult<()> {
            self.system.heap.dealloc(a, w);
            Ok(())
        }
        fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
            self.reopened += 1;
            block();
            Ok(())
        }
        fn common(&self) -> &TxCommon {
            &self.common
        }
        fn common_mut(&mut self) -> &mut TxCommon {
            &mut self.common
        }
        fn system(&self) -> &Arc<TmSystem> {
            &self.system
        }
        fn thread(&self) -> &Arc<ThreadCtx> {
            &self.thread
        }
    }

    fn pass_tx(system: &Arc<TmSystem>) -> PassTx {
        PassTx {
            common: TxCommon::new(TxMode::Software, 0),
            thread: system.register_thread(),
            system: Arc::clone(system),
            reopened: 0,
        }
    }

    #[test]
    fn signal_bumps_generation() {
        let cv = TmCondVar::new();
        assert_eq!(cv.generation(), 0);
        cv.signal();
        cv.broadcast();
        assert_eq!(cv.generation(), 2);
    }

    #[test]
    fn wait_blocks_until_signal() {
        let system = TmSystem::new(TmConfig::small());
        let cv = Arc::new(TmCondVar::new());
        let cv2 = Arc::clone(&cv);
        let sys2 = Arc::clone(&system);
        let h = std::thread::spawn(move || {
            let mut tx = pass_tx(&sys2);
            cv2.wait(&mut tx).unwrap();
            tx.reopened
        });
        std::thread::sleep(Duration::from_millis(20));
        cv.signal();
        assert_eq!(
            h.join().unwrap(),
            1,
            "wait must commit-and-reopen exactly once"
        );
    }

    #[test]
    fn signal_between_sample_and_sleep_is_not_lost() {
        // Directly exercises the ticket protocol: if the generation moves
        // after the ticket was sampled, the wait returns without blocking.
        let system = TmSystem::new(TmConfig::small());
        let cv = Arc::new(TmCondVar::new());
        cv.signal(); // generation = 1 before the waiter samples
        let ticket = cv.generation();
        cv.signal(); // generation = 2: the "lost" signal
        let tx = pass_tx(&system);
        // Manually emulate the wait body with the stale ticket.
        let gen = cv.gen.lock();
        assert_ne!(*gen, ticket, "waiter must observe the signal and not block");
        drop(gen);
        drop(tx);
    }

    #[test]
    fn broadcast_wakes_all_waiters() {
        let system = TmSystem::new(TmConfig::small());
        let cv = Arc::new(TmCondVar::new());
        let mut handles = Vec::new();
        for _ in 0..3 {
            let cv = Arc::clone(&cv);
            let sys = Arc::clone(&system);
            handles.push(std::thread::spawn(move || {
                let mut tx = pass_tx(&sys);
                cv.wait(&mut tx).unwrap();
                true
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        cv.broadcast();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn watchdog_redelivers_a_lost_signal() {
        // Reproduce the signal-before-commit hazard directly: the signal
        // lands *before* the waiter samples its ticket, so no further
        // generation bump will ever arrive.  The old code slept forever
        // here; the watchdog must return the wait as a spurious wake-up
        // within a bounded number of intervals.
        let system = TmSystem::new(TmConfig::small());
        let cv = TmCondVar::new();
        cv.signal(); // the "lost" signal: consumed into the ticket sample below
        let mut tx = pass_tx(&system);
        let start = std::time::Instant::now();
        cv.wait(&mut tx).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the watchdog must bound the lost-signal sleep"
        );
        assert_eq!(tx.reopened, 1);
        assert!(
            tx.thread().stats.snapshot().watchdog_redeliveries >= 1,
            "the recovery must be visible in the stats"
        );
    }

    #[test]
    fn stats_count_waits_and_signals() {
        let system = TmSystem::new(TmConfig::small());
        let cv = TmCondVar::new();
        let mut tx = pass_tx(&system);
        cv.signal_from(&mut tx);
        cv.broadcast_from(&mut tx);
        // A wait would block forever here, so only check signal accounting.
        assert_eq!(tx.thread().stats.snapshot().condvar_signals, 2);
    }
}
