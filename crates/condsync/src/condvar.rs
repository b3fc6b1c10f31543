//! Transaction-safe condition variables (the `TMCondVar` baseline).
//!
//! This is a transliteration of lock-based condition-variable code into
//! transactions, in the style of Wang et al. (SPAA 2014): a `wait` commits
//! the in-flight transaction at the wait point, blocks, and then starts a new
//! transaction for the remainder of the critical section.  **It breaks the
//! atomicity of the enclosing transaction** — the partial updates made before
//! the wait become visible while the thread sleeps (this is exactly the
//! hazard of Algorithm 3 that the paper's mechanisms avoid), and the
//! baseline keeps it on purpose.
//!
//! The condition variable is one transactional word, its generation.  A
//! signal increments it inside the signaller's own transaction, so the
//! signal commits atomically with the data it announces: a waiter that saw
//! the old data also saw the old generation, and sleeps until the signal's
//! commit moves it.  A wait reads the generation as its ticket in the
//! waiter's transaction, then [`Tx::commit_and_wait`]s on "generation ≠
//! ticket" — an ordinary `Deschedule` sleep on the one waiting list, woken
//! by the signaller's post-commit scan.  A signal with no sleeper is lost,
//! as with POSIX condition variables.
//!
//! Every signal wakes every waiter on the variable, which re-checks its
//! predicate: `signal` and `broadcast` are the same operation.  The API
//! allows this as spurious wake-ups, so callers must re-check their
//! predicate in a loop, as the paper's Algorithm 2 does.

use std::sync::{Arc, OnceLock};

use tm_core::stats::TxStats;
use tm_core::{AbortReason, Addr, TmSystem, Tx, TxCtl, TxResult, WaitCondition};

/// A condition variable usable from inside transactions.
#[derive(Debug, Default)]
pub struct TmCondVar {
    /// The generation word, allocated in the heap of the first transaction
    /// that uses the variable, and freed with it.
    gen: OnceLock<(Arc<TmSystem>, Addr)>,
}

impl TmCondVar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        TmCondVar::default()
    }

    /// The generation word in `tx`'s heap, allocated on first use;
    /// `OutOfMemory` if the heap has no word for it.
    ///
    /// The word is allocated outside the transaction (not in its `mallocs`),
    /// because the variable keeps it across that transaction's aborts.  Of
    /// two first uses racing, the loser frees its own word.
    fn gen(&self, tx: &dyn Tx) -> TxResult<Addr> {
        let system = tx.system();
        let (owner, addr) = match self.gen.get() {
            Some(gen) => gen,
            None => {
                let addr = system
                    .heap
                    .alloc(1)
                    .ok_or(TxCtl::Abort(AbortReason::OutOfMemory))?;
                if let Err((_, lost)) = self.gen.set((Arc::clone(system), addr)) {
                    system.heap.dealloc(lost, 1);
                }
                self.gen.get().expect("set above or by the race's winner")
            }
        };
        debug_assert!(Arc::ptr_eq(owner, system), "one condvar, one system");
        Ok(*addr)
    }

    /// Waits on the condition variable from inside a transaction.
    ///
    /// Commits the caller's in-flight transaction (breaking its atomicity),
    /// sleeps until a signal committed after the caller's reads moves the
    /// generation, then starts a fresh transaction for the rest of the body.
    /// `Err` means the commit failed and the body re-executes, or — on the
    /// variable's first use — `Abort(OutOfMemory)` if the heap has no word
    /// left for its generation.
    pub fn wait(&self, tx: &mut dyn Tx) -> TxResult<()> {
        TxStats::bump(&tx.thread().stats.condvar_waits);
        let gen = self.gen(tx)?;
        let ticket = tx.read(gen)?;
        tx.commit_and_wait(WaitCondition::ValuesChanged(vec![(gen, ticket)]))
    }

    /// Wakes every waiter when the caller's transaction commits.
    /// `Abort(OutOfMemory)` as for [`TmCondVar::wait`].
    pub fn signal_from(&self, tx: &mut dyn Tx) -> TxResult<()> {
        TxStats::bump(&tx.thread().stats.condvar_signals);
        let gen = self.gen(tx)?;
        let next = tx.read_for_write(gen)? + 1;
        tx.write(gen, next)
    }

    /// Wakes every waiter when the caller's transaction commits: the same
    /// operation as [`TmCondVar::signal_from`].
    pub fn broadcast_from(&self, tx: &mut dyn Tx) -> TxResult<()> {
        self.signal_from(tx)
    }
}

impl Drop for TmCondVar {
    fn drop(&mut self) {
        if let Some((system, addr)) = self.gen.take() {
            system.heap.dealloc(addr, 1);
        }
    }
}
