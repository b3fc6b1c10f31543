//! The runtime trait: how workloads execute transactions.
//!
//! [`TmRuntime`] is one trait in two halves.  The object-safe half —
//! [`TmRuntime::system`] and [`TmRuntime::exec_bool`] — is what the
//! condition-synchronization layer uses through `&dyn TmRuntime`: it must
//! start read-only boolean transactions for the `Deschedule` double-check
//! and for `wakeWaiters` without knowing which runtime it is running on.
//! The `Sized` half — [`TmRuntime::atomically`] and
//! [`TmRuntime::atomically_read`], generic in the body's return type — is
//! what data structures and workloads call.
//!
//! Every [`crate::driver::TxEngine`] gets the whole trait from one blanket
//! impl that forwards to the shared driver loop.

use std::sync::Arc;

use crate::ctl::TxResult;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::Tx;

/// A transaction runtime.
pub trait TmRuntime: Send + Sync + std::fmt::Debug {
    /// The system this runtime executes against.
    fn system(&self) -> &Arc<TmSystem>;

    /// Runs a read-only transaction returning a boolean.
    ///
    /// Used by `Deschedule`'s post-rollback double-check and by
    /// `wakeWaiters`; on the HTM runtime this should be attempted in
    /// hardware, falling back as necessary.
    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool;

    /// Runs `body` as a transaction, re-executing it until it commits, and
    /// returns its result.
    ///
    /// The body may be re-executed any number of times (conflict aborts,
    /// mode switches, wake-ups after a deschedule), so it must be free of
    /// non-transactional side effects.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tm_core::{TmConfig, TmRuntime, TmSystem, TmVar};
    ///
    /// let system = TmSystem::new(TmConfig::small());
    /// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
    /// let th = system.register_thread();
    /// let v = TmVar::<u64>::alloc(&system, 20);
    ///
    /// let doubled = rt.atomically(&th, |tx| {
    ///     let x = v.get(tx)?;
    ///     v.set(tx, x * 2)?;
    ///     Ok(x * 2)
    /// });
    /// assert_eq!(doubled, 40);
    /// assert_eq!(v.load_direct(&system), 40);
    /// ```
    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        Self: Sized,
        F: FnMut(&mut dyn Tx) -> TxResult<T>;

    /// Runs `body` as a *declared read-only* transaction.
    ///
    /// Software attempts take the snapshot read path: every read validates
    /// against the begin snapshot, no read set is kept, and the commit is
    /// free — no validation, no clock traffic.  If the body writes or
    /// allocates after all, the driver upgrades the transaction to a full
    /// update transaction and re-executes it, so declaring read-only is
    /// always safe — merely fastest when true.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tm_core::{TmConfig, TmRuntime, TmSystem, TmVar};
    ///
    /// let system = TmSystem::new(TmConfig::small());
    /// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
    /// let th = system.register_thread();
    /// let a = TmVar::<u64>::alloc(&system, 3);
    /// let b = TmVar::<u64>::alloc(&system, 4);
    ///
    /// // A consistent two-word scan with no read set and a free commit.
    /// let sum = rt.atomically_read(&th, |tx| Ok(a.get(tx)? + b.get(tx)?));
    /// assert_eq!(sum, 7);
    /// assert!(th.stats.snapshot().ro_fast_commits >= 1);
    /// ```
    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        Self: Sized,
        F: FnMut(&mut dyn Tx) -> TxResult<T>;
}
