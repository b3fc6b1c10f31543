//! The unified transaction driver: one loop, many engines.
//!
//! The paper's three runtime configurations (eager STM, lazy STM, simulated
//! HTM) differ in how an individual attempt reads, writes and commits — but
//! the *orchestration* around attempts is identical: re-execute on abort,
//! back off on conflicts, restart in value-logging mode when `Retry` needs a
//! waitset, roll back and hand off to `Deschedule` when a precondition fails,
//! and run `wakeWaiters` after every writer commit (Algorithm 4).
//!
//! Every attempt's logs (read set, write log, lock/line sets, the `Retry`
//! value log) live in the thread's resident [`crate::access::Descriptor`],
//! which the loop checks out once per transaction and lends to each attempt:
//! an attempt allocates nothing, takes no lock and clones no `Arc`, and an
//! aborted attempt's capacity is simply still there for its re-execution.
//!
//! This module owns that orchestration:
//!
//! * [`TxEngine`] — the narrow per-runtime interface (begin plus a few
//!   mode-policy hooks) and [`Attempt`], what its attempt type supplies
//!   (`try_commit` / `rollback_for_deschedule`, each consuming the attempt,
//!   and a `Drop` that rolls back an unended one; a writer commit leaves
//!   its stripe cover in the descriptor, which tells the wake path which
//!   waiter-registry shards to scan),
//! * [`run`] — the single generic driver loop,
//! * [`deschedule`] / [`deschedule_until`] / [`wake_waiters_matching`] — the
//!   paper's parking and waking protocol (unbounded and deadline-bounded),
//!   sharded by ownership-record stripe, called from the loop and
//!   re-exported through `condsync`.
//!
//! Timed waits thread two extra pieces of state through the loop: the
//! deadline a timed construct stashed in [`crate::tx::TxCommon::wait_deadline`]
//! is forwarded to [`deschedule_until`], and the resulting
//! [`crate::waitlist::WakeReason`] is handed to every subsequent attempt via
//! [`crate::tx::TxCommon::wake_reason`], so the re-executed body can observe
//! a timeout or cancellation.
//!
//! Runtimes implement [`TxEngine`] and get [`crate::TmRuntime`], whose
//! entry points forward to [`run`], from one blanket impl; adding a runtime
//! (e.g. the hybrid HTM/STM path) means implementing the engine trait, not
//! re-writing the protocol.

mod engine;
mod run;
mod wake;

pub use engine::{Attempt, CommitOutcome, TxEngine};
pub use run::{run, run_kind};
pub(crate) use wake::wake_after_commit;
pub use wake::{
    deschedule, deschedule_until, poll_timers, wake_waiters_matching, DescheduleOutcome,
};
