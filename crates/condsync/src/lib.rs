//! Condition synchronization for transactional memory.
//!
//! This crate implements the paper's contribution: the **Deschedule**
//! abstract mechanism (Algorithm 4) and, on top of it, the three linguistic
//! constructs the paper proposes or adapts:
//!
//! * [`retry`] — Haskell-style `Retry` (Algorithm 5): sleep until some
//!   location read by the failed attempt changes value.
//! * [`await_addrs`] — Atomos-style `Await` (Algorithm 6): sleep until one of
//!   an explicit list of addresses changes value.
//! * [`wait_pred`] — `WaitPred` (Algorithm 7): sleep until a user-supplied
//!   predicate over shared state becomes true.
//!
//! Each construct also has a deadline-bounded variant — [`retry_for`],
//! [`await_for`], [`wait_pred_for`] — and waits can be ended out-of-band
//! with [`cancel`]; the re-executed transaction observes how its wait ended
//! through [`wake_reason`] / [`timed_out`] / [`was_cancelled`] (see the
//! [`timed`] module for the protocol).
//!
//! plus the baselines the evaluation compares against:
//!
//! * [`restart`] — abort and immediately re-execute (no sleeping),
//! * [`retry_orig`] — the original lock-metadata-based `Retry` (Algorithm 1;
//!   one more wait condition, `tm_core::WaitCondition::LocksMoved`, on the
//!   same registry),
//! * [`condvar::TmCondVar`] — transaction-safe condition variables, which
//!   commit the in-flight transaction at the wait point (breaking atomicity)
//!   and sleep there on the same registry, on a transactional generation
//!   word.
//!
//! All of the paper's mechanisms are expressed as a rollback followed by
//! [`deschedule::deschedule`]; committed writers call
//! [`deschedule::wake_waiters_matching`], which evaluates each *relevant*
//! sleeper's wait condition as an ordinary read-only transaction over shared
//! memory.  Relevance comes from the sharded waiter registry
//! (`tm_core::waitlist`): waiters are indexed by the ownership-record
//! stripes their conditions cover, and a committing writer evaluates only
//! the waiters registered under the stripes it wrote.  Correctness never *requires* the
//! write set — any committer may pass [`tm_core::WakeSet::All`] to scan
//! everything — which is what keeps the design compatible with
//! (simulated) hardware TM, whose serial fallback reports no write set at
//! all.
//!
//! How each [`tm_core::WaitSpec`] variant maps onto registry shards:
//!
//! | `WaitSpec` variant | materialised condition | registry shard(s) |
//! |---|---|---|
//! | `ReadSetValues` (`Retry`) | value log `(addr, val)` pairs | shard of every logged address's stripe |
//! | `Addrs` (`Await`) | captured `(addr, val)` pairs | shard of every awaited address's stripe |
//! | `Pred` (`WaitPred`) | predicate + marshalled args | shard of every stripe the predicate *read* when last evaluated — found by evaluating it once before registering, and extended by any later check that sees it read elsewhere (see [`tm_core::PredFn`] for the contract this relies on).  Only a predicate that reads nothing, or more than 16 stripes, or whose footprint will not settle, goes to the *overflow* shard every writer scans |
//! | `OrigReadLocks` (`Retry-Orig`) | `LocksMoved`: the read set's orec stripes, the start time and the serial gate's writer-commit count (a serial attempt logs values instead) | shard of every read-orec stripe — so the targeted scan *is* Algorithm 1's lock-set intersection, checked on the orecs without a transaction |
//!
//! Both functions are invoked exclusively from `tm_core` — the unified
//! driver loop in `tm_core::driver` and the `TMCondVar` wait point,
//! `Tx::commit_and_wait` (where their implementation lives — the dependency
//! points from this crate to `tm-core`); this crate contributes the
//! user-facing constructs, the `Retry-Orig` and `TMCondVar` baselines, and
//! the [`Mechanism`] enumeration the evaluation sweeps over.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod condvar;
pub mod deschedule;
pub mod mechanism;
pub mod timed;

pub use condvar::TmCondVar;
pub use deschedule::{
    deschedule, deschedule_until, wake_waiters_matching, DescheduleOutcome, WakeReason,
};
pub use mechanism::{await_addrs, await_one, restart, retry, retry_orig, wait_pred, Mechanism};
pub use timed::{
    await_for, await_one_for, cancel, cancel_thread, clear_wake_reason, retry_for, timed_out,
    wait_interrupted, wait_pred_for, wake_reason, was_cancelled,
};
