//! The Deschedule abstract mechanism (Algorithm 4) — re-exported.
//!
//! `deschedule` and `wake_waiters_matching` are conceptually this crate's
//! heart, but they are invoked exclusively by the unified driver loop in
//! [`tm_core::driver`], which cannot depend on this crate (the dependency
//! runs the other way).  The implementation therefore lives next to the
//! driver, and this module preserves the public `condsync::deschedule` /
//! `condsync::wake_waiters_matching` paths the rest of the workspace and the
//! paper's pseudocode naming use.
//!
//! `deschedule` publishes the waiter in the sharded registry under the
//! stripes of its wait condition (see the crate docs for how each `WaitSpec`
//! variant maps to shards); `wake_waiters_matching` is the committed-writer
//! scan, targeted by the commit's stripes or — with `WakeSet::All` —
//! conservatively over every shard.
//!
//! See [`tm_core::driver::deschedule`] for the full protocol description:
//! publish-then-double-check parking, at-most-one signal per sleep, and the
//! committed-writer `wakeWaiters` scan.

pub use tm_core::driver::{deschedule, deschedule_until, wake_waiters_matching, DescheduleOutcome};
pub use tm_core::WakeReason;
