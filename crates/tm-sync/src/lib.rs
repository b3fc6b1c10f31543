//! Transactional data structures used by the paper's evaluation, plus the
//! lock-based baselines.
//!
//! The central structure is the bounded buffer of Algorithm 2 / Figure 2.2,
//! implemented once over the word heap with an entry point per condition-
//! synchronization mechanism ([`buffer::TmBoundedBuffer`]).  The
//! [`pthread::PthreadBuffer`] is the `Pthreads` baseline (mutex + condition
//! variables, no transactions).
//!
//! [`counter::TmCounter`] and [`barrier::TmBarrier`] are the shared state of
//! the PARSEC-like synthetic kernels in the `tm-workloads` crate.
//!
//! The KV plane — [`map::TmHashMap`] (primary store, with a measured
//! stripe-aligned layout) and [`ordered::TmOrderedMap`] (skiplist index for
//! range scans) — backs the benchmark's session-store workload
//! (`kv_session`).
//!
//! The buffer and the barrier also expose **timed** operations built on the
//! deadline-carrying waits of `condsync`
//! ([`TmBoundedBuffer::produce_timeout`] / [`TmBoundedBuffer::consume_timeout`],
//! [`TmBarrier::wait_for`]): each returns a "gave up" value instead of
//! blocking past its deadline, which is what lossy consumers and
//! watchdogged barriers are built from.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod buffer;
pub mod counter;
pub mod map;
pub mod ordered;
pub mod pthread;

pub use barrier::{BarrierWait, TmBarrier};
pub use buffer::TmBoundedBuffer;
pub use counter::TmCounter;
pub use map::TmHashMap;
pub use ordered::TmOrderedMap;
pub use pthread::PthreadBuffer;
