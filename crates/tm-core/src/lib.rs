//! Shared substrate for the transactional-memory condition-synchronization
//! reproduction.
//!
//! This crate contains both TMs — the software TM ([`software`]: the eager
//! and the lazy STM) and the hardware TM ([`hardware`]: the HTM and the
//! hybrid) — and everything they and the condition-synchronization layer
//! ([`condsync`]) have in common:
//!
//! * the unified transaction driver ([`driver`]): the single loop that runs
//!   every runtime's transactions ([`driver::run`]) against the narrow
//!   [`driver::TxEngine`] interface, including the `Deschedule` parking /
//!   `wakeWaiters` protocol ([`driver::deschedule`],
//!   [`driver::wake_waiters_matching`]),
//! * a word-addressable transactional heap ([`heap::TmHeap`]) with a simple
//!   allocator, standing in for the raw C memory the paper instruments,
//! * a table of ownership records ([`orec::OrecTable`]) hashed from addresses,
//!   exactly as in the paper's Appendix A (entries cache-line padded),
//! * the version clock ([`clock::ClockPlane`]): Algorithm 9's one shared
//!   counter, the per-thread start-time table quiescence polls
//!   ([`epoch::EpochTable`]), and the cache-line padding primitive both are
//!   built from ([`pad::CachePadded`]),
//! * the object-safe transaction handle trait ([`tx::Tx`]) plus the common
//!   per-attempt metadata ([`tx::TxCommon`]),
//! * the shared access-set layer ([`access`]): hash-indexed read sets,
//!   write logs and index sets, bundled into the per-thread attempt
//!   [`access::Descriptor`] that backs every runtime's transaction logs,
//! * the mode-control plane: the system-wide serial/irrevocable gate (which
//!   owns the hardware commit barrier) and the one serial attempt all four
//!   runtimes run ([`serial`]) plus the contention-
//!   management policies that drive backoff and mode escalation ([`policy`]),
//! * the software TM ([`software`]): the one copy of what the eager and the
//!   lazy STM do identically, the [`software::Eager`] and [`software::Lazy`]
//!   protocols over it, and the [`software::SoftwareStm`] engine both
//!   runtimes are an instance of,
//! * the hardware TM ([`hardware`]): the simulated coherence directory
//!   ([`hardware::Directory`], with its seeded fault injector), the
//!   speculative attempt over it, and the
//!   [`hardware::HtmSim`] and [`hardware::HybridTm`] engines,
//! * control-flow types for aborts and descheduling ([`ctl`]),
//! * the thread registry, statistics and quiescence support ([`thread`],
//!   [`stats`]),
//! * the sharded, address-indexed waiter registry and semaphore used by the
//!   `Deschedule` mechanism and the `Retry-Orig` baseline alike
//!   ([`waitlist`], [`sem`]), plus the lazily driven
//!   timer wheel behind its timed (`deschedule_until`) variant ([`timer`]),
//! * typed views over heap words ([`vars::TmVar`], [`vars::TmArray`]).
//!
//! The paper's algorithms are implemented on top of these pieces; see the
//! `condsync` crate for the contribution (Deschedule / Retry / Await /
//! WaitPred), [`software`] for Appendix A and its TL2 analogue, and
//! [`hardware`] for the TSX analogue and the hybrid.
//!
//! [`condsync`]: ../condsync/index.html

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod addr;
pub mod backoff;
pub mod clock;
pub mod config;
pub mod ctl;
pub mod driver;
pub mod epoch;
pub mod hardware;
pub mod heap;
pub mod lock;
pub mod orec;
pub mod pad;
pub mod policy;
pub mod runtime;
pub mod sem;
pub mod serial;
pub mod software;
pub mod stats;
pub mod system;
pub mod thread;
pub mod timer;
pub mod tx;
pub mod vars;
pub mod waitlist;

pub use access::{Descriptor, IndexSet, LogPool, ReadEntry, ReadSet, WriteEntry, WriteLog};
pub use addr::{Addr, LineId, LINE_WORDS};
pub use clock::ClockPlane;
pub use config::{default_orec_shards, FaultConfig, HtmConfig, TimerConfig, TmConfig};
pub use ctl::{AbortReason, PredFn, TxCtl, TxResult, WaitCondition, WaitSpec};
pub use driver::{Attempt, CommitOutcome, TxEngine};
pub use epoch::{EpochSlot, EpochTable};
pub use heap::TmHeap;
pub use orec::{OrecTable, OrecValue};
pub use pad::{CachePadded, CACHE_LINE_BYTES};
pub use policy::{CmAction, CmEvent, CmHistory, PolicyKind};
pub use runtime::TmRuntime;
pub use sem::Semaphore;
pub use serial::{subscribe_begin, SerialAttempt, SerialGate};
pub use software::{SoftwareProtocol, SoftwareTx, SoftwareTxCore};
pub use stats::{StatsSnapshot, TxStats};
pub use system::TmSystem;
pub use thread::{Checkout, ThreadCtx, ThreadId, ThreadRegistry};
pub use timer::{TimerPoll, TimerWheel};
pub use tx::{DirectTx, Tx, TxCommon, TxKind, TxMode};
pub use vars::{TmArray, TmValue, TmVar};
pub use waitlist::{ScanPlan, WaitList, Waiter, WakeReason, WakeSet};
