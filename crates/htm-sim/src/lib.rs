//! A best-effort hardware transactional memory **simulator**, the default
//! backend of the pluggable hardware plane ([`tm_core::hwtm::HwTm`]) used by
//! the paper's **HTM** configuration.
//!
//! The runtime here ([`HtmSim`]) drives *any* [`tm_core::hwtm::HwTm`]
//! backend; this crate supplies the simulator ([`SimPlane`], the default)
//! and `tm-core` the deterministic fault-injection decorator
//! ([`tm_core::hwtm::FaultPlane`], installed automatically when
//! [`tm_core::FaultConfig`] enables it).  The hybrid HTM+STM runtime
//! ([`hybrid`]) lives here too: both hardware engines run the same attempt
//! type ([`LadderTx`]) and differ only in their mode-ladder hooks.
//!
//! Why the default backend is a simulator: issuing real `xbegin`/`xend`
//! requires inline assembly and TSX-enabled silicon, neither of which this
//! reproduction can rely on.  What the paper's mechanisms actually depend on
//! are the *architectural properties* of best-effort HTM, and those are what
//! the simulator provides:
//!
//! * **Invisible write sets** — a committed hardware transaction leaves no
//!   record of what it wrote, so wake-up decisions must be computable from
//!   shared memory alone (the paper's central design constraint).
//! * **No escape actions** — a hardware transaction cannot make a syscall or
//!   publish a waiter record without aborting; descheduling therefore
//!   requires re-executing in a software (serial) mode, exactly as in §2.2.3.
//! * **Eager, requester-wins conflict detection at cache-line granularity** —
//!   including aborts of read-only transactions (such as `wakeWaiters`) that
//!   collide with writers, the effect §2.4.1 observes on real TSX.
//! * **Capacity limits** and **explicit 8-bit abort codes** (`xabort`).
//! * **A serial fallback lock** taken after a bounded number of speculative
//!   attempts, mirroring GCC libitm's policy of suspending concurrency after
//!   a transaction aborts twice.
//!
//! The simulator is *not* cycle-accurate and makes one deliberate
//! simplification: a transaction doomed by a conflicting writer observes the
//! abort at its next instrumented access (or at commit), not instantaneously.
//! Workload code therefore runs briefly as a "zombie" on a possibly
//! inconsistent snapshot; because all workload state lives in the bounds-
//! checked word heap this is benign, and it does not change which
//! transactions commit.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hybrid;
pub mod lines;
pub mod plane;
pub mod runtime;
pub mod tx;

pub use hybrid::HybridTm;
pub use lines::LineTable;
pub use plane::SimPlane;
pub use runtime::HtmSim;
pub use tx::{HtmTx, LadderTx};
