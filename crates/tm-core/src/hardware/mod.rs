//! The hardware TM: a best-effort hardware transactional memory
//! **simulator** — the paper's **HTM** configuration — and the hybrid
//! HTM+STM runtime over it.
//!
//! * [`Directory`] — the simulated coherence directory every speculative
//!   access registers with: the [`LineTable`] of per-line reader/writer
//!   registrations, conflict delivery through the system's thread registry,
//!   the capacity limits, and (when [`crate::FaultConfig`] enables it) the
//!   seeded fault injector;
//! * [`HtmTx`] — a speculative attempt over it, and [`LadderTx`] — the one
//!   attempt type of both hardware engines, whichever rung it is on;
//! * [`HtmSim`] — the HTM runtime (serial fallback rung), and
//!   [`hybrid::HybridTm`] — the hybrid (lazy-STM fallback rung).
//!
//! Why a simulator: issuing real `xbegin`/`xend` requires inline assembly
//! and TSX-enabled silicon, neither of which this reproduction can rely on.
//! What the paper's mechanisms actually depend on are the *architectural
//! properties* of best-effort HTM, and those are what the simulator
//! provides:
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

pub mod directory;
mod fault;
pub mod hybrid;
pub mod lines;
pub mod runtime;
pub mod tx;

pub use directory::{Directory, HwAbort, HwAbortKind};
pub use hybrid::HybridTm;
pub use lines::LineTable;
pub use runtime::HtmSim;
pub use tx::{HtmTx, LadderTx};
