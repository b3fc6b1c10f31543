//! A hybrid HTM+STM runtime: best-effort (simulated) hardware transactions
//! as the fast path, the lazy software STM as the fallback, one shared
//! [`tm_core::TmSystem`].
//!
//! The paper evaluates three *fixed* configurations; this crate adds the
//! production-shaped fourth: transactions start in hardware and — when
//! speculation fails, or when they need software facilities like value
//! logging and descheduling — degrade to an instrumented lazy-STM attempt
//! instead of collapsing onto the global serial lock, which is all a pure
//! best-effort HTM can offer.  The serial gate remains the last rung of the
//! ladder (irrevocability, starvation escalation):
//!
//! ```text
//!        Hw ──(conflict/capacity budget, escape action)──▶ Sw ──(policy)──▶ Serial
//!        ▲                                                 ▲
//!        └───────────── fresh transaction ─────────────────┘
//! ```
//!
//! The two paths stay mutually consistent through two couplings:
//!
//! * **software → hardware**: a software commit's write-back runs inside the
//!   simulator's commit barrier and claims/dooms the written cache lines in
//!   the coherence directory first (the [`tm_core::software::CommitInterlock`]
//!   installed by this crate), so no speculative transaction can observe a
//!   partial write-back or survive having read overwritten lines;
//! * **hardware → software**: hardware commits run orec-*coupled*
//!   ([`htm_sim::HtmSim::new_coupled`]): before writing back they abort on —
//!   and never stomp — locked ownership records covering their written
//!   lines, and they publish a fresh global-clock version to those records,
//!   so software read validation observes hardware writes.  Software
//!   commits in turn always validate their read set (inside the barrier)
//!   rather than trusting the nothing-committed clock fast path.
//!
//! Condition synchronization comes for free: the engine plugs into the one
//! driver loop in `tm_core::driver`, the software path supplies value
//! logging and wait-condition materialisation, and — because the software
//! path has real lock metadata — the hybrid even supports the `Retry-Orig`
//! baseline the pure HTM configuration must exclude.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runtime;

pub use runtime::{HybridTm, HybridTx};
