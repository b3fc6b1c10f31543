//! # tm-repro — Practical Condition Synchronization for Transactional Memory
//!
//! A from-scratch Rust reproduction of *"Practical Condition Synchronization
//! for Transactional Memory"* (Wang, EuroSys 2016 line of work): the
//! **Deschedule** mechanism and the three linguistic constructs built on it —
//! `Retry`, `Await` and `WaitPred` — implemented over three transactional
//! memory runtimes (an eager undo-log STM, a lazy redo-log STM, and a
//! simulated best-effort HTM), together with every baseline, workload and
//! benchmark the paper evaluates.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof and provides a [`prelude`] for applications.
//!
//! ## Quick start
//!
//! ```
//! use tm_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // A transactional system plus the eager-STM runtime over it.
//! let rt = RuntimeKind::EagerStm.build(TmConfig::small());
//! let system = Arc::clone(rt.system());
//!
//! // Shared state lives in the transactional heap.
//! let balance = TmVar::<u64>::alloc(&system, 100);
//!
//! // A waiter that blocks until the balance covers a withdrawal.
//! let rt2 = rt.clone();
//! let system2 = Arc::clone(&system);
//! let balance2 = balance.clone();
//! let waiter = std::thread::spawn(move || {
//!     let th = system2.register_thread();
//!     rt2.atomically(&th, |tx| {
//!         let b = balance2.get(tx)?;
//!         if b < 150 {
//!             return retry(tx); // sleep until something we read changes
//!         }
//!         balance2.set(tx, b - 150)?;
//!         Ok(b)
//!     })
//! });
//!
//! // A writer whose commit establishes the precondition and wakes the waiter.
//! let th = system.register_thread();
//! rt.atomically(&th, |tx| {
//!     let b = balance.get(tx)?;
//!     balance.set(tx, b + 100)
//! });
//!
//! assert_eq!(waiter.join().unwrap(), 200);
//! assert_eq!(balance.load_direct(&system), 50);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] (`tm-core`) | word heap, ownership records, clock, thread registry, shared access-set layer, sharded waiter registry, transaction traits, the software and the hardware TM |
//! | [`eager`] (`tm_core::software::eager`) | Appendix A undo-log protocol over the shared software core (paper: "Eager STM") |
//! | [`lazy`] (`tm_core::software::lazy`) | TL2-style redo-log protocol over the shared software core (paper: "Lazy STM") |
//! | [`htm`] (`tm_core::hardware`) | best-effort HTM runtime over a simulated coherence directory with a seeded fault injector (paper: "HTM") |
//! | [`hybrid`] (`tm_core::hardware::hybrid`) | hybrid HTM+STM runtime: hardware fast path over the lazy STM, sharing the HTM runtime's attempt type (beyond the paper) |
//! | [`sync`] (`condsync`) | **the contribution**: Deschedule, Retry, Await, WaitPred, plus TMCondVar / Retry-Orig / Restart baselines |
//! | [`structures`] (`tm-sync`) | bounded buffer (Fig. 2.2), counter, barrier, Pthreads baseline buffer, and the KV plane: stripe-aligned hash map + ordered (skip-list) index |
//! | [`workloads`] (`tm-workloads`) | producer/consumer micro-benchmark, PARSEC-like kernels, Zipfian session-store scenario, Table 2.1 accounting |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

/// The shared substrate (`tm-core`): heap, metadata, traits.
pub use tm_core as core;

/// The eager (undo-log) software TM (`tm_core::software::eager`).
pub use tm_core::software::eager;

/// The lazy (redo-log) software TM (`tm_core::software::lazy`).
pub use tm_core::software::lazy;

/// The best-effort HTM runtime and its simulated coherence directory
/// (`tm_core::hardware`).
pub use tm_core::hardware as htm;

/// The hybrid HTM+STM runtime (`tm_core::hardware::hybrid`): hardware fast
/// path, lazy-STM software fallback, serial gate as the last rung.
pub use tm_core::hardware::hybrid;

/// The condition-synchronization mechanisms (`condsync`) — the paper's
/// contribution.
pub use condsync as sync;

/// Transactional data structures and lock-based baselines (`tm-sync`).
pub use tm_sync as structures;

/// Workload drivers for the evaluation (`tm-workloads`).
pub use tm_workloads as workloads;

/// Everything an application normally needs, importable with one `use`.
pub mod prelude {
    pub use condsync::{
        await_addrs, await_for, await_one, await_one_for, cancel, cancel_thread, restart, retry,
        retry_for, retry_orig, timed_out, wait_interrupted, wait_pred, wait_pred_for, wake_reason,
        was_cancelled, Mechanism, TmCondVar, WakeReason,
    };
    pub use tm_core::{
        Addr, Semaphore, TmArray, TmConfig, TmRuntime, TmSystem, TmVar, Tx, TxCtl, TxResult,
    };
    pub use tm_sync::{
        BarrierWait, PthreadBuffer, TmBarrier, TmBoundedBuffer, TmCounter, TmHashMap, TmOrderedMap,
    };
    pub use tm_workloads::runtime::{AnyRuntime, RuntimeKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_quickstart_path_compiles_and_runs() {
        let rt = RuntimeKind::LazyStm.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let v = TmVar::<u64>::alloc(&system, 1);
        let th = system.register_thread();
        let doubled = rt.atomically(&th, |tx| {
            let x = v.get(tx)?;
            v.set(tx, x * 2)?;
            Ok(x * 2)
        });
        assert_eq!(doubled, 2);
    }

    #[test]
    fn all_mechanism_constructors_are_reachable_through_the_prelude() {
        assert_eq!(Mechanism::ALL.len(), 7);
        assert!(Mechanism::Retry.is_deschedule_based());
    }
}
