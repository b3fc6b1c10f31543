//! Runtime selection for workloads.
//!
//! The paper evaluates every workload under three transactional-memory
//! configurations — **Eager STM**, **Lazy STM** and **HTM** — plus the
//! non-transactional `Pthreads` baseline; this reproduction adds a fourth,
//! **Hybrid** (HTM fast path over a lazy-STM software path).  Workload
//! drivers are written once against [`AnyRuntime`], an enum-dispatch wrapper
//! over the runtime crates, and are parameterized by [`RuntimeKind`].

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use tm_core::hardware::{HtmSim, HybridTm};
use tm_core::software::{EagerStm, LazyStm};
use tm_core::{ThreadCtx, TmConfig, TmRuntime, TmSystem, Tx, TxResult};

/// Which transactional-memory implementation provides the transactions.
///
/// Mirrors the three configurations of §2.4 — the default GCC "ml-wt" eager
/// STM, a TL2-like lazy STM, and TSX-style best-effort HTM — plus the
/// beyond-paper hybrid HTM+STM configuration.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RuntimeKind {
    /// Undo-log, encounter-time-locking STM (Appendix A; paper "Eager STM").
    EagerStm,
    /// Redo-log, commit-time-locking STM (TL2-style; paper "Lazy STM").
    LazyStm,
    /// Best-effort hardware TM simulator (paper "HTM").
    Htm,
    /// Hybrid HTM+STM: hardware fast path, lazy-STM software fallback,
    /// serial gate as the last rung (beyond the paper; `tm_core::hardware::hybrid`).
    Hybrid,
}

impl RuntimeKind {
    /// All runtime configurations: the paper's three, in the order the paper
    /// presents them (Figures 2.3/2.6 eager, 2.4/2.7 lazy, 2.5/2.8 HTM),
    /// followed by the hybrid extension.
    pub const ALL: [RuntimeKind; 4] = [
        RuntimeKind::EagerStm,
        RuntimeKind::LazyStm,
        RuntimeKind::Htm,
        RuntimeKind::Hybrid,
    ];

    /// The label used in figure captions and harness output.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::EagerStm => "eager-stm",
            RuntimeKind::LazyStm => "lazy-stm",
            RuntimeKind::Htm => "htm",
            RuntimeKind::Hybrid => "hybrid",
        }
    }

    /// True if the `Retry-Orig` baseline can run on this configuration.
    ///
    /// `Retry-Orig` publishes the ownership records covering the waiter's
    /// read set, so it needs STM lock metadata: the pure HTM configuration
    /// is excluded (as in the paper's figures).  The hybrid configuration
    /// *is* supported — its software path is a full lazy STM, and the driver
    /// routes every `Retry-Orig` sleep through it (hardware attempts first
    /// re-execute in software, exactly as they do for value-based `Retry`).
    pub fn supports_retry_orig(self) -> bool {
        !matches!(self, RuntimeKind::Htm)
    }

    /// Builds a fresh system + runtime pair with the given configuration.
    pub fn build(self, config: TmConfig) -> AnyRuntime {
        let system = TmSystem::new(config);
        self.over(system)
    }

    /// Layers a runtime of this kind over an existing system.
    pub fn over(self, system: Arc<TmSystem>) -> AnyRuntime {
        match self {
            RuntimeKind::EagerStm => AnyRuntime::Eager(EagerStm::new(system)),
            RuntimeKind::LazyStm => AnyRuntime::Lazy(LazyStm::new(system)),
            RuntimeKind::Htm => AnyRuntime::Htm(HtmSim::new(system)),
            RuntimeKind::Hybrid => AnyRuntime::Hybrid(HybridTm::new(system)),
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for RuntimeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase().replace(['-', '_'], "");
        Ok(match norm.as_str() {
            "eager" | "eagerstm" | "mlwt" => RuntimeKind::EagerStm,
            "lazy" | "lazystm" | "tl2" => RuntimeKind::LazyStm,
            "htm" | "tsx" | "hardware" => RuntimeKind::Htm,
            "hybrid" | "hytm" | "hybridtm" => RuntimeKind::Hybrid,
            _ => return Err(format!("unknown runtime kind: {s}")),
        })
    }
}

/// Enum dispatch over the four runtime implementations.
///
/// [`TmRuntime::atomically`] is not object-safe (it is generic in the body's
/// return type), so workloads that must pick their runtime at run time use
/// this wrapper instead of `&dyn TmRuntime`.  Its inherent methods need no
/// trait import; its [`TmRuntime`] impl forwards to them.
#[derive(Debug, Clone)]
pub enum AnyRuntime {
    /// The eager (undo-log) STM.
    Eager(Arc<EagerStm>),
    /// The lazy (redo-log) STM.
    Lazy(Arc<LazyStm>),
    /// The HTM simulator.
    Htm(Arc<HtmSim>),
    /// The hybrid HTM+STM runtime.
    Hybrid(Arc<HybridTm>),
}

impl AnyRuntime {
    /// Which kind of runtime this is.
    pub fn kind(&self) -> RuntimeKind {
        match self {
            AnyRuntime::Eager(_) => RuntimeKind::EagerStm,
            AnyRuntime::Lazy(_) => RuntimeKind::LazyStm,
            AnyRuntime::Htm(_) => RuntimeKind::Htm,
            AnyRuntime::Hybrid(_) => RuntimeKind::Hybrid,
        }
    }

    /// The shared system (heap, clock, registries) under this runtime.
    pub fn system(&self) -> &Arc<TmSystem> {
        self.as_dyn().system()
    }

    /// Runs `body` as a transaction until it commits and returns its result.
    pub fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        match self {
            AnyRuntime::Eager(rt) => rt.atomically(thread, body),
            AnyRuntime::Lazy(rt) => rt.atomically(thread, body),
            AnyRuntime::Htm(rt) => rt.atomically(thread, body),
            AnyRuntime::Hybrid(rt) => rt.atomically(thread, body),
        }
    }

    /// Runs `body` as a *declared read-only* transaction (snapshot read path
    /// on the software runtimes; see [`TmRuntime::atomically_read`]).
    pub fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        match self {
            AnyRuntime::Eager(rt) => rt.atomically_read(thread, body),
            AnyRuntime::Lazy(rt) => rt.atomically_read(thread, body),
            AnyRuntime::Htm(rt) => rt.atomically_read(thread, body),
            AnyRuntime::Hybrid(rt) => rt.atomically_read(thread, body),
        }
    }

    /// Borrows the runtime as the object-safe [`TmRuntime`] trait.
    pub fn as_dyn(&self) -> &dyn TmRuntime {
        match self {
            AnyRuntime::Eager(rt) => rt.as_ref(),
            AnyRuntime::Lazy(rt) => rt.as_ref(),
            AnyRuntime::Htm(rt) => rt.as_ref(),
            AnyRuntime::Hybrid(rt) => rt.as_ref(),
        }
    }
}

impl TmRuntime for AnyRuntime {
    fn system(&self) -> &Arc<TmSystem> {
        AnyRuntime::system(self)
    }

    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool {
        self.as_dyn().exec_bool(thread, body)
    }

    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        AnyRuntime::atomically(self, thread, body)
    }

    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        AnyRuntime::atomically_read(self, thread, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::TmVar;

    #[test]
    fn labels_round_trip_through_fromstr() {
        for kind in RuntimeKind::ALL {
            assert_eq!(kind.label().parse::<RuntimeKind>().unwrap(), kind);
        }
        assert_eq!("TL2".parse::<RuntimeKind>().unwrap(), RuntimeKind::LazyStm);
        assert_eq!("tsx".parse::<RuntimeKind>().unwrap(), RuntimeKind::Htm);
        assert_eq!("HyTM".parse::<RuntimeKind>().unwrap(), RuntimeKind::Hybrid);
        assert!("vax".parse::<RuntimeKind>().is_err());
    }

    #[test]
    fn retry_orig_support_matches_lock_metadata_availability() {
        assert!(RuntimeKind::EagerStm.supports_retry_orig());
        assert!(RuntimeKind::LazyStm.supports_retry_orig());
        assert!(
            !RuntimeKind::Htm.supports_retry_orig(),
            "pure HTM has no lock metadata (as in the paper's figures)"
        );
        assert!(
            RuntimeKind::Hybrid.supports_retry_orig(),
            "the hybrid's software path has lock metadata, so Retry-Orig runs there"
        );
    }

    #[test]
    fn each_kind_builds_and_commits_a_transaction() {
        for kind in RuntimeKind::ALL {
            let rt = kind.build(TmConfig::small());
            assert_eq!(rt.kind(), kind);
            let system = Arc::clone(rt.system());
            let th = system.register_thread();
            let v = TmVar::<u64>::alloc(&system, 5);
            let got = rt.atomically(&th, |tx| {
                let x = v.get(tx)?;
                v.set(tx, x * 2)?;
                Ok(x)
            });
            assert_eq!(got, 5, "{kind}");
            assert_eq!(v.load_direct(&system), 10, "{kind}");
        }
    }

    #[test]
    fn as_dyn_exposes_the_same_system() {
        let rt = RuntimeKind::EagerStm.build(TmConfig::small());
        assert!(Arc::ptr_eq(rt.as_dyn().system(), AnyRuntime::system(&rt)));
    }

    #[test]
    fn exec_bool_via_trait_object_dispatches() {
        for kind in RuntimeKind::ALL {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(AnyRuntime::system(&rt));
            let th = system.register_thread();
            let v = TmVar::<u64>::alloc(&system, 41);
            for dynrt in [&rt as &dyn TmRuntime, rt.as_dyn()] {
                let before = v.load_direct(&system);
                let committed = dynrt.exec_bool(&th, &mut |tx| {
                    let x = v.get(tx)?;
                    v.set(tx, x + 1)?;
                    Ok(x == before)
                });
                assert!(committed, "{kind}");
                assert_eq!(v.load_direct(&system), before + 1, "{kind}");
            }
            assert_eq!(v.load_direct(&system), 43, "{kind}");
        }
    }
}
