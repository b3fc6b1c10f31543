//! The HTM simulator's runtime: a thin [`TxEngine`] over [`LadderTx`].
//!
//! The speculative/serial mode ladder — bounded hardware attempts, the
//! serial fallback after repeated failures (GCC-style, behind the system's
//! [`crate::SerialGate`]), and the software re-execution that
//! descheduling hardware transactions require — is expressed through the
//! engine's mode-policy hooks; the loop that drives it is the shared
//! [`crate::driver::run`].

use std::sync::Arc;

use super::directory::Directory;
use super::tx::{HtmTx, LadderTx};
use crate::access::Descriptor;
use crate::driver::TxEngine;
use crate::software::LazyTx;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{TxCommon, TxMode};

/// The best-effort hardware TM runtime: speculative attempts over its own
/// coherence [`Directory`], the serial gate below them.
pub struct HtmSim {
    system: Arc<TmSystem>,
    /// The directory every speculative access registers with.
    directory: Directory,
    /// True when this simulator shares its [`TmSystem`] with a software STM
    /// (the hybrid runtime): hardware commits then publish themselves to the
    /// ownership records of their written words so software validation can
    /// observe them, and abort instead of stomping locked orecs.
    orec_coupled: bool,
}

impl std::fmt::Debug for HtmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmSim")
            .field("serial_held", &self.system.serial.held())
            .finish_non_exhaustive()
    }
}

impl HtmSim {
    /// Creates a runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Arc::new(Self::build(system, false))
    }

    /// The hardware fast path of a hybrid HTM+STM runtime sharing `system`
    /// with a software STM: its commits are *coupled* to the system's
    /// ownership records — they validate against (and abort on) locked
    /// orecs covering their written words, the cover a software commit of
    /// the same writes would lock, and publish a fresh version to those
    /// orecs so software read validation observes hardware writes.
    pub(crate) fn coupled(system: Arc<TmSystem>) -> Self {
        Self::build(system, true)
    }

    fn build(system: Arc<TmSystem>, orec_coupled: bool) -> Self {
        HtmSim {
            directory: Directory::new(Arc::clone(&system)),
            system,
            orec_coupled,
        }
    }

    /// The coherence directory speculative accesses register with.
    #[inline]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// True when hardware commits publish to the ownership records (the
    /// hybrid's fast path).
    #[inline]
    pub fn orec_coupled(&self) -> bool {
        self.orec_coupled
    }
}

// No software snapshot rung exists here (the fallback is the serial lock),
// but declared-read-only hardware commits still count as `ro_fast_commits`
// in the driver.
impl TxEngine for HtmSim {
    type Tx<'a> = LadderTx<'a>;

    fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> LadderTx<'a> {
        match common.mode {
            TxMode::Hardware => LadderTx::Hw(HtmTx::begin(self, self, thread, desc, common)),
            // No instrumented rung exists here: every software mode runs
            // behind the serial gate, value-logging under `SoftwareRetry`.
            _ => LadderTx::Sw(LazyTx::begin_serial(self, thread, desc, common)),
        }
    }

    fn initial_mode(&self) -> TxMode {
        TxMode::Hardware
    }

    fn mode_after_wake(&self) -> TxMode {
        // After waking, try hardware again from scratch.
        TxMode::Hardware
    }

    fn mode_for_software_switch(&self, _current: TxMode) -> TxMode {
        // No finer-grained software mode exists here: a transaction that
        // needs software facilities runs serially (holding the fallback
        // lock), exactly as descheduling transactions do on real TSX.
        TxMode::Serial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::directory::probe::Call;
    use crate::{AbortReason, Addr, HtmConfig, TmConfig, TmRuntime, TmVar, Tx, TxCtl, LINE_WORDS};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn runtime() -> (Arc<TmSystem>, Arc<HtmSim>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = HtmSim::new(Arc::clone(&system));
        (system, rt)
    }

    #[test]
    fn simple_transaction_commits_in_hardware() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 5);
        let out = rt.atomically(&th, |tx| {
            let x = v.get(tx)?;
            v.set(tx, x + 1)?;
            Ok(x + 1)
        });
        assert_eq!(out, 6);
        assert_eq!(v.load_direct(&system), 6);
        let stats = th.stats.snapshot();
        assert_eq!(stats.hw_commits, 1);
        assert_eq!(stats.sw_commits, 0);
    }

    #[test]
    fn capacity_overflow_falls_back_to_serial() {
        let system = TmSystem::new(TmConfig::small().with_htm(HtmConfig {
            max_read_lines: 4,
            max_write_lines: 2,
            max_attempts: 2,
        }));
        let rt = HtmSim::new(Arc::clone(&system));
        let th = system.register_thread();
        let arr = crate::TmArray::<u64>::alloc(&system, 256, 0);
        rt.atomically(&th, |tx| {
            // Touch many distinct lines so the write capacity overflows.
            for i in 0..64 {
                arr.set(tx, i, i as u64)?;
            }
            Ok(())
        });
        for i in 0..64 {
            assert_eq!(arr.load_direct(&system, i), i as u64);
        }
        let stats = th.stats.snapshot();
        assert!(stats.hw_aborts >= 2, "should abort speculatively first");
        assert_eq!(stats.sw_commits, 1, "must finish in serial mode");
        assert!(stats.serial_acquires >= 1);
        assert!(!system.serial.held(), "serial lock must be released");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let (system, rt) = runtime();
        let counter = TmVar::<u64>::alloc(&system, 0);
        let threads = 4;
        let per_thread = 300;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let rt = Arc::clone(&rt);
            let system = Arc::clone(&system);
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                let th = system.register_thread();
                for _ in 0..per_thread {
                    rt.atomically(&th, |tx| {
                        let x = counter.get(tx)?;
                        counter.set(tx, x + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_direct(&system), threads * per_thread);
        assert!(!system.serial.held());
    }

    // --- Residency: only the first touch of a line in an attempt reaches
    // the directory; every later access to it is a hit. ---------------------

    /// First word of the cache line the residency tests work on.
    const BASE: Addr = Addr(64);

    /// Commits `TXS` read-modify-write transactions over `vars` and returns
    /// the directory's `[read_line, write_line, clear_read, clear_write]`
    /// calls per committed attempt.
    fn calls_per_commit(vars: &[TmVar<u64>]) -> [usize; 4] {
        const TXS: usize = 10;
        let (system, rt) = runtime();
        let calls: Arc<[AtomicUsize; 5]> = Default::default();
        let seen = Arc::clone(&calls);
        let count = Box::new(move |call: Call, _| {
            seen[call as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(rt.directory().probe.set(count).is_ok());
        let th = system.register_thread();
        for _ in 0..TXS {
            rt.atomically(&th, |tx| {
                for v in vars {
                    let x = v.get(tx)?;
                    v.set(tx, x + 1)?;
                }
                Ok(())
            });
        }
        let stats = th.stats.snapshot();
        assert_eq!(stats.hw_commits, TXS as u64, "every attempt commits");
        assert_eq!(stats.hw_aborts, 0);
        for v in vars {
            assert_eq!(v.load_direct(&system), TXS as u64);
        }
        // `Call`'s first four variants, in order.
        std::array::from_fn(|i| {
            let c = calls[i].load(Ordering::Relaxed);
            assert_eq!(c % TXS, 0, "the same calls on every attempt");
            c / TXS
        })
    }

    #[test]
    fn four_variables_on_one_line_register_the_line_once() {
        let vars: Vec<_> = (0..4).map(|i| TmVar::from_addr(BASE.offset(i))).collect();
        assert!(vars.iter().all(|v| v.addr().line() == BASE.line()));
        assert_eq!(
            calls_per_commit(&vars),
            [1, 1, 1, 1],
            "[read_line, write_line, clear_read, clear_write] per committed attempt"
        );
    }

    #[test]
    fn k_distinct_lines_register_k_times() {
        // Two variables per line, so a per-access registration would show.
        for k in 1..=4 {
            let vars: Vec<_> = (0..2 * k)
                .map(|i| TmVar::from_addr(BASE.offset(i / 2 * LINE_WORDS + i % 2)))
                .collect();
            assert_eq!(calls_per_commit(&vars), [k; 4], "{k} lines");
        }
    }

    #[test]
    fn a_read_doomed_during_the_access_aborts_instead_of_returning_the_new_value() {
        let (system, rt) = runtime();
        let v = TmVar::<u64>::alloc(&system, 1);
        // A conflicting committer wins the race inside the reader's access:
        // it dooms the freshly registered reader, then overwrites the word.
        let (sys, victim) = (Arc::clone(&system), v.addr());
        let hook = Box::new(move |call, tid| {
            if call == Call::Registered {
                sys.threads.get(tid).expect("registered").doom();
                sys.heap.store(victim, 2);
            }
        });
        assert!(rt.directory().probe.set(hook).is_ok());
        let th = system.register_thread();
        let mut desc = th.checkout();
        let mut tx = rt.begin(&th, &mut desc, TxCommon::new(TxMode::Hardware, 0));
        assert!(
            matches!(
                tx.read(v.addr()),
                Err(TxCtl::Abort(AbortReason::HwConflict))
            ),
            "a zombie read must abort, not return the post-commit word"
        );
    }
}
