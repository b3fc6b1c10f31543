//! The HTM simulator's runtime: a thin [`TxEngine`] over [`LadderTx`].
//!
//! The speculative/serial mode ladder — bounded hardware attempts, the
//! serial fallback after repeated failures (GCC-style, behind the system's
//! [`tm_core::SerialGate`]), and the software re-execution that
//! descheduling hardware transactions require — is expressed through the
//! engine's mode-policy hooks; the loop that drives it is the shared
//! [`tm_core::driver::run`].

use std::sync::Arc;

use tm_core::driver::TxEngine;
use tm_core::hwtm::{FaultPlane, HwTm};
use tm_core::software::LazyTx;
use tm_core::{Descriptor, ThreadCtx, TmSystem, TxCommon, TxMode};

use crate::lines::LineTable;
use crate::plane::SimPlane;
use crate::tx::{HtmTx, LadderTx};

/// The best-effort hardware TM runtime, generic over its hardware backend.
///
/// By default the backend is the crate's [`SimPlane`] simulator (wrapped in
/// a [`FaultPlane`] when the system's [`tm_core::FaultConfig`] enables
/// injection); [`HtmSim::with_plane`] installs any other [`HwTm`]
/// implementation.
pub struct HtmSim {
    system: Arc<TmSystem>,
    /// The simulator backend, when that is what `plane` is (directly or
    /// behind a fault layer); kept for the white-box [`HtmSim::lines`]
    /// accessor.  `None` under a foreign [`HtmSim::with_plane`] backend.
    sim: Option<Arc<SimPlane>>,
    /// The hardware backend every speculative access goes through.
    plane: Arc<dyn HwTm>,
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
        Self::build(system, false)
    }

    /// Creates a runtime whose hardware commits are *coupled* to the
    /// system's ownership records, for use as the fast path of a hybrid
    /// HTM+STM runtime sharing `system` with a software STM: commits
    /// validate against (and abort on) locked orecs covering their written
    /// words — the cover a software commit of the same writes would lock —
    /// and publish a fresh version to those orecs so software read
    /// validation observes hardware writes.
    pub fn new_coupled(system: Arc<TmSystem>) -> Arc<Self> {
        Self::build(system, true)
    }

    fn build(system: Arc<TmSystem>, orec_coupled: bool) -> Arc<Self> {
        let sim = SimPlane::new(Arc::clone(&system));
        let fault = system.config.fault;
        let plane: Arc<dyn HwTm> = if fault.enabled() {
            Arc::new(FaultPlane::new(
                Arc::clone(&sim) as Arc<dyn HwTm>,
                fault,
                system.config.max_threads,
            ))
        } else {
            Arc::clone(&sim) as Arc<dyn HwTm>
        };
        Arc::new(HtmSim {
            system,
            sim: Some(sim),
            plane,
            orec_coupled,
        })
    }

    /// Creates a runtime over `system` driving the given hardware backend
    /// instead of the built-in simulator.  `orec_coupled` has the same
    /// meaning as in [`HtmSim::new_coupled`].
    pub fn with_plane(
        system: Arc<TmSystem>,
        plane: Arc<dyn HwTm>,
        orec_coupled: bool,
    ) -> Arc<Self> {
        Arc::new(HtmSim {
            system,
            sim: None,
            plane,
            orec_coupled,
        })
    }

    /// The hardware backend speculative accesses go through.
    #[inline]
    pub fn plane(&self) -> &Arc<dyn HwTm> {
        &self.plane
    }

    /// The simulated coherence directory (white-box test access).
    ///
    /// # Panics
    /// When a foreign backend was installed via [`HtmSim::with_plane`].
    pub fn lines(&self) -> &LineTable {
        self.sim
            .as_ref()
            .expect("no simulator backend installed (HtmSim::with_plane)")
            .lines()
    }

    /// The shared system.
    pub fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    /// True when hardware commits publish to the ownership records
    /// (hybrid-runtime coupling; see [`HtmSim::new_coupled`]).
    #[inline]
    pub fn orec_coupled(&self) -> bool {
        self.orec_coupled
    }
}

impl TxEngine for HtmSim {
    type Tx<'a> = LadderTx<'a>;

    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> LadderTx<'a> {
        match common.mode {
            TxMode::Hardware => LadderTx::Hw(HtmTx::begin(self, thread, desc, common)),
            // No instrumented rung exists here: every software mode runs
            // behind the serial gate, value-logging under `SoftwareRetry`.
            _ => LadderTx::Sw(LazyTx::begin_serial(&self.system, thread, desc, common)),
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

// No software snapshot rung exists here (the fallback is the serial lock),
// but declared-read-only hardware commits still count as `ro_fast_commits`
// in the driver.
tm_core::engine_runtime!("htm", HtmSim);

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::hwtm::HwAbort;
    use tm_core::{
        AbortReason, Addr, HtmConfig, LineId, ThreadId, TmConfig, TmRt, TmVar, Tx, TxCtl, TxResult,
    };

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
        let arr = tm_core::TmArray::<u64>::alloc(&system, 256, 0);
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

    #[test]
    fn retry_switches_to_software_and_wakes() {
        let (system, rt) = runtime();
        let flag = TmVar::<u64>::alloc(&system, 0);
        let flag2 = flag.clone();
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = flag2.get(tx)?;
                if v == 0 {
                    return condsync::retry(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 3));
        assert_eq!(waiter.join().unwrap(), 3);
        assert!(!system.serial.held());
    }

    #[test]
    fn await_and_waitpred_work_on_htm() {
        let (system, rt) = runtime();
        let count = TmVar::<u64>::alloc(&system, 0);

        let c1 = count.clone();
        let rt1 = Arc::clone(&rt);
        let s1 = Arc::clone(&system);
        let awaiter = std::thread::spawn(move || {
            let th = s1.register_thread();
            rt1.atomically(&th, |tx| {
                let v = c1.get(tx)?;
                if v == 0 {
                    return condsync::await_one(tx, c1.addr());
                }
                Ok(v)
            })
        });

        fn nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(tx.read(Addr(args[0] as usize))? != 0)
        }
        let c2 = count.clone();
        let rt2 = Arc::clone(&rt);
        let s2 = Arc::clone(&system);
        let predwaiter = std::thread::spawn(move || {
            let th = s2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = c2.get(tx)?;
                if v == 0 {
                    return condsync::wait_pred(tx, nonzero, &[c2.addr().0 as u64]);
                }
                Ok(v)
            })
        });

        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| count.set(tx, 9));
        assert_eq!(awaiter.join().unwrap(), 9);
        assert_eq!(predwaiter.join().unwrap(), 9);
    }

    #[test]
    fn explicit_restart_works_on_htm() {
        let (system, rt) = runtime();
        let flag = TmVar::<u64>::alloc(&system, 0);
        let flag2 = flag.clone();
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let spinner = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = flag2.get(tx)?;
                if v == 0 {
                    return condsync::restart(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 1));
        assert_eq!(spinner.join().unwrap(), 1);
    }

    /// A backend whose `read_line` plays a conflicting committer that wins
    /// the race inside the reader's access: it dooms the reader, then
    /// overwrites the word.
    #[derive(Debug)]
    struct DoomingPlane {
        system: Arc<TmSystem>,
        victim: Addr,
    }

    impl HwTm for DoomingPlane {
        fn slot_for(&self, _line: LineId) -> usize {
            0
        }
        fn read_line(&self, _: LineId, _: usize, tid: ThreadId) -> Result<(), HwAbort> {
            self.system.threads.get(tid).expect("registered").doom();
            self.system.heap.store(self.victim, 2);
            Ok(())
        }
        fn write_line(&self, _: LineId, _: usize, _: ThreadId) -> Result<(), HwAbort> {
            Ok(())
        }
        fn check_read_footprint(&self, _: usize) -> Result<(), HwAbort> {
            Ok(())
        }
        fn check_write_footprint(&self, _: usize) -> Result<(), HwAbort> {
            Ok(())
        }
        fn commit_check(&self, _: ThreadId) -> Result<(), HwAbort> {
            Ok(())
        }
        fn clear_read(&self, _: usize, _: ThreadId) {}
        fn clear_write(&self, _: usize, _: ThreadId) {}
        fn claim_for_writeback(&self, _: usize, _: ThreadId) {}
        fn release_writeback(&self, _: usize, _: ThreadId) {}
        fn line_cover(&self, _: LineId, _: &mut Vec<usize>) {}
    }

    #[test]
    fn a_read_doomed_during_the_access_aborts_instead_of_returning_the_new_value() {
        let system = TmSystem::new(TmConfig::small());
        let v = TmVar::<u64>::alloc(&system, 1);
        let plane = Arc::new(DoomingPlane {
            system: Arc::clone(&system),
            victim: v.addr(),
        });
        let rt = HtmSim::with_plane(Arc::clone(&system), plane, false);
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
