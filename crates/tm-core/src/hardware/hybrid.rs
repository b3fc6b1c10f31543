//! A hybrid HTM+STM runtime: best-effort (simulated) hardware transactions
//! as the fast path, the lazy software STM as the fallback, one shared
//! [`crate::TmSystem`].
//!
//! The paper evaluates three *fixed* configurations; this module adds the
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
//!   serial gate's hardware commit section and claims/dooms the written
//!   cache lines in the coherence directory first (the lazy commit is begun
//!   with the hardware runtime's [`super::Directory`]), so no speculative
//!   transaction can observe a partial write-back or survive having read
//!   overwritten lines;
//! * **hardware → software**: hardware commits run orec-*coupled*
//!   ([`HtmSim::orec_coupled`]): before writing back they abort on —
//!   and never stomp — locked ownership records covering their written
//!   words, and they publish a fresh global-clock version to those records,
//!   so software read validation observes hardware writes.  Software
//!   commits in turn always validate their read set (inside the barrier)
//!   rather than trusting the nothing-committed clock fast path.
//!
//! Condition synchronization comes for free: the engine plugs into the one
//! driver loop in [`crate::driver`], the software path supplies value
//! logging and wait-condition materialisation, and — because the software
//! path has real lock metadata — the hybrid even supports the `Retry-Orig`
//! baseline the pure HTM configuration must exclude: a coupled hardware
//! commit's cover is the lock set a software commit would hold.

use std::sync::Arc;

use super::runtime::HtmSim;
use super::tx::{HtmTx, LadderTx};
use crate::access::Descriptor;
use crate::driver::TxEngine;
use crate::software::LazyTx;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{TxCommon, TxMode};

/// The hybrid HTM+STM runtime.
///
/// Attempts begin as (simulated) hardware transactions on an orec-coupled
/// [`HtmSim`]; software attempts are lazy-STM transactions
/// ([`crate::software::LazyTx`]) begun with that runtime's coherence
/// directory, serial attempts the same type begun in [`TxMode::Serial`].
/// All three share one [`TmSystem`].
pub struct HybridTm {
    system: Arc<TmSystem>,
    htm: HtmSim,
}

impl std::fmt::Debug for HybridTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridTm")
            .field("serial_held", &self.system.serial.held())
            .finish_non_exhaustive()
    }
}

impl HybridTm {
    /// Creates a hybrid runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Arc::new(HybridTm {
            htm: HtmSim::coupled(Arc::clone(&system)),
            system,
        })
    }

    /// The hardware fast path's simulator (exposed for tests).
    pub fn htm(&self) -> &HtmSim {
        &self.htm
    }
}

// A declared read-only transaction tries the hardware fast path first, as
// always; if the attempt falls off speculation, the software rung is a
// lazy-STM snapshot attempt (no read set, free commit) instead of a full
// instrumented transaction.
impl TxEngine for HybridTm {
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
            // A hardware attempt sleeps on the hybrid, not on its simulator.
            TxMode::Hardware => LadderTx::Hw(HtmTx::begin(&self.htm, self, thread, desc, common)),
            // The software rungs are real STM attempts whose commits claim
            // their written lines in the directory; `Serial` is the same type
            // behind the gate.
            _ => LadderTx::Sw(LazyTx::begin_with(
                self,
                thread,
                desc,
                common,
                Some(self.htm.directory()),
            )),
        }
    }

    fn initial_mode(&self) -> TxMode {
        TxMode::Hardware
    }

    fn mode_after_wake(&self) -> TxMode {
        // A transaction that descheduled has already fallen off the hardware
        // path (its value log was built by a software attempt), and the
        // wake-up means it is racing the very writers that put it to sleep:
        // finish it on the instrumented software path rather than feed it
        // back into speculation mid-contention.  The *next* transaction
        // starts in hardware again ([`TxEngine::initial_mode`]).
        TxMode::Software
    }

    fn mode_for_software_switch(&self, current: TxMode) -> TxMode {
        // The whole point of the hybrid: hardware attempts that need
        // software facilities drop to the instrumented STM path, not to the
        // global serial lock.
        match current {
            TxMode::Hardware => TxMode::Software,
            other => other,
        }
    }

    fn escalated_mode(&self, current: TxMode) -> TxMode {
        // The mode ladder: Hw → Sw → Serial.
        match current {
            TxMode::Hardware => TxMode::Software,
            _ => TxMode::Serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, HtmConfig, TmConfig, TmRuntime, TmVar, TxCtl};

    fn runtime() -> (Arc<TmSystem>, Arc<HybridTm>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = HybridTm::new(Arc::clone(&system));
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
    fn capacity_overflow_degrades_to_software_not_serial() {
        let system = TmSystem::new(TmConfig::small().with_htm(HtmConfig {
            max_read_lines: 4,
            max_write_lines: 2,
            max_attempts: 2,
        }));
        let rt = HybridTm::new(Arc::clone(&system));
        let th = system.register_thread();
        let arr = crate::TmArray::<u64>::alloc(&system, 256, 0);
        rt.atomically(&th, |tx| {
            for i in 0..64 {
                arr.set(tx, i, i as u64)?;
            }
            Ok(())
        });
        for i in 0..64 {
            assert_eq!(arr.load_direct(&system, i), i as u64);
        }
        let stats = th.stats.snapshot();
        assert!(stats.hw_aborts >= 2, "speculation must fail first");
        assert_eq!(stats.sw_commits, 1, "must finish on the software path");
        assert_eq!(stats.serial_commits, 0, "the serial rung was not needed");
        assert_eq!(stats.serial_acquires, 0);
        assert!(stats.cm_escalations >= 1);
        assert!(!system.serial.held());
    }

    #[test]
    fn hardware_commit_publishes_to_the_orecs() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 0);
        let before = system.orecs.load_for(v.addr()).version();
        rt.atomically(&th, |tx| v.set(tx, 1));
        assert_eq!(th.stats.snapshot().hw_commits, 1);
        let after = system.orecs.load_for(v.addr()).version();
        assert!(
            after > before,
            "a coupled hardware commit must bump the written stripes \
             ({before} -> {after}) so software validation can see it"
        );
    }

    #[test]
    fn concurrent_mixed_increments_are_not_lost() {
        let (system, rt) = runtime();
        let counter = TmVar::<u64>::alloc(&system, 0);
        let threads = 4;
        let per_thread = 300;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let rt = Arc::clone(&rt);
            let system = Arc::clone(&system);
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                let th = system.register_thread();
                for i in 0..per_thread {
                    // Half of the transactions are forced onto the software
                    // path, so hardware and software commits genuinely
                    // interleave on the same location.
                    let force_sw = (tid + i) % 2 == 0;
                    rt.atomically(&th, |tx| {
                        if force_sw && tx.mode() == TxMode::Hardware {
                            return Err(TxCtl::SwitchToSoftware);
                        }
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
        let stats = system.stats();
        assert!(stats.hw_commits > 0, "the fast path must be used");
        assert!(stats.sw_commits > 0, "the software path must be used");
        assert!(!system.serial.held());
    }

    #[test]
    fn become_serial_runs_on_the_last_rung() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 1);
        let got = rt.atomically(&th, |tx| {
            if tx.mode() != TxMode::Serial {
                return Err(TxCtl::BecomeSerial);
            }
            let x = v.get(tx)?;
            v.set(tx, x * 10)?;
            Ok(x * 10)
        });
        assert_eq!(got, 10);
        let stats = th.stats.snapshot();
        assert_eq!(stats.serial_commits, 1);
        assert!(stats.serial_acquires >= 1);
        assert!(stats.mode_switches >= 1);
        assert!(!system.serial.held());
    }

    #[test]
    fn software_commit_dooms_overlapping_hardware_readers() {
        // Deterministic check of the write-back claim at the directory
        // level: a software commit's write-back claims the written line and
        // dooms registered speculative readers.
        let (system, rt) = runtime();
        let th = system.register_thread();
        let victim = system.register_thread();
        let addr = Addr(64);
        let lines = rt.htm().directory().lines();
        let slot = lines.slot_for(addr.line());
        assert_eq!(lines.register_reader(slot, victim.id), None);

        let v = TmVar::<u64>::from_addr(addr);
        rt.atomically(&th, |tx| {
            if tx.mode() == TxMode::Hardware {
                return Err(TxCtl::SwitchToSoftware);
            }
            v.set(tx, 7)
        });
        assert!(
            victim.is_doomed(),
            "the software write-back must doom the speculative reader"
        );
        lines.clear_reader(slot, victim.id);
    }
}
