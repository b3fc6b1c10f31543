//! The lazy-STM runtime: a thin [`TxEngine`] over [`LazyTx`].
//!
//! The engine hooks are identical in shape to the eager runtime's; every
//! behavioural difference between the two STMs lives inside
//! [`crate::tx::LazyTx`].  The driver loop itself is shared
//! ([`tm_core::driver::run`]).

use std::sync::Arc;

use condsync::OrigRegistry;
use tm_core::driver::{self, CommitOutcome, TxEngine};
use tm_core::{
    Descriptor, ThreadCtx, TmRt, TmRuntime, TmSystem, Tx, TxCommon, TxCtl, TxKind, TxResult,
    WaitCondition, WaitSpec,
};

use crate::tx::LazyTx;

/// The lazy (redo-log) software TM runtime.
#[derive(Debug)]
pub struct LazyStm {
    system: Arc<TmSystem>,
    /// Waiting list for the `Retry-Orig` baseline (Algorithm 1).
    orig: OrigRegistry,
}

impl LazyStm {
    /// Creates a runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Arc::new(LazyStm {
            system,
            orig: OrigRegistry::new(),
        })
    }

    /// The `Retry-Orig` waiting list (exposed for tests).
    pub fn orig_registry(&self) -> &OrigRegistry {
        &self.orig
    }
}

impl TxEngine for LazyStm {
    type Tx<'a> = LazyTx<'a>;

    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> LazyTx<'a> {
        LazyTx::begin(&self.system, thread, desc, common)
    }

    fn try_commit(&self, tx: &mut LazyTx<'_>) -> Result<CommitOutcome, TxCtl> {
        // Commit-time lock acquisition covered every redo-log address with
        // an ownership record, so the cover it leaves in the descriptor is a
        // complete stripe cover of the write set.
        tx.try_commit()
    }

    fn rollback(&self, tx: &mut LazyTx<'_>) {
        tx.rollback();
    }

    fn materialise_wait(
        &self,
        tx: &mut LazyTx<'_>,
        spec: WaitSpec,
    ) -> Result<WaitCondition, TxCtl> {
        tx.rollback_for_deschedule(spec)
    }

    fn supports_orig_retry(&self) -> bool {
        true
    }

    fn deschedule_orig(&self, thread: &Arc<ThreadCtx>, tx: &mut LazyTx<'_>) {
        let read_orecs = tx.read_orec_indices();
        let start = tx.start();
        tx.rollback();
        condsync::sleep_until_intersection(&self.orig, thread, read_orecs.clone(), || {
            tm_core::access::cover_valid_at(&self.system.orecs, &read_orecs, start)
        });
    }

    fn after_writer_commit(
        &self,
        thread: &Arc<ThreadCtx>,
        outcome: &CommitOutcome,
        cover: &[usize],
    ) {
        self.orig.wake_after_commit(thread, outcome.serial, cover);
    }
}

impl TmRuntime for LazyStm {
    fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    fn name(&self) -> &'static str {
        "lazy-stm"
    }

    fn exec_u64(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<u64>,
    ) -> u64 {
        driver::run(self, thread, body)
    }

    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool {
        driver::run(self, thread, body)
    }
}

impl TmRt for LazyStm {
    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        driver::run(self, thread, body)
    }

    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        driver::run_kind(self, thread, TxKind::ReadOnly, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{TmConfig, TmVar};

    fn runtime() -> (Arc<TmSystem>, Arc<LazyStm>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = LazyStm::new(Arc::clone(&system));
        (system, rt)
    }

    #[test]
    fn simple_transaction_commits() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 3);
        let doubled = rt.atomically(&th, |tx| {
            let x = v.get(tx)?;
            v.set(tx, x * 2)?;
            Ok(x * 2)
        });
        assert_eq!(doubled, 6);
        assert_eq!(v.load_direct(&system), 6);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let (system, rt) = runtime();
        let counter = TmVar::<u64>::alloc(&system, 0);
        let threads = 4;
        let per_thread = 500;
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
    }

    #[test]
    fn retry_sleeps_until_value_changes() {
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
        rt.atomically(&th, |tx| flag.set(tx, 7));
        assert_eq!(waiter.join().unwrap(), 7);
    }

    #[test]
    fn await_and_waitpred_wake_correctly() {
        let (system, rt) = runtime();
        let count = TmVar::<u64>::alloc(&system, 0);

        // Await waiter.
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

        // WaitPred waiter (wants count >= 2).
        fn ge2(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(tx.read(tm_core::Addr(args[0] as usize))? >= 2)
        }
        let c2 = count.clone();
        let rt2 = Arc::clone(&rt);
        let s2 = Arc::clone(&system);
        let predwaiter = std::thread::spawn(move || {
            let th = s2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = c2.get(tx)?;
                if v < 2 {
                    return condsync::wait_pred(tx, ge2, &[c2.addr().0 as u64]);
                }
                Ok(v)
            })
        });

        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| count.set(tx, 1));
        let first = awaiter.join().unwrap();
        assert!(first >= 1);
        rt.atomically(&th, |tx| count.set(tx, 2));
        assert_eq!(predwaiter.join().unwrap(), 2);
    }

    #[test]
    fn retry_orig_on_lazy_stm() {
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
                    return condsync::retry_orig(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 2));
        assert_eq!(waiter.join().unwrap(), 2);
    }
}
