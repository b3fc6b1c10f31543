//! The eager-STM runtime: the shared software-TM engine
//! ([`condsync::SoftwareStm`]) at the eager protocol.

use crate::tx::Eager;

/// The eager (undo-log) software TM runtime.
pub type EagerStm = condsync::SoftwareStm<Eager>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_core::{Addr, TmConfig, TmRt, TmSystem, TmVar, Tx, TxResult};

    fn runtime() -> (Arc<TmSystem>, Arc<EagerStm>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = EagerStm::new(Arc::clone(&system));
        (system, rt)
    }

    #[test]
    fn simple_transaction_commits() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 1);
        let got = rt.atomically(&th, |tx| {
            let x = v.get(tx)?;
            v.set(tx, x + 10)?;
            Ok(x)
        });
        assert_eq!(got, 1);
        assert_eq!(v.load_direct(&system), 11);
        assert_eq!(th.stats.snapshot().sw_commits, 1);
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
    fn await_sleeps_until_named_address_changes() {
        let (system, rt) = runtime();
        let x = TmVar::<u64>::alloc(&system, 0);
        let y = TmVar::<u64>::alloc(&system, 0);
        let (x2, y2) = (x.clone(), y.clone());
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = x2.get(tx)?;
                if v == 0 {
                    return condsync::await_one(tx, x2.addr());
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = system.register_thread();
        // Writing an unrelated variable must not wake the waiter for long:
        // it may re-check, but it cannot complete until x changes.
        rt.atomically(&th, |tx| y.set(tx, 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.atomically(&th, |tx| x.set(tx, 5));
        assert_eq!(waiter.join().unwrap(), 5);
        let _ = y2;
    }

    #[test]
    fn wait_pred_only_wakes_when_predicate_holds() {
        let (system, rt) = runtime();
        let count = TmVar::<u64>::alloc(&system, 0);
        fn at_least_three(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(tx.read(Addr(args[0] as usize))? >= 3)
        }
        let count2 = count.clone();
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = count2.get(tx)?;
                if v < 3 {
                    return condsync::wait_pred(tx, at_least_three, &[count2.addr().0 as u64]);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = system.register_thread();
        for _ in 0..3 {
            rt.atomically(&th, |tx| {
                let v = count.get(tx)?;
                count.set(tx, v + 1)
            });
        }
        assert_eq!(waiter.join().unwrap(), 3);
    }

    #[test]
    fn retry_orig_sleeps_and_is_woken_by_lock_intersection() {
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
        rt.atomically(&th, |tx| flag.set(tx, 9));
        assert_eq!(waiter.join().unwrap(), 9);
        assert_eq!(rt.orig_registry().len(), 0);
    }

    #[test]
    fn restart_baseline_spins_until_condition_holds() {
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
        rt.atomically(&th, |tx| flag.set(tx, 4));
        assert_eq!(spinner.join().unwrap(), 4);
    }

    #[test]
    fn explicit_abort_stats_are_counted() {
        let (system, rt) = runtime();
        let flag = TmVar::<u64>::alloc(&system, 1);
        let th = system.register_thread();
        let mut first = true;
        rt.atomically(&th, |tx| {
            let v = flag.get(tx)?;
            if first {
                first = false;
                return condsync::restart(tx);
            }
            Ok(v)
        });
        assert!(th.stats.snapshot().explicit_aborts >= 1);
    }
}
