//! The lazy-STM runtime: the shared software-TM engine
//! ([`condsync::SoftwareStm`]) at the lazy protocol.

use crate::tx::Lazy;

/// The lazy (redo-log) software TM runtime.
pub type LazyStm = condsync::SoftwareStm<Lazy>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_core::{TmConfig, TmRt, TmSystem, TmVar, Tx, TxResult};

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
