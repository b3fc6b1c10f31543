//! The per-thread counters have one writer each (`tm_core::TxStats`), so an
//! update is a plain load and store — and they must stay exact: nothing is
//! lost under concurrency, a foreign reader only ever sees values the owner
//! stored, and the high-water marks and `log_pool_reuses` keep their
//! meaning now that attempts run on a resident descriptor.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tm_repro::prelude::*;

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 100_000;
/// Every this-many ops a transaction also increments a counter all threads
/// share, so some attempts conflict and abort.
const SHARED_EVERY: u64 = 64;

#[test]
fn four_threads_of_updates_count_every_commit_exactly() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let shared = TmVar::<u64>::alloc(&system, 0);
        let blocks: Vec<Vec<TmVar<u64>>> = (0..THREADS)
            .map(|_| (0..4).map(|_| TmVar::alloc(&system, 0)).collect())
            .collect();
        let running = AtomicBool::new(true);

        let polls = std::thread::scope(|scope| {
            let (rt, system, shared) = (&rt, &system, &shared);
            let workers: Vec<_> = blocks
                .iter()
                .map(|block| {
                    scope.spawn(move || {
                        let th = system.register_thread();
                        for op in 0..OPS_PER_THREAD {
                            rt.atomically(&th, |tx| {
                                for v in block {
                                    let x = v.get(tx)?;
                                    v.set(tx, x + 1)?;
                                }
                                if op % SHARED_EVERY == 0 {
                                    let x = shared.get(tx)?;
                                    shared.set(tx, x + 1)?;
                                }
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            // A foreign reader: every counter it sees was stored by its
            // owner, so successive polls can only grow.
            let poller = scope.spawn(|| {
                let (mut polls, mut last) = (0u64, system.stats());
                while running.load(Ordering::Acquire) {
                    let now = system.stats();
                    assert!(now.total_commits() >= last.total_commits(), "{kind}");
                    assert!(now.total_aborts() >= last.total_aborts(), "{kind}");
                    assert!(now.log_pool_reuses >= last.log_pool_reuses, "{kind}");
                    assert!(now.total_commits() <= THREADS * OPS_PER_THREAD, "{kind}");
                    (polls, last) = (polls + 1, now);
                }
                polls
            });
            for worker in workers {
                worker.join().expect("worker finishes");
            }
            running.store(false, Ordering::Release);
            poller.join().expect("poller saw monotone counters")
        });
        assert!(polls > 0, "{kind}: the poller ran during the workload");

        let ops = THREADS * OPS_PER_THREAD;
        let stats = system.stats();
        assert_eq!(stats.total_commits(), ops, "{kind}: one commit per op");
        let shared_ops = THREADS * OPS_PER_THREAD.div_ceil(SHARED_EVERY);
        assert_eq!(shared.load_direct(&system), shared_ops, "{kind}");
        for block in &blocks {
            for v in block {
                assert_eq!(v.load_direct(&system), OPS_PER_THREAD, "{kind}");
            }
        }
        // `log_pool_reuses` counts attempts that began on containers an
        // earlier attempt had grown: never a thread's first attempt, and
        // every attempt after the first that logged an access — at the
        // latest the thread's first commit.  (A hardware attempt can abort
        // before its first access, so only the STMs pin the upper bound.)
        let attempts = stats.total_commits() + stats.total_aborts();
        assert!(stats.log_pool_reuses >= ops - THREADS, "{kind}");
        assert!(stats.log_pool_reuses <= attempts - THREADS, "{kind}");
        let stm = matches!(kind, RuntimeKind::EagerStm | RuntimeKind::LazyStm);
        if stm {
            assert_eq!(stats.log_pool_reuses, attempts - THREADS, "{kind}");
        }
        // The largest attempt touched the block and the shared counter.
        assert_eq!(stats.write_set_max, 5, "{kind}");
        if stm {
            assert_eq!(stats.read_set_max, 5, "{kind}: distinct addresses read");
        } else {
            // Hardware attempts count read *lines*.
            assert!((1..=5).contains(&stats.read_set_max), "{kind}");
        }
    }
}

/// A workload of nothing but declared read-only lookups commits every one of
/// them through the snapshot fast path and never builds a read set — on the
/// STMs, which have the software snapshot rung; the hardware runtimes count
/// their declared-read-only hardware commits the same way.
#[test]
fn pure_lookups_commit_free_and_build_no_read_set() {
    const READERS: u64 = 2;
    const LOOKUPS: u64 = 5_000;
    const KEYS: u64 = 64;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let map = TmHashMap::<u64, u64>::new(&system, 256);
        for k in 0..KEYS {
            map.insert_direct(&system, k, k + 1);
        }
        std::thread::scope(|scope| {
            for r in 0..READERS {
                let (rt, system, map) = (&rt, &system, &map);
                scope.spawn(move || {
                    let th = system.register_thread();
                    for i in 0..LOOKUPS {
                        let key = (i * 7 + r) % KEYS;
                        let got = rt.atomically_read(&th, |tx| map.get(tx, key));
                        assert_eq!(got, Some(key + 1), "{kind}");
                    }
                });
            }
        });
        let stats = system.stats();
        assert_eq!(stats.total_commits(), READERS * LOOKUPS, "{kind}");
        assert!(stats.ro_fast_commits > 0, "{kind}: no free commit");
        if matches!(kind, RuntimeKind::EagerStm | RuntimeKind::LazyStm) {
            assert_eq!(stats.ro_fast_commits, READERS * LOOKUPS, "{kind}");
            assert_eq!(stats.read_set_max, 0, "{kind}: a lookup built a read set");
        }
    }
}

/// The one version clock costs exactly one shared-line tick per writer
/// commit (`clock_cas`), on every runtime that stamps orecs: the eager and
/// the lazy commit and the hybrid's orec-coupled hardware commit.  Pure HTM
/// commits through the simulated cache protocol and never stamps, and a
/// read-only commit reads the clock without writing it.
#[test]
fn each_writer_commit_ticks_the_clock_once_and_readers_never() {
    const N: u64 = 500;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let var = TmVar::<u64>::alloc(&system, 0);
        let th = system.register_thread();
        for _ in 0..N {
            increment(&rt, &th, &var);
        }
        let ticks = if kind == RuntimeKind::Htm { 0 } else { N };
        assert_eq!(system.stats().clock_cas, ticks, "{kind}: writer commits");
        for _ in 0..N {
            assert_eq!(rt.atomically_read(&th, |tx| var.get(tx)), N, "{kind}");
        }
        let stats = system.stats();
        assert_eq!(stats.clock_cas, ticks, "{kind}: read-only commits");
        assert_eq!(stats.total_commits(), 2 * N, "{kind}");
    }
}

fn at_least(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? >= args[1])
}

/// A sleeper parked on a word every commit writes costs each of those
/// commits exactly one wake check, and is put to sleep and woken once.
#[test]
fn one_sleeper_costs_each_commit_one_wake_check() {
    const OPS: u64 = 2_000;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let counter = TmVar::<u64>::alloc(&system, 0);

        std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if counter.get(tx)? < OPS {
                        return wait_pred(tx, at_least, &[counter.addr().0 as u64, OPS]);
                    }
                    Ok(())
                });
            });
            while system.stats().sleeps == 0 {
                std::thread::yield_now();
            }
            let th = system.register_thread();
            for _ in 0..OPS {
                rt.atomically(&th, |tx| {
                    let x = counter.get(tx)?;
                    counter.set(tx, x + 1)
                });
            }
            sleeper
                .join()
                .expect("the last increment wakes the sleeper");
        });

        let stats = system.stats();
        assert_eq!(stats.wake_checks, OPS, "{kind}: one check per commit");
        assert_eq!((stats.sleeps, stats.wakeups), (1, 1), "{kind}");
    }
}

fn increment(rt: &AnyRuntime, th: &Arc<tm_repro::core::ThreadCtx>, var: &TmVar<u64>) {
    rt.atomically(th, |tx| {
        let x = var.get(tx)?;
        var.set(tx, x + 1)
    });
}

/// Every committed segment is one commit, counted on the rung it committed
/// on — also the segment a `TMCondVar` wait commits before it sleeps, and
/// also when that segment only read.  A consumer waits on an empty buffer,
/// one produced item releases it, and every runtime counts the same
/// commits: the consumer's wait segment, its double-check and its
/// continuation, the producer's commit and that commit's wake check.
#[test]
fn a_read_only_wait_point_segment_counts_one_commit_on_every_runtime() {
    let mut totals = Vec::new();
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let buffer = TmBoundedBuffer::new(&system, 4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let th = system.register_thread();
                rt.atomically(&th, |tx| buffer.consume(Mechanism::TmCondVar, tx))
            });
            while system.stats().sleeps == 0 {
                std::thread::yield_now();
            }
            let th = system.register_thread();
            rt.atomically(&th, |tx| buffer.produce(Mechanism::TmCondVar, tx, 7));
            assert_eq!(consumer.join().expect("the item wakes the consumer"), 7);
        });
        let stats = system.stats();
        assert_eq!(
            (stats.condvar_waits, stats.sleeps, stats.wakeups),
            (1, 1, 1),
            "{kind}"
        );
        totals.push((kind, stats.total_commits()));
    }
    for &(kind, total) in &totals {
        assert_eq!(total, 5, "{kind}: commits on every runtime {totals:?}");
    }
}
