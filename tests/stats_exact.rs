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
                    assert!(now.update_tx_latency.count() >= last.update_tx_latency.count());
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
        assert_eq!(
            stats.update_tx_latency.count(),
            ops,
            "{kind}: one sample per op"
        );
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
        assert_eq!(stats.ro_tx_latency.count(), READERS * LOOKUPS, "{kind}");
        assert!(stats.ro_fast_commits > 0, "{kind}: no free commit");
        if matches!(kind, RuntimeKind::EagerStm | RuntimeKind::LazyStm) {
            assert_eq!(stats.ro_fast_commits, READERS * LOOKUPS, "{kind}");
            assert_eq!(stats.read_set_max, 0, "{kind}: a lookup built a read set");
        }
    }
}

fn at_least(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? >= args[1])
}

/// Wake checks and the deschedule double-check are transactions of the wait
/// protocol, not operations: with a sleeper parked on a word every commit
/// writes, each commit runs one, and none of them may add a sample to the
/// latency histograms (or an operation would seem to be several).
#[test]
fn wake_checks_record_no_latency_samples() {
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
        // The increments and the sleeper's own transaction; not its first
        // evaluation, its double-check, or the writer's wake checks.
        assert_eq!(stats.update_tx_latency.count(), OPS + 1, "{kind}");
        assert_eq!(stats.ro_tx_latency.count(), 0, "{kind}");
        assert_eq!(stats.ro_tx_latency.samples(), 0, "{kind}");
        assert!(stats.update_tx_latency.samples() <= OPS + 1, "{kind}");
    }
}

/// Operations per sampling test: one in eight is timed, so 1,000 expected
/// with σ ≈ 30 — [`SAMPLED`] is more than ten σ either side.
const SAMPLING_OPS: u64 = 8_000;
const SAMPLED: std::ops::RangeInclusive<u64> = 600..=1_400;

/// One thread running `SAMPLING_OPS` iterations of `op` on a fresh system.
fn single_thread_stats(
    kind: RuntimeKind,
    op: impl Fn(&AnyRuntime, &Arc<tm_repro::core::ThreadCtx>, &TmVar<u64>),
) -> tm_repro::core::StatsSnapshot {
    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let var = TmVar::<u64>::alloc(&system, 0);
    let th = system.register_thread();
    for _ in 0..SAMPLING_OPS {
        op(&rt, &th, &var);
    }
    system.stats()
}

fn increment(rt: &AnyRuntime, th: &Arc<tm_repro::core::ThreadCtx>, var: &TmVar<u64>) {
    rt.atomically(th, |tx| {
        let x = var.get(tx)?;
        var.set(tx, x + 1)
    });
}

/// The driver times one transaction in eight and counts all of them; which
/// ones it times follows the thread's own seeded stream, so a rerun picks
/// the same ones.
#[test]
fn one_transaction_in_eight_is_timed_and_every_one_counted() {
    for kind in RuntimeKind::ALL {
        let first = single_thread_stats(kind, increment).update_tx_latency;
        assert_eq!(first.count(), SAMPLING_OPS, "{kind}");
        assert!(
            SAMPLED.contains(&first.samples()),
            "{kind}: {}",
            first.samples()
        );
        let again = single_thread_stats(kind, increment).update_tx_latency;
        assert_eq!(again.samples(), first.samples(), "{kind}: not repeatable");
    }
}

/// A workload alternating two kinds of operation (as `pc_*` alternates
/// blocking and non-blocking ones) still gets each kind timed at the same
/// rate: a timed-every-eighth counter would hand one of them every sample.
#[test]
fn alternating_operation_kinds_are_both_sampled() {
    for kind in RuntimeKind::ALL {
        let stats = single_thread_stats(kind, |rt, th, var| {
            increment(rt, th, var);
            rt.atomically_read(th, |tx| var.get(tx));
        });
        for (class, hist) in [
            ("update", stats.update_tx_latency),
            ("ro", stats.ro_tx_latency),
        ] {
            assert_eq!(hist.count(), SAMPLING_OPS, "{kind} {class}");
            assert!(
                SAMPLED.contains(&hist.samples()),
                "{kind} {class}: {}",
                hist.samples()
            );
        }
    }
}
