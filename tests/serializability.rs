//! Integration tests that the three runtimes provide the isolation the
//! condition-synchronization layer assumes: concurrent transactions behave as
//! if executed in some serial order (no lost updates, invariants preserved
//! across transfers), and transactional data structures stay consistent under
//! contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

const THREADS: usize = 4;

#[test]
fn concurrent_counter_increments_are_serializable() {
    const PER_THREAD: u64 = 300;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let counter = TmCounter::new(&system, 0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let counter = counter.clone();
                scope.spawn(move || {
                    let th = system.register_thread();
                    for _ in 0..PER_THREAD {
                        rt.atomically(&th, |tx| counter.increment(tx).map(|_| ()));
                    }
                });
            }
        });
        assert_eq!(
            counter.load_direct(&system),
            THREADS as u64 * PER_THREAD,
            "lost updates on {kind}"
        );
    }
}

#[test]
fn bank_transfers_conserve_total_balance() {
    const ACCOUNTS: usize = 8;
    const TRANSFERS: u64 = 250;
    const INITIAL: u64 = 1_000;

    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let accounts: Arc<Vec<TmVar<u64>>> = Arc::new(
            (0..ACCOUNTS)
                .map(|_| TmVar::alloc(&system, INITIAL))
                .collect(),
        );

        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let accounts = Arc::clone(&accounts);
                scope.spawn(move || {
                    let th = system.register_thread();
                    let mut seed = 0x1234_5678_u64.wrapping_add(tid as u64);
                    for _ in 0..TRANSFERS {
                        // xorshift for reproducible pseudo-random pairs.
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let from = (seed % ACCOUNTS as u64) as usize;
                        let to = ((seed >> 8) % ACCOUNTS as u64) as usize;
                        let amount = seed % 5;
                        rt.atomically(&th, |tx| {
                            let f = accounts[from].get(tx)?;
                            if f < amount || from == to {
                                return Ok(());
                            }
                            let t = accounts[to].get(tx)?;
                            accounts[from].set(tx, f - amount)?;
                            accounts[to].set(tx, t + amount)
                        });
                    }
                });
            }
        });

        let total: u64 = accounts.iter().map(|a| a.load_direct(&system)).sum();
        assert_eq!(
            total,
            ACCOUNTS as u64 * INITIAL,
            "money was created or destroyed on {kind}"
        );
    }
}

/// Concurrent writers that allocate lose and duplicate nothing: every
/// `TmOrderedMap` insert allocates a node and relinks its neighbours.  The
/// threads draw disjoint keys from one descending ticket, so nearly every
/// insert lands at the head and they contend on the same links.
#[test]
fn ordered_map_inserts_are_neither_lost_nor_duplicated_under_contention() {
    const PER_THREAD: u64 = 1000;
    const TOTAL: u64 = THREADS as u64 * PER_THREAD;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default().with_heap_words(1 << 16));
        let system = Arc::clone(rt.system());
        let index = TmOrderedMap::<u64, u64>::new(&system);
        let baseline = system.heap.allocated_words();
        let taken = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let index = index.clone();
                let taken = &taken;
                scope.spawn(move || {
                    let th = system.register_thread();
                    for _ in 0..PER_THREAD {
                        let key = TOTAL - taken.fetch_add(1, Ordering::Relaxed);
                        let old = rt.atomically(&th, |tx| index.insert(tx, key, key * 10));
                        assert_eq!(old, None, "key {key} inserted twice on {kind}");
                    }
                });
            }
        });

        // Drain: every key appears exactly once, in order, with its value.
        let th = system.register_thread();
        let entries = rt.atomically_read(&th, |tx| index.range(tx, 0, u64::MAX));
        let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (1..=TOTAL).collect::<Vec<_>>(), "{kind}");
        for (key, value) in entries {
            let removed = rt.atomically(&th, |tx| index.remove(tx, key));
            assert_eq!(removed, Some(value), "{kind}: key {key}");
            assert_eq!(value, key * 10, "{kind}: key {key}");
        }
        assert!(index.dump_direct(&system).is_empty(), "{kind}");
        assert_eq!(
            system.heap.allocated_words(),
            baseline,
            "{kind}: a node was lost"
        );
    }
}

#[test]
fn contended_commits_stay_serializable_and_orec_versions_never_regress() {
    // The contended-counter workload must stay serializable (no lost
    // updates) on every runtime, and no ownership record may publish a
    // regressing version — which a commit stamping below an
    // already-released version would do.  A watcher thread samples the
    // orecs concurrently with the workload and tracks every unlocked
    // version it observes.
    use std::sync::atomic::{AtomicBool, Ordering};

    const PER_THREAD: u64 = 200;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let counter = TmCounter::new(&system, 0);
        let watched: Vec<usize> = (0..system.orecs.len()).collect();
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let watcher_system = Arc::clone(&system);
            let watcher_done = &done;
            let watcher_watched = &watched;
            scope.spawn(move || {
                let mut floors = vec![0u64; watcher_watched.len()];
                while !watcher_done.load(Ordering::Acquire) {
                    for (&idx, floor) in watcher_watched.iter().zip(floors.iter_mut()) {
                        let v = watcher_system.orecs.load(idx);
                        if v.is_locked() {
                            continue;
                        }
                        assert!(
                            v.version() >= *floor,
                            "{kind}: orec {idx} regressed from {} to {}",
                            floor,
                            v.version()
                        );
                        *floor = v.version();
                    }
                    std::thread::yield_now();
                }
            });

            // Inner scope: joins the workers, after which the watcher is
            // released — the outer scope then joins the watcher itself.
            std::thread::scope(|workers| {
                for _ in 0..THREADS {
                    let rt = rt.clone();
                    let system = Arc::clone(&system);
                    let counter = counter.clone();
                    workers.spawn(move || {
                        let th = system.register_thread();
                        for _ in 0..PER_THREAD {
                            rt.atomically(&th, |tx| counter.increment(tx).map(|_| ()));
                        }
                    });
                }
            });
            done.store(true, Ordering::Release);
        });

        assert_eq!(
            counter.load_direct(&system),
            THREADS as u64 * PER_THREAD,
            "lost updates on {kind}"
        );
    }
}

#[test]
fn snapshot_readers_never_observe_torn_invariants() {
    // Read-only opacity for the snapshot read path: declared read-only
    // transactions scan a multi-word invariant (cells that always sum to
    // TOTAL) while writers continuously move value between cells.  A torn
    // snapshot — any mix of pre- and post-transfer cells — breaks the sum.
    // Run on every runtime; iteration counts scale with `TM_STRESS_ITERS`
    // for the scheduled soak job.
    use std::sync::atomic::{AtomicBool, Ordering};

    const CELLS: usize = 6;
    const TOTAL: u64 = 6_000;
    const READERS: usize = 2;
    const WRITERS: usize = 2;
    let transfers: u64 = 150 * tm_repro::workloads::stress_iters();

    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let cells: Arc<Vec<TmVar<u64>>> = Arc::new(
            (0..CELLS)
                .map(|i| TmVar::alloc(&system, if i == 0 { TOTAL } else { 0 }))
                .collect(),
        );
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..READERS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let cells = Arc::clone(&cells);
                let done = &done;
                scope.spawn(move || {
                    let th = system.register_thread();
                    // Check `done` at the bottom: on a one-core host
                    // the writers can finish before a reader is ever
                    // scheduled, and each reader must still scan once.
                    loop {
                        let sum: u64 = rt.atomically_read(&th, |tx| {
                            let mut s = 0u64;
                            for c in cells.iter() {
                                s += c.get(tx)?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, TOTAL, "{kind}: torn read-only snapshot");
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                });
            }
            // Inner scope joins the writers, after which the readers
            // are released; the outer scope then joins the readers.
            std::thread::scope(|writers| {
                for tid in 0..WRITERS {
                    let rt = rt.clone();
                    let system = Arc::clone(&system);
                    let cells = Arc::clone(&cells);
                    writers.spawn(move || {
                        let th = system.register_thread();
                        let mut seed = 0x9E37_79B9_u64.wrapping_add(tid as u64);
                        for _ in 0..transfers {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            let from = (seed % CELLS as u64) as usize;
                            let to = ((seed >> 8) % CELLS as u64) as usize;
                            rt.atomically(&th, |tx| {
                                let f = cells[from].get(tx)?;
                                if f == 0 || from == to {
                                    return Ok(());
                                }
                                let t = cells[to].get(tx)?;
                                cells[from].set(tx, f - 1)?;
                                cells[to].set(tx, t + 1)
                            });
                        }
                    });
                }
            });
            done.store(true, Ordering::Release);
        });

        let total: u64 = cells.iter().map(|c| c.load_direct(&system)).sum();
        assert_eq!(total, TOTAL, "{kind}: writers corrupted the invariant");
        let stats = system.stats();
        assert!(
            stats.ro_fast_commits > 0,
            "{kind}: no read-only fast commits recorded"
        );
    }
}

#[test]
fn transactional_barrier_keeps_phases_in_lockstep() {
    use condsync::Mechanism;
    const PHASES: u64 = 12;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let barrier = TmBarrier::new(&system, THREADS as u64);
        // One cell per thread records its current phase; at every barrier all
        // cells must be equal.
        let phases: Arc<Vec<TmVar<u64>>> =
            Arc::new((0..THREADS).map(|_| TmVar::alloc(&system, 0)).collect());

        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let barrier = barrier.clone();
                let phases = Arc::clone(&phases);
                scope.spawn(move || {
                    let th = system.register_thread();
                    for phase in 1..=PHASES {
                        rt.atomically(&th, |tx| phases[tid].set(tx, phase));
                        barrier.wait(&rt, &th, Mechanism::Retry);
                        // After the barrier nobody can still be on a phase
                        // older than ours minus zero: everyone has written
                        // at least `phase`.
                        let snapshot: Vec<u64> = (0..THREADS)
                            .map(|i| rt.atomically(&th, |tx| phases[i].get(tx)))
                            .collect();
                        for &p in &snapshot {
                            assert!(
                                p >= phase,
                                "{kind}: thread observed a straggler at phase {p} < {phase}"
                            );
                        }
                        barrier.wait(&rt, &th, Mechanism::Retry);
                    }
                });
            }
        });
    }
}
