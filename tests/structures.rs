//! Integration tests for the auxiliary transactional data structures
//! (counter, hash map, ordered map) under real concurrency on all four
//! runtimes: these are the "library code" consumers the paper argues the
//! composable mechanisms enable.

use std::sync::Arc;
use std::time::Duration;

use condsync::Mechanism;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

#[test]
fn counter_hand_off_wakes_the_reader() {
    for kind in RuntimeKind::ALL {
        for mechanism in [Mechanism::Retry, Mechanism::Await, Mechanism::WaitPred] {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let counter = TmCounter::new(&system, 0);

            let (rt_r, system_r, counter_r) = (rt.clone(), Arc::clone(&system), counter.clone());
            let reader = std::thread::spawn(move || {
                let th = system_r.register_thread();
                rt_r.atomically(&th, |tx| counter_r.wait_for_at_least(mechanism, tx, 1))
            });

            // Wait for the reader to publish its waiter, so the increment
            // must wake it.
            while system.waiters.is_empty() {
                std::thread::yield_now();
            }
            let th = system.register_thread();
            assert_eq!(
                rt.atomically(&th, |tx| counter.increment(tx)),
                1,
                "{kind} {mechanism}"
            );
            assert_eq!(reader.join().unwrap(), 1, "{kind} {mechanism}");
        }
    }
}

#[test]
fn counter_threshold_releases_waiters_once_all_events_arrive() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let events = TmCounter::new(&system, 0);
        let results = TmCounter::new(&system, 0);

        std::thread::scope(|scope| {
            // Two waiters using different mechanisms.
            for mechanism in [Mechanism::Retry, Mechanism::WaitPred] {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let events = events.clone();
                let results = results.clone();
                scope.spawn(move || {
                    let th = system.register_thread();
                    rt.atomically(&th, |tx| {
                        events.wait_for_at_least(mechanism, tx, 4)?;
                        results.increment(tx).map(|_| ())
                    });
                });
            }
            // Four workers report one event each.
            for _ in 0..4 {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let events = events.clone();
                scope.spawn(move || {
                    let th = system.register_thread();
                    std::thread::sleep(Duration::from_millis(2));
                    rt.atomically(&th, |tx| events.increment(tx).map(|_| ()));
                });
            }
        });

        assert_eq!(events.load_direct(&system), 4, "{kind}");
        assert_eq!(
            results.load_direct(&system),
            2,
            "{kind}: both waiters ran after the fourth event"
        );
    }
}

#[test]
fn hash_map_concurrent_inserts_are_all_visible() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default().with_heap_words(1 << 14));
        let system = Arc::clone(rt.system());
        let map = TmHashMap::new(&system, 256);
        const PER_THREAD: u64 = 40;
        const THREADS: u64 = 4;

        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let map = map.clone();
                scope.spawn(move || {
                    let th = system.register_thread();
                    for i in 0..PER_THREAD {
                        let key = tid * PER_THREAD + i;
                        rt.atomically(&th, |tx| map.insert(tx, key, key * 10).map(|_| ()));
                    }
                });
            }
        });

        assert_eq!(map.len_direct(&system), THREADS * PER_THREAD, "{kind}");
        let th = system.register_thread();
        for key in 0..THREADS * PER_THREAD {
            let got = rt.atomically(&th, |tx| map.get(tx, key));
            assert_eq!(got, Some(key * 10), "{kind}: key {key}");
        }
    }
}

#[test]
fn ordered_map_range_composes_with_map_updates() {
    // Store + index updated in one transaction: a concurrent range scan
    // (declared read-only) must never observe a key in one structure but
    // not the other, and the scan result is always sorted and in-bounds.
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default().with_heap_words(1 << 14));
        let system = Arc::clone(rt.system());
        let store = TmHashMap::<u64, u64>::new(&system, 128);
        let index = TmOrderedMap::<u64, u64>::new(&system);
        let th = system.register_thread();

        for key in (0..40u64).rev() {
            rt.atomically(&th, |tx| {
                store.insert(tx, key, key + 100)?;
                index.insert(tx, key, key + 100)?;
                Ok(())
            });
        }
        let window = rt.atomically_read(&th, |tx| index.range(tx, 10, 19));
        assert_eq!(window.len(), 10, "{kind}");
        assert!(
            window.windows(2).all(|w| w[0].0 < w[1].0),
            "{kind}: scan out of order"
        );
        for &(k, v) in &window {
            assert_eq!(v, k + 100, "{kind}");
            let stored = rt.atomically_read(&th, |tx| store.get(tx, k));
            assert_eq!(stored, Some(v), "{kind}: store and index disagree");
        }

        rt.atomically(&th, |tx| {
            store.remove(tx, 15)?;
            index.remove(tx, 15)?;
            Ok(())
        });
        let after = rt.atomically_read(&th, |tx| index.range(tx, 10, 19));
        assert_eq!(after.len(), 9, "{kind}");
        assert!(after.iter().all(|&(k, _)| k != 15), "{kind}");
        assert_eq!(store.dump_direct(&system), index.dump_direct(&system));
    }
}

/// Insert/remove churn leaks no node: after every cycle the heap holds
/// exactly what it held before the first, on every runtime.  On the htm
/// runtime the cycles commit on the hardware rung, whose frees are deferred
/// to its commit rather than logged by a software attempt.
#[test]
fn ordered_map_churn_returns_every_node_to_the_heap() {
    const CYCLES: u64 = 8;
    const KEYS: u64 = 64;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let index = TmOrderedMap::<u64, u64>::new(&system);
        let th = system.register_thread();
        let baseline = system.heap.allocated_words();
        for cycle in 0..CYCLES {
            // A different insertion order each cycle (37 is a unit mod 256).
            let keys = (0..KEYS).map(|i| (i * 37 + cycle * 11) % 256);
            for key in keys.clone() {
                rt.atomically(&th, |tx| index.insert(tx, key, key + cycle));
            }
            assert_eq!(index.dump_direct(&system).len(), KEYS as usize, "{kind}");
            for key in keys {
                let removed = rt.atomically(&th, |tx| index.remove(tx, key));
                assert_eq!(removed, Some(key + cycle), "{kind}: key {key}");
            }
            assert!(index.dump_direct(&system).is_empty(), "{kind}");
            assert_eq!(
                system.heap.allocated_words(),
                baseline,
                "{kind}: cycle {cycle} leaked"
            );
        }
        if kind == RuntimeKind::Htm {
            let stats = th.stats.snapshot();
            assert_eq!(
                (stats.hw_commits, stats.sw_commits),
                (2 * CYCLES * KEYS, 0),
                "every churn transaction committed in hardware"
            );
        }
    }
}

#[test]
fn hash_map_reader_retries_until_its_key_is_inserted() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let map = TmHashMap::new(&system, 32);

    let (rt_r, system_r, map_r) = (rt.clone(), Arc::clone(&system), map.clone());
    let reader = std::thread::spawn(move || {
        let th = system_r.register_thread();
        rt_r.atomically(&th, |tx| match map_r.get(tx, 77)? {
            Some(v) => Ok(v),
            None => condsync::retry(tx),
        })
    });

    // Wait for the reader to publish its waiter before each insert.  An
    // unrelated insertion must not release the reader: woken or not, it
    // sleeps again until key 77 appears.
    let wait_for_sleeper = || {
        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
    };
    wait_for_sleeper();
    let th = system.register_thread();
    rt.atomically(&th, |tx| map.insert(tx, 5, 50).map(|_| ()));
    wait_for_sleeper();
    rt.atomically(&th, |tx| map.insert(tx, 77, 770).map(|_| ()));

    assert_eq!(reader.join().unwrap(), 770);
}
