//! Linearizability-style stress for the KV plane: concurrent get/put/
//! delete/range traffic over a [`TmHashMap`] + [`TmOrderedMap`] pair on
//! every runtime, checked against per-key models.
//!
//! Each worker owns a disjoint slice of the key space for writes (keys
//! congruent to its id) while reads and range scans roam the whole space.
//! Values encode `(key, owner, seq)`, which gives every observation a
//! machine-checkable consistency claim without a full history checker:
//!
//! * a lookup that returns a value must return one the key's owner actually
//!   wrote *to that key* (no torn values, no cross-key leakage);
//! * a range scan must come back strictly sorted, in-bounds, and
//!   well-formed entry by entry — a snapshot of the index mid-rebalance
//!   would violate this immediately;
//! * after the barrier, the final store image must equal the union of the
//!   owners' models (the last committed write per key), and the ordered
//!   index must agree with the store entry-for-entry.
//!
//! Iteration counts scale with `TM_STRESS_ITERS` (the scheduled CI `stress`
//! job sets it to 50) so the nightly soak explores far more interleavings
//! than the PR gate.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use tm_repro::prelude::*;
use tm_repro::workloads::stress_iters;

const WORKERS: usize = 4;
const KEYSPACE: u64 = 128;

/// Packs `(key, owner, seq)` into a value word.
fn encode(key: u64, owner: usize, seq: u64) -> u64 {
    (key << 32) | ((owner as u64) << 24) | (seq & 0xFF_FFFF)
}

/// Asserts that an observed value is one `key`'s owner could have written.
fn check_value(kind: RuntimeKind, key: u64, value: u64) {
    let owner = (key % WORKERS as u64) as usize;
    assert_eq!(value >> 32, key, "{kind}: value leaked across keys");
    assert_eq!(
        (value >> 24) & 0xFF,
        owner as u64,
        "{kind}: key {key} holds a value written by a non-owner"
    );
}

/// One full stress round on `kind`.
fn stress_round(kind: RuntimeKind, ops_per_worker: u64) {
    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let store = Arc::new(TmHashMap::<u64, u64>::new(&system, 512));
    let index = Arc::new(TmOrderedMap::<u64, u64>::new(&system));
    let barrier = Barrier::new(WORKERS);

    let models: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let store = Arc::clone(&store);
                let index = Arc::clone(&index);
                let barrier = &barrier;
                s.spawn(move || {
                    let th = system.register_thread();
                    let mut model: HashMap<u64, u64> = HashMap::new();
                    let mut rng = tm_core::backoff::XorShift64::new(0x57E5 ^ (worker as u64 + 1));
                    barrier.wait();
                    for seq in 0..ops_per_worker {
                        let roll = rng.next() % 10;
                        match roll {
                            // Point lookup anywhere (declared read-only).
                            0..=3 => {
                                let key = rng.next() % KEYSPACE;
                                let got = rt.atomically_read(&th, |tx| store.get(tx, key));
                                if let Some(v) = got {
                                    check_value(kind, key, v);
                                }
                            }
                            // Range scan anywhere (declared read-only).
                            4..=5 => {
                                let lo = rng.next() % KEYSPACE;
                                let hi = lo + rng.next() % 24;
                                let entries = rt.atomically_read(&th, |tx| index.range(tx, lo, hi));
                                let mut prev = None;
                                for &(k, v) in &entries {
                                    assert!(
                                        (lo..=hi).contains(&k),
                                        "{kind}: scan [{lo}, {hi}] returned key {k}"
                                    );
                                    assert!(
                                        prev.is_none_or(|p| p < k),
                                        "{kind}: scan keys out of order"
                                    );
                                    check_value(kind, k, v);
                                    prev = Some(k);
                                }
                            }
                            // Delete an owned key from both structures.
                            6..=7 => {
                                let key = (rng.next() % (KEYSPACE / WORKERS as u64))
                                    * WORKERS as u64
                                    + worker as u64;
                                let old = rt.atomically(&th, |tx| {
                                    let old = store.remove(tx, key)?;
                                    if old.is_some() {
                                        index.remove(tx, key)?;
                                    }
                                    Ok(old)
                                });
                                if let Some(v) = old {
                                    check_value(kind, key, v);
                                }
                                model.remove(&key);
                            }
                            // Insert/update an owned key in both structures.
                            _ => {
                                let key = (rng.next() % (KEYSPACE / WORKERS as u64))
                                    * WORKERS as u64
                                    + worker as u64;
                                let value = encode(key, worker, seq);
                                let old = rt.atomically(&th, |tx| {
                                    let old = store.insert(tx, key, value)?;
                                    index.insert(tx, key, value)?;
                                    Ok(old)
                                });
                                if let Some(v) = old {
                                    check_value(kind, key, v);
                                }
                                model.insert(key, value);
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Final-state check: the store must be exactly the union of the owners'
    // models, and the ordered index must mirror the store.
    let mut expected: Vec<(u64, u64)> = models.into_iter().flatten().collect();
    expected.sort_unstable();
    let mut dump = store.dump_direct(&system);
    dump.sort_unstable();
    assert_eq!(
        dump, expected,
        "{kind}: final store diverged from the owner models"
    );
    let mut index_dump = index.dump_direct(&system);
    index_dump.sort_unstable();
    assert_eq!(
        index_dump, dump,
        "{kind}: ordered index diverged from the store"
    );
}

#[test]
fn concurrent_kv_traffic_stays_consistent_on_every_runtime() {
    let ops = 400 * stress_iters();
    for kind in RuntimeKind::ALL {
        stress_round(kind, ops);
    }
}
