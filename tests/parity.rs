//! Cross-runtime parity: the same condition-synchronization scenario must
//! produce identical results on all three runtimes (eager STM, lazy STM,
//! simulated HTM), and must actually exercise the Deschedule machinery
//! (non-zero wake-ups), now that all three share the one driver loop in
//! `tm_core::driver`.

use std::sync::Arc;

use condsync::Mechanism;
use tm_core::{Addr, StatsSnapshot, TmConfig, Tx, TxResult};
use tm_repro::prelude::*;

/// Outcome of one scenario run: what the waiters observed, plus the
/// system-wide statistics at the end.
#[derive(Debug)]
struct ScenarioResult {
    observed: Vec<u64>,
    final_count: u64,
    stats: StatsSnapshot,
}

/// One waiter per deschedule-based mechanism blocks until a shared counter
/// reaches `TARGET`; a writer then establishes the condition step by step.
/// Every waiter must observe a value `>= TARGET` regardless of mechanism or
/// runtime, and at least one of them must have gone through a real
/// sleep/wake cycle.
fn run_scenario(kind: RuntimeKind) -> ScenarioResult {
    run_scenario_configured(kind, TmConfig::small())
}

/// As [`run_scenario`], with an explicit configuration (used by the
/// memory-plane sweep).
fn run_scenario_configured(kind: RuntimeKind, config: TmConfig) -> ScenarioResult {
    const TARGET: u64 = 3;

    let rt = kind.build(config);
    let system = Arc::clone(rt.system());
    let count = TmVar::<u64>::alloc(&system, 0);

    fn reached_target(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
        Ok(tx.read(Addr(args[0] as usize))? >= args[1])
    }

    let mut waiters = Vec::new();
    for mechanism in [Mechanism::Retry, Mechanism::Await, Mechanism::WaitPred] {
        let rt = rt.clone();
        let system = Arc::clone(&system);
        let count = count.clone();
        waiters.push(std::thread::spawn(move || {
            let th = system.register_thread();
            rt.atomically(&th, |tx| {
                let v = count.get(tx)?;
                if v < TARGET {
                    return match mechanism {
                        Mechanism::Retry => retry(tx),
                        Mechanism::Await => await_one(tx, count.addr()),
                        Mechanism::WaitPred => {
                            wait_pred(tx, reached_target, &[count.addr().0 as u64, TARGET])
                        }
                        _ => unreachable!("scenario only runs deschedule-based mechanisms"),
                    };
                }
                Ok(v)
            })
        }));
    }

    // Wait until all three waiters have published their wait records; the
    // condition cannot hold before the writer runs, so each stays registered
    // (and headed for a real sleep) once it appears.  This makes the
    // writer's wakeWaiters traffic deterministic instead of timing-based.
    while rt.system().waiters.len() < 3 {
        std::thread::yield_now();
    }

    let th = system.register_thread();
    for _ in 0..TARGET {
        rt.atomically(&th, |tx| {
            let v = count.get(tx)?;
            count.set(tx, v + 1)
        });
    }

    let mut observed: Vec<u64> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
    observed.sort_unstable();
    ScenarioResult {
        observed,
        final_count: count.load_direct(&system),
        stats: system.stats(),
    }
}

#[test]
fn same_scenario_same_results_on_all_runtimes() {
    let results: Vec<(RuntimeKind, ScenarioResult)> = RuntimeKind::ALL
        .iter()
        .map(|&kind| (kind, run_scenario(kind)))
        .collect();

    let (first_kind, first) = &results[0];
    for (kind, result) in &results {
        // Await can observe any post-change value >= 1; Retry and WaitPred
        // wake only once the target holds.  What must agree across runtimes
        // is the *final* state and the waiters' success.
        assert_eq!(
            result.final_count, first.final_count,
            "{kind} final count diverged from {first_kind}"
        );
        assert_eq!(result.observed.len(), 3, "{kind}: a waiter was lost");
        assert!(
            result.observed.iter().all(|&v| v >= 1),
            "{kind}: a waiter returned before any write: {:?}",
            result.observed
        );
        assert!(
            result.observed.iter().max() == Some(&3),
            "{kind}: no waiter saw the established condition: {:?}",
            result.observed
        );
    }
}

#[test]
fn every_runtime_reports_real_deschedule_traffic() {
    for kind in RuntimeKind::ALL {
        let result = run_scenario(kind);
        let stats = &result.stats;
        assert!(
            stats.descheds >= 3,
            "{kind}: expected every waiter to deschedule, got {}",
            stats.descheds
        );
        assert!(
            stats.wakeups > 0,
            "{kind}: writer commits woke nobody (stats: {stats:?})"
        );
        assert!(
            stats.wake_checks >= stats.wakeups,
            "{kind}: every wakeup requires a condition check"
        );
        assert!(
            stats.total_commits() >= 4,
            "{kind}: three waiters plus the writers must all commit"
        );
    }
}

#[test]
fn wake_reason_parity_across_runtimes() {
    // The same timed scenario must resolve with the same `WakeReason`-level
    // behaviour everywhere: a wait whose condition is never established ends
    // in exactly one Timeout; a wait whose condition is established ends as
    // a plain wake with no timeout recorded.
    use std::time::Duration;

    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let flag = TmVar::<u64>::alloc(&system, 0);
        let th = system.register_thread();

        // Never-established condition with a deadline.
        let flag2 = flag.clone();
        let got = rt.atomically(&th, |tx| {
            let v = flag2.get(tx)?;
            if v == 0 {
                if condsync::timed_out(tx) {
                    return Ok(None);
                }
                return condsync::retry_for(tx, Duration::from_millis(25));
            }
            Ok(Some(v))
        });
        assert_eq!(got, None, "{kind}");
        let stats = system.stats();
        assert_eq!(stats.wake_timeouts, 1, "{kind}: exactly one timeout");
        assert_eq!(stats.wakeups, 0, "{kind}: no condition-based wake");

        // Established condition: the reason must be a plain wake.
        let flag3 = flag.clone();
        let (rt2, system2) = (rt.clone(), Arc::clone(&system));
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = flag3.get(tx)?;
                if v == 0 {
                    if condsync::timed_out(tx) {
                        return Ok(None);
                    }
                    return condsync::retry_for(tx, Duration::from_secs(30));
                }
                Ok(Some(v))
            })
        });
        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
        rt.atomically(&th, |tx| flag.set(tx, 8));
        assert_eq!(waiter.join().unwrap(), Some(8), "{kind}");
        assert_eq!(
            system.stats().wake_timeouts,
            1,
            "{kind}: the 30s deadline never fires"
        );
    }
}

/// Runs one deterministic large transaction — thousands of interleaved
/// reads, writes, read-after-writes and re-reads over hundreds of addresses
/// — and returns its checksum plus the final heap image.
fn large_tx_outcome(kind: RuntimeKind, config: TmConfig) -> (u64, Vec<u64>) {
    use tm_core::backoff::XorShift64;

    const ADDRS: usize = 512;
    const OPS: usize = 6_000;
    let base = 1024usize;

    let rt = kind.build(config);
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    for i in 0..ADDRS {
        system.heap.store(Addr(base + i), i as u64);
    }
    // The schedule is fixed up front so re-executed attempts replay it.
    let mut rng = XorShift64::new(0xB16_7C5);
    let ops: Vec<(u64, usize, u64)> = (0..OPS)
        .map(|_| {
            (
                rng.next() % 3,
                (rng.next() % ADDRS as u64) as usize,
                rng.next() % 4096,
            )
        })
        .collect();

    let checksum = rt.atomically(&th, |tx| {
        let mut acc = 0u64;
        for &(op, i, val) in &ops {
            let addr = Addr(base + i);
            match op {
                0 => acc = acc.wrapping_add(tx.read(addr)?),
                1 => tx.write(addr, val)?,
                _ => {
                    let cur = tx.read(addr)?;
                    tx.write(addr, cur.wrapping_add(val))?;
                    acc = acc.wrapping_add(tx.read(addr)?);
                }
            }
        }
        Ok(acc)
    });

    let heap: Vec<u64> = (0..ADDRS)
        .map(|i| system.heap.load(Addr(base + i)))
        .collect();
    let stats = system.stats();
    assert!(
        stats.write_set_max > 0 && stats.read_set_max > 0,
        "{kind}: a large transaction must register set high-water marks \
         (read {}, write {})",
        stats.read_set_max,
        stats.write_set_max
    );
    (checksum, heap)
}

#[test]
fn large_transactions_are_identical_across_runtimes() {
    // Byte-identical heap state and the same checksum on every runtime.
    // This is the shape the shared access-set layer exists for (big read
    // sets + deep write logs), so it doubles as an integration check that
    // the pooled, hash-indexed logs did not change semantics.
    let mut outcomes: Vec<(RuntimeKind, u64, Vec<u64>)> = Vec::new();
    for kind in RuntimeKind::ALL {
        let (checksum, heap) = large_tx_outcome(kind, TmConfig::default());
        outcomes.push((kind, checksum, heap));
    }

    let (first_kind, first_sum, first_heap) = &outcomes[0];
    for (kind, checksum, heap) in &outcomes[1..] {
        assert_eq!(
            checksum, first_sum,
            "{kind} checksum diverged from {first_kind}"
        );
        assert_eq!(heap, first_heap, "{kind} heap diverged from {first_kind}");
    }
}

#[test]
fn memory_plane_sweep_keeps_golden_results_identical() {
    // The memory plane is a performance lever, not a semantic one: stripe
    // indices stay stable global ids regardless of how many shards the orec
    // table is split into.  The deterministic large transaction must
    // produce the same checksum and heap image on every runtime at every
    // shard count, and the deschedule scenario must reach the same final
    // state.
    let golden = large_tx_outcome(RuntimeKind::EagerStm, TmConfig::default());
    for shards in [1, 4, tm_core::default_orec_shards()] {
        for kind in RuntimeKind::ALL {
            let outcome = large_tx_outcome(kind, TmConfig::default().with_orec_shards(shards));
            assert_eq!(
                outcome, golden,
                "{kind} with {shards} orec shards diverged from the golden outcome"
            );

            let result = run_scenario_configured(kind, TmConfig::small().with_orec_shards(shards));
            assert_eq!(
                result.final_count, 3,
                "{kind} with {shards} orec shards: wrong final count"
            );
            assert_eq!(
                result.observed.len(),
                3,
                "{kind} with {shards} orec shards: a waiter was lost"
            );
            assert_eq!(
                result.observed.iter().max(),
                Some(&3),
                "{kind} with {shards} orec shards: no waiter saw the established condition"
            );
        }
    }
}

#[test]
fn snapshot_and_tracked_reads_return_identical_golden_results() {
    // The snapshot read path is a performance lever, not a semantic one: the
    // same scan must return the golden sum through `atomically` (tracked
    // reads, commit-time validation: the reference path) and through
    // `atomically_read` (the snapshot path), on every runtime.
    use tm_core::TmArray;

    const SLOTS: usize = 64;
    let expected_sum: u64 = (0..SLOTS as u64).map(|i| i * i).sum();

    for kind in RuntimeKind::ALL {
        let stm = matches!(kind, RuntimeKind::EagerStm | RuntimeKind::LazyStm);
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let arr = TmArray::<u64>::alloc(&system, SLOTS, 0);
        rt.atomically(&th, |tx| {
            for i in 0..SLOTS {
                arr.set(tx, i, (i * i) as u64)?;
            }
            Ok(())
        });
        let scan = |tx: &mut dyn Tx| {
            let mut s = 0u64;
            for i in 0..SLOTS {
                s += arr.get(tx, i)?;
            }
            Ok(s)
        };
        assert_eq!(rt.atomically(&th, scan), expected_sum, "{kind} tracked");
        let tracked = system.stats();
        if stm {
            assert_eq!(tracked.ro_fast_commits, 0, "{kind}: `atomically` tracks");
            assert_eq!(tracked.read_set_max, SLOTS as u64, "{kind}");
        }
        // A declared read-only scan sees exactly the committed state.  A
        // body that writes after declaring read-only is upgraded by the
        // driver and must still commit normally.
        assert_eq!(
            rt.atomically_read(&th, scan),
            expected_sum,
            "{kind} snapshot"
        );
        let bumped = rt.atomically_read(&th, |tx| {
            let v = arr.get(tx, 0)?;
            arr.set(tx, 0, v + 1)?;
            arr.get(tx, 0)
        });
        assert_eq!(bumped, 1, "{kind}: upgrade broke the write");
        assert_eq!(arr.load_direct(&system, 0), 1, "{kind}");
        let stats = system.stats();
        if stm {
            assert!(
                stats.ro_fast_commits > 0,
                "{kind}: the scan must take the snapshot fast path"
            );
            assert!(
                stats.ro_upgrades > 0,
                "{kind}: the writing read-only body must be upgraded"
            );
        }
    }
}

#[test]
fn writer_commits_advance_the_clock_past_their_begin_snapshot() {
    // Observable `commit_ts > start_ts`: after a writer commit,
    // `clock.now()` strictly exceeds any snapshot taken before the
    // transaction began, because the commit ticked the counter — alone or
    // next to a second thread committing to a disjoint counter.  Pure HTM
    // commits through the simulated cache protocol and never stamps the
    // clock, so it is exempt.
    for kind in [
        RuntimeKind::EagerStm,
        RuntimeKind::LazyStm,
        RuntimeKind::Hybrid,
    ] {
        for threads in [1, 2] {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let counters: Vec<TmVar<u64>> =
                (0..threads).map(|_| TmVar::alloc(&system, 0)).collect();
            std::thread::scope(|s| {
                for v in &counters {
                    let (rt, system) = (&rt, &system);
                    s.spawn(move || {
                        let th = system.register_thread();
                        for i in 0..16u64 {
                            let before = system.clock.now();
                            rt.atomically(&th, |tx| {
                                let x = v.get(tx)?;
                                v.set(tx, x + 1)
                            });
                            let after = system.clock.now();
                            assert!(
                                after > before,
                                "{kind}/{threads}t: commit {i} left now() at {after} \
                                 (begin snapshot {before})"
                            );
                        }
                    });
                }
            });
            for v in &counters {
                assert_eq!(v.load_direct(&system), 16);
            }
        }
    }
}

/// Replays one deterministic 6k-operation history — Zipf-free but seeded
/// insert/remove/get/range traffic over a [`TmHashMap`] and a parallel
/// [`TmOrderedMap`] — and returns its running checksum plus both final
/// dumps.  Lookups and range scans run as declared read-only transactions,
/// so the history crosses the snapshot fast path wherever the runtime
/// offers one.
fn kv_history_outcome(kind: RuntimeKind) -> (u64, Vec<(u64, u64)>) {
    use tm_core::backoff::XorShift64;

    const KEYSPACE: u64 = 96;
    const OPS: usize = 6_000;

    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    let store = TmHashMap::<u64, u64>::new(&system, 256);
    let index = TmOrderedMap::<u64, u64>::new(&system);

    let mut rng = XorShift64::new(0x6B56_0A11);
    let mut acc = 0u64;
    for step in 0..OPS {
        let op = rng.next() % 8;
        let key = rng.next() % KEYSPACE;
        match op {
            // Point lookup (declared read-only).
            0..=2 => {
                let got = rt.atomically_read(&th, |tx| store.get(tx, key));
                acc = acc.wrapping_add(got.unwrap_or(u64::MAX));
            }
            // Range scan over the ordered index (declared read-only).
            3 => {
                let hi = key + rng.next() % 16;
                let entries = rt.atomically_read(&th, |tx| index.range(tx, key, hi));
                for (k, v) in entries {
                    acc = acc.wrapping_add(k ^ v);
                }
            }
            // Delete from both structures in one transaction.
            4 => {
                let old = rt.atomically(&th, |tx| {
                    let old = store.remove(tx, key)?;
                    if old.is_some() {
                        index.remove(tx, key)?;
                    }
                    Ok(old)
                });
                acc = acc.wrapping_add(old.unwrap_or(7));
            }
            // Insert/update both structures in one transaction.
            _ => {
                let value = (step as u64) << 8 | op;
                let old = rt.atomically(&th, |tx| {
                    let old = store.insert(tx, key, value)?;
                    index.insert(tx, key, value)?;
                    Ok(old)
                });
                acc = acc.wrapping_add(old.unwrap_or(13));
            }
        }
    }

    let dump = store.dump_direct(&system);
    assert_eq!(
        dump,
        index.dump_direct(&system),
        "{kind}: store and index diverged"
    );
    (acc, dump)
}

#[test]
fn kv_history_is_identical_across_runtimes() {
    // The same seeded map/index history must produce one golden checksum
    // and one golden final image on every runtime: the declared-read-only
    // lookups must observe the same values whether they run logged, as
    // snapshots, or in hardware.
    let golden = kv_history_outcome(RuntimeKind::EagerStm);
    assert!(!golden.1.is_empty(), "history must leave residual entries");
    for kind in RuntimeKind::ALL {
        assert_eq!(
            kv_history_outcome(kind),
            golden,
            "{kind} diverged from the golden history"
        );
    }
}

#[test]
fn parity_holds_under_repetition() {
    // The scenario is timing-sensitive (waiters may skip the sleep if the
    // writer wins the race); repeat it to cover both interleavings.  Scaled
    // by the `TM_STRESS_ITERS` multiplier (the scheduled CI `stress` job
    // sets it to 10 for soak coverage without slowing the PR gate).
    let rounds = 3 * tm_repro::workloads::stress_iters();
    for round in 0..rounds {
        for kind in RuntimeKind::ALL {
            let result = run_scenario(kind);
            assert_eq!(result.final_count, 3, "{kind} round {round}");
            assert_eq!(result.observed.len(), 3, "{kind} round {round}");
        }
    }
}
