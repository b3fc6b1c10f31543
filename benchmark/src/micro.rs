//! The per-layer price list: each public call timed from outside, one layer
//! at a time, single-threaded and pinned unless a hand-off needs two threads.
//!
//! Unless noted, a figure is the median of `BATCHES` batches of `CALLS`
//! calls (containers use their own batch size), after one untimed batch.
//! These measurements do not depend on the workload being run; a traced run
//! of any workload reports all of them.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use condsync::{Mechanism, TmCondVar};
use tm_core::driver::wake_waiters_matching;
use tm_core::{
    Addr, LogPool, OrecValue, ReadSet, Semaphore, TimerConfig, TimerWheel, TmConfig, TmSystem,
    TmVar, Tx, TxResult, WaitCondition, WaitList, Waiter, WakeSet, WriteLog,
};
use tm_sync::{TmBoundedBuffer, TmHashMap, TmOrderedMap};
use tm_workloads::{AnyRuntime, RuntimeKind, ZipfGen};

use crate::arith::{best_of, median, percentile, Better};
use crate::run::Outcome;
use crate::trace::{root_p50_us, GRANT_WAIT};
use crate::workloads::{kv_rep, tx_rep, Bystander, RepSpec, RUNTIMES};

const BATCHES: usize = 7;
const CALLS: usize = 10_000;
/// Keys the container measurements start from.
const KEYS: u64 = 4096;
/// Calls per batch of a container insert or remove (the ordered map never
/// reclaims a removed node, so the batches must fit the default heap).
const CONTAINER_BATCH: usize = 2048;
/// Round trips per two-thread hand-off measurement, and per measurement of
/// a mechanism whose hand-off takes milliseconds on one CPU (`TMCondVar`
/// waits out its 2 ms watchdog, `Restart` spins out its time slice).
const HANDOFF_ROUNDS: u64 = 3000;
const SLOW_HANDOFF_ROUNDS: u64 = 100;
/// Reps and ops of the short `tx_*` / `kv_session` reference passes.
const REFERENCE_REPS: usize = 3;
const REFERENCE_TX_OPS: u64 = 50_000;
const REFERENCE_KV_OPS: u64 = 25_000;

/// ns per call: median over the timed batches.
fn per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        if batch > 0 {
            batches.push(start.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    median(&batches)
}

/// ns per call of `f` beyond an empty transaction on `rt`: each batch of `f`
/// is followed by a batch of empty transactions and the two are subtracted
/// pairwise, because the host's speed drifts between batches by more than
/// most containers cost.  `restore` runs untimed after each batch of `f`.
fn beyond_empty_tx(
    rt: &AnyRuntime,
    th: &Arc<tm_core::ThreadCtx>,
    calls: usize,
    mut f: impl FnMut(usize),
    mut restore: impl FnMut(),
) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        let f_ns = start.elapsed().as_nanos() as f64;
        restore();
        let mid = Instant::now();
        for _ in 0..calls {
            rt.atomically(th, |_| Ok(()));
        }
        if batch > 0 {
            batches.push((f_ns - mid.elapsed().as_nanos() as f64) / calls as f64);
        }
    }
    median(&batches)
}

/// Appends every workload-independent per-layer metric to `outcome`.
pub fn measure(seed: u64, outcome: &mut Outcome) {
    let mut put = |name: &str, value: f64| outcome.metrics.push((name.to_string(), value));

    driver(&mut put);
    access(&mut put);
    metadata(&mut put);
    waiting(&mut put);
    containers(&mut put);
    handoffs(&mut put);
    let failures = references(seed, &mut put);

    let mut keys = ZipfGen::new(KEYS as usize, 0.99, seed);
    put(
        "zipf.next_key_ns",
        per_call(CALLS, |_| {
            black_box(keys.next_key());
        }),
    );
    put(
        "harness.clock_read_ns",
        per_call(CALLS, |_| {
            black_box(Instant::now().elapsed());
        }),
    );
    outcome.failures.extend(failures);
}

/// `driver.*`: whole transactions through `atomically` / `atomically_read`.
fn driver(put: &mut impl FnMut(&str, f64)) {
    for (label, kind) in RUNTIMES {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let block: Vec<TmVar<u64>> = (0..4).map(|_| TmVar::alloc(&system, 0)).collect();
        let read4 = |tx: &mut dyn Tx| -> TxResult<u64> {
            let mut sum = 0;
            for v in &block {
                sum += v.get(tx)?;
            }
            Ok(sum)
        };

        put(
            &format!("driver.empty_tx_ns.{label}"),
            per_call(CALLS, |_| rt.atomically(&th, |_| Ok(()))),
        );
        put(
            &format!("driver.ro4_ns.{label}"),
            per_call(CALLS, |_| {
                black_box(rt.atomically(&th, read4));
            }),
        );
        put(
            &format!("driver.ro4_snapshot_ns.{label}"),
            per_call(CALLS, |_| {
                black_box(rt.atomically_read(&th, read4));
            }),
        );
        put(
            &format!("driver.rw4_ns.{label}"),
            per_call(CALLS, |_| {
                rt.atomically(&th, |tx| {
                    for v in &block {
                        let x = v.get(tx)?;
                        v.set(tx, x + 1)?;
                    }
                    Ok(())
                })
            }),
        );
    }
}

/// `access.*`: the access-set containers every runtime logs into.
fn access(put: &mut impl FnMut(&str, f64)) {
    const ADDRS: usize = 64;
    let mut reads = ReadSet::new();
    put(
        "access.read_record_ns",
        per_call(CALLS, |i| {
            let slot = i % ADDRS;
            if slot == 0 {
                reads.clear();
            }
            black_box(reads.record(Addr(64 + slot), slot));
        }),
    );
    let mut writes = WriteLog::new();
    put(
        "access.write_record_ns",
        per_call(CALLS, |i| {
            let slot = i % ADDRS;
            if slot == 0 {
                writes.clear();
            }
            black_box(writes.record(Addr(64 + slot), i as u64, || slot));
        }),
    );
    let pool = LogPool::new();
    // Only a container that has grown is pooled.
    reads.record(Addr(64), 0);
    pool.put_read_set(reads);
    put(
        "access.pool_take_put_ns",
        per_call(CALLS, |_| {
            let (set, _) = pool.take_read_set();
            pool.put_read_set(black_box(set));
        }),
    );
}

/// `orec.*`, `clock.*`, `epoch.*`, `heap.*`: the metadata and memory planes
/// of a default system with this thread and two idle ones registered.
fn metadata(put: &mut impl FnMut(&str, f64)) {
    let system = TmSystem::new(TmConfig::default());
    let th = system.register_thread();
    let _idle = [system.register_thread(), system.register_thread()];

    put(
        "orec.load_for_ns",
        per_call(CALLS, |i| {
            black_box(system.orecs.load_for(Addr(64 + i % 512)));
        }),
    );
    put(
        "orec.lock_unlock_ns",
        per_call(CALLS, |i| {
            let idx = system.orecs.index_for(Addr(64 + i % 512));
            let seen = system.orecs.load(idx);
            let locked = system
                .orecs
                .cas(idx, seen, OrecValue::locked(seen.version(), th.id));
            assert!(locked, "nobody else touches this table");
            system
                .orecs
                .store(idx, OrecValue::unlocked(seen.version() + 1));
        }),
    );
    put(
        "clock.now_ns",
        per_call(CALLS, |_| {
            black_box(system.clock.now());
        }),
    );
    put(
        "clock.commit_stamp_ns",
        per_call(CALLS, |_| {
            black_box(system.clock.commit_stamp(&th.stats));
        }),
    );
    put(
        "epoch.quiesce_ns",
        per_call(CALLS, |i| system.quiesce(&th, i as u64)),
    );
    put(
        "heap.alloc_free_ns",
        per_call(CALLS, |_| {
            let addr = system.heap.alloc_for(&th, 4).expect("heap has room");
            system.heap.dealloc_for(&th, black_box(addr), 4);
        }),
    );
}

/// `waitlist.*`, `timer.*`, `sem.*`, `wake.empty_registry_ns`: the pieces of
/// the sleep/wake path, with no thread asleep.
fn waiting(put: &mut impl FnMut(&str, f64)) {
    const REGISTERED: usize = 64;
    let list = WaitList::new(TmConfig::default().wake_shards);
    let waiter = |thread: usize, deadline| {
        Waiter::with_deadline(
            thread,
            WaitCondition::ValuesChanged(vec![(Addr(64 + thread), 0)]),
            Arc::new(Semaphore::new()),
            deadline,
        )
    };
    // One waiter per stripe 0..64: distinct stripes, distinct shards.
    for stripe in 0..REGISTERED {
        list.register(waiter(stripe, None), &[stripe]);
    }
    let extra = waiter(REGISTERED, None);
    put(
        "waitlist.register_deregister_ns",
        per_call(CALLS, |_| {
            list.register(Arc::clone(&extra), &[REGISTERED]);
            list.deregister(&extra, &[REGISTERED]);
        }),
    );
    let hit = WakeSet::Stripes(vec![7]);
    put(
        "waitlist.scan_hit_ns",
        per_call(CALLS, |_| {
            black_box(list.scan(&hit));
        }),
    );
    put(
        "waitlist.scan_all_ns",
        per_call(CALLS, |_| {
            black_box(list.scan(&WakeSet::All));
        }),
    );

    let wheel = TimerWheel::new(TimerConfig::default());
    let now = Instant::now();
    put(
        "timer.poll_idle_ns",
        per_call(CALLS, |_| {
            black_box(wheel.poll(now));
        }),
    );
    let timed = waiter(0, Some(now + Duration::from_secs(3600)));
    put(
        "timer.arm_disarm_ns",
        per_call(CALLS, |_| {
            wheel.arm(&timed);
            wheel.disarm(&timed);
        }),
    );

    let sem = Semaphore::new();
    put(
        "sem.post_wait_ns",
        per_call(CALLS, |_| {
            sem.post();
            sem.wait();
        }),
    );
    let (ping, pong) = (Semaphore::new(), Semaphore::new());
    let round_trips = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..HANDOFF_ROUNDS {
                ping.wait();
                pong.post();
            }
        });
        let mut samples = Vec::with_capacity(HANDOFF_ROUNDS as usize);
        for _ in 0..HANDOFF_ROUNDS {
            let start = Instant::now();
            ping.post();
            pong.wait();
            samples.push(start.elapsed().as_nanos() as f64 / 1000.0);
        }
        samples
    });
    put("sem.roundtrip_us", median(&round_trips));

    // The paper's "no overhead when nobody waits": one atomic load.
    let rt = RuntimeKind::LazyStm.build(TmConfig::default());
    let th = rt.system().register_thread();
    put(
        "wake.empty_registry_ns",
        per_call(CALLS, |_| {
            wake_waiters_matching(rt.as_dyn(), &th, &WakeSet::All)
        }),
    );
}

/// `buffer.*`, `map.*`, `ordered.*`: each container call in its own
/// transaction on `lazy`, beyond the empty transaction.
fn containers(put: &mut impl FnMut(&str, f64)) {
    let rt = RuntimeKind::LazyStm.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let th = system.register_thread();

    let buffer = TmBoundedBuffer::new(&system, 128);
    buffer.prefill(&system, 64);
    // Half full, so neither call ever blocks; the two are averaged.
    put(
        "buffer.produce_consume_ns",
        beyond_empty_tx(
            &rt,
            &th,
            CALLS,
            |i| {
                if i % 2 == 0 {
                    rt.atomically(&th, |tx| buffer.produce(Mechanism::Retry, tx, i as u64));
                } else {
                    black_box(rt.atomically(&th, |tx| buffer.consume(Mechanism::Retry, tx)));
                }
            },
            || {},
        ),
    );

    let map = TmHashMap::<u64, u64>::new(&system, 16384);
    let index = TmOrderedMap::<u64, u64>::new(&system);
    for key in 0..KEYS {
        map.insert_direct(&system, key, key + 1);
        index.insert_direct(&system, key, key + 1);
    }
    // A multiplicative walk over the present keys, so successive calls do
    // not touch neighbouring slots.
    let present = |i: usize| (i as u64).wrapping_mul(2654435761) % KEYS;
    put(
        "map.get_ns",
        beyond_empty_tx(
            &rt,
            &th,
            CALLS,
            |i| {
                black_box(rt.atomically(&th, |tx| map.get(tx, present(i))));
            },
            || {},
        ),
    );
    put(
        "ordered.range8_ns",
        beyond_empty_tx(
            &rt,
            &th,
            CALLS,
            |i| {
                let lo = present(i) % (KEYS - 8);
                black_box(rt.atomically(&th, |tx| index.range(tx, lo, lo + 7)));
            },
            || {},
        ),
    );

    // Inserts and removes work on the absent keys above KEYS, a batch at a
    // time, and the untimed restore step undoes the batch: every timed call
    // changes the container's size, and each batch starts from the same
    // contents.
    let absent = |i: usize| KEYS + i as u64;
    let map_insert = |i| {
        black_box(rt.atomically(&th, |tx| map.insert(tx, absent(i), 1)));
    };
    let map_remove = |i| {
        black_box(rt.atomically(&th, |tx| map.remove(tx, absent(i))));
    };
    let index_insert = |i| {
        black_box(rt.atomically(&th, |tx| index.insert(tx, absent(i), 1)));
    };
    let index_remove = |i| {
        black_box(rt.atomically(&th, |tx| index.remove(tx, absent(i))));
    };
    let all = |f: &dyn Fn(usize)| (0..CONTAINER_BATCH).for_each(f);
    put(
        "map.insert_ns",
        beyond_empty_tx(&rt, &th, CONTAINER_BATCH, map_insert, || all(&map_remove)),
    );
    all(&map_insert);
    put(
        "map.remove_ns",
        beyond_empty_tx(&rt, &th, CONTAINER_BATCH, map_remove, || all(&map_insert)),
    );
    put(
        "ordered.insert_ns",
        beyond_empty_tx(&rt, &th, CONTAINER_BATCH, index_insert, || {
            all(&index_remove)
        }),
    );
    all(&index_insert);
    put(
        "ordered.remove_ns",
        beyond_empty_tx(&rt, &th, CONTAINER_BATCH, index_remove, || {
            all(&index_insert)
        }),
    );
}

/// How one side of the turn-variable ping-pong waits for its turn.
#[derive(Copy, Clone)]
enum Turn {
    Tm(Mechanism),
    Pthreads,
}

fn pred_turn_is(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? == args[1])
}

/// One-way hand-off latency, µs: two threads pass a turn variable back and
/// forth, each waiting for its turn with `how`; the median round trip,
/// halved.
fn handoff_us(how: Turn, rounds: u64) -> f64 {
    let rt = RuntimeKind::LazyStm.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let turn = TmVar::<u64>::alloc(&system, 0);
    let condvars = [TmCondVar::new(), TmCondVar::new()];
    let lock = (Mutex::new(0u64), [Condvar::new(), Condvar::new()]);

    let take_turn = |rt: &AnyRuntime, th: &Arc<tm_core::ThreadCtx>, me: u64| match how {
        Turn::Pthreads => {
            let mut now = lock.0.lock().expect("no holder panics");
            while *now != me {
                now = lock.1[me as usize].wait(now).expect("no holder panics");
            }
            *now = 1 - me;
            lock.1[1 - me as usize].notify_one();
        }
        Turn::Tm(mechanism) => rt.atomically(th, |tx| {
            if mechanism == Mechanism::TmCondVar {
                while turn.get(tx)? != me {
                    condvars[me as usize].wait(tx)?;
                }
                turn.set(tx, 1 - me)?;
                condvars[1 - me as usize].signal_from(tx);
                return Ok(());
            }
            if turn.get(tx)? != me {
                return match mechanism {
                    Mechanism::Retry => condsync::retry(tx),
                    Mechanism::Await => condsync::await_one(tx, turn.addr()),
                    Mechanism::WaitPred => {
                        condsync::wait_pred(tx, pred_turn_is, &[turn.addr().0 as u64, me])
                    }
                    Mechanism::RetryOrig => condsync::retry_orig(tx),
                    _ => condsync::restart(tx),
                };
            }
            turn.set(tx, 1 - me)
        }),
    };

    let mut samples = std::thread::scope(|scope| {
        scope.spawn(|| {
            let th = system.register_thread();
            for _ in 0..rounds {
                take_turn(&rt, &th, 1);
            }
        });
        let th = system.register_thread();
        let mut samples = Vec::with_capacity(rounds as usize);
        let mut last = Instant::now();
        for _ in 0..rounds {
            take_turn(&rt, &th, 0);
            let now = Instant::now();
            samples.push((now - last).as_nanos() as f64 / 2000.0);
            last = now;
        }
        samples
    });
    percentile(&mut samples, 0.5)
}

/// `condsync.*`: the hand-off through each mechanism, and how late a timed
/// wait with no writer returns.
fn handoffs(put: &mut impl FnMut(&str, f64)) {
    // Untimed Await is measured on lazy only: on eager its rollback can
    // capture the new value and sleep for a change that already happened
    // (see the README), which deadlocks this ping-pong.
    for (label, how) in [
        ("retry", Turn::Tm(Mechanism::Retry)),
        ("await", Turn::Tm(Mechanism::Await)),
        ("waitpred", Turn::Tm(Mechanism::WaitPred)),
        ("tmcondvar", Turn::Tm(Mechanism::TmCondVar)),
        ("retry-orig", Turn::Tm(Mechanism::RetryOrig)),
        ("restart", Turn::Tm(Mechanism::Restart)),
        ("pthreads", Turn::Pthreads),
    ] {
        let rounds = match how {
            Turn::Tm(Mechanism::TmCondVar | Mechanism::Restart) => SLOW_HANDOFF_ROUNDS,
            _ => HANDOFF_ROUNDS,
        };
        put(
            &format!("condsync.handoff_us.{label}"),
            handoff_us(how, rounds),
        );
    }

    const TIMEOUT: Duration = Duration::from_millis(1);
    let rt = RuntimeKind::LazyStm.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    let flag = TmVar::<u64>::alloc(&system, 0);
    let mut overshoot: Vec<f64> = (0..40)
        .map(|_| {
            let start = Instant::now();
            rt.atomically(&th, |tx| {
                if flag.get(tx)? == 0 && !condsync::timed_out(tx) {
                    return condsync::retry_for(tx, TIMEOUT);
                }
                Ok(())
            });
            start.elapsed().saturating_sub(TIMEOUT).as_nanos() as f64 / 1000.0
        })
        .collect();
    put(
        "condsync.timeout_overshoot_us",
        percentile(&mut overshoot, 0.5),
    );
}

/// `wake.check_ns.*`, `wake.targeted_skip_ns.*` and `kv.*`: short reference
/// passes of `tx_*` and `kv_session`, so that these figures exist whichever
/// workload the traced run was asked for.  Returns failed result checks.
fn references(seed: u64, put: &mut impl FnMut(&str, f64)) -> Vec<String> {
    let mut failures = Vec::new();
    let mut grant_waits = Vec::new();
    for (label, kind) in RUNTIMES {
        let spec = RepSpec {
            kind,
            ops: REFERENCE_TX_OPS,
            seed,
            traced: false,
        };
        // Interleaved, best of a few: the same reasoning as the end-to-end
        // cells.
        let mut p50_ns = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..REFERENCE_REPS {
            for (slot, bystander) in [Bystander::None, Bystander::Pred, Bystander::RetryDisjoint]
                .into_iter()
                .enumerate()
            {
                let mut rep = tx_rep(&spec, bystander);
                if let Some(why) = rep.failure {
                    failures.push(format!("reference {bystander:?} {label}: {why}"));
                }
                p50_ns[slot].push(percentile(&mut rep.latencies_ns, 0.5));
            }
        }
        let [alone, checked, skipped] = p50_ns.map(|v| best_of(&v, Better::Lower));
        put(&format!("wake.check_ns.{label}"), checked - alone);
        put(&format!("wake.targeted_skip_ns.{label}"), skipped - alone);

        let rep = kv_rep(&RepSpec {
            ops: REFERENCE_KV_OPS,
            traced: true,
            ..spec
        });
        if let Some(why) = &rep.failure {
            failures.push(format!("reference kv_session {label}: {why}"));
        }
        let p50_us = |root: &str| root_p50_us(&rep.traces, root).unwrap_or(0.0);
        for class in ["get", "put", "delete", "scan"] {
            put(
                &format!("kv.{class}_p50_us.{label}"),
                p50_us(&format!("kv.{class}")),
            );
        }
        grant_waits.push(p50_us(GRANT_WAIT));
    }
    put("kv.grant_wait_p50_us", median(&grant_waits));
    failures
}
