//! Stress tests for the sharded, address-indexed wake path.
//!
//! The waiter registry indexes sleepers by ownership-record stripe so that a
//! committing writer only scans the shards its write set covers.  These
//! tests drive that machinery through the full runtime stack on all three
//! runtimes, in the `tests/properties.rs` style: a deterministic xorshift
//! generator varies the shape of every iteration, so failures reproduce.
//!
//! Two properties are checked:
//!
//! * **No lost wakeups** — N sleepers on disjoint and overlapping address
//!   sets (plus a predicate sleeper, indexed by the stripe it reads) are all
//!   released by concurrent writers; every iteration terminates with every
//!   sleeper woken exactly once per sleep.
//! * **No spurious-wake storms** — a writer whose write set maps to shards
//!   disjoint from every sleeper's performs *zero* wake-condition
//!   evaluations, on all three runtimes (the linear scan this PR replaces
//!   evaluated every sleeper on every commit).

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_repro::core::backoff::XorShift64;
use tm_repro::core::{Addr, TxMode};
use tm_repro::prelude::*;
use tm_repro::sync::{await_one, retry, wait_pred, wake_reason};
use tm_repro::workloads::runtime::RuntimeKind;

/// Consecutive iterations per runtime (the acceptance bar for this PR).
const ITERATIONS: u64 = 50;

/// Iteration count scaled by the `TM_STRESS_ITERS` multiplier (the
/// scheduled CI `stress` job sets it to 10 for soak coverage without
/// slowing the PR gate).
fn iterations() -> u64 {
    ITERATIONS * tm_repro::workloads::stress_iters()
}

/// Waits until `n` waiters are registered, with a liveness deadline so a
/// lost registration fails loudly instead of hanging the suite.
fn wait_for_sleepers(system: &TmSystem, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.waiters.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} sleepers registered",
            system.waiters.len()
        );
        std::thread::yield_now();
    }
}

fn pred_nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

/// One stress iteration: a rng-shaped mix of Retry/Await sleepers on
/// disjoint slots, two sleepers overlapping on a shared slot, and a
/// WaitPred sleeper, released by two concurrent writers.
fn stress_iteration(kind: RuntimeKind, rng: &mut XorShift64) {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let slots = TmArray::<u64>::alloc(&system, 32, 0);

    let n_disjoint = 2 + (rng.next() % 3) as usize; // 2..=4
    let shared_slot = n_disjoint; // slots 0..n_disjoint are the disjoint ones
    let pred_slot = shared_slot + 1;
    let total = n_disjoint + 2 + 1;

    std::thread::scope(|scope| {
        // Disjoint sleepers: each waits for its own slot, via Retry or Await.
        for i in 0..n_disjoint {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            let use_retry = rng.next().is_multiple_of(2);
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, i)?;
                    if v == 0 {
                        return if use_retry {
                            retry(tx)
                        } else {
                            await_one(tx, slots.addr_of(i))
                        };
                    }
                    Ok(v)
                });
                assert_eq!(got, (i + 1) as u64, "disjoint sleeper {i}");
            });
        }
        // Overlapping sleepers: two wait on the same slot, one per mechanism.
        for use_retry in [false, true] {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, shared_slot)?;
                    if v == 0 {
                        return if use_retry {
                            retry(tx)
                        } else {
                            await_one(tx, slots.addr_of(shared_slot))
                        };
                    }
                    Ok(v)
                });
                assert_eq!(got, 77, "overlapping sleeper");
            });
        }
        // A predicate sleeper: registered under the stripe its predicate
        // reads, found by an evaluation before it goes to sleep.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, pred_slot)?;
                    if v == 0 {
                        return wait_pred(tx, pred_nonzero, &[slots.addr_of(pred_slot).0 as u64]);
                    }
                    Ok(v)
                });
                assert_eq!(got, 99, "predicate sleeper");
            });
        }

        wait_for_sleepers(&system, total);

        // Writer 1 releases the disjoint sleepers in a rng-shuffled order.
        let mut order: Vec<usize> = (0..n_disjoint).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for i in order {
                    rt.atomically(&th, |tx| slots.set(tx, i, (i + 1) as u64));
                }
            });
        }
        // Writer 2 releases the overlapping pair and the predicate sleeper.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| slots.set(tx, shared_slot, 77));
                rt.atomically(&th, |tx| slots.set(tx, pred_slot, 99));
            });
        }
    });

    // Every sleeper deregistered itself on the way out.
    assert!(system.waiters.is_empty(), "{kind}: registry must drain");
    let stats = system.stats();
    assert_eq!(stats.descheds, total as u64, "{kind}: one deschedule each");
    assert_eq!(
        stats.sleeps + stats.desched_skips,
        stats.descheds,
        "{kind}: every deschedule either slept or skipped"
    );
    // Nothing lost, no storms: every sleeper that actually slept was
    // signalled (the scope join proves it), and nobody was signalled more
    // than once per deschedule.  A writer may also claim a waiter between
    // its registration and its double-check (the waiter then skips the
    // sleep), so wakeups can exceed sleeps but never descheds.
    assert!(stats.wakeups >= stats.sleeps, "{kind}: a sleeper was lost");
    assert!(
        stats.wakeups <= stats.descheds,
        "{kind}: at most one signal per deschedule"
    );
}

#[test]
fn stress_no_lost_wakeups_eager() {
    let mut rng = XorShift64::new(0xEA6E_0001);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::EagerStm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_lazy() {
    let mut rng = XorShift64::new(0x1A2_0002);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::LazyStm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_htm() {
    let mut rng = XorShift64::new(0x547_0003);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::Htm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_hybrid() {
    let mut rng = XorShift64::new(0x8B1D_0004);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::Hybrid, &mut rng);
    }
}

/// Sleeper addresses whose registry shards avoid `forbidden`, scanning raw
/// heap words deterministically.
fn pick_sleeper_addrs(system: &TmSystem, n: usize, forbidden: &[usize]) -> Vec<Addr> {
    let mut picked = Vec::new();
    let mut shards_used: Vec<usize> = forbidden.to_vec();
    for word in 64..system.heap.len() {
        let addr = Addr(word);
        let shard = system.waiters.shard_of(system.orecs.index_for(addr));
        if !shards_used.contains(&shard) {
            shards_used.push(shard);
            picked.push(addr);
            if picked.len() == n {
                return picked;
            }
        }
    }
    panic!("heap too small to find {n} shard-distinct sleeper addresses");
}

/// The registry shards a write to `addr` can touch on any runtime: the
/// shards of every word of its cache line (hardware commits report the line
/// cover via the same `OrecTable::line_indices`; software commits report a
/// subset of it).
fn writer_shards(system: &TmSystem, addr: Addr) -> Vec<usize> {
    system
        .orecs
        .line_indices(addr.line())
        .map(|stripe| system.waiters.shard_of(stripe))
        .collect()
}

/// A writer hammering stripes disjoint from every sleeper's must not
/// evaluate a single wait condition — the storm the sharded registry exists
/// to prevent — and the zero-waiter fast path must do no shard work at all.
fn disjoint_writer_scans_nothing(kind: RuntimeKind, wait: fn(&mut dyn Tx, Addr) -> TxResult<u64>) {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let writer = system.register_thread();

    // Fast path: committing with an empty registry touches no shards.
    let writer_addr = Addr(2048);
    rt.atomically(&writer, |tx| tx.write(writer_addr, 1));
    let s = writer.stats.snapshot();
    assert_eq!(s.wake_shard_scans, 0, "{kind}: empty-registry fast path");

    let n_sleepers = 4;
    let sleeper_addrs =
        pick_sleeper_addrs(&system, n_sleepers, &writer_shards(&system, writer_addr));

    std::thread::scope(|scope| {
        for &addr in &sleeper_addrs {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = tx.read(addr)?;
                    if v == 0 {
                        return wait(tx, addr);
                    }
                    Ok(v)
                });
                assert_eq!(got, 5);
            });
        }
        wait_for_sleepers(&system, n_sleepers);

        // Phase 1: commits on shards none of the sleepers occupy.
        let before = writer.stats.snapshot();
        for round in 0..100u64 {
            rt.atomically(&writer, |tx| tx.write(writer_addr, round + 2));
        }
        let after = writer.stats.snapshot();
        assert_eq!(
            after.wake_checks - before.wake_checks,
            0,
            "{kind}: disjoint commits must not evaluate any wait condition"
        );
        assert_eq!(
            after.wake_targeted - before.wake_targeted,
            100,
            "{kind}: every disjoint commit took the targeted scan"
        );
        assert_eq!(
            after.wake_shard_scans, before.wake_shard_scans,
            "{kind}: disjoint commits must not visit a shard"
        );
        assert_eq!(after.wakeups - before.wakeups, 0, "{kind}: nobody woken");

        // Phase 2: release the sleepers through their own stripes.
        for &addr in &sleeper_addrs {
            rt.atomically(&writer, |tx| tx.write(addr, 5));
        }
    });

    assert!(system.waiters.is_empty(), "{kind}: registry must drain");
    assert_eq!(
        system.stats().wakeups,
        n_sleepers as u64,
        "{kind}: each sleeper woken exactly once"
    );
}

#[test]
fn disjoint_writer_scans_nothing_eager() {
    disjoint_writer_scans_nothing(RuntimeKind::EagerStm, await_one);
}

#[test]
fn disjoint_writer_scans_nothing_lazy() {
    disjoint_writer_scans_nothing(RuntimeKind::LazyStm, await_one);
}

#[test]
fn disjoint_writer_scans_nothing_htm() {
    disjoint_writer_scans_nothing(RuntimeKind::Htm, await_one);
}

#[test]
fn disjoint_writer_scans_nothing_hybrid() {
    disjoint_writer_scans_nothing(RuntimeKind::Hybrid, await_one);
}

/// `Retry-Orig` sleepers are indexed by their read orecs' stripes like any
/// other waiter, so a disjoint commit does not look at them either.
#[test]
fn disjoint_writer_scans_nothing_retry_orig() {
    for kind in orig_kinds() {
        disjoint_writer_scans_nothing(kind, |tx, _| retry_orig(tx));
    }
}

/// The runtimes with lock metadata for `Retry-Orig` to wait on.
fn orig_kinds() -> impl Iterator<Item = RuntimeKind> {
    RuntimeKind::ALL
        .into_iter()
        .filter(|k| k.supports_retry_orig())
}

/// A `retry_orig` sleeper on `flag`, returned once it is parked; it yields
/// the flag and the wake reason its re-execution saw.
fn park_retry_orig(rt: &AnyRuntime, flag: &TmVar<u64>) -> JoinHandle<(u64, Option<WakeReason>)> {
    let sleeps = rt.system().stats().sleeps;
    let (rt_w, flag) = (rt.clone(), flag.clone());
    let sleeper = std::thread::spawn(move || {
        let th = rt_w.system().register_thread();
        rt_w.atomically(&th, |tx| match (flag.get(tx)?, wake_reason(tx)) {
            (0, None) => retry_orig(tx),
            seen => Ok(seen),
        })
    });
    while rt.system().stats().sleeps == sleeps {
        std::thread::yield_now();
    }
    sleeper
}

/// A parked `retry_orig` sleeper is an ordinary waiter.  A serial writer
/// touches no orec, yet its commit wakes it (through the serial gate's
/// writer-commit count); `cancel_thread` finds it, once, and the
/// re-execution observes the cancellation.
#[test]
fn retry_orig_sleepers_wake_for_serial_writers_and_cancellation() {
    for kind in orig_kinds() {
        let rt = kind.build(TmConfig::small());
        let system = rt.system();
        let flag = TmVar::<u64>::alloc(system, 0);
        let sleeper = park_retry_orig(&rt, &flag);
        let th = system.register_thread();
        rt.atomically(&th, |tx| match tx.mode() {
            TxMode::Serial => flag.set(tx, 4),
            _ => Err(TxCtl::BecomeSerial),
        });
        assert_eq!(th.stats.snapshot().serial_commits, 1, "{kind}");
        let seen = sleeper.join().unwrap();
        assert_eq!(seen, (4, Some(WakeReason::Woken)), "{kind}");

        rt.atomically(&th, |tx| flag.set(tx, 0));
        let sleeper = park_retry_orig(&rt, &flag);
        let tid = system.waiters.snapshot()[0].thread;
        assert!(cancel_thread(system, tid), "{kind}");
        assert!(!cancel_thread(system, tid), "{kind}: only once");
        let seen = sleeper.join().unwrap();
        assert_eq!(seen, (0, Some(WakeReason::Cancelled)), "{kind}");
        let stats = system.stats();
        assert_eq!((stats.wake_cancels, stats.wakeups), (1, 1), "{kind}");
    }
}

/// The `Retry-Orig` waiting list belongs to the system, not to a runtime
/// handle: a thread parked through one `EagerStm` over a `TmSystem` must be
/// woken by a commit made through a second `EagerStm` over the same system.
/// (`retry_orig` has no deadline, so the join is bounded here:
/// a sleeper nobody can see fails the test instead of hanging it.)
#[test]
fn retry_orig_sleeper_is_woken_through_a_second_handle() {
    use tm_repro::eager::EagerStm;
    use tm_repro::sync::retry_orig;

    let system = TmSystem::new(TmConfig::small());
    let parks = EagerStm::new(Arc::clone(&system));
    let commits = EagerStm::new(Arc::clone(&system));
    let flag = TmVar::<u64>::alloc(&system, 0);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let (system_w, flag_w) = (Arc::clone(&system), flag.clone());
    std::thread::spawn(move || {
        let th = system_w.register_thread();
        let seen = parks.atomically(&th, |tx| match flag_w.get(tx)? {
            0 => retry_orig(tx),
            v => Ok(v),
        });
        let _ = done_tx.send(seen);
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    while system.waiters.is_empty() {
        assert!(Instant::now() < deadline, "the sleeper never registered");
        std::thread::yield_now();
    }
    let th = system.register_thread();
    commits.atomically(&th, |tx| flag.set(tx, 9));
    let seen = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a commit through the second handle must wake the Retry-Orig sleeper");
    assert_eq!(seen, 9);
    assert_eq!(system.waiters.len(), 0, "a woken sleeper leaves the list");
}

/// A body that writes a word, reads it back and then `retry`s must park: its
/// value log has to hold what memory holds once the attempt is undone — the
/// pre-transaction value, not the pending write — or the deschedule
/// double-check sees a "changed" word and spins instead of sleeping.  (On
/// `htm` the re-execution is a serial attempt writing in place, so this pins
/// the undo-log substitution in `SoftwareTx::read`'s serial arm.)
#[test]
fn retry_after_writing_the_awaited_word_logs_the_old_value_and_parks() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let word = TmVar::<u64>::alloc(&system, 0);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (rt_s, system_s, word_s) = (rt.clone(), Arc::clone(&system), word.clone());
        let sleeper = std::thread::spawn(move || {
            let th = system_s.register_thread();
            let seen = rt_s.atomically(&th, |tx| {
                if wake_reason(tx).is_some() {
                    return word_s.get(tx);
                }
                word_s.set(tx, 7)?;
                assert_eq!(word_s.get(tx)?, 7, "{kind}: read-your-writes");
                retry(tx)
            });
            let _ = done_tx.send(seen);
        });

        let deadline = Instant::now() + Duration::from_secs(30);
        while system.stats().sleeps == 0 {
            assert_eq!(
                system.stats().desched_skips,
                0,
                "{kind}: the value log recorded the pending write, so the sleep was skipped"
            );
            assert!(
                Instant::now() < deadline,
                "{kind}: the sleeper never parked"
            );
            std::thread::yield_now();
        }
        assert_eq!(word.load_direct(&system), 0, "{kind}: the write was undone");

        let th = system.register_thread();
        rt.atomically(&th, |tx| word.set(tx, 9));
        let seen = done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{kind}: a commit of the word must wake the sleeper"));
        assert_eq!(seen, 9, "{kind}");
        sleeper.join().expect("sleeper thread exits cleanly");
        let stats = system.stats();
        assert_eq!(
            (
                stats.descheds,
                stats.sleeps,
                stats.desched_skips,
                stats.wakeups
            ),
            (1, 1, 0, 1),
            "{kind}: one deschedule that slept, woken exactly once"
        );
    }
}

/// Whoever wins a sleeper's claim deregisters it before posting, so the
/// registry holds only sleepers that still need a wake, and the commits a
/// waker makes before the woken thread runs again take the empty-registry
/// fast path.  A capacity-128 `Retry` buffer prefilled to half sleeps only
/// at the ends of long batches, so few of its commits may reach the wake
/// scan; were the claimed sleeper left registered until it ran, a waker
/// sharing its CPU would scan on nearly every commit of its batch.
#[test]
fn a_streaming_buffer_reaches_the_wake_scan_on_few_commits() {
    const CAPACITY: usize = 128;
    const PREFILL: usize = 64;
    const ITEMS: u64 = 20_000;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let buffer = TmBoundedBuffer::new(&system, CAPACITY);
        buffer.prefill(&system, PREFILL);
        let (produced, consumed) = std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let th = system.register_thread();
                let mut sum = 0;
                for value in 1_000..1_000 + ITEMS {
                    rt.atomically(&th, |tx| buffer.produce(Mechanism::Retry, tx, value));
                    sum += value;
                }
                sum
            });
            let consumer = scope.spawn(|| {
                let th = system.register_thread();
                (0..ITEMS)
                    .map(|_| rt.atomically(&th, |tx| buffer.consume(Mechanism::Retry, tx)))
                    .sum::<u64>()
            });
            (producer.join().unwrap(), consumer.join().unwrap())
        });
        let stats = system.stats();
        assert!(system.waiters.is_empty(), "{kind}: the registry drains");

        assert_eq!(buffer.len_direct(&system), PREFILL as u64, "{kind}");
        let th = system.register_thread();
        let left: u64 = (0..PREFILL)
            .map(|_| rt.atomically(&th, |tx| buffer.get(tx)))
            .sum();
        let prefilled: u64 = (1..=PREFILL as u64).sum();
        assert_eq!(
            produced + prefilled,
            consumed + left,
            "{kind}: conservation"
        );

        let commits = stats.sw_commits + stats.hw_commits;
        assert!(
            stats.wake_targeted * 4 < commits,
            "{kind}: {} of {commits} commits scanned the registry ({} sleeps)",
            stats.wake_targeted,
            stats.sleeps
        );
    }
}
