//! The steady state of a transaction allocates nothing.
//!
//! Every attempt's logs live in the thread's resident attempt descriptor
//! (`tm_core::access::Descriptor`), checked out once per transaction and
//! lent to each attempt, so once the containers have grown a transaction
//! performs no heap allocation — with nobody waiting at all, and with a
//! sleeper parked that the commit cannot affect (a `wait_pred` sleeper is
//! registered under the stripes its predicate reads).  A sleep allocates a
//! pinned handful — its waiter record and condition, never a semaphore to
//! park on.  A counting global allocator checks exactly that, per thread,
//! so the allocations of other tests in this binary do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tm_repro::core::{StatsSnapshot, ThreadCtx};
use tm_repro::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a bump of a `const`-initialised, destructor-free
// thread-local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread performs while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const WARM_UP: u64 = 200;
const MEASURED: u64 = 1_000;

/// The benchmark's `tx_update` body: read and rewrite four variables.
fn update(rt: &AnyRuntime, th: &Arc<ThreadCtx>, block: &[TmVar<u64>]) {
    rt.atomically(th, |tx| {
        for v in block {
            let x = v.get(tx)?;
            v.set(tx, x + 1)?;
        }
        Ok(())
    });
}

#[test]
fn steady_state_transactions_allocate_nothing_with_an_empty_registry() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let block: Vec<TmVar<u64>> = (0..4).map(|_| TmVar::alloc(&system, 0)).collect();
        for _ in 0..WARM_UP {
            update(&rt, &th, &block);
        }
        let allocations = allocations_in(|| {
            for _ in 0..MEASURED {
                update(&rt, &th, &block);
            }
        });
        assert_eq!(
            allocations, 0,
            "{kind}: {MEASURED} warm update transactions"
        );
        let sum = rt.atomically_read(&th, |tx| {
            let mut sum = 0;
            for v in &block {
                sum += v.get(tx)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, 4 * (WARM_UP + MEASURED), "{kind}");
        assert_eq!(
            system.stats().total_commits(),
            WARM_UP + MEASURED + 1,
            "{kind}"
        );
    }
}

fn nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

/// A flag word that no commit of `block` can reach on any runtime (the
/// ledger's `place_flag(.., disjoint = true)`): at least two cache lines
/// away, and on a stripe and a wait-list shard outside the cover of the
/// block's cache lines, which is what hardware commits report.
fn disjoint_flag(system: &Arc<TmSystem>, block: &[TmVar<u64>]) -> TmVar<u64> {
    let stripes: Vec<usize> = block
        .iter()
        .flat_map(|v| system.orecs.line_indices(v.addr().line()))
        .collect();
    let shards: Vec<usize> = stripes
        .iter()
        .map(|&s| system.waiters.shard_of(s))
        .collect();
    let candidates = TmArray::<u64>::alloc(system, 512, 0);
    (0..candidates.len())
        .map(|i| candidates.addr_of(i))
        .find(|&addr| {
            let stripe = system.orecs.index_for(addr);
            block.iter().all(|v| v.addr().0.abs_diff(addr.0) >= 16)
                && !stripes.contains(&stripe)
                && !shards.contains(&system.waiters.shard_of(stripe))
        })
        .map(TmVar::from_addr)
        .expect("some heap word is disjoint from the block")
}

#[test]
fn with_a_disjoint_wait_pred_sleeper_parked_a_commit_checks_and_allocates_nothing() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let block: Vec<TmVar<u64>> = (0..4).map(|_| TmVar::alloc(&system, 0)).collect();
        let flag = disjoint_flag(&system, &block);

        std::thread::scope(|scope| {
            // The `tx_bystander` sleeper.  Its predicate reads only the
            // flag, so it is registered under the flag's stripe and a commit
            // of the block has nobody to check.
            let sleeper = scope.spawn(|| {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if flag.get(tx)? == 0 {
                        return wait_pred(tx, nonzero, &[flag.addr().0 as u64]);
                    }
                    Ok(())
                });
            });
            while system.stats().sleeps == 0 {
                std::thread::yield_now();
            }

            for _ in 0..WARM_UP {
                update(&rt, &th, &block);
            }
            let before = system.stats();
            let allocations = allocations_in(|| {
                for _ in 0..MEASURED {
                    update(&rt, &th, &block);
                }
            });
            let after = system.stats();
            assert_eq!(
                after.wake_checks - before.wake_checks,
                0,
                "{kind}: no commit of the block covers the sleeper's stripe"
            );
            assert_eq!(
                after.wake_shard_scans - before.wake_shard_scans,
                0,
                "{kind}: the scan stops at the shard counts"
            );
            assert_eq!(
                allocations, 0,
                "{kind}: {MEASURED} commits with a sleeper registered elsewhere"
            );

            // The commit that does write its stripe checks it, in the
            // thread's reused buffers once they have grown, and wakes it.
            rt.atomically(&th, |tx| flag.set(tx, 1));
            sleeper.join().expect("sleeper wakes and commits");
            let woken = system.stats();
            assert_eq!(woken.wake_checks - after.wake_checks, 1, "{kind}");
            assert_eq!((woken.sleeps, woken.wakeups), (1, 1), "{kind}");
        });
    }
}

fn at_least(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? >= args[1])
}

#[test]
fn with_a_sleeper_on_a_written_word_each_commit_checks_it_in_reused_buffers() {
    const RELEASE: u64 = u64::MAX / 2;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let block: Vec<TmVar<u64>> = (0..4).map(|_| TmVar::alloc(&system, 0)).collect();
        let watched = &block[0];

        std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if watched.get(tx)? < RELEASE {
                        return wait_pred(tx, at_least, &[watched.addr().0 as u64, RELEASE]);
                    }
                    Ok(())
                });
            });
            while system.stats().sleeps == 0 {
                std::thread::yield_now();
            }

            for _ in 0..WARM_UP {
                update(&rt, &th, &block);
            }
            let before = system.stats();
            let allocations = allocations_in(|| {
                for _ in 0..MEASURED {
                    update(&rt, &th, &block);
                }
            });
            let after = system.stats();
            assert_eq!(
                after.wake_checks - before.wake_checks,
                MEASURED,
                "{kind}: one nested wake-check transaction per commit"
            );
            assert_eq!(
                allocations, 0,
                "{kind}: the cover and candidate buffers are moved and handed back, \
                 the footprint is recorded in place, the wake check runs warm"
            );

            rt.atomically(&th, |tx| watched.set(tx, RELEASE));
            sleeper.join().expect("sleeper wakes and commits");
            assert_eq!(system.stats().wakeups, 1, "{kind}");
        });
    }
}

/// Sleeps measured by the `Retry` hand-off case.
const HANDOFFS: u64 = 200;

/// A `Retry` hand-off: the sleeper waits for `turn` to move past each
/// round, and the waker moves it only once the sleeper is parked, so every
/// round is exactly one sleep.  Returns the allocations the sleeper thread
/// made over `HANDOFFS` warm rounds, and its counters.
fn retry_handoff_allocations(kind: RuntimeKind) -> (u64, StatsSnapshot) {
    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let turn = TmVar::<u64>::alloc(&system, 0);
    std::thread::scope(|scope| {
        let sleeper = scope.spawn(|| {
            let th = system.register_thread();
            let wait_past = |round: u64| {
                rt.atomically(&th, |tx| {
                    if turn.get(tx)? == round {
                        return retry(tx);
                    }
                    Ok(())
                })
            };
            (0..WARM_UP).for_each(wait_past);
            let allocations = allocations_in(|| (WARM_UP..WARM_UP + HANDOFFS).for_each(wait_past));
            (allocations, th.stats.snapshot())
        });
        let waker = system.register_thread();
        for round in 0..WARM_UP + HANDOFFS {
            while system.stats().sleeps == round {
                std::thread::yield_now();
            }
            rt.atomically(&waker, |tx| turn.set(tx, round + 1));
        }
        sleeper.join().expect("the sleeper wakes every round")
    })
}

/// What one `Retry` sleep allocates on the sleeper thread: the value log
/// its wait condition is built from, the waiter record, the condition's
/// stripe list and the waiter's list of where it is registered.  The
/// semaphore it parks on is its thread's own, so it allocates none.
const ALLOCATIONS_PER_SLEEP: u64 = 4;

#[test]
fn a_retry_sleep_allocates_its_waiter_record_and_nothing_for_the_park() {
    for kind in RuntimeKind::ALL {
        let (allocations, stats) = retry_handoff_allocations(kind);
        assert_eq!(
            (stats.sleeps, stats.desched_skips),
            (WARM_UP + HANDOFFS, 0),
            "{kind}: one sleep per round"
        );
        assert_eq!(
            allocations,
            ALLOCATIONS_PER_SLEEP * HANDOFFS,
            "{kind}: {HANDOFFS} warm sleeps"
        );
    }
}

#[test]
fn a_transaction_started_inside_a_body_runs_on_a_cold_descriptor() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        // Far apart, so the two transactions share no cache line or stripe.
        let cells = TmArray::<u64>::alloc(&system, 1024, 0);
        let (outer, inner) = (cells.addr_of(0), cells.addr_of(1000));
        let (outer, inner) = (
            TmVar::<u64>::from_addr(outer),
            TmVar::<u64>::from_addr(inner),
        );

        for round in 1..=3u64 {
            let (x, y) = rt.atomically(&th, |tx| {
                let x = outer.get(tx)?;
                // The outer attempt holds the thread's descriptor, so this
                // one must fall back to a cold descriptor of its own.
                let y = rt.atomically(&th, |tx| {
                    let y = inner.get(tx)?;
                    inner.set(tx, y + 10)?;
                    Ok(y + 10)
                });
                outer.set(tx, x + 1)?;
                Ok((x + 1, y))
            });
            assert_eq!(x, round, "{kind}");
            assert_eq!(outer.load_direct(&system), round, "{kind}");
            // The inner transaction commits once per execution of the body.
            assert_eq!(inner.load_direct(&system), y, "{kind}");
            assert!(y >= 10 * round, "{kind}");
        }
        // The resident descriptor is free again and still warm.
        let block = [outer.clone()];
        update(&rt, &th, &block);
        assert_eq!(allocations_in(|| update(&rt, &th, &block)), 0, "{kind}");
    }
}
