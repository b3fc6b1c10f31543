//! The steady state of a transaction allocates nothing.
//!
//! Every attempt's logs live in the thread's resident attempt descriptor
//! (`tm_core::access::Descriptor`), checked out once per transaction and
//! lent to each attempt, so once the containers have grown a transaction
//! performs no heap allocation — with nobody waiting at all, and with a
//! sleeper parked only what the waiter-registry scan itself allocates.  A
//! counting global allocator checks exactly that, per thread, so the
//! allocations of other tests in this binary do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tm_repro::core::{ThreadCtx, WaitList, WakeSet};
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

/// Allocations of one registry scan for a commit that wrote `stripes`, with
/// the registry in its current state.
fn scan_allocations(waiters: &WaitList, stripes: Vec<usize>) -> u64 {
    let wake = WakeSet::Stripes(stripes);
    allocations_in(|| drop(waiters.scan(&wake)))
}

#[test]
fn with_a_sleeper_parked_a_commit_allocates_only_what_the_registry_scan_does() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let block: Vec<TmVar<u64>> = (0..4).map(|_| TmVar::alloc(&system, 0)).collect();
        let flag = TmVar::<u64>::alloc(&system, 0);

        std::thread::scope(|scope| {
            // The `tx_bystander` sleeper: a predicate that stays false names
            // no address, so every commit must run one wake check for it.
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
            // What the scan costs for this commit's cover (every runtime's
            // cover lies within the stripes of the block's cache lines).
            let mut stripes = Vec::new();
            for v in &block {
                stripes.extend(system.orecs.line_indices(v.addr().line()));
            }
            let per_scan = scan_allocations(&system.waiters, stripes);
            assert!(per_scan > 0, "{kind}: the scan copies the shard out");

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
                allocations,
                MEASURED * per_scan,
                "{kind}: per commit, the scan's {per_scan} allocation(s) and nothing else \
                 (the cover buffer is moved and handed back, the wake check runs warm)"
            );

            rt.atomically(&th, |tx| flag.set(tx, 1));
            sleeper.join().expect("sleeper wakes and commits");
        });
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
