//! `WaitPred` sleepers are indexed by the stripes their predicate reads.
//!
//! A predicate names no addresses, so the wait protocol finds its footprint
//! by evaluating it (`tm_core::driver`'s `check`) and registers the waiter
//! under those stripes like any `Retry`/`Await` sleeper: a commit elsewhere
//! no longer evaluates it.  The footprint may depend on the data read, so it
//! has to follow the predicate — these tests drive that through the full
//! stack on all four runtimes:
//!
//! * a predicate that moves onto a word it never read before is still woken
//!   through that word, exactly once;
//! * under concurrent writers to the selector and the targets, nobody is
//!   lost (seeded, in the `tests/wake_paths.rs` idiom);
//! * timeouts and cancellation work on an indexed predicate sleeper as they
//!   did on an unindexed one;
//! * a predicate with no footprint at all falls back to the overflow shard,
//!   where every commit, a timeout and a cancel still reach it.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_repro::core::backoff::XorShift64;
use tm_repro::core::driver::wake_waiters_matching;
use tm_repro::core::{Waiter, WakeSet};
use tm_repro::prelude::*;

/// Consecutive stress iterations per runtime.
const ITERATIONS: u64 = 30;

/// How long anything here may take before it counts as a lost wake-up.
const LIVENESS: Duration = Duration::from_secs(30);

fn iterations() -> u64 {
    ITERATIONS * tm_repro::workloads::stress_iters()
}

/// `args = [sel, a, b, want]`: the word `sel` selects (`a` when it is zero,
/// else `b`) holds `want`.
fn selected_equals(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    let pick = if tx.read(Addr(args[0] as usize))? == 0 {
        args[1]
    } else {
        args[2]
    };
    Ok(tx.read(Addr(pick as usize))? == args[3])
}

fn pred_nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

fn never(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
    Ok(false)
}

/// Polls `ready` with a liveness deadline, so a lost wake-up (or a sleeper
/// that never parks) fails the test instead of hanging the suite.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + LIVENESS;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn join_within<T>(what: &str, handle: JoinHandle<T>) -> T {
    wait_until(what, || handle.is_finished());
    handle.join().expect("thread panicked")
}

/// The one waiter currently registered.
fn only_waiter(system: &TmSystem) -> Arc<Waiter> {
    let mut all = system.waiters.snapshot();
    assert_eq!(all.len(), 1);
    all.pop().expect("one waiter")
}

/// Three words on pairwise distinct cache lines and stripes, such that no
/// commit to one of them — on any runtime: hardware commits report the
/// stripes of whole lines — covers the stripe of another.
fn far_apart_words(system: &Arc<TmSystem>) -> [Addr; 3] {
    let cells = TmArray::<u64>::alloc(system, 1024, 0);
    let picked = [cells.addr_of(8), cells.addr_of(400), cells.addr_of(800)];
    for (i, x) in picked.iter().enumerate() {
        for (j, y) in picked.iter().enumerate() {
            let covered = system
                .orecs
                .line_indices(y.line())
                .any(|s| s == system.orecs.index_for(*x));
            assert_eq!(covered, i == j, "words {i} and {j} must not alias");
        }
    }
    picked
}

#[test]
fn a_predicate_that_moves_to_a_new_word_is_woken_through_it_exactly_once() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let [sel, a, b] = far_apart_words(&system);
        let stripe = |addr| system.orecs.index_for(addr);
        let args = [sel.0 as u64, a.0 as u64, b.0 as u64, 9];

        let sleeper = {
            let (rt, system) = (rt.clone(), Arc::clone(&system));
            std::thread::spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if !selected_equals(tx, &args)? {
                        return wait_pred(tx, selected_equals, &args);
                    }
                    Ok(wake_reason(tx))
                })
            })
        };
        wait_until("the sleeper to park", || system.stats().sleeps == 1);
        let waiter = only_waiter(&system);
        assert!(waiter.covers(&[stripe(sel), stripe(a)]), "{kind}");
        assert!(!waiter.covers(&[stripe(b)]), "{kind}: `b` was never read");

        // Flip the selector: still false, but now a function of `b`.  The
        // flipping commit's own wake check has to publish `b`'s stripe.
        let th = system.register_thread();
        rt.atomically(&th, |tx| tx.write(sel, 1));
        assert!(waiter.covers(&[stripe(b)]), "{kind}");
        assert!(system.stats().pred_reindexes >= 1, "{kind}");
        // The word it no longer looks at cannot wake it ...
        rt.atomically(&th, |tx| tx.write(a, 9));
        assert!(waiter.is_asleep(), "{kind}");
        assert_eq!(system.stats().wakeups, 0, "{kind}");
        // ... the newly read one does.
        rt.atomically(&th, |tx| tx.write(b, 9));
        let reason = join_within("the sleeper to wake", sleeper);
        assert_eq!(reason, Some(WakeReason::Woken), "{kind}");

        let stats = system.stats();
        assert_eq!((stats.sleeps, stats.wakeups), (1, 1), "{kind}");
        assert_eq!(stats.descheds, 1, "{kind}");
        assert!(system.waiters.is_empty(), "{kind}: registry must drain");
        assert!(
            system
                .waiters
                .scan(&tm_repro::core::WakeSet::All)
                .waiters
                .is_empty(),
            "{kind}: no shard keeps a stale registration"
        );
    }
}

/// One stress iteration: sleepers share a selector and own their two
/// targets; one writer keeps flipping the selector while another stores
/// junk and finally the wanted value into the `b` targets.  The selector
/// ends on `b`, so in the final state every predicate holds and every
/// sleeper must have been woken — through a word it may not have been
/// registered under when it went to sleep.
fn stress_iteration(kind: RuntimeKind, rng: &mut XorShift64) -> u64 {
    const WANT: u64 = 7;
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let cells = TmArray::<u64>::alloc(&system, 2048, 0);
    let sel = cells.addr_of(0);
    let n_sleepers = 2 + (rng.next() % 3) as usize; // 2..=4
    let targets: Vec<(Addr, Addr)> = (0..n_sleepers)
        .map(|i| (cells.addr_of(64 + 128 * i), cells.addr_of(1088 + 128 * i)))
        .collect();
    let flips = 4 + rng.next() % 9; // 4..=12
    let junk_rounds = 1 + rng.next() % 4;

    let sleepers: Vec<_> = targets
        .iter()
        .map(|&(a, b)| {
            let (rt, system) = (rt.clone(), Arc::clone(&system));
            let args = [sel.0 as u64, a.0 as u64, b.0 as u64, WANT];
            std::thread::spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if !selected_equals(tx, &args)? {
                        // Bounded, so that a lost wake-up surfaces as a
                        // counted timeout instead of a hang.
                        return wait_pred_for(tx, selected_equals, &args, LIVENESS);
                    }
                    Ok(())
                })
            })
        })
        .collect();
    wait_until("the sleepers to deschedule", || {
        system.stats().descheds >= n_sleepers as u64
    });

    let flipper = {
        let (rt, system) = (rt.clone(), Arc::clone(&system));
        std::thread::spawn(move || {
            let th = system.register_thread();
            for i in 0..flips {
                rt.atomically(&th, |tx| tx.write(sel, i % 2));
            }
            rt.atomically(&th, |tx| tx.write(sel, 1));
        })
    };
    let setter = {
        let (rt, system, targets) = (rt.clone(), Arc::clone(&system), targets.clone());
        std::thread::spawn(move || {
            let th = system.register_thread();
            for round in 0..junk_rounds {
                for &(a, b) in &targets {
                    rt.atomically(&th, |tx| tx.write(a, 100 + round));
                    rt.atomically(&th, |tx| tx.write(b, 200 + round));
                }
            }
            for &(_, b) in &targets {
                rt.atomically(&th, |tx| tx.write(b, WANT));
            }
        })
    };
    join_within("the selector writer", flipper);
    join_within("the target writer", setter);
    for sleeper in sleepers {
        join_within("a sleeper to be woken", sleeper);
    }

    assert!(system.waiters.is_empty(), "{kind}: registry must drain");
    assert!(system.timers.idle(), "{kind}: every timer disarmed");
    let stats = system.stats();
    assert_eq!(stats.wake_timeouts, 0, "{kind}: a wake-up was lost");
    assert_eq!(
        stats.sleeps + stats.desched_skips,
        stats.descheds,
        "{kind}: every deschedule either slept or skipped"
    );
    assert!(stats.wakeups >= stats.sleeps, "{kind}: a sleeper was lost");
    assert!(
        stats.wakeups <= stats.descheds,
        "{kind}: at most one signal per deschedule"
    );
    stats.pred_reindexes
}

#[test]
fn stress_moving_predicates_lose_no_wakeups() {
    for (kind, seed) in
        RuntimeKind::ALL
            .into_iter()
            .zip([0xEA6E_0011_u64, 0x1A2_0012, 0x547_0013, 0x8B1D_0014])
    {
        let mut rng = XorShift64::new(seed);
        let reindexes: u64 = (0..iterations())
            .map(|_| stress_iteration(kind, &mut rng))
            .sum();
        assert!(reindexes > 0, "{kind}: no footprint ever moved");
    }
}

#[test]
fn an_indexed_predicate_sleeper_still_times_out_and_cancels_exactly_once() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let [flag, other, _] = far_apart_words(&system);
        let args = [flag.0 as u64];

        // Nobody sets the flag: the bounded wait must end as one timeout.
        let th = system.register_thread();
        let start = Instant::now();
        let got = rt.atomically(&th, |tx| {
            if tx.read(flag)? == 0 {
                if timed_out(tx) {
                    return Ok(None);
                }
                return wait_pred_for(tx, pred_nonzero, &args, Duration::from_millis(30));
            }
            Ok(Some(tx.read(flag)?))
        });
        assert_eq!(got, None, "{kind}");
        assert!(start.elapsed() >= Duration::from_millis(25), "{kind}");
        let stats = system.stats();
        assert_eq!(
            (stats.wake_timeouts, stats.sleeps, stats.wakeups),
            (1, 1, 0),
            "{kind}"
        );
        assert!(
            system.waiters.is_empty() && system.timers.idle(),
            "{kind}: no residue in the registries"
        );

        // An unbounded one is found by thread id and cancelled.
        let sleeper = {
            let (rt, system) = (rt.clone(), Arc::clone(&system));
            std::thread::spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if was_cancelled(tx) {
                        return Ok(None);
                    }
                    if tx.read(flag)? == 0 {
                        return wait_pred(tx, pred_nonzero, &args);
                    }
                    Ok(Some(tx.read(flag)?))
                })
            })
        };
        wait_until("the sleeper to park", || system.stats().sleeps == 2);
        let waiter = only_waiter(&system);
        assert!(
            waiter.covers(&[system.orecs.index_for(flag)])
                && !waiter.covers(&[system.orecs.index_for(other)]),
            "{kind}: indexed by the flag's stripe, not in the overflow shard"
        );
        assert!(cancel_thread(&system, waiter.thread), "{kind}");
        assert!(!cancel_thread(&system, waiter.thread), "{kind}: only once");
        assert_eq!(
            join_within("the cancelled sleeper", sleeper),
            None,
            "{kind}"
        );
        let stats = system.stats();
        assert_eq!((stats.wake_cancels, stats.wakeups), (1, 0), "{kind}");
        assert!(system.waiters.is_empty() && system.timers.idle(), "{kind}");
    }
}

#[test]
fn a_predicate_that_reads_nothing_waits_in_the_overflow_shard() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let [word, _, _] = far_apart_words(&system);

        let sleeper = {
            let (rt, system) = (rt.clone(), Arc::clone(&system));
            std::thread::spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| match wake_reason(tx) {
                    Some(reason) => Ok(reason),
                    None => wait_pred(tx, never, &[]),
                })
            })
        };
        wait_until("the sleeper to park", || system.stats().sleeps == 1);
        let waiter = only_waiter(&system);
        assert!(
            waiter.covers(&[system.orecs.index_for(word)]),
            "{kind}: the overflow shard covers every stripe"
        );

        // Every commit evaluates it, wherever it wrote, and so does a
        // committer that knows nothing about its write set.
        let th = system.register_thread();
        let before = th.stats.snapshot().wake_checks;
        rt.atomically(&th, |tx| tx.write(word, 1));
        wake_waiters_matching(rt.as_dyn(), &th, &WakeSet::All);
        assert_eq!(th.stats.snapshot().wake_checks - before, 2, "{kind}");
        assert!(waiter.is_asleep(), "{kind}");
        assert_eq!(system.stats().pred_reindexes, 0, "{kind}");

        assert!(cancel_thread(&system, waiter.thread), "{kind}");
        let reason = join_within("the cancelled sleeper", sleeper);
        assert_eq!(reason, WakeReason::Cancelled, "{kind}");
        assert!(system.waiters.is_empty(), "{kind}");

        // ... and a deadline still ends such a wait.
        let reason = rt.atomically(&th, |tx| match wake_reason(tx) {
            Some(reason) => Ok(reason),
            None => wait_pred_for(tx, never, &[], Duration::from_millis(20)),
        });
        assert_eq!(reason, WakeReason::Timeout, "{kind}");
        assert_eq!(system.stats().wake_timeouts, 1, "{kind}");
        assert!(system.waiters.is_empty() && system.timers.idle(), "{kind}");
    }
}
