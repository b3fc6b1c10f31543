//! Timed and cancellable waiting, end to end on all four runtimes.
//!
//! Covers the timeout state machine's three exits and its races:
//!
//! * deterministic expiry — no writer ever establishes the condition, so
//!   the wait *must* end as `WakeReason::Timeout`, delivered exactly once,
//! * wake-beats-deadline — a writer establishes the condition well before a
//!   generous deadline, so no timeout may be recorded,
//! * cancel-vs-commit — a canceller and a producer race; whatever happens,
//!   the sleeper is woken exactly once and the outcome is consistent with
//!   the single recorded `WakeReason`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_repro::prelude::*;
use tm_sync::BarrierWait;

const MECHS: [Mechanism; 3] = [Mechanism::Retry, Mechanism::Await, Mechanism::WaitPred];

#[test]
fn consume_timeout_expires_deterministically() {
    for kind in RuntimeKind::ALL {
        for mechanism in MECHS {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let buf = TmBoundedBuffer::new(&system, 4);
            let th = system.register_thread();

            let start = Instant::now();
            let got = rt.atomically(&th, |tx| {
                buf.consume_timeout(mechanism, tx, Duration::from_millis(30))
            });
            assert_eq!(got, None, "{kind}/{mechanism}: nothing was ever produced");
            assert!(
                start.elapsed() >= Duration::from_millis(25),
                "{kind}/{mechanism}: must actually wait out the deadline"
            );

            let stats = system.stats();
            assert_eq!(stats.wake_timeouts, 1, "{kind}/{mechanism}");
            assert_eq!(stats.sleeps, 1, "{kind}/{mechanism}: exactly one sleep");
            assert_eq!(
                stats.wakeups, 0,
                "{kind}/{mechanism}: nobody may claim a condition-based wake"
            );
            assert!(
                system.waiters.is_empty() && system.timers.idle(),
                "{kind}/{mechanism}: no residue in the registries"
            );
        }
    }
}

#[test]
fn wake_beats_deadline() {
    for kind in RuntimeKind::ALL {
        for mechanism in MECHS {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let buf = TmBoundedBuffer::new(&system, 4);

            let (rt2, system2, buf2) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
            let consumer = std::thread::spawn(move || {
                let th = system2.register_thread();
                rt2.atomically(&th, |tx| {
                    buf2.consume_timeout(mechanism, tx, Duration::from_secs(30))
                })
            });

            // Wait for the consumer to publish its waiter, then produce.
            while system.waiters.is_empty() {
                std::thread::yield_now();
            }
            let th = system.register_thread();
            rt.atomically(&th, |tx| buf.produce(mechanism, tx, 7));

            assert_eq!(
                consumer.join().unwrap(),
                Some(7),
                "{kind}/{mechanism}: the produced value must arrive"
            );
            let stats = system.stats();
            assert_eq!(
                stats.wake_timeouts, 0,
                "{kind}/{mechanism}: the wake clearly beat the 30s deadline"
            );
            assert!(
                system.timers.idle(),
                "{kind}/{mechanism}: the woken sleeper must disarm its timer"
            );
        }
    }
}

#[test]
fn cancelled_consumer_gives_up() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let buf = TmBoundedBuffer::new(&system, 4);

        let (rt2, system2, buf2) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
        let consumer = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                buf2.consume_timeout(Mechanism::Retry, tx, Duration::from_secs(30))
            })
        });

        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
        // Find the published waiter and cancel it; retry until the claim
        // lands on the sleep (the waiter may still be in its double-check).
        let mut cancelled = false;
        for _ in 0..1000 {
            let Some(w) = system.waiters.snapshot().into_iter().next() else {
                break;
            };
            if condsync::cancel(&w) {
                cancelled = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(cancelled, "{kind}: the sleeping consumer must be claimable");
        assert_eq!(
            consumer.join().unwrap(),
            None,
            "{kind}: a cancelled wait reports no result"
        );
        assert_eq!(system.stats().wake_cancels, 1, "{kind}");
        assert!(system.waiters.is_empty() && system.timers.idle(), "{kind}");
    }
}

#[test]
fn cancel_vs_commit_race_wakes_exactly_once() {
    // A canceller and a producer race for the sleeping consumer.  Whoever
    // wins, the consumer must return exactly once, and the outcome must be
    // consistent: a produced-and-consumed element, or a cancellation with
    // the element still in (or never entering) the buffer.
    // Scaled by the `TM_STRESS_ITERS` multiplier (the scheduled CI `stress`
    // job sets it to 10 to soak this race without slowing the PR gate).
    let rounds = 10 * tm_repro::workloads::stress_iters();
    for kind in RuntimeKind::ALL {
        for round in 0..rounds {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let buf = TmBoundedBuffer::new(&system, 4);

            let (rt2, system2, buf2) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
            let consumer = std::thread::spawn(move || {
                let th = system2.register_thread();
                rt2.atomically(&th, |tx| {
                    buf2.consume_timeout(Mechanism::Retry, tx, Duration::from_secs(30))
                })
            });
            while system.waiters.is_empty() {
                std::thread::yield_now();
            }

            let system3 = Arc::clone(&system);
            let tid = system.waiters.snapshot()[0].thread;
            let canceller = std::thread::spawn(move || condsync::cancel_thread(&system3, tid));
            let (rt4, system4, buf4) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
            let producer = std::thread::spawn(move || {
                let th = system4.register_thread();
                rt4.atomically(&th, |tx| buf4.produce(Mechanism::Retry, tx, 9));
            });

            let got = consumer.join().unwrap();
            canceller.join().unwrap();
            producer.join().unwrap();

            let left = buf.len_direct(&system);
            match got {
                // Consumer got the element: buffer drained again.
                Some(v) => {
                    assert_eq!(v, 9, "{kind} round {round}");
                    assert_eq!(left, 0, "{kind} round {round}");
                }
                // Cancelled before consuming: the produced element stays.
                None => assert_eq!(left, 1, "{kind} round {round}"),
            }
            let stats = system.stats();
            assert!(
                stats.wake_cancels <= 1,
                "{kind} round {round}: at most one cancel can land"
            );
            assert!(
                system.waiters.is_empty() && system.timers.idle(),
                "{kind} round {round}"
            );
        }
    }
}

/// A timed-out wait leaves nothing behind for the next one on the same
/// thread: an empty buffer times out on `Await` and then on `WaitPred`,
/// and a filled one hands its element over without waiting.
#[test]
fn consume_timeout_times_out_then_passes_without_waiting() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let buf = TmBoundedBuffer::new(&system, 4);
        let th = system.register_thread();

        for mechanism in [Mechanism::Await, Mechanism::WaitPred] {
            let got = rt.atomically(&th, |tx| {
                buf.consume_timeout(mechanism, tx, Duration::from_millis(20))
            });
            assert_eq!(got, None, "{kind}/{mechanism}: empty buffer times out");
            rt.atomically(&th, |tx| buf.produce(mechanism, tx, 5));
            let got = rt.atomically(&th, |tx| {
                buf.consume_timeout(mechanism, tx, Duration::from_millis(20))
            });
            assert_eq!(
                got,
                Some(5),
                "{kind}/{mechanism}: element arrives without waiting"
            );
        }
        let stats = system.stats();
        assert!(stats.wake_timeouts >= 2, "{kind}");
        assert_eq!(stats.sleeps, 2, "{kind}: only the timed-out waits slept");
    }
}

#[test]
fn watchdogged_barrier_times_out_without_stragglers() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();

        // Two parties, only one arrives: the watchdog fires.
        let barrier = TmBarrier::new(&system, 2);
        let outcome = barrier.wait_for(&rt, &th, Mechanism::Retry, Duration::from_millis(30));
        assert_eq!(outcome, BarrierWait::TimedOut, "{kind}");

        // The timed-out arrival still counts: a late second arriver releases
        // the phase immediately.
        let outcome = barrier.wait_for(&rt, &th, Mechanism::Retry, Duration::from_millis(30));
        assert_eq!(outcome, BarrierWait::Released, "{kind}");
        assert_eq!(barrier.generation_direct(&system), 1, "{kind}");

        // A fully attended phase passes both ways.
        let (rt2, system2) = (rt.clone(), Arc::clone(&system));
        let b2 = barrier.clone();
        let peer = std::thread::spawn(move || {
            let th = system2.register_thread();
            b2.wait_for(&rt2, &th, Mechanism::Retry, Duration::from_secs(30))
        });
        // Let the peer arrive first (usually), then complete the phase.
        std::thread::sleep(Duration::from_millis(10));
        let mine = barrier.wait_for(&rt, &th, Mechanism::Retry, Duration::from_secs(30));
        let theirs = peer.join().unwrap();
        let outcomes = [mine, theirs];
        assert!(
            outcomes.contains(&BarrierWait::Released),
            "{kind}: someone must release"
        );
        assert!(
            !outcomes.contains(&BarrierWait::TimedOut),
            "{kind}: nobody may time out in an attended phase"
        );
    }
}

#[test]
fn timeout_semantics_agree_across_runtimes() {
    // WakeReason parity: the same timed scenario must produce the same
    // reason-level statistics on every runtime.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        expired: Option<u64>,
        timeouts_after_expiry: u64,
        woken: Option<u64>,
        timeouts_after_wake: u64,
    }

    let observe = |kind: RuntimeKind| -> Observed {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let buf = TmBoundedBuffer::new(&system, 4);
        let th = system.register_thread();

        // Phase 1: guaranteed expiry.
        let expired = rt.atomically(&th, |tx| {
            buf.consume_timeout(Mechanism::Retry, tx, Duration::from_millis(25))
        });
        let timeouts_after_expiry = system.stats().wake_timeouts;

        // Phase 2: guaranteed wake.
        let (rt2, system2, buf2) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
        let consumer = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                buf2.consume_timeout(Mechanism::Retry, tx, Duration::from_secs(30))
            })
        });
        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
        rt.atomically(&th, |tx| buf.produce(Mechanism::Retry, tx, 3));
        let woken = consumer.join().unwrap();
        Observed {
            expired,
            timeouts_after_expiry,
            woken,
            timeouts_after_wake: system.stats().wake_timeouts,
        }
    };

    let golden = Observed {
        expired: None,
        timeouts_after_expiry: 1,
        woken: Some(3),
        timeouts_after_wake: 1,
    };
    for kind in RuntimeKind::ALL {
        assert_eq!(observe(kind), golden, "{kind}");
    }
}
