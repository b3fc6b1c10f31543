//! Shared building blocks for the PARSEC-like kernels.
//!
//! The kernels are built from three coordination primitives, each of which
//! exists in a transactional form (used by the six TM mechanisms) and a
//! lock-based form (used by the `Pthreads` baseline):
//!
//! * a bounded queue between pipeline stages
//!   ([`tm_sync::TmBoundedBuffer`] / [`tm_sync::PthreadBuffer`]),
//! * a threshold event — "wait until this counter reaches N" —
//!   ([`ThresholdEvent`] / [`LockEvent`]),
//! * a barrier ([`tm_sync::TmBarrier`] / [`std::sync::Barrier`]).
//!
//! plus [`compute`], a deterministic CPU-bound kernel standing in for the
//! applications' real per-item work (image processing, compression,
//! physics).  Determinism matters: every kernel produces a checksum that
//! must be identical across mechanisms and runtimes, which is how the tests
//! verify that changing the synchronization mechanism does not change
//! program behaviour.

use std::sync::Arc;
use std::sync::{Condvar, Mutex};

use condsync::{Mechanism, TmCondVar};
use tm_core::{ThreadCtx, TmSystem, Tx, TxResult};
use tm_sync::TmCounter;

use crate::runtime::AnyRuntime;

/// Deterministic CPU-bound work: `units` rounds of a 64-bit mix function
/// seeded by `seed`.  Returns a value that depends on every round, so the
/// compiler cannot elide the loop and callers can fold the result into their
/// checksums.
#[inline]
pub fn compute(units: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for i in 0..units {
        // splitmix64-style mixing; cheap but data-dependent.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ i);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// Order-independent checksum combination (addition), so checksums do not
/// depend on which thread processed which item first.
#[inline]
pub fn fold(checksum: u64, item: u64) -> u64 {
    checksum.wrapping_add(item)
}

/// A transactional "threshold event": a counter that threads bump and other
/// threads wait on until it reaches a target value.
///
/// This is the transactional analogue of the `count + condvar` idiom that
/// PARSEC's thread pools and frame schedulers use (e.g. bodytrack's
/// `WorkerGroup`, raytrace's frame completion counter).  It supports every
/// mechanism: the paper's three constructs and `Retry-Orig`/`Restart` wait by
/// descheduling or restarting, and `TMCondVar` waits on an embedded
/// transaction-safe condition variable.
#[derive(Debug)]
pub struct ThresholdEvent {
    counter: TmCounter,
    condvar: TmCondVar,
}

impl ThresholdEvent {
    /// Allocates the event's counter in `system`'s heap with value `init`.
    pub fn new(system: &Arc<TmSystem>, init: u64) -> Self {
        ThresholdEvent {
            counter: TmCounter::new(system, init),
            condvar: TmCondVar::new(),
        }
    }

    /// Transactionally adds `n` to the counter and notifies `TMCondVar`
    /// waiters.  (Deschedule-based waiters are woken by the runtime's
    /// post-commit `wakeWaiters` pass; no extra work is needed here, which is
    /// precisely the paper's point.)
    pub fn add(&self, tx: &mut dyn Tx, n: u64) -> TxResult<u64> {
        let v = self.counter.add(tx, n)?;
        self.condvar.broadcast_from(tx)?;
        Ok(v)
    }

    /// Non-transactional reset (between frames/iterations, while no worker
    /// is running).
    pub fn reset_direct(&self, system: &TmSystem, value: u64) {
        self.counter.store_direct(system, value);
    }

    /// Blocks the calling thread until the counter reaches `threshold`,
    /// using `mechanism` to wait.  Returns the observed counter value.
    ///
    /// # Panics
    ///
    /// Panics for [`Mechanism::Pthreads`]; the lock-based kernels use
    /// [`LockEvent`] instead.
    pub fn wait_at_least(
        &self,
        rt: &AnyRuntime,
        thread: &Arc<ThreadCtx>,
        mechanism: Mechanism,
        threshold: u64,
    ) -> u64 {
        match mechanism {
            Mechanism::Pthreads => panic!("Pthreads kernels use LockEvent, not ThresholdEvent"),
            Mechanism::TmCondVar => loop {
                let done = rt.atomically(thread, |tx| {
                    let v = self.counter.get(tx)?;
                    if v >= threshold {
                        return Ok(Some(v));
                    }
                    // Commits the transaction, sleeps, and reopens; the
                    // re-check happens in the next loop iteration because the
                    // reopened transaction may observe a stale wakeup.
                    self.condvar.wait(tx)?;
                    let v = self.counter.get(tx)?;
                    Ok(if v >= threshold { Some(v) } else { None })
                });
                if let Some(v) = done {
                    return v;
                }
            },
            _ => rt.atomically(thread, |tx| {
                self.counter.wait_for_at_least(mechanism, tx, threshold)
            }),
        }
    }
}

/// Lock-based threshold event for the `Pthreads` baseline: a mutex-protected
/// counter plus a condition variable.
#[derive(Debug, Default)]
pub struct LockEvent {
    value: Mutex<u64>,
    cv: Condvar,
}

impl LockEvent {
    /// Creates an event with value `init`.
    pub fn new(init: u64) -> Self {
        LockEvent {
            value: Mutex::new(init),
            cv: Condvar::new(),
        }
    }

    /// Adds `n` and wakes all waiters.
    pub fn add(&self, n: u64) -> u64 {
        let mut guard = self.value.lock().expect("event mutex poisoned");
        *guard += n;
        let v = *guard;
        drop(guard);
        self.cv.notify_all();
        v
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        *self.value.lock().expect("event mutex poisoned")
    }

    /// Resets the counter (between frames, while no worker is running).
    pub fn reset(&self, value: u64) {
        *self.value.lock().expect("event mutex poisoned") = value;
    }

    /// Blocks until the counter reaches `threshold` and returns the observed
    /// value.
    pub fn wait_at_least(&self, threshold: u64) -> u64 {
        let mut guard = self.value.lock().expect("event mutex poisoned");
        while *guard < threshold {
            guard = self.cv.wait(guard).expect("event mutex poisoned");
        }
        *guard
    }
}

/// Splits `total` work items into `parts` contiguous chunks whose sizes
/// differ by at most one (used to divide frames/tiles/points among threads).
pub fn split_evenly(total: u64, parts: usize) -> Vec<(u64, u64)> {
    assert!(parts > 0);
    let parts64 = parts as u64;
    let base = total / parts64;
    let extra = total % parts64;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts64 {
        let len = base + u64::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Divides `threads` among `stages` pipeline stages, guaranteeing each stage
/// at least one thread (extra threads go to the earliest stages, which in the
/// real applications are the heaviest).
pub fn split_stage_threads(threads: usize, stages: usize) -> Vec<usize> {
    assert!(stages > 0);
    let mut per = vec![1usize; stages];
    let mut remaining = threads.saturating_sub(stages);
    let mut i = 0;
    while remaining > 0 {
        per[i % stages] += 1;
        remaining -= 1;
        i += 1;
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeKind;
    use tm_core::TmConfig;

    #[test]
    fn compute_is_deterministic_and_depends_on_inputs() {
        assert_eq!(compute(100, 7), compute(100, 7));
        assert_ne!(compute(100, 7), compute(100, 8));
        assert_ne!(compute(100, 7), compute(101, 7));
        // Zero units still returns a seed-derived value.
        assert_eq!(compute(0, 3), compute(0, 3));
    }

    #[test]
    fn fold_is_commutative() {
        let items = [3u64, 99, 12345, u64::MAX - 5];
        let forward = items.iter().fold(0u64, |acc, &i| fold(acc, i));
        let backward = items.iter().rev().fold(0u64, |acc, &i| fold(acc, i));
        assert_eq!(forward, backward);
    }

    #[test]
    fn split_evenly_covers_range_without_overlap() {
        for (total, parts) in [(10u64, 3usize), (8, 8), (7, 2), (0, 4), (100, 7)] {
            let ranges = split_evenly(total, parts);
            assert_eq!(ranges.len(), parts);
            let mut expected_start = 0;
            let mut sum = 0;
            for &(s, e) in &ranges {
                assert_eq!(s, expected_start);
                assert!(e >= s);
                sum += e - s;
                expected_start = e;
            }
            assert_eq!(sum, total);
            let max = ranges.iter().map(|(s, e)| e - s).max().unwrap();
            let min = ranges.iter().map(|(s, e)| e - s).min().unwrap();
            assert!(max - min <= 1, "chunks must differ by at most one");
        }
    }

    #[test]
    fn split_stage_threads_gives_every_stage_a_thread() {
        assert_eq!(split_stage_threads(1, 3), vec![1, 1, 1]);
        assert_eq!(split_stage_threads(3, 3), vec![1, 1, 1]);
        assert_eq!(split_stage_threads(8, 3), vec![3, 3, 2]);
        assert_eq!(split_stage_threads(5, 2), vec![3, 2]);
        assert_eq!(split_stage_threads(8, 1), vec![8]);
    }

    #[test]
    fn lock_event_add_and_wait() {
        let ev = Arc::new(LockEvent::new(0));
        let ev2 = Arc::clone(&ev);
        let waiter = std::thread::spawn(move || ev2.wait_at_least(3));
        for _ in 0..3 {
            ev.add(1);
        }
        assert!(waiter.join().unwrap() >= 3);
        assert_eq!(ev.value(), 3);
        ev.reset(0);
        assert_eq!(ev.value(), 0);
    }

    #[test]
    fn threshold_event_waits_under_retry_and_waitpred() {
        for mech in [Mechanism::Retry, Mechanism::WaitPred, Mechanism::Await] {
            let rt = RuntimeKind::EagerStm.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let ev = Arc::new(ThresholdEvent::new(&system, 0));

            let rt2 = rt.clone();
            let system2 = Arc::clone(&system);
            let ev2 = Arc::clone(&ev);
            let waiter = std::thread::spawn(move || {
                let th = system2.register_thread();
                ev2.wait_at_least(&rt2, &th, mech, 2)
            });

            let th = system.register_thread();
            rt.atomically(&th, |tx| ev.add(tx, 1).map(|_| ()));
            rt.atomically(&th, |tx| ev.add(tx, 1).map(|_| ()));
            assert!(waiter.join().unwrap() >= 2, "{mech}");
            assert_eq!(ev.counter.load_direct(&system), 2);
        }
    }

    #[test]
    fn threshold_event_waits_under_tmcondvar() {
        let rt = RuntimeKind::EagerStm.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let ev = Arc::new(ThresholdEvent::new(&system, 0));

        let rt2 = rt.clone();
        let system2 = Arc::clone(&system);
        let ev2 = Arc::clone(&ev);
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            ev2.wait_at_least(&rt2, &th, Mechanism::TmCondVar, 1)
        });

        std::thread::sleep(std::time::Duration::from_millis(10));
        let th = system.register_thread();
        rt.atomically(&th, |tx| ev.add(tx, 1).map(|_| ()));
        assert!(waiter.join().unwrap() >= 1);
    }

    #[test]
    fn threshold_event_returns_immediately_when_already_met() {
        let rt = RuntimeKind::LazyStm.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let ev = ThresholdEvent::new(&system, 5);
        let th = system.register_thread();
        assert_eq!(ev.wait_at_least(&rt, &th, Mechanism::Retry, 3), 5);
        assert_eq!(ev.wait_at_least(&rt, &th, Mechanism::TmCondVar, 5), 5);
    }

    #[test]
    #[should_panic(expected = "LockEvent")]
    fn threshold_event_rejects_pthreads() {
        let rt = RuntimeKind::EagerStm.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let ev = ThresholdEvent::new(&system, 0);
        let th = system.register_thread();
        let _ = ev.wait_at_least(&rt, &th, Mechanism::Pthreads, 1);
    }
}
