//! `bodytrack` kernel: a per-frame worker pool.
//!
//! The real application tracks a human body through a sequence of video
//! frames; for every frame the main thread fans a set of particle-evaluation
//! tasks out to a persistent worker pool and waits for all of them to
//! complete before moving to the next frame.  Table 2.1 counts **5**
//! condition-synchronization points (task queue not-empty / not-full, frame
//! completion, pool start and pool shutdown).
//!
//! The kernel keeps the same skeleton: a persistent pool of workers pulls
//! tasks from a bounded queue, folds the per-task result into a shared
//! transactional accumulator, and bumps a frame-completion event the main
//! thread waits on; the main thread then reads and resets the accumulator
//! and issues the next frame.

use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{PthreadBuffer, TmBoundedBuffer, TmCounter};

use super::common::{compute, fold, LockEvent, ThresholdEvent};
use super::{KernelParams, KernelResult, ParsecApp};

const POISON: u64 = u64::MAX;
const QUEUE_CAP: usize = 32;
const BASE_FRAMES: u64 = 6;
const TASKS_PER_FRAME: u64 = 24;
const TASK_UNITS: u64 = 70;
/// Particle weights are reduced to 32 bits before accumulation so that a
/// frame's sum (24 tasks) can never overflow the 64-bit accumulator.
const WEIGHT_MASK: u64 = 0xFFFF_FFFF;

fn frames(params: &KernelParams) -> u64 {
    BASE_FRAMES * params.scale.items_factor()
}

fn work(params: &KernelParams) -> u64 {
    TASK_UNITS * params.scale.work_factor()
}

/// Encodes a (frame, task) pair as the task token pushed through the queue.
fn encode_task(frame: u64, task: u64) -> u64 {
    frame * TASKS_PER_FRAME + task + 1
}

/// Reference checksum, independent of mechanism/runtime/threads.
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let mut sum = 0u64;
    for f in 0..frames(params) {
        let mut frame_sum = 0u64;
        for t in 0..TASKS_PER_FRAME {
            frame_sum = fold(frame_sum, compute(units, encode_task(f, t)) & WEIGHT_MASK);
        }
        // The main thread folds each frame's estimate into the global model.
        sum = fold(sum, frame_sum ^ f);
    }
    sum
}

/// Runs the bodytrack kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Bodytrack,
        params: *params,
        elapsed: start.elapsed(),
        work_items,
        checksum,
        stats,
    }
}

fn run_tm(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let rt = params.runtime.over(tm_core::TmSystem::new(
        TmConfig::default().with_heap_words(1 << 14),
    ));
    let system = Arc::clone(rt.system());
    let mechanism = params.mechanism;
    let n_frames = frames(params);
    let units = work(params);

    let tasks = TmBoundedBuffer::new(&system, QUEUE_CAP);
    let done = Arc::new(ThresholdEvent::new(&system, 0));
    // The particle-weight accumulator every worker updates transactionally.
    let accum = Arc::new(TmCounter::new(&system, 0));

    let checksum = std::thread::scope(|scope| {
        // Worker pool.
        for _ in 0..params.threads {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let tasks = Arc::clone(&tasks);
            let done = Arc::clone(&done);
            let accum = Arc::clone(&accum);
            scope.spawn(move || {
                let th = system.register_thread();
                loop {
                    let token = rt.atomically(&th, |tx| tasks.consume(mechanism, tx));
                    if token == POISON {
                        break;
                    }
                    let result = compute(units, token) & WEIGHT_MASK;
                    // Fold the particle weight into the shared accumulator and
                    // announce completion in one atomic step.
                    rt.atomically(&th, |tx| {
                        accum.add(tx, result)?;
                        done.add(tx, 1).map(|_| ())
                    });
                }
            });
        }

        // Main thread: issue frames, wait for completion, collect the model.
        let main = {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let tasks = Arc::clone(&tasks);
            let done = Arc::clone(&done);
            let accum = Arc::clone(&accum);
            let threads = params.threads;
            scope.spawn(move || {
                let th = system.register_thread();
                let mut sum = 0u64;
                for f in 0..n_frames {
                    for t in 0..TASKS_PER_FRAME {
                        let token = encode_task(f, t);
                        rt.atomically(&th, |tx| tasks.produce(mechanism, tx, token));
                    }
                    done.wait_at_least(&rt, &th, mechanism, TASKS_PER_FRAME);
                    // Quiescent point: all tasks of this frame are complete and
                    // no worker holds work, so direct resets are safe.
                    let frame_sum = accum.load_direct(&system);
                    accum.store_direct(&system, 0);
                    done.reset_direct(&system, 0);
                    sum = fold(sum, frame_sum ^ f);
                }
                // Shut the pool down.
                for _ in 0..threads {
                    rt.atomically(&th, |tx| tasks.produce(mechanism, tx, POISON));
                }
                sum
            })
        };
        main.join().expect("main thread")
    });

    (checksum, n_frames * TASKS_PER_FRAME, system.stats())
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n_frames = frames(params);
    let units = work(params);

    let tasks = Arc::new(PthreadBuffer::new(QUEUE_CAP));
    let done = Arc::new(LockEvent::new(0));
    let accum = Arc::new(LockEvent::new(0));

    let checksum = std::thread::scope(|scope| {
        for _ in 0..params.threads {
            let tasks = Arc::clone(&tasks);
            let done = Arc::clone(&done);
            let accum = Arc::clone(&accum);
            scope.spawn(move || loop {
                let token = tasks.consume();
                if token == POISON {
                    break;
                }
                accum.add(compute(units, token) & WEIGHT_MASK);
                done.add(1);
            });
        }
        let main = {
            let tasks = Arc::clone(&tasks);
            let done = Arc::clone(&done);
            let accum = Arc::clone(&accum);
            let threads = params.threads;
            scope.spawn(move || {
                let mut sum = 0u64;
                for f in 0..n_frames {
                    for t in 0..TASKS_PER_FRAME {
                        tasks.produce(encode_task(f, t));
                    }
                    done.wait_at_least(TASKS_PER_FRAME);
                    let frame_sum = accum.value();
                    accum.reset(0);
                    done.reset(0);
                    sum = fold(sum, frame_sum ^ f);
                }
                for _ in 0..threads {
                    tasks.produce(POISON);
                }
                sum
            })
        };
        main.join().expect("main thread")
    });

    (
        checksum,
        n_frames * TASKS_PER_FRAME,
        tm_core::StatsSnapshot::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsec::Scale;
    use crate::runtime::RuntimeKind;

    fn params(threads: usize, mechanism: Mechanism, runtime: RuntimeKind) -> KernelParams {
        KernelParams::new(threads, mechanism, runtime, Scale::Test)
    }

    #[test]
    fn lock_accumulator_wraps_like_the_tm_counter() {
        // LockEvent::add uses wrapping counter semantics only below u64::MAX;
        // task results are large, so confirm the checksum math stays in u64.
        let p = params(2, Mechanism::Pthreads, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.checksum, expected_checksum(&p));
    }

    #[test]
    fn retry_matches_reference_on_each_runtime() {
        for kind in RuntimeKind::ALL {
            let p = params(2, Mechanism::Retry, kind);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{kind}");
        }
    }

    #[test]
    fn await_waitpred_and_condvar_match_reference() {
        for mech in [Mechanism::Await, Mechanism::WaitPred, Mechanism::TmCondVar] {
            let p = params(3, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn single_worker_matches_reference() {
        let p = params(1, Mechanism::Restart, RuntimeKind::LazyStm);
        assert_eq!(run(&p).checksum, expected_checksum(&p));
    }
}
