//! `ferret` kernel: content-based similarity search as a bounded pipeline.
//!
//! The real application is a four-stage pipeline (segmentation, feature
//! extraction, indexing, ranking) whose stages hand work to each other
//! through bounded queues; Table 2.1 counts **2** condition-synchronization
//! points (queue-not-empty and queue-not-full).  The kernel keeps that
//! structure: a driver thread feeds items into an input queue, a first bank
//! of workers transforms them into a middle queue, and a second bank of
//! workers finishes them and folds the result into a shared checksum.
//!
//! Per-item work is [`super::common::compute`], standing in for image segmentation
//! and feature extraction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{PthreadBuffer, TmBoundedBuffer};

use super::common::{compute, fold, split_stage_threads};
use super::{KernelParams, KernelResult, ParsecApp};

/// Sentinel enqueued to tell a worker to shut down.
const POISON: u64 = u64::MAX;

/// Capacity of the inter-stage queues (the real application uses small
/// per-stage queues, which is what makes the sync points hot).
const QUEUE_CAP: usize = 16;

/// Base number of query items at [`super::Scale::Test`].
const BASE_ITEMS: u64 = 48;

/// Compute units per item in the first worker stage.
const SEGMENT_UNITS: u64 = 60;

/// Compute units per item in the second worker stage.
const RANK_UNITS: u64 = 40;

fn items(params: &KernelParams) -> u64 {
    BASE_ITEMS * params.scale.items_factor()
}

fn work(params: &KernelParams, base: u64) -> u64 {
    base * params.scale.work_factor()
}

/// Reference checksum: what the pipeline must produce regardless of
/// mechanism, runtime or thread count.
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let mut sum = 0u64;
    for i in 0..items(params) {
        let a = compute(work(params, SEGMENT_UNITS), i + 1);
        let b = compute(work(params, RANK_UNITS), a);
        sum = fold(sum, b);
    }
    sum
}

/// Runs the ferret kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Ferret,
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
    let n = items(params);
    let seg_units = work(params, SEGMENT_UNITS);
    let rank_units = work(params, RANK_UNITS);

    let in_q = TmBoundedBuffer::new(&system, QUEUE_CAP);
    let mid_q = TmBoundedBuffer::new(&system, QUEUE_CAP);

    let stage_threads = split_stage_threads(params.threads, 2);
    let (seg_workers, rank_workers) = (stage_threads[0], stage_threads[1]);

    let checksum = Arc::new(AtomicU64::new(0));
    let seg_done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // Driver: feeds items then one poison per segmentation worker.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let in_q = Arc::clone(&in_q);
            scope.spawn(move || {
                let th = system.register_thread();
                for i in 0..n {
                    rt.atomically(&th, |tx| in_q.produce(mechanism, tx, i + 1));
                }
                for _ in 0..seg_workers {
                    rt.atomically(&th, |tx| in_q.produce(mechanism, tx, POISON));
                }
            });
        }

        // Stage 1: segmentation + feature extraction.
        for _ in 0..seg_workers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let in_q = Arc::clone(&in_q);
            let mid_q = Arc::clone(&mid_q);
            let seg_done = Arc::clone(&seg_done);
            scope.spawn(move || {
                let th = system.register_thread();
                loop {
                    let item = rt.atomically(&th, |tx| in_q.consume(mechanism, tx));
                    if item == POISON {
                        break;
                    }
                    let feature = compute(seg_units, item);
                    rt.atomically(&th, |tx| mid_q.produce(mechanism, tx, feature));
                }
                // The last segmentation worker to exit poisons stage 2.
                if seg_done.fetch_add(1, Ordering::AcqRel) + 1 == seg_workers {
                    for _ in 0..rank_workers {
                        rt.atomically(&th, |tx| mid_q.produce(mechanism, tx, POISON));
                    }
                }
            });
        }

        // Stage 2: indexing + ranking.
        for _ in 0..rank_workers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let mid_q = Arc::clone(&mid_q);
            let checksum = Arc::clone(&checksum);
            scope.spawn(move || {
                let th = system.register_thread();
                let mut local = 0u64;
                loop {
                    let feature = rt.atomically(&th, |tx| mid_q.consume(mechanism, tx));
                    if feature == POISON {
                        break;
                    }
                    local = fold(local, compute(rank_units, feature));
                }
                checksum.fetch_add(local, Ordering::Relaxed);
            });
        }
    });

    (checksum.load(Ordering::Relaxed), n, system.stats())
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n = items(params);
    let seg_units = work(params, SEGMENT_UNITS);
    let rank_units = work(params, RANK_UNITS);

    let in_q = Arc::new(PthreadBuffer::new(QUEUE_CAP));
    let mid_q = Arc::new(PthreadBuffer::new(QUEUE_CAP));

    let stage_threads = split_stage_threads(params.threads, 2);
    let (seg_workers, rank_workers) = (stage_threads[0], stage_threads[1]);

    let checksum = Arc::new(AtomicU64::new(0));
    let seg_done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        {
            let in_q = Arc::clone(&in_q);
            scope.spawn(move || {
                for i in 0..n {
                    in_q.produce(i + 1);
                }
                for _ in 0..seg_workers {
                    in_q.produce(POISON);
                }
            });
        }
        for _ in 0..seg_workers {
            let in_q = Arc::clone(&in_q);
            let mid_q = Arc::clone(&mid_q);
            let seg_done = Arc::clone(&seg_done);
            scope.spawn(move || {
                loop {
                    let item = in_q.consume();
                    if item == POISON {
                        break;
                    }
                    mid_q.produce(compute(seg_units, item));
                }
                if seg_done.fetch_add(1, Ordering::AcqRel) + 1 == seg_workers {
                    for _ in 0..rank_workers {
                        mid_q.produce(POISON);
                    }
                }
            });
        }
        for _ in 0..rank_workers {
            let mid_q = Arc::clone(&mid_q);
            let checksum = Arc::clone(&checksum);
            scope.spawn(move || {
                let mut local = 0u64;
                loop {
                    let feature = mid_q.consume();
                    if feature == POISON {
                        break;
                    }
                    local = fold(local, compute(rank_units, feature));
                }
                checksum.fetch_add(local, Ordering::Relaxed);
            });
        }
    });

    (
        checksum.load(Ordering::Relaxed),
        n,
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
    fn pthreads_matches_reference_checksum() {
        let p = params(4, Mechanism::Pthreads, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.checksum, expected_checksum(&p));
        assert_eq!(r.work_items, items(&p));
    }

    #[test]
    fn retry_on_each_runtime_matches_reference() {
        for kind in RuntimeKind::ALL {
            let p = params(3, Mechanism::Retry, kind);
            let r = run(&p);
            assert_eq!(r.checksum, expected_checksum(&p), "{kind}");
            assert!(r.stats.sw_commits + r.stats.hw_commits > 0, "{kind}");
        }
    }

    #[test]
    fn all_mechanisms_agree_on_eager_stm() {
        let reference = expected_checksum(&params(2, Mechanism::Retry, RuntimeKind::EagerStm));
        for mech in Mechanism::ALL {
            let p = params(2, mech, RuntimeKind::EagerStm);
            let r = run(&p);
            assert_eq!(r.checksum, reference, "{mech}");
        }
    }

    #[test]
    fn single_thread_still_completes() {
        let p = params(1, Mechanism::Await, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.checksum, expected_checksum(&p));
    }
}
