//! `dedup` kernel: a compression pipeline ending in serialized output.
//!
//! The real application splits an input stream into chunks, deduplicates and
//! compresses them in parallel, and writes the results from a single output
//! stage that performs file I/O inside its critical section.  Table 2.1
//! counts **3** condition-synchronization points (the three inter-stage
//! queues).  The paper observes that dedup performs very poorly under TM
//! because the runtime forbids concurrency while a transaction that has
//! performed I/O is in flight.
//!
//! The kernel reproduces that structure: a fragmenting stage, a compressing
//! stage, and a single writer whose per-chunk "I/O" work is performed inside
//! its transaction (the closest offline stand-in for an irrevocable I/O
//! transaction: it holds the output queue's metadata for the duration of the
//! simulated write, serializing the pipeline's tail exactly where the real
//! application serializes).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{PthreadBuffer, TmBoundedBuffer};

use super::common::{compute, fold, split_stage_threads};
use super::{KernelParams, KernelResult, ParsecApp};

const POISON: u64 = u64::MAX;
const QUEUE_CAP: usize = 8;
const BASE_CHUNKS: u64 = 40;
const FRAGMENT_UNITS: u64 = 30;
const COMPRESS_UNITS: u64 = 80;
/// Simulated I/O cost per chunk in the writer stage.
const WRITE_UNITS: u64 = 50;

fn chunks(params: &KernelParams) -> u64 {
    BASE_CHUNKS * params.scale.items_factor()
}

fn work(params: &KernelParams, base: u64) -> u64 {
    base * params.scale.work_factor()
}

/// Reference checksum, independent of mechanism/runtime/threads.
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let mut sum = 0u64;
    for i in 0..chunks(params) {
        let frag = compute(work(params, FRAGMENT_UNITS), i + 1);
        let comp = compute(work(params, COMPRESS_UNITS), frag);
        let written = compute(work(params, WRITE_UNITS), comp);
        sum = fold(sum, written);
    }
    sum
}

/// Runs the dedup kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Dedup,
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
    let n = chunks(params);
    let frag_units = work(params, FRAGMENT_UNITS);
    let comp_units = work(params, COMPRESS_UNITS);
    let write_units = work(params, WRITE_UNITS);

    let frag_q = TmBoundedBuffer::new(&system, QUEUE_CAP);
    let comp_q = TmBoundedBuffer::new(&system, QUEUE_CAP);
    let out_q = TmBoundedBuffer::new(&system, QUEUE_CAP);

    // The writer stage is always a single thread (as in the application);
    // the remaining threads are split between fragmenting and compressing.
    let stage_threads = split_stage_threads(params.threads, 2);
    let (frag_workers, comp_workers) = (stage_threads[0], stage_threads[1]);

    let frag_done = Arc::new(AtomicUsize::new(0));
    let comp_done = Arc::new(AtomicUsize::new(0));

    let checksum = std::thread::scope(|scope| {
        // Driver: stream the chunks in.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let frag_q = Arc::clone(&frag_q);
            scope.spawn(move || {
                let th = system.register_thread();
                for i in 0..n {
                    rt.atomically(&th, |tx| frag_q.produce(mechanism, tx, i + 1));
                }
                for _ in 0..frag_workers {
                    rt.atomically(&th, |tx| frag_q.produce(mechanism, tx, POISON));
                }
            });
        }

        // Stage 1: fragment / deduplicate.
        for _ in 0..frag_workers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let frag_q = Arc::clone(&frag_q);
            let comp_q = Arc::clone(&comp_q);
            let frag_done = Arc::clone(&frag_done);
            scope.spawn(move || {
                let th = system.register_thread();
                loop {
                    let chunk = rt.atomically(&th, |tx| frag_q.consume(mechanism, tx));
                    if chunk == POISON {
                        break;
                    }
                    let frag = compute(frag_units, chunk);
                    rt.atomically(&th, |tx| comp_q.produce(mechanism, tx, frag));
                }
                if frag_done.fetch_add(1, Ordering::AcqRel) + 1 == frag_workers {
                    for _ in 0..comp_workers {
                        rt.atomically(&th, |tx| comp_q.produce(mechanism, tx, POISON));
                    }
                }
            });
        }

        // Stage 2: compress.
        for _ in 0..comp_workers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let comp_q = Arc::clone(&comp_q);
            let out_q = Arc::clone(&out_q);
            let comp_done = Arc::clone(&comp_done);
            scope.spawn(move || {
                let th = system.register_thread();
                loop {
                    let frag = rt.atomically(&th, |tx| comp_q.consume(mechanism, tx));
                    if frag == POISON {
                        break;
                    }
                    let comp = compute(comp_units, frag);
                    rt.atomically(&th, |tx| out_q.produce(mechanism, tx, comp));
                }
                if comp_done.fetch_add(1, Ordering::AcqRel) + 1 == comp_workers {
                    // Exactly one poison: there is a single writer.
                    rt.atomically(&th, |tx| out_q.produce(mechanism, tx, POISON));
                }
            });
        }

        // Stage 3: the single writer.  The simulated I/O happens *inside* the
        // transaction, reproducing the serialization the paper reports.
        let writer = {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let out_q = Arc::clone(&out_q);
            scope.spawn(move || {
                let th = system.register_thread();
                let mut local = 0u64;
                loop {
                    let written = rt.atomically(&th, |tx| {
                        let comp = out_q.consume(mechanism, tx)?;
                        if comp == POISON {
                            return Ok(POISON);
                        }
                        // Simulated file write, inside the critical section as
                        // in the real application.
                        Ok(compute(write_units, comp))
                    });
                    if written == POISON {
                        break;
                    }
                    local = fold(local, written);
                }
                local
            })
        };
        writer.join().expect("writer thread")
    });

    (checksum, n, system.stats())
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n = chunks(params);
    let frag_units = work(params, FRAGMENT_UNITS);
    let comp_units = work(params, COMPRESS_UNITS);
    let write_units = work(params, WRITE_UNITS);

    let frag_q = Arc::new(PthreadBuffer::new(QUEUE_CAP));
    let comp_q = Arc::new(PthreadBuffer::new(QUEUE_CAP));
    let out_q = Arc::new(PthreadBuffer::new(QUEUE_CAP));

    let stage_threads = split_stage_threads(params.threads, 2);
    let (frag_workers, comp_workers) = (stage_threads[0], stage_threads[1]);
    let frag_done = Arc::new(AtomicUsize::new(0));
    let comp_done = Arc::new(AtomicUsize::new(0));

    let checksum = std::thread::scope(|scope| {
        {
            let frag_q = Arc::clone(&frag_q);
            scope.spawn(move || {
                for i in 0..n {
                    frag_q.produce(i + 1);
                }
                for _ in 0..frag_workers {
                    frag_q.produce(POISON);
                }
            });
        }
        for _ in 0..frag_workers {
            let frag_q = Arc::clone(&frag_q);
            let comp_q = Arc::clone(&comp_q);
            let frag_done = Arc::clone(&frag_done);
            scope.spawn(move || {
                loop {
                    let chunk = frag_q.consume();
                    if chunk == POISON {
                        break;
                    }
                    comp_q.produce(compute(frag_units, chunk));
                }
                if frag_done.fetch_add(1, Ordering::AcqRel) + 1 == frag_workers {
                    for _ in 0..comp_workers {
                        comp_q.produce(POISON);
                    }
                }
            });
        }
        for _ in 0..comp_workers {
            let comp_q = Arc::clone(&comp_q);
            let out_q = Arc::clone(&out_q);
            let comp_done = Arc::clone(&comp_done);
            scope.spawn(move || {
                loop {
                    let frag = comp_q.consume();
                    if frag == POISON {
                        break;
                    }
                    out_q.produce(compute(comp_units, frag));
                }
                if comp_done.fetch_add(1, Ordering::AcqRel) + 1 == comp_workers {
                    out_q.produce(POISON);
                }
            });
        }
        let writer = {
            let out_q = Arc::clone(&out_q);
            scope.spawn(move || {
                let mut local = 0u64;
                loop {
                    let comp = out_q.consume();
                    if comp == POISON {
                        break;
                    }
                    local = fold(local, compute(write_units, comp));
                }
                local
            })
        };
        writer.join().expect("writer thread")
    });

    (checksum, n, tm_core::StatsSnapshot::default())
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
        assert_eq!(run(&p).checksum, expected_checksum(&p));
    }

    #[test]
    fn retry_and_waitpred_match_reference_on_eager() {
        for mech in [Mechanism::Retry, Mechanism::WaitPred, Mechanism::Await] {
            let p = params(4, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn htm_and_lazy_agree_with_reference() {
        for kind in [RuntimeKind::LazyStm, RuntimeKind::Htm] {
            let p = params(2, Mechanism::Retry, kind);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{kind}");
        }
    }

    #[test]
    fn tmcondvar_and_restart_complete() {
        for mech in [Mechanism::TmCondVar, Mechanism::Restart] {
            let p = params(2, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }
}
