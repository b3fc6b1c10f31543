//! `facesim` kernel: fork/join physics phases separated by barriers.
//!
//! The real application simulates a human face model; every frame runs a
//! fixed sequence of solver phases (force computation, several conjugate-
//! gradient sub-steps, position update), and all worker threads must finish
//! one phase before any may start the next.  Table 2.1 counts **7**
//! condition-synchronization points — one per phase hand-off.
//!
//! The kernel runs `ITERATIONS` frames of [`PHASES`] phases.  In each phase a
//! thread integrates its partition of particles ([`compute`]) and folds the
//! partial result into a shared transactional accumulator, then waits at a
//! barrier.  The final accumulator value is the checksum.

use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{TmBarrier, TmCounter};

use super::common::{compute, fold, split_evenly, LockEvent};
use super::{KernelParams, KernelResult, ParsecApp};

/// Solver phases per frame; matches the application's 7 sync points.
pub const PHASES: u64 = 7;

const BASE_ITERATIONS: u64 = 2;
const PARTICLES: u64 = 96;
const PARTICLE_UNITS: u64 = 25;
/// Partial sums are truncated before accumulation to keep the global counter
/// far from overflow (≤ 2^13 additions of 32-bit values at full scale).
const SUM_MASK: u64 = 0xFFFF_FFFF;

fn iterations(params: &KernelParams) -> u64 {
    BASE_ITERATIONS * params.scale.items_factor()
}

fn work(params: &KernelParams) -> u64 {
    PARTICLE_UNITS * params.scale.work_factor()
}

/// The partial sum a thread contributes for its particle range in a given
/// iteration and phase.
fn partition_sum(units: u64, iter: u64, phase: u64, range: (u64, u64)) -> u64 {
    let mut local = 0u64;
    for particle in range.0..range.1 {
        local = fold(local, compute(units, particle + 1 + iter * PHASES + phase));
    }
    local & SUM_MASK
}

/// Reference checksum for `params` (depends on the thread count, because the
/// partition boundaries do, but not on the mechanism or runtime).
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);
    let mut total = 0u64;
    for iter in 0..iterations(params) {
        for phase in 0..PHASES {
            for &range in &ranges {
                total += partition_sum(units, iter, phase, range);
            }
        }
    }
    total
}

/// Runs the facesim kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Facesim,
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
    let iters = iterations(params);
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);

    let barrier = Arc::new(TmBarrier::new(&system, params.threads as u64));
    let accum = Arc::new(TmCounter::new(&system, 0));

    std::thread::scope(|scope| {
        for &range in &ranges {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let barrier = Arc::clone(&barrier);
            let accum = Arc::clone(&accum);
            scope.spawn(move || {
                let th = system.register_thread();
                for iter in 0..iters {
                    for phase in 0..PHASES {
                        let partial = partition_sum(units, iter, phase, range);
                        rt.atomically(&th, |tx| accum.add(tx, partial).map(|_| ()));
                        barrier.wait(&rt, &th, mechanism);
                    }
                }
            });
        }
    });

    (
        accum.load_direct(&system),
        iters * PHASES * PARTICLES,
        system.stats(),
    )
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let iters = iterations(params);
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);

    let barrier = Arc::new(std::sync::Barrier::new(params.threads));
    let accum = Arc::new(LockEvent::new(0));

    std::thread::scope(|scope| {
        for &range in &ranges {
            let barrier = Arc::clone(&barrier);
            let accum = Arc::clone(&accum);
            scope.spawn(move || {
                for iter in 0..iters {
                    for phase in 0..PHASES {
                        accum.add(partition_sum(units, iter, phase, range));
                        barrier.wait();
                    }
                }
            });
        }
    });

    (
        accum.value(),
        iters * PHASES * PARTICLES,
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
        assert_eq!(run(&p).checksum, expected_checksum(&p));
    }

    #[test]
    fn retry_matches_reference_on_each_runtime() {
        for kind in RuntimeKind::ALL {
            let p = params(2, Mechanism::Retry, kind);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{kind}");
        }
    }

    #[test]
    fn barrier_based_mechanisms_agree() {
        for mech in [
            Mechanism::Await,
            Mechanism::WaitPred,
            Mechanism::TmCondVar,
            Mechanism::Restart,
        ] {
            let p = params(4, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn single_thread_needs_no_waiting() {
        let p = params(1, Mechanism::Retry, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.checksum, expected_checksum(&p));
        // With one party the barrier's arrival transaction always releases
        // immediately, so the thread never sleeps.
        assert_eq!(r.stats.sleeps, 0);
    }

    #[test]
    fn partition_sums_cover_all_particles() {
        let ranges = split_evenly(PARTICLES, 3);
        let covered: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(covered, PARTICLES);
    }
}
