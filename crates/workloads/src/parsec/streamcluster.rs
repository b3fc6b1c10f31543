//! `streamcluster` kernel: barrier-heavy clustering rounds with a shared
//! reduction.
//!
//! The real application clusters a stream of points; every round the worker
//! threads evaluate the cost of opening a new cluster centre over their
//! partition of points, the partial costs are reduced into a global value,
//! and a coordinator decides whether to accept the centre before the next
//! round starts.  PARSEC's implementation is famously barrier-heavy; Table
//! 2.1 counts **5** condition-synchronization points.
//!
//! The kernel runs `ROUNDS` rounds.  Each round: every thread computes the
//! partial cost of its point range ([`compute`]) and transactionally adds it
//! to a shared cost accumulator; all threads meet at a barrier; the
//! coordinator (thread 0) folds the round's cost into the checksum and
//! resets the accumulator; a second barrier releases the next round.

use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{TmBarrier, TmCounter};

use super::common::{compute, fold, split_evenly, LockEvent};
use super::{KernelParams, KernelResult, ParsecApp};

const BASE_ROUNDS: u64 = 6;
const POINTS: u64 = 80;
const POINT_UNITS: u64 = 18;
/// Partial costs are truncated to 32 bits before the reduction.
const COST_MASK: u64 = 0xFFFF_FFFF;

fn rounds(params: &KernelParams) -> u64 {
    BASE_ROUNDS * params.scale.items_factor()
}

fn work(params: &KernelParams) -> u64 {
    POINT_UNITS * params.scale.work_factor()
}

/// The partial cost a thread contributes for its point range in `round`.
fn partial_cost(units: u64, round: u64, range: (u64, u64)) -> u64 {
    let mut local = 0u64;
    for point in range.0..range.1 {
        local = fold(local, compute(units, point + 13 + round * 31));
    }
    local & COST_MASK
}

/// Reference checksum (depends on thread count via the partitioning, not on
/// the mechanism or runtime).
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let ranges = split_evenly(POINTS, params.threads);
    let mut sum = 0u64;
    for round in 0..rounds(params) {
        let mut cost = 0u64;
        for &range in &ranges {
            cost += partial_cost(units, round, range);
        }
        // The coordinator "opens" the centre when the cost clears a
        // deterministic threshold; both branches feed the checksum.
        sum = fold(
            sum,
            if cost & 1 == 0 {
                cost
            } else {
                cost.rotate_left(7)
            },
        );
    }
    sum
}

/// Runs the streamcluster kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Streamcluster,
        params: *params,
        elapsed: start.elapsed(),
        work_items,
        checksum,
        stats,
    }
}

fn decide(cost: u64) -> u64 {
    if cost & 1 == 0 {
        cost
    } else {
        cost.rotate_left(7)
    }
}

fn run_tm(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let rt = params.runtime.over(tm_core::TmSystem::new(
        TmConfig::default().with_heap_words(1 << 14),
    ));
    let system = Arc::clone(rt.system());
    let mechanism = params.mechanism;
    let n_rounds = rounds(params);
    let units = work(params);
    let ranges = split_evenly(POINTS, params.threads);

    let barrier = Arc::new(TmBarrier::new(&system, params.threads as u64));
    let cost = Arc::new(TmCounter::new(&system, 0));

    let checksum = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (tid, &range) in ranges.iter().enumerate() {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let barrier = Arc::clone(&barrier);
            let cost = Arc::clone(&cost);
            handles.push(scope.spawn(move || {
                let th = system.register_thread();
                let mut sum = 0u64;
                for round in 0..n_rounds {
                    let partial = partial_cost(units, round, range);
                    rt.atomically(&th, |tx| cost.add(tx, partial).map(|_| ()));
                    // Reduction barrier: every partial cost is in.
                    barrier.wait(&rt, &th, mechanism);
                    if tid == 0 {
                        // Coordinator phase: only thread 0 touches the
                        // accumulator between the two barriers.
                        let total = cost.load_direct(&system);
                        cost.store_direct(&system, 0);
                        sum = fold(sum, decide(total));
                    }
                    // Release barrier: the next round may start.
                    barrier.wait(&rt, &th, mechanism);
                }
                sum
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .fold(0u64, fold)
    });

    (checksum, n_rounds * POINTS, system.stats())
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n_rounds = rounds(params);
    let units = work(params);
    let ranges = split_evenly(POINTS, params.threads);

    let barrier = Arc::new(std::sync::Barrier::new(params.threads));
    let cost = Arc::new(LockEvent::new(0));

    let checksum = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (tid, &range) in ranges.iter().enumerate() {
            let barrier = Arc::clone(&barrier);
            let cost = Arc::clone(&cost);
            handles.push(scope.spawn(move || {
                let mut sum = 0u64;
                for round in 0..n_rounds {
                    cost.add(partial_cost(units, round, range));
                    barrier.wait();
                    if tid == 0 {
                        let total = cost.value();
                        cost.reset(0);
                        sum = fold(sum, decide(total));
                    }
                    barrier.wait();
                }
                sum
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .fold(0u64, fold)
    });

    (
        checksum,
        n_rounds * POINTS,
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
    fn deschedule_mechanisms_agree_at_four_threads() {
        for mech in [Mechanism::Await, Mechanism::WaitPred, Mechanism::TmCondVar] {
            let p = params(4, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn coordinator_decision_is_deterministic() {
        assert_eq!(decide(4), 4);
        assert_eq!(decide(5), 5u64.rotate_left(7));
        let p1 = params(3, Mechanism::Retry, RuntimeKind::EagerStm);
        let p2 = params(3, Mechanism::Restart, RuntimeKind::LazyStm);
        assert_eq!(run(&p1).checksum, run(&p2).checksum);
    }
}
