//! `x264` kernel: sliding-window frame dependencies.
//!
//! The real encoder parallelises across frames: a thread encoding frame *i*
//! may only process macroblock row *r* once the reference frame *i − 1* has
//! encoded a few rows beyond *r* (motion search range).  Threads therefore
//! wait on a per-frame progress counter of their reference frame — the single
//! condition-synchronization point Table 2.1 counts for x264.
//!
//! The kernel encodes `FRAMES` frames of [`ROWS`] rows each.  Frames are
//! assigned to threads round-robin; encoding row *r* of frame *i* first waits
//! until `progress[i-1] ≥ min(r + LOOKAHEAD, ROWS)`, performs the row's
//! [`compute`] work, and then bumps `progress[i]`.  The checksum folds every
//! row's result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;

use super::common::{compute, fold, LockEvent, ThresholdEvent};
use super::{KernelParams, KernelResult, ParsecApp};

/// Macroblock rows per frame.
pub const ROWS: u64 = 16;

/// How many rows ahead of the dependent row the reference frame must be
/// (the motion-search vertical range).
pub const LOOKAHEAD: u64 = 2;

const BASE_FRAMES: u64 = 4;
const ROW_UNITS: u64 = 30;

fn frames(params: &KernelParams) -> u64 {
    // At least one frame per thread so every thread participates.
    (BASE_FRAMES * params.scale.items_factor()).max(params.threads as u64)
}

fn work(params: &KernelParams) -> u64 {
    ROW_UNITS * params.scale.work_factor()
}

fn encode_row(units: u64, frame: u64, row: u64) -> u64 {
    compute(units, frame * ROWS + row + 1)
}

/// Reference checksum, independent of mechanism/runtime/threads (the frame
/// count rounds up to the thread count, so it does depend on `threads` for
/// very small scales — the figure binaries keep the scale large enough that
/// it does not).
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let mut sum = 0u64;
    for f in 0..frames(params) {
        for r in 0..ROWS {
            sum = fold(sum, encode_row(units, f, r));
        }
    }
    sum
}

/// Runs the x264 kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::X264,
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

    // One progress counter per frame, allocated up front.
    let progress: Arc<Vec<ThresholdEvent>> = Arc::new(
        (0..n_frames)
            .map(|_| ThresholdEvent::new(&system, 0))
            .collect(),
    );
    let checksum = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for tid in 0..params.threads {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let progress = Arc::clone(&progress);
            let checksum = Arc::clone(&checksum);
            let threads = params.threads as u64;
            scope.spawn(move || {
                let th = system.register_thread();
                let mut local = 0u64;
                let mut frame = tid as u64;
                while frame < n_frames {
                    for row in 0..ROWS {
                        if frame > 0 {
                            let needed = (row + LOOKAHEAD).min(ROWS);
                            progress[(frame - 1) as usize]
                                .wait_at_least(&rt, &th, mechanism, needed);
                        }
                        local = fold(local, encode_row(units, frame, row));
                        rt.atomically(&th, |tx| progress[frame as usize].add(tx, 1).map(|_| ()));
                    }
                    frame += threads;
                }
                checksum.fetch_add(local, Ordering::Relaxed);
            });
        }
    });

    (
        checksum.load(Ordering::Relaxed),
        n_frames * ROWS,
        system.stats(),
    )
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n_frames = frames(params);
    let units = work(params);

    let progress: Arc<Vec<LockEvent>> =
        Arc::new((0..n_frames).map(|_| LockEvent::new(0)).collect());
    let checksum = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for tid in 0..params.threads {
            let progress = Arc::clone(&progress);
            let checksum = Arc::clone(&checksum);
            let threads = params.threads as u64;
            scope.spawn(move || {
                let mut local = 0u64;
                let mut frame = tid as u64;
                while frame < n_frames {
                    for row in 0..ROWS {
                        if frame > 0 {
                            let needed = (row + LOOKAHEAD).min(ROWS);
                            progress[(frame - 1) as usize].wait_at_least(needed);
                        }
                        local = fold(local, encode_row(units, frame, row));
                        progress[frame as usize].add(1);
                    }
                    frame += threads;
                }
                checksum.fetch_add(local, Ordering::Relaxed);
            });
        }
    });

    (
        checksum.load(Ordering::Relaxed),
        n_frames * ROWS,
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
    fn sliding_window_mechanisms_agree() {
        for mech in [
            Mechanism::Await,
            Mechanism::WaitPred,
            Mechanism::TmCondVar,
            Mechanism::Restart,
        ] {
            let p = params(3, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn single_thread_never_waits_on_other_frames() {
        let p = params(1, Mechanism::Retry, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.checksum, expected_checksum(&p));
        // Frame i-1 is always complete before frame i starts, so the waits
        // are all satisfied on first check and the thread never sleeps.
        assert_eq!(r.stats.sleeps, 0);
    }

    #[test]
    fn frame_count_scales_with_threads_when_tiny() {
        let p = params(8, Mechanism::Retry, RuntimeKind::EagerStm);
        assert!(frames(&p) >= 8);
    }
}
