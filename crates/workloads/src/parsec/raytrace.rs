//! `raytrace` kernel: per-frame tile rendering from a shared work queue.
//!
//! The real application renders frames by splitting the screen into tiles;
//! worker threads repeatedly take the next tile from a shared queue, render
//! it, and the frame is presented once every tile is done.  Table 2.1 counts
//! **3** condition-synchronization points (tile queue not-empty / not-full
//! and frame completion).
//!
//! The kernel renders `FRAMES` frames of `TILES_PER_FRAME` tiles.  Rendering
//! a tile is a [`compute`] call; its result is folded into a global
//! transactional "rays traced" counter, which doubles as the run's checksum.

use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::TmConfig;
use tm_sync::{PthreadBuffer, TmBoundedBuffer, TmCounter};

use super::common::{compute, LockEvent, ThresholdEvent};
use super::{KernelParams, KernelResult, ParsecApp};

const POISON: u64 = u64::MAX;
const QUEUE_CAP: usize = 16;
const BASE_FRAMES: u64 = 4;
const TILES_PER_FRAME: u64 = 32;
const TILE_UNITS: u64 = 60;
/// Per-tile results are truncated to 32 bits so the global counter cannot
/// overflow even at full scale (2^13 tiles × 2^32 < 2^45).
const RAY_MASK: u64 = 0xFFFF_FFFF;

fn frames(params: &KernelParams) -> u64 {
    BASE_FRAMES * params.scale.items_factor()
}

fn work(params: &KernelParams) -> u64 {
    TILE_UNITS * params.scale.work_factor()
}

fn encode_tile(frame: u64, tile: u64) -> u64 {
    frame * TILES_PER_FRAME + tile + 1
}

/// Reference checksum, independent of mechanism/runtime/threads.
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let mut total = 0u64;
    for f in 0..frames(params) {
        for t in 0..TILES_PER_FRAME {
            total += compute(units, encode_tile(f, t)) & RAY_MASK;
        }
    }
    total
}

/// Runs the raytrace kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Raytrace,
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

    let tiles = TmBoundedBuffer::new(&system, QUEUE_CAP);
    let frame_done = Arc::new(ThresholdEvent::new(&system, 0));
    let rays = Arc::new(TmCounter::new(&system, 0));

    std::thread::scope(|scope| {
        for _ in 0..params.threads {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let tiles = Arc::clone(&tiles);
            let frame_done = Arc::clone(&frame_done);
            let rays = Arc::clone(&rays);
            scope.spawn(move || {
                let th = system.register_thread();
                loop {
                    let tile = rt.atomically(&th, |tx| tiles.consume(mechanism, tx));
                    if tile == POISON {
                        break;
                    }
                    let rendered = compute(units, tile) & RAY_MASK;
                    rt.atomically(&th, |tx| {
                        rays.add(tx, rendered)?;
                        frame_done.add(tx, 1).map(|_| ())
                    });
                }
            });
        }

        // The display/driver thread.
        let rt_main = rt.clone();
        let system_main = Arc::clone(&system);
        let tiles_main = Arc::clone(&tiles);
        let frame_done_main = Arc::clone(&frame_done);
        let threads = params.threads;
        scope.spawn(move || {
            let th = system_main.register_thread();
            for f in 0..n_frames {
                for t in 0..TILES_PER_FRAME {
                    let token = encode_tile(f, t);
                    rt_main.atomically(&th, |tx| tiles_main.produce(mechanism, tx, token));
                }
                frame_done_main.wait_at_least(&rt_main, &th, mechanism, TILES_PER_FRAME);
                // All tiles committed and no new work exists: safe to reset.
                frame_done_main.reset_direct(&system_main, 0);
            }
            for _ in 0..threads {
                rt_main.atomically(&th, |tx| tiles_main.produce(mechanism, tx, POISON));
            }
        });
    });

    (
        rays.load_direct(&system),
        n_frames * TILES_PER_FRAME,
        system.stats(),
    )
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let n_frames = frames(params);
    let units = work(params);

    let tiles = Arc::new(PthreadBuffer::new(QUEUE_CAP));
    let frame_done = Arc::new(LockEvent::new(0));
    let rays = Arc::new(LockEvent::new(0));

    std::thread::scope(|scope| {
        for _ in 0..params.threads {
            let tiles = Arc::clone(&tiles);
            let frame_done = Arc::clone(&frame_done);
            let rays = Arc::clone(&rays);
            scope.spawn(move || loop {
                let tile = tiles.consume();
                if tile == POISON {
                    break;
                }
                rays.add(compute(units, tile) & RAY_MASK);
                frame_done.add(1);
            });
        }
        let tiles_main = Arc::clone(&tiles);
        let frame_done_main = Arc::clone(&frame_done);
        let threads = params.threads;
        scope.spawn(move || {
            for f in 0..n_frames {
                for t in 0..TILES_PER_FRAME {
                    tiles_main.produce(encode_tile(f, t));
                }
                frame_done_main.wait_at_least(TILES_PER_FRAME);
                frame_done_main.reset(0);
            }
            for _ in 0..threads {
                tiles_main.produce(POISON);
            }
        });
    });

    (
        rays.value(),
        n_frames * TILES_PER_FRAME,
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
    fn remaining_mechanisms_match_reference_on_eager() {
        for mech in [
            Mechanism::Await,
            Mechanism::WaitPred,
            Mechanism::TmCondVar,
            Mechanism::RetryOrig,
            Mechanism::Restart,
        ] {
            let p = params(2, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn work_item_count_is_reported() {
        let p = params(2, Mechanism::Retry, RuntimeKind::EagerStm);
        let r = run(&p);
        assert_eq!(r.work_items, frames(&p) * TILES_PER_FRAME);
        assert!(r.seconds() > 0.0);
    }
}
