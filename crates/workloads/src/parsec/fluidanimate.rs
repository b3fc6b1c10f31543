//! `fluidanimate` kernel: barrier-separated grid phases with contended
//! border-cell updates.
//!
//! The real application simulates incompressible fluid with smoothed-particle
//! hydrodynamics: every timestep runs a fixed sequence of phases (rebuild
//! grid, compute densities, compute forces, advance particles), each ending
//! in a barrier, and neighbouring partitions update shared *border cells*
//! under fine-grained locks (transactions in the TM port).  Table 2.1 counts
//! **4** condition-synchronization points, matching the four phase barriers.
//!
//! The kernel runs `TIMESTEPS` timesteps of [`PHASES`] phases.  In each phase
//! every thread integrates its particle partition ([`compute`]) and
//! transactionally adds its contribution to a small, shared set of border
//! cells — the contended part — then waits at the phase barrier.  The
//! checksum is the sum of the border cells after the last timestep.

use std::sync::Arc;
use std::time::Instant;

use condsync::Mechanism;
use tm_core::lock::Mutex;
use tm_core::TmConfig;
use tm_sync::{TmBarrier, TmCounter};

use super::common::{compute, fold, split_evenly};
use super::{KernelParams, KernelResult, ParsecApp};

/// Phases per timestep; matches the application's 4 sync points.
pub const PHASES: u64 = 4;

/// Number of shared border cells all threads contend on.
pub const BORDER_CELLS: usize = 8;

const BASE_TIMESTEPS: u64 = 3;
const PARTICLES: u64 = 64;
const PARTICLE_UNITS: u64 = 20;
/// Border-cell contributions are truncated to 32 bits so a cell can absorb
/// every addition of a full-scale run without overflowing.
const CELL_MASK: u64 = 0xFFFF_FFFF;

fn timesteps(params: &KernelParams) -> u64 {
    BASE_TIMESTEPS * params.scale.items_factor()
}

fn work(params: &KernelParams) -> u64 {
    PARTICLE_UNITS * params.scale.work_factor()
}

/// The contribution a thread with particle range `range` makes to border
/// cell `cell` in (timestep, phase).
fn contribution(units: u64, step: u64, phase: u64, range: (u64, u64)) -> (usize, u64) {
    let mut local = 0u64;
    for particle in range.0..range.1 {
        local = fold(local, compute(units, particle + 7 + step * PHASES + phase));
    }
    // The target border cell depends on the phase and the partition start, so
    // different threads collide on the same cells in different phases.
    let cell = ((phase + range.0) as usize) % BORDER_CELLS;
    (cell, local & CELL_MASK)
}

/// Reference checksum (depends on the thread count through the partition
/// boundaries, but not on the mechanism or runtime).
pub fn expected_checksum(params: &KernelParams) -> u64 {
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);
    let mut cells = [0u64; BORDER_CELLS];
    for step in 0..timesteps(params) {
        for phase in 0..PHASES {
            for &range in &ranges {
                let (cell, value) = contribution(units, step, phase, range);
                cells[cell] += value;
            }
        }
    }
    cells.iter().fold(0u64, |acc, &c| fold(acc, c))
}

/// Runs the fluidanimate kernel with `params`.
pub fn run(params: &KernelParams) -> KernelResult {
    assert!(params.is_valid(), "invalid mechanism/runtime combination");
    let start = Instant::now();
    let (checksum, work_items, stats) = if params.mechanism == Mechanism::Pthreads {
        run_locks(params)
    } else {
        run_tm(params)
    };
    KernelResult {
        app: ParsecApp::Fluidanimate,
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
    let steps = timesteps(params);
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);

    let barrier = Arc::new(TmBarrier::new(&system, params.threads as u64));
    let cells: Arc<Vec<TmCounter>> = Arc::new(
        (0..BORDER_CELLS)
            .map(|_| TmCounter::new(&system, 0))
            .collect(),
    );

    std::thread::scope(|scope| {
        for &range in &ranges {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let barrier = Arc::clone(&barrier);
            let cells = Arc::clone(&cells);
            scope.spawn(move || {
                let th = system.register_thread();
                for step in 0..steps {
                    for phase in 0..PHASES {
                        let (cell, value) = contribution(units, step, phase, range);
                        rt.atomically(&th, |tx| cells[cell].add(tx, value).map(|_| ()));
                        barrier.wait(&rt, &th, mechanism);
                    }
                }
            });
        }
    });

    let checksum = cells
        .iter()
        .fold(0u64, |acc, c| fold(acc, c.load_direct(&system)));
    (checksum, steps * PHASES * PARTICLES, system.stats())
}

fn run_locks(params: &KernelParams) -> (u64, u64, tm_core::StatsSnapshot) {
    let steps = timesteps(params);
    let units = work(params);
    let ranges = split_evenly(PARTICLES, params.threads);

    let barrier = Arc::new(std::sync::Barrier::new(params.threads));
    // The application protects border cells with an array of fine-grained
    // locks; one mutex per cell reproduces that.
    let cells: Arc<Vec<Mutex<u64>>> = Arc::new((0..BORDER_CELLS).map(|_| Mutex::new(0)).collect());

    std::thread::scope(|scope| {
        for &range in &ranges {
            let barrier = Arc::clone(&barrier);
            let cells = Arc::clone(&cells);
            scope.spawn(move || {
                for step in 0..steps {
                    for phase in 0..PHASES {
                        let (cell, value) = contribution(units, step, phase, range);
                        *cells[cell].lock() += value;
                        barrier.wait();
                    }
                }
            });
        }
    });

    let checksum = cells.iter().fold(0u64, |acc, c| fold(acc, *c.lock()));
    (
        checksum,
        steps * PHASES * PARTICLES,
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
    fn contended_cells_agree_across_mechanisms() {
        for mech in [Mechanism::Await, Mechanism::WaitPred, Mechanism::Restart] {
            let p = params(4, mech, RuntimeKind::EagerStm);
            assert_eq!(run(&p).checksum, expected_checksum(&p), "{mech}");
        }
    }

    #[test]
    fn contribution_targets_every_cell_over_a_timestep() {
        // With four phases and several partitions the writes spread over
        // multiple cells, which is what creates the contention the kernel is
        // meant to exercise.
        let ranges = split_evenly(PARTICLES, 4);
        let mut hit = std::collections::HashSet::new();
        for phase in 0..PHASES {
            for &range in &ranges {
                hit.insert(contribution(10, 0, phase, range).0);
            }
        }
        assert!(hit.len() >= 4);
    }
}
