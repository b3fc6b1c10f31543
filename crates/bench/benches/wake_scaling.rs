//! `wake_scaling` — writer-commit cost as a function of how many sleepers
//! are registered, and *where*.
//!
//! The sharded waiter registry promises that a committing writer's wake work
//! scales with the sleepers its write set can actually affect, not with
//! every sleeper in the system.  This bench demonstrates it by sweeping
//! sleeper count × placement on every runtime:
//!
//! * `disjoint` — sleepers wait on addresses whose registry shards are
//!   disjoint from the writer's write set.  A targeted scan skips them all,
//!   so per-commit cost should stay within a small factor of the
//!   zero-sleeper baseline (the pre-shard linear scan grew linearly here).
//! * `overlap` — sleepers wait on the written address itself (with silent
//!   stores so they are scanned but never signalled).  This is the
//!   unavoidable cost: the writer must evaluate every sleeper that could be
//!   affected.
//!
//! Output: a plain-text table on stdout, plus a JSON report (via
//! `tm_workloads::json`) written to `$TM_BENCH_JSON` (default
//! `BENCH_wake_scaling.json`) so CI can archive the perf trajectory.
//!
//! Environment:
//!
//! | variable            | meaning                                 | default |
//! |---------------------|-----------------------------------------|---------|
//! | `TM_BENCH_SMOKE=1`  | tiny iteration counts for CI smoke runs | off     |
//! | `TM_BENCH_SLEEPERS` | comma list of sleeper counts            | `0,16,64,256` |
//! | `TM_BENCH_COMMITS`  | writer commits measured per cell        | `3000`  |
//! | `TM_BENCH_JSON`     | JSON report path                        | `BENCH_wake_scaling.json` |

use std::sync::Arc;
use std::time::Instant;

use tm_core::{Addr, Semaphore, TmConfig, TmSystem, WaitCondition, Waiter};
use tm_workloads::json::Value;
use tm_workloads::runtime::RuntimeKind;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Placement {
    Disjoint,
    Overlap,
}

impl Placement {
    fn label(self) -> &'static str {
        match self {
            Placement::Disjoint => "disjoint",
            Placement::Overlap => "overlap",
        }
    }
}

struct Cell {
    runtime: RuntimeKind,
    placement: Placement,
    sleepers: usize,
    commits: u64,
    ns_per_commit: f64,
    wake_checks: u64,
    shard_scans: u64,
    shard_skips: u64,
    targeted: u64,
}

/// The registry shards a write to `addr` can touch on any runtime (hardware
/// commits report the whole cache line's stripe cover, derived from the
/// same `OrecTable::line_indices`).
fn writer_shards(system: &TmSystem, addr: Addr) -> Vec<usize> {
    system
        .orecs
        .line_indices(addr.line())
        .map(|stripe| system.waiters.shard_of(stripe))
        .collect()
}

/// Registers `n` parked waiter records whose conditions never fire.
///
/// `Disjoint` placement picks addresses whose shards avoid the writer's;
/// `Overlap` parks everyone on the written address itself (recorded value ==
/// memory, so silent stores scan but never signal).
fn park_sleepers(
    system: &Arc<TmSystem>,
    n: usize,
    placement: Placement,
    writer_addr: Addr,
) -> Vec<Arc<Waiter>> {
    let forbidden = writer_shards(system, writer_addr);
    let mut parked = Vec::with_capacity(n);
    let mut candidate = 64usize;
    for i in 0..n {
        let addr = match placement {
            Placement::Overlap => writer_addr,
            Placement::Disjoint => loop {
                let a = Addr(candidate);
                candidate += 1;
                assert!(candidate < system.heap.len(), "heap exhausted");
                let shard = system.waiters.shard_of(system.orecs.index_for(a));
                if !forbidden.contains(&shard) {
                    break a;
                }
            },
        };
        let recorded = system.heap.load(addr);
        let w = Waiter::new(
            1000 + i,
            WaitCondition::ValuesChanged(vec![(addr, recorded)]),
            Arc::new(Semaphore::new()),
        );
        let stripes = w.condition.stripes(&system.orecs);
        system.waiters.register(Arc::clone(&w), &stripes);
        parked.push(w);
    }
    parked
}

fn measure(kind: RuntimeKind, placement: Placement, sleepers: usize, commits: u64) -> Cell {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let writer_addr = Addr(2048);
    // Pre-establish the value the writer will keep storing, so overlap
    // sleepers see silent stores (scanned, never woken).
    system.heap.store(writer_addr, 42);
    let parked = park_sleepers(&system, sleepers, placement, writer_addr);
    let th = system.register_thread();

    // Warm up the commit path once before timing.
    rt.atomically(&th, |tx| tx.write(writer_addr, 42));
    let before = th.stats.snapshot();
    let start = Instant::now();
    for _ in 0..commits {
        rt.atomically(&th, |tx| tx.write(writer_addr, 42));
    }
    let elapsed = start.elapsed();
    let after = th.stats.snapshot();

    for w in &parked {
        assert!(w.is_asleep(), "bench sleepers must never be signalled");
        system.waiters.remove(w);
    }

    Cell {
        runtime: kind,
        placement,
        sleepers,
        commits,
        ns_per_commit: elapsed.as_nanos() as f64 / commits as f64,
        wake_checks: after.wake_checks - before.wake_checks,
        shard_scans: after.wake_shard_scans - before.wake_shard_scans,
        shard_skips: after.wake_shard_skips - before.wake_shard_skips,
        targeted: after.wake_targeted - before.wake_targeted,
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn main() {
    let smoke = env_flag("TM_BENCH_SMOKE");
    let sleepers = env_list(
        "TM_BENCH_SLEEPERS",
        if smoke { &[0, 8] } else { &[0, 16, 64, 256] },
    );
    let commits: u64 = std::env::var("TM_BENCH_COMMITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 50 } else { 3000 });
    let json_path =
        std::env::var("TM_BENCH_JSON").unwrap_or_else(|_| "BENCH_wake_scaling.json".to_string());

    let mut cells = Vec::new();
    println!(
        "{:<10} {:<9} {:>8} {:>12} {:>12} {:>11} {:>11} {:>9}",
        "runtime",
        "placement",
        "sleepers",
        "ns/commit",
        "wake_checks",
        "shard_scans",
        "shard_skips",
        "targeted"
    );
    for kind in RuntimeKind::ALL {
        for placement in [Placement::Disjoint, Placement::Overlap] {
            for &n in &sleepers {
                let cell = measure(kind, placement, n, commits);
                println!(
                    "{:<10} {:<9} {:>8} {:>12.1} {:>12} {:>11} {:>11} {:>9}",
                    cell.runtime.label(),
                    cell.placement.label(),
                    cell.sleepers,
                    cell.ns_per_commit,
                    cell.wake_checks,
                    cell.shard_scans,
                    cell.shard_skips,
                    cell.targeted,
                );
                cells.push(cell);
            }
        }
        // The headline claim: commit cost with N disjoint sleepers stays
        // close to the zero-sleeper baseline.
        let base = cells
            .iter()
            .find(|c| c.runtime == kind && c.placement == Placement::Disjoint && c.sleepers == 0);
        let worst = cells
            .iter()
            .filter(|c| c.runtime == kind && c.placement == Placement::Disjoint)
            .max_by_key(|c| c.sleepers);
        if let (Some(base), Some(worst)) = (base, worst) {
            if worst.sleepers > 0 && base.ns_per_commit > 0.0 {
                println!(
                    "  -> {}: {} disjoint sleepers cost {:.2}x the zero-sleeper baseline",
                    kind.label(),
                    worst.sleepers,
                    worst.ns_per_commit / base.ns_per_commit
                );
            }
        }
    }

    let report = Value::obj(vec![
        ("experiment", Value::Str("wake_scaling".to_string())),
        (
            "description",
            Value::Str(
                "writer-commit cost vs sleeper count and placement (sharded waiter registry)"
                    .to_string(),
            ),
        ),
        ("commits_per_cell", Value::Num(commits as f64)),
        ("smoke", Value::Bool(smoke)),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("runtime", Value::Str(c.runtime.label().to_string())),
                            ("placement", Value::Str(c.placement.label().to_string())),
                            ("sleepers", Value::Num(c.sleepers as f64)),
                            ("commits", Value::Num(c.commits as f64)),
                            ("ns_per_commit", Value::Num(c.ns_per_commit)),
                            ("wake_checks", Value::Num(c.wake_checks as f64)),
                            ("wake_shard_scans", Value::Num(c.shard_scans as f64)),
                            ("wake_shard_skips", Value::Num(c.shard_skips as f64)),
                            ("wake_targeted", Value::Num(c.targeted as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&json_path, report.pretty()).expect("write JSON report");
    println!("wrote {json_path}");
}
