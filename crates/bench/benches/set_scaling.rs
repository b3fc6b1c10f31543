//! `set_scaling` — access-set cost as a function of transaction size.
//!
//! The shared access-set layer (`tm_core::access`) promises that the cost
//! of a read-after-write lookup does not depend on how large the write log
//! already is (hash index, was a reverse linear scan), and that re-executed
//! transactions stop allocating their logs (per-thread `LogPool`).  This
//! bench demonstrates both by sweeping the transaction size on every
//! runtime:
//!
//! * each measured transaction writes `size` distinct words and then reads
//!   every one of them back, so every read is a read-after-write hitting
//!   the write log.  With O(1) lookups the per-operation cost stays
//!   near-flat from 16 to 16384 addresses; the flat-`Vec` logs made it grow
//!   linearly (quadratic per transaction);
//! * the repetitions re-enter `atomically` on one thread, so every
//!   transaction after the first takes its containers from the pool —
//!   `log_pool_reuses` in the report shows the allocations that no longer
//!   happen, and `read_set_max`/`write_set_max` confirm the sets really
//!   reached the configured size.
//!
//! On the HTM simulator the large sizes necessarily exceed the simulated
//! line capacity and run in the serial fallback (uninstrumented reads); the
//! STM rows carry the headline claim, `lazy-stm` most directly since its
//! reads consult the redo log.  Note that the HTM rows' `read_set_max`
//! counts speculative read *lines*, not addresses (see
//! `tm_core::stats::StatsSnapshot::read_set_max`), so it is not comparable
//! 1:1 with the STM rows.
//!
//! Output: a plain-text table on stdout, plus a JSON report (via
//! `tm_workloads::json`) written to `$TM_BENCH_JSON` (default
//! `BENCH_set_scaling.json`) so CI can archive the perf trajectory.
//!
//! Environment:
//!
//! | variable           | meaning                                  | default |
//! |--------------------|------------------------------------------|---------|
//! | `TM_BENCH_SMOKE=1` | tiny iteration counts for CI smoke runs  | off     |
//! | `TM_BENCH_SIZES`   | comma list of transaction sizes (addrs)  | `16,64,256,1024,4096,16384` |
//! | `TM_BENCH_OPS`     | target read-after-write ops per cell     | `262144` |
//! | `TM_BENCH_JSON`    | JSON report path                         | `BENCH_set_scaling.json` |

use std::sync::Arc;
use std::time::Instant;

use tm_core::{Addr, TmConfig};
use tm_workloads::json::Value;
use tm_workloads::runtime::RuntimeKind;

struct Cell {
    runtime: RuntimeKind,
    size: usize,
    reps: u64,
    ns_per_op: f64,
    read_set_max: u64,
    write_set_max: u64,
    pool_reuses: u64,
}

fn measure(kind: RuntimeKind, size: usize, target_ops: u64) -> Cell {
    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    // Two disjoint regions: `rbase` is only ever read (populating the read
    // set), `wbase` is written then read back (populating the write log).
    let rbase = 64usize;
    let wbase = rbase + size;
    assert!(wbase + size < system.heap.len(), "heap too small for sweep");

    // One warm-up transaction grows the logs; everything measured afterwards
    // runs on recycled capacity.
    let reps = (target_ops / size as u64).max(1);
    let body = |tx: &mut dyn tm_core::Tx| {
        let mut acc = 0u64;
        for i in 0..size {
            // Validated read of an untouched location: enters the read set.
            acc = acc.wrapping_add(tx.read(Addr(rbase + i))?);
        }
        for i in 0..size {
            tx.write(Addr(wbase + i), i as u64)?;
        }
        for i in 0..size {
            // Read-after-write: served from the write log on the STMs.
            acc = acc.wrapping_add(tx.read(Addr(wbase + i))?);
        }
        Ok(acc)
    };
    let expected = (0..size as u64).sum::<u64>();
    assert_eq!(rt.atomically(&th, body), expected, "warm-up sanity");

    let before = th.stats.snapshot();
    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(rt.atomically(&th, body), expected);
    }
    let elapsed = start.elapsed();
    let after = th.stats.snapshot();

    Cell {
        runtime: kind,
        size,
        reps,
        // Three log operations per address per repetition: the validated
        // read, the logged write, and the read-after-write lookup.
        ns_per_op: elapsed.as_nanos() as f64 / (reps * 3 * size as u64) as f64,
        read_set_max: after.read_set_max,
        write_set_max: after.write_set_max,
        pool_reuses: after.log_pool_reuses - before.log_pool_reuses,
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
    let sizes = env_list(
        "TM_BENCH_SIZES",
        if smoke {
            &[16, 256]
        } else {
            &[16, 64, 256, 1024, 4096, 16384]
        },
    );
    let target_ops: u64 = std::env::var("TM_BENCH_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8192 } else { 262_144 });
    let json_path =
        std::env::var("TM_BENCH_JSON").unwrap_or_else(|_| "BENCH_set_scaling.json".to_string());

    let mut cells = Vec::new();
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>13} {:>14} {:>12}",
        "runtime", "size", "reps", "ns/op", "read_set_max", "write_set_max", "pool_reuses"
    );
    for kind in RuntimeKind::ALL {
        for &size in &sizes {
            let cell = measure(kind, size, target_ops);
            println!(
                "{:<10} {:>8} {:>8} {:>10.1} {:>13} {:>14} {:>12}",
                cell.runtime.label(),
                cell.size,
                cell.reps,
                cell.ns_per_op,
                cell.read_set_max,
                cell.write_set_max,
                cell.pool_reuses,
            );
            cells.push(cell);
        }
        // The headline claim: per-op cost at the largest size stays within a
        // small factor of the smallest (the flat-log implementation grew
        // linearly with the write-log size).
        let per_kind: Vec<&Cell> = cells.iter().filter(|c| c.runtime == kind).collect();
        if let (Some(first), Some(last)) = (per_kind.first(), per_kind.last()) {
            if first.size < last.size && first.ns_per_op > 0.0 {
                println!(
                    "  -> {}: {}-addr txs cost {:.2}x per op vs {}-addr txs",
                    kind.label(),
                    last.size,
                    last.ns_per_op / first.ns_per_op,
                    first.size,
                );
            }
        }
    }

    let report = Value::obj(vec![
        ("experiment", Value::Str("set_scaling".to_string())),
        (
            "description",
            Value::Str(
                "per-op access-set cost vs transaction size (hash-indexed logs + pool)".to_string(),
            ),
        ),
        ("target_ops_per_cell", Value::Num(target_ops as f64)),
        ("smoke", Value::Bool(smoke)),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("runtime", Value::Str(c.runtime.label().to_string())),
                            ("size", Value::Num(c.size as f64)),
                            ("reps", Value::Num(c.reps as f64)),
                            ("ns_per_op", Value::Num(c.ns_per_op)),
                            ("read_set_max", Value::Num(c.read_set_max as f64)),
                            ("write_set_max", Value::Num(c.write_set_max as f64)),
                            ("log_pool_reuses", Value::Num(c.pool_reuses as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&json_path, report.pretty()).expect("write JSON report");
    println!("wrote {json_path}");
}
