//! `kv_store` — session-store throughput and tail latency on the KV plane.
//!
//! `TmHashMap::get` and `TmOrderedMap::range` run as declared read-only
//! transactions, so they commit through the zero-footprint snapshot fast
//! path — no read set, no commit-time validation, a single
//! `ro_fast_commits` bump.  Two workers run a Zipf-skewed get/scan/put/delete
//! session mix (each get loads a `GET_BATCH`-field session record in one
//! read-only transaction) over a prepopulated store + ordered index, sweeping
//! read percentage {100, 90} x skew theta {0.6, 0.99} x all four runtimes.
//! Every operation is tagged with its `OpClass`, so the per-class latency
//! histograms (get/put/del/scan p50/p99/p999) come out of the same runs; a
//! rendered per-runtime report is printed after the sweep.
//!
//! Headline assertions, run on every invocation (smoke included):
//!
//! * every cell commits lookups through the fast path
//!   (`ro_fast_commits > 0`);
//! * on the 100%-read STM cells the read-set pool high-water stays at
//!   **zero** (`read_set_max == 0`) — the measured loop has no mailbox or
//!   setup transactions to muddy the claim.
//!
//! Output: plain-text tables plus per-runtime latency reports on stdout and
//! a JSON report written to `$TM_BENCH_JSON` (default `BENCH_kv_store.json`).
//!
//! Environment:
//!
//! | variable            | meaning                                  | default |
//! |---------------------|------------------------------------------|---------|
//! | `TM_BENCH_SMOKE=1`  | tiny iteration counts + slack for CI     | off     |
//! | `TM_BENCH_ITERS`    | operations per worker per cell           | `12000` |
//! | `TM_BENCH_REPEATS`  | runs per cell (fastest kept)             | `7` (smoke `1`) |
//! | `TM_BENCH_JSON`     | JSON report path                         | `BENCH_kv_store.json` |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use condsync::Mechanism;
use tm_core::{OpClass, StatsSnapshot, TmConfig};
use tm_sync::{TmHashMap, TmOrderedMap};
use tm_workloads::json::Value;
use tm_workloads::runtime::RuntimeKind;
use tm_workloads::zipf::ZipfGen;
use tm_workloads::{DataPoint, Panel};

/// Distinct keys in the session key space; all prepopulated, so 100%-read
/// cells never miss and the cold start costs nothing.
const KEYSPACE: usize = 384;

/// Hash-map slot capacity.  Headroom over `KEYSPACE` keeps probe chains
/// short even once delete/insert churn leaves tombstones behind.
const CAPACITY: usize = 1024;

/// A scan covers `[k, k + SCAN_SPAN]` in key order.
const SCAN_SPAN: u64 = 8;

/// Fields loaded per session read: a `Get` materialises one session record
/// — `GET_BATCH` Zipf-drawn keys — in a single declared read-only
/// transaction, the way a request handler loads a session in one shot.
/// Wide enough that the per-read saving of the snapshot path (no read-set
/// recording) dominates its fixed per-transaction cost.
const GET_BATCH: usize = 16;

/// Worker count: concurrent readers and writers without drowning small CI
/// hosts in scheduler noise.
const THREADS: usize = 2;

/// Read percentages: the pure-lookup cell pins `read_set_max == 0`; the 90%
/// cell is the paper-shaped read-mostly session mix.
const READ_PCTS: [u32; 2] = [100, 90];

/// Zipf skews: mild and classic-YCSB hot-spot.
const THETAS: [f64; 2] = [0.6, 0.99];

/// Base seed for the per-worker Zipf streams.
const SEED: u64 = 0x005E_5510_4B50;

struct Cell {
    runtime: RuntimeKind,
    read_pct: u32,
    theta: f64,
    seconds: f64,
    commits: u64,
    aborts: u64,
    ro_fast_commits: u64,
    snapshot_refreshes: u64,
    read_set_max: u64,
    gets: u64,
    puts: u64,
    dels: u64,
    scans: u64,
    stats: StatsSnapshot,
}

impl Cell {
    fn throughput(&self) -> f64 {
        self.commits as f64 / self.seconds
    }
}

#[allow(clippy::too_many_lines)]
fn measure(kind: RuntimeKind, read_pct: u32, theta: f64, iters: u64) -> Cell {
    let rt = kind.build(TmConfig::default().with_heap_words(1 << 16));
    let system = Arc::clone(rt.system());
    let store = Arc::new(TmHashMap::<u64, u64>::new(&system, CAPACITY));
    let index = Arc::new(TmOrderedMap::<u64, u64>::new(&system));
    // Non-transactional prepopulation: the measured stats are the session
    // operations alone (critical for the `read_set_max == 0` claim).
    for k in 0..KEYSPACE as u64 {
        store.insert_direct(&system, k, k.wrapping_mul(2) + 1);
        index.insert_direct(&system, k, k.wrapping_mul(2) + 1);
    }

    let barrier = Barrier::new(THREADS + 1);
    let inserts_new = AtomicU64::new(0);
    let delete_hits = AtomicU64::new(0);
    let op_counts = [
        AtomicU64::new(0), // gets
        AtomicU64::new(0), // puts
        AtomicU64::new(0), // dels
        AtomicU64::new(0), // scans
    ];
    let mut start = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let store = Arc::clone(&store);
                let index = Arc::clone(&index);
                let (barrier, inserts_new, delete_hits, op_counts) =
                    (&barrier, &inserts_new, &delete_hits, &op_counts);
                s.spawn(move || {
                    let th = system.register_thread();
                    let mut rng = ZipfGen::new(KEYSPACE, theta, SEED ^ ((worker as u64 + 1) << 17));
                    let mut blackhole = 0u64;
                    let (mut gets, mut puts, mut dels, mut scans) = (0u64, 0u64, 0u64, 0u64);
                    let (mut fresh, mut hits) = (0u64, 0u64);
                    barrier.wait();
                    for i in 0..iters {
                        let key = rng.next_key() as u64;
                        let roll = (rng.next_u64() >> 32) as u32 % 100;
                        let sub = rng.next_u64();
                        if roll < read_pct {
                            if sub & 7 == 0 {
                                // Range scan over the ordered index.
                                th.set_op_class(OpClass::Scan);
                                let hi = key.saturating_add(SCAN_SPAN);
                                let entries =
                                    rt.atomically_read(&th, |tx| index.range(tx, key, hi));
                                for (_, v) in entries {
                                    blackhole = blackhole.wrapping_add(v);
                                }
                                scans += 1;
                            } else {
                                // Session read: one declared read-only
                                // transaction loads the whole record —
                                // `GET_BATCH` Zipf-drawn fields.
                                th.set_op_class(OpClass::Get);
                                let mut keys = [key; GET_BATCH];
                                for k in keys.iter_mut().skip(1) {
                                    *k = rng.next_key() as u64;
                                }
                                let sum = rt.atomically_read(&th, |tx| {
                                    let mut sum = 0u64;
                                    for &k in &keys {
                                        sum = sum.wrapping_add(store.get(tx, k)?.unwrap_or(0));
                                    }
                                    Ok(sum)
                                });
                                blackhole ^= sum;
                                gets += 1;
                            }
                        } else if sub & 1 == 0 {
                            // Delete from store and index in one transaction.
                            th.set_op_class(OpClass::Delete);
                            let old = rt.atomically(&th, |tx| {
                                let old = store.remove(tx, key)?;
                                if old.is_some() {
                                    index.remove(tx, key)?;
                                }
                                Ok(old)
                            });
                            if old.is_some() {
                                hits += 1;
                            }
                            dels += 1;
                        } else {
                            // Put into store and index in one transaction.
                            th.set_op_class(OpClass::Put);
                            let value = ((worker as u64 + 1) << 32) | i;
                            let old = rt.atomically(&th, |tx| {
                                let old = store.insert(tx, key, value)?;
                                index.insert(tx, key, value)?;
                                Ok(old)
                            });
                            if old.is_none() {
                                fresh += 1;
                            }
                            puts += 1;
                        }
                        th.clear_op_class();
                    }
                    std::hint::black_box(blackhole);
                    inserts_new.fetch_add(fresh, Ordering::Relaxed);
                    delete_hits.fetch_add(hits, Ordering::Relaxed);
                    op_counts[0].fetch_add(gets, Ordering::Relaxed);
                    op_counts[1].fetch_add(puts, Ordering::Relaxed);
                    op_counts[2].fetch_add(dels, Ordering::Relaxed);
                    op_counts[3].fetch_add(scans, Ordering::Relaxed);
                })
            })
            .collect();
        // Stopwatch before the barrier release.
        start = Some(Instant::now());
        barrier.wait();
        for h in handles {
            h.join().unwrap();
        }
    });
    let seconds = start.expect("barrier passed").elapsed().as_secs_f64();

    // Conservation: the store's final size is exactly what the structural
    // operations say it is, and the ordered index agrees entry-for-entry.
    let final_len = store.len_direct(&system);
    let expected =
        KEYSPACE as u64 + inserts_new.load(Ordering::Relaxed) - delete_hits.load(Ordering::Relaxed);
    assert_eq!(final_len, expected, "{kind}: store lost structural updates");
    assert_eq!(
        store.dump_direct(&system),
        index.dump_direct(&system),
        "{kind}: store and index disagree"
    );

    let stats = system.stats();
    Cell {
        runtime: kind,
        read_pct,
        theta,
        seconds,
        commits: stats.hw_commits + stats.sw_commits + stats.serial_commits,
        aborts: stats.total_aborts(),
        ro_fast_commits: stats.ro_fast_commits,
        snapshot_refreshes: stats.snapshot_refreshes,
        read_set_max: stats.read_set_max,
        gets: op_counts[0].load(Ordering::Relaxed),
        puts: op_counts[1].load(Ordering::Relaxed),
        dels: op_counts[2].load(Ordering::Relaxed),
        scans: op_counts[3].load(Ordering::Relaxed),
        stats,
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

fn cell_json(c: &Cell) -> Value {
    Value::obj(vec![
        ("runtime", Value::Str(c.runtime.label().to_string())),
        ("threads", Value::Num(THREADS as f64)),
        ("read_pct", Value::Num(c.read_pct as f64)),
        ("theta", Value::Num(c.theta)),
        ("seconds", Value::Num(c.seconds)),
        ("commits", Value::Num(c.commits as f64)),
        ("throughput", Value::Num(c.throughput())),
        ("aborts", Value::Num(c.aborts as f64)),
        ("ro_fast_commits", Value::Num(c.ro_fast_commits as f64)),
        (
            "snapshot_refreshes",
            Value::Num(c.snapshot_refreshes as f64),
        ),
        ("read_set_max", Value::Num(c.read_set_max as f64)),
        ("gets", Value::Num(c.gets as f64)),
        ("puts", Value::Num(c.puts as f64)),
        ("dels", Value::Num(c.dels as f64)),
        ("scans", Value::Num(c.scans as f64)),
    ])
}

fn main() {
    let smoke = env_flag("TM_BENCH_SMOKE");
    let iters: u64 = std::env::var("TM_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 600 } else { 12000 });
    let repeats: usize = std::env::var("TM_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 7 })
        .max(1);
    let json_path =
        std::env::var("TM_BENCH_JSON").unwrap_or_else(|_| "BENCH_kv_store.json".to_string());

    let mut cells = Vec::new();
    println!(
        "{:<10} {:>8} {:>6} {:>9} {:>11} {:>9} {:>9} {:>10} {:>9}",
        "runtime",
        "read_pct",
        "theta",
        "seconds",
        "commits/s",
        "aborts",
        "ro_fast",
        "refreshes",
        "rset_max"
    );
    for kind in RuntimeKind::ALL {
        for theta in THETAS {
            for read_pct in READ_PCTS {
                let cell = (0..repeats)
                    .map(|_| measure(kind, read_pct, theta, iters))
                    .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
                    .expect("at least one repeat");
                println!(
                    "{:<10} {:>8} {:>6} {:>9.4} {:>11.0} {:>9} {:>9} {:>10} {:>9}",
                    cell.runtime.label(),
                    cell.read_pct,
                    cell.theta,
                    cell.seconds,
                    cell.throughput(),
                    cell.aborts,
                    cell.ro_fast_commits,
                    cell.snapshot_refreshes,
                    cell.read_set_max,
                );
                cells.push(cell);
            }
        }
    }

    // ---- Per-runtime latency reports: p50/p99/p999 per operation class ----
    // The op-class histograms come from the 90%-read theta-0.99 cell (the
    // session-store shape), rendered through the same report machinery the
    // figure binaries use.
    for kind in RuntimeKind::ALL {
        let cell = cells
            .iter()
            .find(|c| c.runtime == kind && c.read_pct == 90 && c.theta == 0.99)
            .expect("90%-read theta-0.99 cell");
        let mut panel = Panel::new(format!("kv_store {}", kind.label()), "threads");
        panel
            .series_mut(Mechanism::Await)
            .push(DataPoint::from_trials(
                THREADS as u64,
                &[std::time::Duration::from_secs_f64(cell.seconds)],
                cell.stats,
            ));
        print!(
            "\n# report {}\n{}",
            kind.label(),
            panel.render_latency_stats()
        );
    }

    // ---- Headline claims, checked on every run (smoke included) ----
    for cell in &cells {
        assert!(
            cell.ro_fast_commits > 0,
            "{}/{}%/theta {}: no fast read-only commits",
            cell.runtime.label(),
            cell.read_pct,
            cell.theta
        );
    }
    for cell in cells.iter().filter(|c| {
        c.read_pct == 100 && matches!(c.runtime, RuntimeKind::EagerStm | RuntimeKind::LazyStm)
    }) {
        // Pure-lookup STM cells never populate a read set: there is no
        // mailbox or setup transaction in the measured loop, so the
        // high-water mark is exactly the lookups' footprint — zero.
        assert_eq!(
            cell.read_set_max,
            0,
            "{}/theta {}: snapshot lookups populated a read set (max {})",
            cell.runtime.label(),
            cell.theta,
            cell.read_set_max
        );
    }

    let report = Value::obj(vec![
        ("experiment", Value::Str("kv_store".to_string())),
        (
            "description",
            Value::Str("session-store mix over the transactional KV plane".to_string()),
        ),
        ("iters_per_thread", Value::Num(iters as f64)),
        ("keyspace", Value::Num(KEYSPACE as f64)),
        ("capacity", Value::Num(CAPACITY as f64)),
        ("scan_span", Value::Num(SCAN_SPAN as f64)),
        ("smoke", Value::Bool(smoke)),
        ("cells", Value::Arr(cells.iter().map(cell_json).collect())),
    ]);
    std::fs::write(&json_path, report.pretty()).expect("write JSON report");
    println!("wrote {json_path}");
}
