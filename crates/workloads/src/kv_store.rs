//! `kv_store` — a session-store scenario over the transactional KV plane.
//!
//! N client sessions hammer a shared [`TmHashMap`] (primary store) and
//! [`TmOrderedMap`] (ordered index) with a configurable get/put/delete/scan
//! mix over Zipf-skewed keys ([`ZipfGen`]); every mutation updates store
//! and index in **one transaction**, so the two structures can never be
//! observed disagreeing.  Lookups and scans run as declared read-only
//! transactions (`atomically_read`), which is what routes them onto the
//! snapshot fast path.
//!
//! Flow control is the bounded-mailbox shape real ingest pipelines use: a
//! dispatcher thread feeds work grants through a [`TmBoundedBuffer`] with
//! the timed condsync operations, each grant entitling a session to one
//! batch of operations; a session that finds the mailbox empty rides out
//! the deadline as a counted timeout instead of spinning.
//!
//! Every operation is tagged with its [`OpClass`] on the session's thread
//! context before it runs, so the driver's commit-latency histograms split
//! by operation class and reports show p50/p99/p999 per get/put/delete/scan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use condsync::Mechanism;
use tm_core::{OpClass, StatsSnapshot, TmConfig};
use tm_sync::{TmBoundedBuffer, TmHashMap, TmOrderedMap};

use crate::runtime::RuntimeKind;
use crate::zipf::ZipfGen;

/// Parameters of one session-store run.
#[derive(Copy, Clone, Debug)]
pub struct KvParams {
    /// Number of client-session threads.
    pub sessions: usize,
    /// Operations each session performs.
    pub ops_per_session: u64,
    /// Number of distinct keys (Zipf rank space).
    pub keyspace: usize,
    /// Zipfian skew (0 = uniform, 0.99 = classic YCSB hot-spot).
    pub theta: f64,
    /// Percentage of operations that are point lookups.
    pub read_pct: u32,
    /// Percentage that are range scans over the ordered index.
    pub scan_pct: u32,
    /// Percentage that are deletes (the remainder are puts).
    pub delete_pct: u32,
    /// A scan covers keys `[k, k + scan_span]` in encoded order.
    pub scan_span: u64,
    /// Hash-map slot capacity (must exceed `keyspace`).
    pub map_capacity: usize,
    /// Entries pre-loaded before the clients start (setup is
    /// non-transactional, so a 100%-read run's stats are pure lookups).
    pub prepopulate: usize,
    /// Mailbox (work-grant buffer) capacity.
    pub mailbox_cap: usize,
    /// Operations granted per mailbox message.
    pub grant_batch: u64,
    /// Deadline of each mailbox produce/consume attempt.
    pub op_timeout: Duration,
    /// Base seed; each session derives its own deterministic stream.
    pub seed: u64,
}

impl KvParams {
    /// A small configuration suitable for unit tests and CI smoke runs.
    pub fn smoke() -> Self {
        KvParams {
            sessions: 3,
            ops_per_session: 240,
            keyspace: 48,
            theta: 0.99,
            read_pct: 70,
            scan_pct: 10,
            delete_pct: 8,
            scan_span: 7,
            map_capacity: 128,
            prepopulate: 24,
            mailbox_cap: 4,
            grant_batch: 16,
            op_timeout: Duration::from_millis(5),
            seed: 0x0005_E551_04B5,
        }
    }

    fn roll_bounds(&self) -> (u32, u32, u32) {
        let scans_end = self.read_pct + self.scan_pct;
        let deletes_end = scans_end + self.delete_pct;
        assert!(deletes_end <= 100, "op mix exceeds 100%");
        (self.read_pct, scans_end, deletes_end)
    }
}

/// Result of one session-store run.
#[derive(Debug, Clone)]
pub struct KvResult {
    /// The runtime that executed the transactions.
    pub runtime: RuntimeKind,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Point lookups performed / how many found their key.
    pub gets: u64,
    /// Lookups that found their key.
    pub get_hits: u64,
    /// Puts performed.
    pub puts: u64,
    /// Puts that inserted a fresh key (rather than overwriting).
    pub inserts_new: u64,
    /// Deletes performed.
    pub deletes: u64,
    /// Deletes that removed a present key.
    pub delete_hits: u64,
    /// Range scans performed.
    pub scans: u64,
    /// Total entries returned by scans.
    pub scanned_entries: u64,
    /// Mailbox consume deadlines that fired.
    pub mailbox_timeouts: u64,
    /// Final entry count of the store.
    pub final_len: u64,
    /// Conservation: `prepopulate + inserts_new - delete_hits == final_len`,
    /// and the hash map and ordered index hold identical contents.
    pub conservation_ok: bool,
    /// Commutative (order-independent) checksum over every value observed
    /// by gets and scans plus the final contents — deterministic for a
    /// deterministic schedule, reported for cross-run comparison.
    pub checksum: u64,
    /// Aggregated transaction statistics across all threads.
    pub stats: StatsSnapshot,
}

/// Runs one session-store scenario on `kind` with `config`.
///
/// # Panics
///
/// Panics on nonsensical parameters (empty keyspace, map smaller than the
/// keyspace, op mix above 100%).
pub fn run_kv_store_scenario(kind: RuntimeKind, config: TmConfig, params: &KvParams) -> KvResult {
    assert!(params.sessions > 0, "need at least one session");
    assert!(params.keyspace > 0, "need a non-empty keyspace");
    assert!(
        params.map_capacity > params.keyspace,
        "map capacity must exceed the keyspace (no resizing)"
    );
    let (read_end, scan_end, delete_end) = params.roll_bounds();

    let rt = kind.build(config);
    let system = Arc::clone(rt.system());
    let store = Arc::new(TmHashMap::<u64, u64>::new(&system, params.map_capacity));
    let index = Arc::new(TmOrderedMap::<u64, u64>::new(&system));
    let mailbox = TmBoundedBuffer::new(&system, params.mailbox_cap.max(2));

    // Non-transactional prepopulation: a pure-read run's statistics stay
    // pure (no setup writes in `read_set_max` or the commit counts).
    for k in 0..params.prepopulate.min(params.keyspace) {
        let key = k as u64;
        store.insert_direct(&system, key, key + 1);
        index.insert_direct(&system, key, key + 1);
    }

    let gets = Arc::new(AtomicU64::new(0));
    let get_hits = Arc::new(AtomicU64::new(0));
    let puts = Arc::new(AtomicU64::new(0));
    let inserts_new = Arc::new(AtomicU64::new(0));
    let deletes = Arc::new(AtomicU64::new(0));
    let delete_hits = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    let scanned_entries = Arc::new(AtomicU64::new(0));
    let mailbox_timeouts = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));

    let grants_per_session = params.ops_per_session.div_ceil(params.grant_batch.max(1));
    let total_grants = grants_per_session * params.sessions as u64;

    let start = Instant::now();
    std::thread::scope(|scope| {
        // Dispatcher: feeds work grants through the bounded mailbox with
        // timed produces (a full mailbox is backpressure, not a stall).
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let mailbox = Arc::clone(&mailbox);
            scope.spawn(move || {
                let th = system.register_thread();
                for g in 0..total_grants {
                    loop {
                        let stored = rt.atomically(&th, |tx| {
                            mailbox.produce_timeout(Mechanism::Await, tx, g + 1, params.op_timeout)
                        });
                        if stored {
                            break;
                        }
                    }
                }
            });
        }

        for session in 0..params.sessions {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let store = Arc::clone(&store);
            let index = Arc::clone(&index);
            let mailbox = Arc::clone(&mailbox);
            let gets = Arc::clone(&gets);
            let get_hits = Arc::clone(&get_hits);
            let puts = Arc::clone(&puts);
            let inserts_new = Arc::clone(&inserts_new);
            let deletes = Arc::clone(&deletes);
            let delete_hits = Arc::clone(&delete_hits);
            let scans = Arc::clone(&scans);
            let scanned_entries = Arc::clone(&scanned_entries);
            let mailbox_timeouts = Arc::clone(&mailbox_timeouts);
            let checksum = Arc::clone(&checksum);
            scope.spawn(move || {
                let th = system.register_thread();
                let mut rng = ZipfGen::new(
                    params.keyspace,
                    params.theta,
                    params.seed ^ ((session as u64 + 1) << 20),
                );
                let mut local_checksum = 0u64;
                let mut done = 0u64;
                while done < params.ops_per_session {
                    // Acquire a work grant; deadline misses are counted and
                    // retried (flow control, not failure).
                    loop {
                        let got = rt.atomically(&th, |tx| {
                            mailbox.consume_timeout(Mechanism::Await, tx, params.op_timeout)
                        });
                        if got.is_some() {
                            break;
                        }
                        mailbox_timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    let batch = params.grant_batch.min(params.ops_per_session - done);
                    for op in 0..batch {
                        let key = rng.next_key() as u64;
                        let roll = (rng.next_u64() >> 32) as u32 % 100;
                        if roll < read_end {
                            th.set_op_class(OpClass::Get);
                            let got = rt.atomically_read(&th, |tx| store.get(tx, key));
                            th.clear_op_class();
                            gets.fetch_add(1, Ordering::Relaxed);
                            if let Some(v) = got {
                                get_hits.fetch_add(1, Ordering::Relaxed);
                                local_checksum = local_checksum.wrapping_add(v);
                            }
                        } else if roll < scan_end {
                            th.set_op_class(OpClass::Scan);
                            let hi = key.saturating_add(params.scan_span);
                            let entries = rt.atomically_read(&th, |tx| index.range(tx, key, hi));
                            th.clear_op_class();
                            scans.fetch_add(1, Ordering::Relaxed);
                            scanned_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
                            for (_, v) in entries {
                                local_checksum = local_checksum.wrapping_add(v);
                            }
                        } else if roll < delete_end {
                            th.set_op_class(OpClass::Delete);
                            let old = rt.atomically(&th, |tx| {
                                let old = store.remove(tx, key)?;
                                if old.is_some() {
                                    index.remove(tx, key)?;
                                }
                                Ok(old)
                            });
                            th.clear_op_class();
                            deletes.fetch_add(1, Ordering::Relaxed);
                            if old.is_some() {
                                delete_hits.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            th.set_op_class(OpClass::Put);
                            let value = ((session as u64 + 1) << 32) | (done + op);
                            let old = rt.atomically(&th, |tx| {
                                let old = store.insert(tx, key, value)?;
                                index.insert(tx, key, value)?;
                                Ok(old)
                            });
                            th.clear_op_class();
                            puts.fetch_add(1, Ordering::Relaxed);
                            if old.is_none() {
                                inserts_new.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    done += batch;
                }
                checksum.fetch_add(local_checksum, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();

    // Conservation: the store's size is exactly what the successful
    // structural operations say it is, and the index agrees entry-for-entry.
    let final_len = store.len_direct(&system);
    let expected_len = params.prepopulate.min(params.keyspace) as u64
        + inserts_new.load(Ordering::Relaxed)
        - delete_hits.load(Ordering::Relaxed);
    let store_dump = store.dump_direct(&system);
    let index_dump = index.dump_direct(&system);
    let conservation_ok = final_len == expected_len
        && store_dump.len() as u64 == final_len
        && store_dump == index_dump;
    let final_checksum = store_dump
        .iter()
        .fold(checksum.load(Ordering::Relaxed), |acc, &(k, v)| {
            acc.wrapping_add(k ^ v)
        });

    KvResult {
        runtime: kind,
        elapsed,
        gets: gets.load(Ordering::Relaxed),
        get_hits: get_hits.load(Ordering::Relaxed),
        puts: puts.load(Ordering::Relaxed),
        inserts_new: inserts_new.load(Ordering::Relaxed),
        deletes: deletes.load(Ordering::Relaxed),
        delete_hits: delete_hits.load(Ordering::Relaxed),
        scans: scans.load(Ordering::Relaxed),
        scanned_entries: scanned_entries.load(Ordering::Relaxed),
        mailbox_timeouts: mailbox_timeouts.load(Ordering::Relaxed),
        final_len,
        conservation_ok,
        checksum: final_checksum,
        stats: system.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_conserves_and_classifies_on_every_runtime() {
        for kind in RuntimeKind::ALL {
            let params = KvParams::smoke();
            let r = run_kv_store_scenario(kind, TmConfig::small(), &params);
            assert!(r.conservation_ok, "{kind}: store/index disagree");
            assert_eq!(
                r.gets + r.puts + r.deletes + r.scans,
                params.ops_per_session * params.sessions as u64,
                "{kind}: op accounting"
            );
            // Every operation's latency landed in its class histogram —
            // the routing is exact, not approximate.
            assert_eq!(r.stats.op_latency(OpClass::Get).count(), r.gets, "{kind}");
            assert_eq!(r.stats.op_latency(OpClass::Put).count(), r.puts, "{kind}");
            assert_eq!(
                r.stats.op_latency(OpClass::Delete).count(),
                r.deletes,
                "{kind}"
            );
            assert_eq!(r.stats.op_latency(OpClass::Scan).count(), r.scans, "{kind}");
            // Zipf skew + prepopulation make read hits overwhelmingly likely
            // (the head keys are preloaded).
            assert!(r.get_hits > 0, "{kind}: no get ever hit");
            assert!(r.scanned_entries > 0, "{kind}: scans saw nothing");
        }
    }

    #[test]
    fn declared_ro_lookups_take_the_snapshot_fast_path() {
        // 100% reads on a prepopulated store: the STM lookups commit with a
        // zero footprint.
        let params = KvParams {
            read_pct: 100,
            scan_pct: 0,
            delete_pct: 0,
            ..KvParams::smoke()
        };
        for kind in [RuntimeKind::EagerStm, RuntimeKind::LazyStm] {
            let r = run_kv_store_scenario(kind, TmConfig::small(), &params);
            assert!(r.conservation_ok);
            // Every lookup commits through the zero-footprint fast path.
            // (`read_set_max` is not zero here only because the mailbox's
            // flow-control transactions read; `tests/stats_exact.rs` pins
            // that stricter claim on a mailbox-free loop.)
            assert_eq!(
                r.stats.ro_fast_commits, r.gets,
                "{kind}: some lookup missed the snapshot fast path"
            );
            assert_eq!(r.final_len, params.prepopulate as u64);
        }
    }

    #[test]
    fn identical_seeds_replay_identical_histories_per_runtime() {
        // Single-session runs are fully deterministic: same seed, same
        // final state and checksum — on every runtime.
        let mut checksums = Vec::new();
        for kind in RuntimeKind::ALL {
            let params = KvParams {
                sessions: 1,
                ..KvParams::smoke()
            };
            let a = run_kv_store_scenario(kind, TmConfig::small(), &params);
            let b = run_kv_store_scenario(kind, TmConfig::small(), &params);
            assert_eq!(a.checksum, b.checksum, "{kind}: not replayable");
            assert_eq!(a.final_len, b.final_len);
            checksums.push(a.checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "single-session history must be runtime-independent: {checksums:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 100%")]
    fn over_100_percent_mixes_are_rejected() {
        let params = KvParams {
            read_pct: 80,
            scan_pct: 20,
            delete_pct: 10,
            ..KvParams::smoke()
        };
        let _ = run_kv_store_scenario(RuntimeKind::EagerStm, TmConfig::small(), &params);
    }
}
