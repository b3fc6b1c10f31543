//! Per-thread execution statistics.
//!
//! Every interesting event in the runtimes and the condition-synchronization
//! layer bumps a counter here.  The workload harness aggregates snapshots
//! across threads so the benchmark output can report abort rates, wake-up
//! counts and fallback frequencies alongside raw execution time (useful when
//! explaining *why* a mechanism wins, as §2.4.1 does).
//!
//! Counters and high-water marks only: nothing here reads a clock.  The one
//! per-operation latency measurement is the benchmark ledger's own probe.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

macro_rules! stats_fields {
    (
        counters { $($(#[$cdoc:meta])* $cname:ident),+ $(,)? }
        maxima { $($(#[$mdoc:meta])* $mname:ident),+ $(,)? }
    ) => {
        /// Live (atomic) per-thread counters, plus high-water marks.
        ///
        /// **One writer.**  Only the thread that owns the enclosing
        /// [`crate::thread::ThreadCtx`] updates these (every `bump`, `add`
        /// and `record_max` in the workspace is handed the caller's own
        /// context), so an update is a relaxed load and a
        /// relaxed store, not a locked read-modify-write.  Any thread may
        /// read ([`TxStats::snapshot`]): each field it sees is a value the
        /// owner stored, so polled counters are exact and monotone.  A
        /// counter that gains a second concurrent writer must go back to
        /// `fetch_add`.
        ///
        /// Counters sit on commit/abort hot paths, so each one is padded to
        /// its own cache line: a thread banging on `sw_commits` must never
        /// invalidate the line a harness thread is reading `sleeps` from,
        /// and — because the padding also aligns the whole struct — two
        /// threads' contexts can't end up sharing a line through allocator
        /// adjacency.  `CachePadded` derefs to the inner atomic, so call
        /// sites are unchanged.
        #[derive(Debug, Default)]
        pub struct TxStats {
            $($(#[$cdoc])* pub $cname: CachePadded<AtomicU64>,)+
            $($(#[$mdoc])* pub $mname: CachePadded<AtomicU64>,)+
        }

        /// A point-in-time copy of [`TxStats`], suitable for aggregation and
        /// serialization.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$cdoc])* pub $cname: u64,)+
            $($(#[$mdoc])* pub $mname: u64,)+
        }

        impl TxStats {
            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname.load(Ordering::Relaxed),)+
                    $($mname: self.$mname.load(Ordering::Relaxed),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Combines two snapshots: event counters add, high-water marks
            /// take the larger value (a maximum across threads summed would
            /// overstate every per-transaction peak).
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname + other.$cname,)+
                    $($mname: self.$mname.max(other.$mname),)+
                }
            }

            /// Field names and values in declaration order, for serialization
            /// without a reflection framework.
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($cname), self.$cname),)+
                    $((stringify!($mname), self.$mname),)+
                ]
            }
        }
    };
}

stats_fields! {
    counters {
    /// Segments committed on a software rung (serial included).  Every
    /// committed segment is one commit, counted on the rung it committed
    /// on: a transaction's final commit, and each segment a `TMCondVar`
    /// wait point commits before it sleeps, writer or not.
    sw_commits,
    /// Software-mode transaction attempts aborted.
    sw_aborts,
    /// Segments committed in (simulated) hardware, by the rule of
    /// `sw_commits`.
    hw_commits,
    /// Hardware-mode transaction attempts aborted.
    hw_aborts,
    /// Times the serial fallback / irrevocable lock was acquired.
    serial_acquires,
    /// Transactions that committed while holding the serial gate (counted in
    /// addition to `sw_commits`, which serial commits also increment).
    serial_commits,
    /// Attempts re-executed in a different mode than the previous attempt
    /// (hardware → software, software → serial, relogs, post-wake resets).
    mode_switches,
    /// Escalations requested by the contention-management policy
    /// (see `tm_core::policy`).
    cm_escalations,
    /// Times a transaction descheduled itself (Retry/Await/WaitPred slept).
    descheds,
    /// Times the Deschedule double-check found the condition already
    /// established, avoiding a sleep.
    desched_skips,
    /// Sleeps entered: deschedules whose double-check found the condition
    /// still false, counted before the thread yields and parks (so a sleep
    /// that never blocks counts too).
    sleeps,
    /// Sleeps whose waiter had already been claimed when the sleeper's one
    /// yield returned: a waker sharing the CPU ran in between and claimed
    /// it, so the park finds its permit posted (or about to be) instead of
    /// blocking.
    yield_handoffs,
    /// Times a committed writer woke a sleeping thread.
    wakeups,
    /// Wait conditions evaluated by committing writers (`wakeWaiters` work).
    wake_checks,
    /// Waiter-registry shards a committing writer actually visited.
    wake_shard_scans,
    /// Writer commits that used a targeted (stripe-filtered) wake scan
    /// instead of the conservative scan-everything path.
    wake_targeted,
    /// Times a wake check (or deschedule double-check) found a `WaitPred`
    /// predicate reading a stripe it was not registered under, published it
    /// and evaluated again.
    pred_reindexes,
    /// Timed waits that ended because their deadline passed
    /// (`WakeReason::Timeout`), counted by the sleeper.
    wake_timeouts,
    /// Waits ended by an explicit `condsync::cancel`
    /// (`WakeReason::Cancelled`), counted by the sleeper.
    wake_cancels,
    /// Timer-wheel ticks advanced by this thread's lazy polls.
    timer_ticks,
    /// Explicit aborts requested by the program (Restart baseline, xabort).
    explicit_aborts,
    /// Condition-variable waits (TMCondVar and Pthreads baselines).
    condvar_waits,
    /// Condition-variable signals/broadcasts issued.
    condvar_signals,
    /// Hardware aborts manufactured by the fault injector
    /// (`FaultInjector`); zero whenever injection is disabled.
    hw_faults_injected,
    /// Epoch-table slots examined by quiescence scans (commit-time
    /// privatization waits): every other registered thread's slot, once per
    /// scan, so it shows how much commit-path polling the decentralized
    /// table absorbs.
    quiesce_scans,
    /// Shared clock-line read-modify-writes: one per writer-commit tick,
    /// plus eager-rollback ticks.
    clock_cas,
    /// Always 0: it counted the stamps of the lazy clock, which is gone.
    /// Kept only because the benchmark ledger still reads it
    /// (`clock.reuse_per_commit` and its self-check); it is deleted together
    /// with those two reads.
    clock_reuse,
    /// Attempts that began on a [`crate::access::Descriptor`] whose
    /// containers an earlier attempt had already grown, so their logs cost
    /// no allocation.
    log_pool_reuses,
    /// Read-only transactions that committed on the snapshot fast path
    /// (no read set, no commit-time validation, no clock traffic) — software
    /// snapshot commits plus hardware commits of declared-read-only
    /// transactions that wrote nothing.
    ro_fast_commits,
    /// Declared read-only transactions upgraded to full update transactions
    /// (the body wrote, allocated, or descheduled).
    ro_upgrades,
    /// Snapshot reads that survived a too-new version by re-sampling the
    /// begin snapshot at the first read instead of aborting.
    snapshot_refreshes,
    /// Transactional allocations served mutex-free from the thread's own
    /// arena bins (no global allocator lock taken).
    heap_arena_allocs,
    /// Arena refills that took the global allocator lock to carve a batch of
    /// blocks.  Steady-state churn should keep `heap_global_refills /
    /// heap_arena_allocs` tiny — that ratio is the arena plane's whole
    /// point: `tests/heap_plane.rs` bounds it and the ledger reports it.
    heap_global_refills,
    /// Frees of a block owned by *another* thread's arena, pushed onto the
    /// owner's lock-free remote-free stack instead of the global allocator.
    heap_remote_frees,
    /// Failed compare-and-swaps on ownership-record stripes, summed over the
    /// shards of the orec plane.  Per-thread copies stay zero; the system
    /// overlays the shard counters when aggregating (see
    /// `TmSystem::stats`).
    orec_cas_failures,
    }
    maxima {
    /// Largest read set any single attempt built: distinct addresses on the
    /// software STMs, distinct speculative read *lines* on HTM hardware
    /// attempts (the simulator tracks reads at line granularity, so the HTM
    /// value is not comparable 1:1 with the STM rows).
    read_set_max,
    /// Largest write log (distinct addresses) any single attempt built.
    write_set_max,
    }
}

impl TxStats {
    /// Increments a counter by one (owner thread only; see the one-writer
    /// rule on [`TxStats`]).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        TxStats::add(counter, 1);
    }

    /// Adds `n` to a counter (owner thread only).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Raises a high-water mark to `value` if it is larger (owner thread
    /// only).
    #[inline]
    pub fn record_max(mark: &AtomicU64, value: u64) {
        if value > mark.load(Ordering::Relaxed) {
            mark.store(value, Ordering::Relaxed);
        }
    }
}

impl StatsSnapshot {
    /// Total committed transactions (software + hardware).
    pub fn total_commits(&self) -> u64 {
        self.sw_commits + self.hw_commits
    }

    /// Total aborted attempts (software + hardware).
    pub fn total_aborts(&self) -> u64 {
        self.sw_aborts + self.hw_aborts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = TxStats::default();
        TxStats::bump(&s.sw_commits);
        TxStats::bump(&s.sw_commits);
        TxStats::add(&s.sleeps, 5);
        let snap = s.snapshot();
        assert_eq!(snap.sw_commits, 2);
        assert_eq!(snap.sleeps, 5);
        assert_eq!(snap.hw_commits, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let a = StatsSnapshot {
            sw_commits: 3,
            wakeups: 1,
            ..Default::default()
        };
        let b = StatsSnapshot {
            sw_commits: 4,
            sleeps: 2,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.sw_commits, 7);
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.sleeps, 2);
    }

    #[test]
    fn totals_add_both_planes() {
        let s = StatsSnapshot {
            sw_commits: 10,
            sw_aborts: 5,
            hw_commits: 10,
            hw_aborts: 5,
            ..Default::default()
        };
        assert_eq!(s.total_commits(), 20);
        assert_eq!(s.total_aborts(), 10);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let s = TxStats::default();
        TxStats::record_max(&s.read_set_max, 10);
        TxStats::record_max(&s.read_set_max, 4);
        TxStats::record_max(&s.write_set_max, 7);
        let snap = s.snapshot();
        assert_eq!(snap.read_set_max, 10);
        assert_eq!(snap.write_set_max, 7);
    }

    #[test]
    fn merge_takes_max_for_high_water_marks() {
        let a = StatsSnapshot {
            sw_commits: 1,
            read_set_max: 100,
            write_set_max: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            sw_commits: 2,
            read_set_max: 50,
            write_set_max: 9,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.sw_commits, 3, "event counters still add");
        assert_eq!(m.read_set_max, 100);
        assert_eq!(m.write_set_max, 9);
    }

    #[test]
    fn as_pairs_cover_high_water_marks() {
        let s = StatsSnapshot {
            read_set_max: 5,
            log_pool_reuses: 3,
            ..Default::default()
        };
        let pairs = s.as_pairs();
        assert!(pairs.contains(&("read_set_max", 5)));
        assert!(pairs.contains(&("log_pool_reuses", 3)));
    }

    #[test]
    fn clock_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.clock_cas);
        TxStats::bump(&s.clock_reuse);
        TxStats::add(&s.quiesce_scans, 3);
        let snap = s.snapshot();
        assert_eq!(
            (snap.clock_cas, snap.clock_reuse, snap.quiesce_scans),
            (1, 1, 3)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("clock_cas", 1)));
        assert!(pairs.contains(&("clock_reuse", 1)));
        assert!(pairs.contains(&("quiesce_scans", 3)));
    }

    #[test]
    fn snapshot_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.ro_fast_commits);
        TxStats::bump(&s.ro_upgrades);
        TxStats::add(&s.snapshot_refreshes, 2);
        let snap = s.snapshot();
        assert_eq!(
            (
                snap.ro_fast_commits,
                snap.ro_upgrades,
                snap.snapshot_refreshes
            ),
            (1, 1, 2)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("ro_fast_commits", 1)));
        assert!(pairs.contains(&("ro_upgrades", 1)));
        assert!(pairs.contains(&("snapshot_refreshes", 2)));
    }

    #[test]
    fn memory_plane_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.heap_arena_allocs);
        TxStats::bump(&s.heap_global_refills);
        TxStats::add(&s.heap_remote_frees, 2);
        let snap = s.snapshot();
        assert_eq!(
            (
                snap.heap_arena_allocs,
                snap.heap_global_refills,
                snap.heap_remote_frees,
                snap.orec_cas_failures,
            ),
            (1, 1, 2, 0)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("heap_arena_allocs", 1)));
        assert!(pairs.contains(&("heap_global_refills", 1)));
        assert!(pairs.contains(&("heap_remote_frees", 2)));
        assert!(pairs.contains(&("orec_cas_failures", 0)));
    }

    #[test]
    fn hot_counters_live_on_distinct_cache_lines() {
        use crate::pad::CACHE_LINE_BYTES;
        let s = TxStats::default();
        let commits = &*s.sw_commits as *const AtomicU64 as usize;
        let aborts = &*s.sw_aborts as *const AtomicU64 as usize;
        assert!(commits.abs_diff(aborts) >= CACHE_LINE_BYTES);
        assert_eq!(commits % CACHE_LINE_BYTES, 0);
    }
}
