//! Per-thread execution statistics.
//!
//! Every interesting event in the runtimes and the condition-synchronization
//! layer bumps a counter here.  The workload harness aggregates snapshots
//! across threads so the benchmark output can report abort rates, wake-up
//! counts and fallback frequencies alongside raw execution time (useful when
//! explaining *why* a mechanism wins, as §2.4.1 does).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// Number of log2 buckets in a [`LatencyHistogram`]: bucket `i` holds
/// samples whose nanosecond value has bit length `i`, so the covered range
/// tops out around 2 seconds before the last bucket absorbs the overflow.
pub const LATENCY_BUCKETS: usize = 32;

/// The driver times one transaction in this many and only counts the rest:
/// a clock-read pair costs about as much as an empty transaction's whole
/// protocol, and a pseudo-random one-in-eight sample has the population's
/// quantiles.
/// A power of two, so the decision is a shift of a value the driver already
/// drew.
pub const LATENCY_SAMPLE_PERIOD: u64 = 8;

/// Whether the transaction that drew `draw` from its thread's xorshift
/// stream is one of the timed ones: the top `log2(LATENCY_SAMPLE_PERIOD)`
/// bits are zero.  Pseudo-random rather than every eighth, because workloads
/// alternate operation kinds with small periods (`pc_*` has period two) and
/// a stride would hand one kind every sample.
#[inline]
pub(crate) fn latency_sampled(draw: u64) -> bool {
    draw >> (u64::BITS - LATENCY_SAMPLE_PERIOD.trailing_zeros()) == 0
}

/// A cheap fixed-bucket latency histogram: 32 log2 buckets of plain
/// relaxed counters holding the timed operations, plus one counter for the
/// operations that were counted without being timed.
///
/// Recording is one `leading_zeros` plus an owner-only load and store (the
/// one-writer rule of [`TxStats`]) — cheap enough for the driver's
/// per-transaction hot path.  The whole histogram is
/// wrapped in [`CachePadded`] inside [`TxStats`], so one thread's recording
/// never invalidates another thread's counter lines; buckets *within* a
/// thread's histogram deliberately share lines (only the owner writes them).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    untimed: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            untimed: AtomicU64::new(0),
        }
    }
}

/// The log2 bucket index for a sample of `nanos` nanoseconds.
#[inline]
fn bucket_for(nanos: u64) -> usize {
    let bits = (u64::BITS - nanos.leading_zeros()) as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    /// Records one sample of `nanos` nanoseconds (owner thread only).
    #[inline]
    pub fn record(&self, nanos: u64) {
        TxStats::bump(&self.buckets[bucket_for(nanos)]);
    }

    /// Counts one operation that was not timed (owner thread only).
    #[inline]
    pub fn record_untimed(&self) {
        TxStats::bump(&self.untimed);
    }

    /// A point-in-time copy of the bucket counts and the untimed count.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            untimed: self.untimed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], mergeable across threads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    buckets: [u64; LATENCY_BUCKETS],
    untimed: u64,
}

impl LatencySnapshot {
    /// Bucket-wise sum of two snapshots; the untimed counts add too.
    pub fn merge(&self, other: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            untimed: self.untimed + other.untimed,
        }
    }

    /// Exact number of operations the histogram saw, timed or not.
    pub fn count(&self) -> u64 {
        self.samples() + self.untimed
    }

    /// Number of timed operations: the samples the quantiles rank over.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// An upper bound (in nanoseconds) on the `q`-quantile timed sample,
    /// `0.0 < q <= 1.0`: the inclusive upper edge of the log2 bucket the
    /// quantile falls in.  Returns 0 when nothing was timed — check
    /// [`samples`](Self::samples) before reading that as a measurement.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.samples();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                // Bucket 0 holds only zero; the last bucket absorbs every
                // overflowing sample, so its upper edge is unbounded.
                return match i {
                    0 => 0,
                    i if i == LATENCY_BUCKETS - 1 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }
}

macro_rules! stats_fields {
    (
        counters { $($(#[$cdoc:meta])* $cname:ident),+ $(,)? }
        maxima { $($(#[$mdoc:meta])* $mname:ident),+ $(,)? }
        histograms { $($(#[$hdoc:meta])* $hname:ident),+ $(,)? }
    ) => {
        /// Live (atomic) per-thread counters, plus high-water marks.
        ///
        /// **One writer.**  Only the thread that owns the enclosing
        /// [`crate::thread::ThreadCtx`] updates these (every `bump`, `add`,
        /// `record_max` and histogram `record` in the workspace is handed the
        /// caller's own context), so an update is a relaxed load and a
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
            $($(#[$hdoc])* pub $hname: CachePadded<LatencyHistogram>,)+
        }

        /// A point-in-time copy of [`TxStats`], suitable for aggregation and
        /// serialization.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$cdoc])* pub $cname: u64,)+
            $($(#[$mdoc])* pub $mname: u64,)+
            $($(#[$hdoc])* pub $hname: LatencySnapshot,)+
        }

        impl TxStats {
            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname.load(Ordering::Relaxed),)+
                    $($mname: self.$mname.load(Ordering::Relaxed),)+
                    $($hname: self.$hname.snapshot(),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Combines two snapshots: event counters add, high-water marks
            /// take the larger value (a maximum across threads summed would
            /// overstate every per-transaction peak), histogram buckets add.
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname + other.$cname,)+
                    $($mname: self.$mname.max(other.$mname),)+
                    $($hname: self.$hname.merge(&other.$hname),)+
                }
            }

            /// Field names and values in declaration order, for serialization
            /// without a reflection framework.  Histograms are not included.
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
    /// Software-mode transactions committed.
    sw_commits,
    /// Software-mode transaction attempts aborted.
    sw_aborts,
    /// Hardware-mode transactions committed.
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
    /// Waiter-registry shards a committing writer skipped (either outside
    /// its write set's stripes, or empty at scan time).
    wake_shard_skips,
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
    histograms {
    /// Committed update transactions: whole-operation wall-clock latency
    /// (begin of the first attempt to commit, including aborted attempts and
    /// backoff) of a one-in-eight pseudo-random sample, exact operation
    /// count.
    update_tx_latency,
    /// Committed declared-read-only transactions: whole-operation
    /// wall-clock latency (including any upgrade and re-execution as an
    /// update transaction) of a one-in-eight pseudo-random sample, exact
    /// operation count.
    ro_tx_latency,
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
    fn histogram_buckets_by_log2_and_quantiles_bound_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile_upper_bound(0.5), 0);
        // 90 samples at ~100ns, 9 at ~10µs, 1 at ~1ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.quantile_upper_bound(0.50);
        let p99 = snap.quantile_upper_bound(0.99);
        let p999 = snap.quantile_upper_bound(0.999);
        assert!((100..1000).contains(&p50), "p50 bound {p50}");
        assert!((10_000..100_000).contains(&p99), "p99 bound {p99}");
        assert!(p999 >= 1_000_000, "p999 bound {p999}");
        assert!(p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn histogram_extremes_stay_in_range() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.quantile_upper_bound(0.25), 0, "zero lands in bucket 0");
        assert_eq!(snap.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn histograms_merge_bucket_wise_through_snapshots() {
        let a = TxStats::default();
        let b = TxStats::default();
        a.update_tx_latency.record(100);
        b.update_tx_latency.record(100);
        b.ro_tx_latency.record(50);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.update_tx_latency.count(), 2);
        assert_eq!(m.ro_tx_latency.count(), 1);
    }

    #[test]
    fn untimed_operations_count_but_do_not_rank() {
        let s = TxStats::default();
        for _ in 0..10 {
            s.update_tx_latency.record(100);
        }
        for _ in 0..90 {
            s.update_tx_latency.record_untimed();
        }
        let snap = s.snapshot().update_tx_latency;
        assert_eq!((snap.count(), snap.samples()), (100, 10));
        // The median ranks over the ten timed samples, all in the 100ns
        // bucket; ranked over `count()` it would run off the end.
        let p50 = snap.quantile_upper_bound(0.50);
        assert!((100..128).contains(&p50), "p50 bound {p50}");
        assert_eq!(snap.quantile_upper_bound(1.0), p50);

        let other = LatencyHistogram::default();
        other.record(100);
        other.record_untimed();
        let merged = snap.merge(&other.snapshot());
        assert_eq!((merged.count(), merged.samples()), (102, 11));
    }

    #[test]
    fn one_draw_in_eight_is_sampled() {
        assert!(latency_sampled(0));
        assert!(latency_sampled(u64::MAX >> 3));
        assert!(!latency_sampled(1 << 61));
        assert!(!latency_sampled(u64::MAX));
        let sampled = (0..LATENCY_SAMPLE_PERIOD)
            .filter(|top| latency_sampled(top << 61))
            .count();
        assert_eq!(sampled, 1);
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
