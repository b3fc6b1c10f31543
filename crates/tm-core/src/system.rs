//! The shared transactional-memory system instance.
//!
//! A [`TmSystem`] bundles everything the runtimes share: the heap, the
//! ownership-record table, the global clock, the thread registry, and the
//! one waiter registry every sleeper waits on.  All three runtimes (eager STM,
//! lazy STM, HTM simulator) can be layered over the *same* system instance,
//! which is how Hybrid-TM-style mixing would work; the evaluation uses one
//! runtime per experiment, as the paper does.

use std::sync::Arc;

use crate::backoff::SpinWait;
use crate::clock::ClockPlane;
use crate::config::TmConfig;
use crate::heap::TmHeap;
use crate::orec::OrecTable;
use crate::serial::SerialGate;
use crate::stats::TxStats;
use crate::thread::{ThreadCtx, ThreadRegistry, NOT_IN_TX};
use crate::timer::TimerWheel;
use crate::waitlist::WaitList;

/// A complete transactional-memory system: memory, metadata, threads and
/// waiters.
#[derive(Debug)]
pub struct TmSystem {
    /// Configuration the system was built with.
    pub config: TmConfig,
    /// The word-addressable transactional heap.
    pub heap: TmHeap,
    /// Ownership records (software runtimes only; hardware transactions do
    /// not touch them, which is the crux of the paper's compatibility
    /// argument).
    pub orecs: OrecTable,
    /// The version clock (Algorithm 9's shared counter).
    pub clock: ClockPlane,
    /// Registry of worker threads.
    pub threads: ThreadRegistry,
    /// Sharded, address-indexed registry of descheduled (sleeping)
    /// transactions, keyed by ownership-record stripe — every mechanism's,
    /// the `Retry-Orig` baseline's included.  Owned here so every committer
    /// over this system sees every sleeper.
    pub waiters: WaitList,
    /// Hashed timer wheel delivering deadlines to timed waits; driven lazily
    /// by committing and spinning threads (no background ticker).
    pub timers: TimerWheel,
    /// The system-wide serial/irrevocable gate every engine honors (the
    /// HTM fallback lock, lifted out of the simulator; see
    /// [`crate::serial`]).
    pub serial: SerialGate,
}

impl TmSystem {
    /// Builds a system from `config`.
    pub fn new(config: TmConfig) -> Arc<Self> {
        Arc::new(TmSystem {
            heap: TmHeap::new(config.heap_words, config.max_threads),
            orecs: OrecTable::new_sharded(config.orec_count, config.orec_shards),
            clock: ClockPlane::new(),
            threads: ThreadRegistry::with_capacity(config.max_threads),
            waiters: WaitList::new(config.wake_shards),
            timers: TimerWheel::new(config.timer),
            serial: SerialGate::new(),
            config,
        })
    }

    /// Registers the calling thread and returns its context.
    pub fn register_thread(&self) -> Arc<ThreadCtx> {
        self.threads.register()
    }

    /// Privatization-safety quiescence (Appendix A, `quiesce()`):
    /// after committing at `commit_time`, wait until no other thread is still
    /// executing a transaction that started before that time.
    ///
    /// Runs as a lock-free scan over the padded epoch table — no registry
    /// lock, no snapshot allocation, one isolated cache line per thread
    /// polled.  Writers call this after their commit tick, so every later
    /// begin starts at or above `commit_time`, which is what bounds the
    /// wait (see [`crate::clock`]).
    ///
    /// No-op when disabled in the configuration.
    pub fn quiesce(&self, me: &ThreadCtx, commit_time: u64) {
        if !self.config.quiescence {
            return;
        }
        let epochs = self.threads.epochs();
        let n = epochs.len();
        for id in 0..n {
            if id == me.id {
                continue;
            }
            let slot = epochs.slot(id);
            let mut spin = SpinWait::new();
            loop {
                let s = slot.start();
                if s == NOT_IN_TX || s >= commit_time {
                    break;
                }
                spin.pause();
            }
        }
        TxStats::add(&me.stats.quiesce_scans, n.saturating_sub(1) as u64);
    }

    /// Aggregated statistics across all registered threads, overlaid with
    /// the system-owned memory-plane counters (orec CAS failures live on
    /// the shards, not in any thread's context).
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        let mut snap = self.threads.aggregate_stats();
        snap.orec_cas_failures = self.orecs.cas_failure_total();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::config::TmConfig;

    #[test]
    fn construction_wires_up_components() {
        let s = TmSystem::new(TmConfig::small());
        assert_eq!(s.heap.len(), TmConfig::small().heap_words);
        assert!(s.orecs.len() >= TmConfig::small().orec_count);
        assert_eq!(s.clock.now(), 0);
        assert!(s.waiters.is_empty());
        assert!(s.timers.idle());
        assert_eq!(s.timers.slot_count(), TmConfig::small().timer.slots);
        assert!(!s.serial.held());
        assert_eq!(s.config.policy, crate::policy::PolicyKind::Fixed);
        assert_eq!(s.orecs.shard_count(), TmConfig::small().orec_shards);
        let sharded = TmSystem::new(TmConfig::small().with_orec_shards(8));
        assert_eq!(sharded.orecs.shard_count(), 8);
    }

    #[test]
    fn stats_overlay_the_orec_contention_counters() {
        use crate::orec::OrecValue;
        let s = TmSystem::new(TmConfig::small());
        let _th = s.register_thread();
        let idx = s.orecs.index_for(Addr(7));
        let cur = s.orecs.load(idx);
        assert!(!s
            .orecs
            .cas(idx, OrecValue::unlocked(cur.version() + 9), cur));
        assert_eq!(s.stats().orec_cas_failures, 1);
    }

    #[test]
    fn register_thread_assigns_ids() {
        let s = TmSystem::new(TmConfig::small());
        let a = s.register_thread();
        let b = s.register_thread();
        assert_ne!(a.id, b.id);
        assert_eq!(s.threads.len(), 2);
    }

    #[test]
    fn quiesce_with_no_other_threads_returns_immediately() {
        let s = TmSystem::new(TmConfig::small());
        let me = s.register_thread();
        s.quiesce(&me, 100);
    }

    #[test]
    fn quiesce_waits_for_older_transactions() {
        let s = TmSystem::new(TmConfig::small());
        let me = s.register_thread();
        let other = s.register_thread();
        other.enter_tx(5);
        let s2 = Arc::clone(&s);
        let other2 = Arc::clone(&other);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            s2.heap.store(Addr(1), 1);
            other2.exit_tx();
        });
        // Commit time 10 > other's start 5, so quiesce must block until the
        // helper thread publishes its exit.
        s.quiesce(&me, 10);
        assert_eq!(
            s.heap.load(Addr(1)),
            1,
            "quiesce returned before the older tx finished"
        );
        h.join().unwrap();
    }

    #[test]
    fn quiesce_disabled_does_not_block() {
        let s = TmSystem::new(TmConfig::small().without_quiescence());
        let me = s.register_thread();
        let other = s.register_thread();
        other.enter_tx(1);
        // Would deadlock if quiescence were enabled, since nobody ever calls
        // exit_tx for `other`.
        s.quiesce(&me, 10);
    }

    #[test]
    fn quiesce_counts_scans_over_other_threads() {
        let s = TmSystem::new(TmConfig::small());
        let me = s.register_thread();
        let _a = s.register_thread();
        let _b = s.register_thread();
        s.quiesce(&me, 1);
        assert_eq!(me.stats.snapshot().quiesce_scans, 2);
    }
}
