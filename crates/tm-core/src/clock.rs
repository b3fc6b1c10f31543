//! The version clock shared by all transactions.
//!
//! As in TL2 and TinySTM (paper Appendix A, Algorithms 8–11), one
//! monotonically increasing counter orders writer commits: ownership
//! records store the clock value at which their stripe was last unlocked,
//! and readers compare those versions against the clock value sampled at
//! transaction begin.  Every writer commit `fetch_add`s the counter
//! (`end ← atomicIncrement(clock)` in Algorithm 9), so timestamps are
//! globally unique, which enables the `end == start + 1` "nobody else
//! committed" validation skip.
//!
//! # The invariant quiescence relies on
//!
//! Every transaction that begins after a writer commit's tick starts at or
//! above that commit's timestamp: the tick is an `AcqRel` read-modify-write
//! of the one counter every begin samples.  The tick happens before the
//! commit epilogue's [`crate::system::TmSystem::quiesce`], so while the
//! committer waits, a thread whose published start time is below its
//! timestamp sampled the clock before the tick and will eventually leave,
//! and every begin that samples it afterwards publishes a start the wait
//! already accepts.  That bounds the privatization wait.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;
use crate::stats::TxStats;

/// The version clock: one shared counter, padded so neighbours in
/// `TmSystem` don't share its line.
#[derive(Debug, Default)]
pub struct ClockPlane {
    value: CachePadded<AtomicU64>,
}

impl ClockPlane {
    /// Creates a clock starting at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the current time (used at transaction begin).
    #[inline]
    pub fn now(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Atomically increments the counter and returns the *new* value.
    ///
    /// This is the commit path and the serial gate's release fence: a gate
    /// release is globally visible as a clock advance immediately.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.value.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Hands a committing writer its unique timestamp (one tick, counted in
    /// `clock_cas`).
    ///
    /// Called **after** the writer has acquired every ownership record it
    /// will stamp — encounter-time locks in the eager STM, the sorted
    /// commit-time cover in the lazy STM, the coupled CAS cover in the
    /// hardware runtimes.
    #[inline]
    pub fn commit_stamp(&self, stats: &TxStats) -> u64 {
        TxStats::bump(&stats.clock_cas);
        self.tick()
    }

    /// The clock side of an eager-STM rollback that bumped orec versions
    /// (Algorithm 11, line 5).
    ///
    /// The eager STM releases rolled-back stripes at `version + 1` so
    /// readers that raced the undo can't validate against torn data; the
    /// tick keeps those inflated versions covered by the clock.
    #[inline]
    pub fn rollback_bump(&self, stats: &TxStats) {
        self.tick();
        TxStats::bump(&stats.clock_cas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero() {
        assert_eq!(ClockPlane::new().now(), 0);
    }

    #[test]
    fn tick_returns_new_value() {
        let c = ClockPlane::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn ticks_are_unique_across_threads() {
        let c = Arc::new(ClockPlane::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "every tick must be unique");
        assert_eq!(c.now(), 4000);
    }

    #[test]
    fn commit_stamp_is_a_counted_tick() {
        let c = ClockPlane::new();
        let stats = TxStats::default();
        assert_eq!(c.commit_stamp(&stats), 1);
        assert_eq!(c.now(), 1);
        assert_eq!(stats.snapshot().clock_cas, 1);
    }

    #[test]
    fn rollback_bump_is_a_counted_tick() {
        let c = ClockPlane::new();
        let stats = TxStats::default();
        c.rollback_bump(&stats);
        assert_eq!(c.now(), 1);
        assert_eq!(stats.snapshot().clock_cas, 1);
    }
}
