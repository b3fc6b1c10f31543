//! The attempt descriptor: every log one transaction attempt fills.

use std::sync::Arc;

use crate::addr::Addr;
use crate::stats::TxStats;
use crate::waitlist::Waiter;

use super::index_set::IndexSet;
use super::read_set::ReadSet;
use super::write_log::WriteLog;

/// The logs of one transaction attempt.
///
/// One descriptor is resident in every [`crate::thread::ThreadCtx`]; the
/// driver checks it out once per transaction
/// ([`crate::thread::ThreadCtx::checkout`]) and lends it by `&mut` to each
/// attempt, so an attempt constructs, locks and returns nothing: it fills
/// the containers, and [`Descriptor::reset`] empties them (capacity kept)
/// when the attempt commits or rolls back.  Each engine uses the subset its
/// design needs; the containers it never touches stay unallocated.
#[derive(Debug, Default)]
pub struct Descriptor {
    /// Validated reads with their orec stripes (software attempts).
    pub reads: ReadSet,
    /// The write log: redo entries on the lazy STM and on HTM hardware
    /// attempts, undo entries on the eager STM and on the serial rung of
    /// every runtime ([`crate::serial::SerialAttempt`]).
    pub writes: WriteLog,
    /// The `Retry` value log (first observed value per address), filled
    /// only in [`crate::tx::TxMode::SoftwareRetry`].  Not touched by
    /// [`Descriptor::reset`]: it spans a `commit_and_wait`, and the driver
    /// clears it when it begins a value-logging attempt.
    pub waitset: WriteLog,
    /// Ownership records held by an eager-STM attempt.
    pub locks: IndexSet,
    /// Directory slots a hardware attempt registered as read.
    pub read_slots: IndexSet,
    /// Directory slots a hardware attempt registered as written.
    pub write_slots: IndexSet,
    /// Transactional allocations, undone on abort.
    pub mallocs: Vec<(Addr, usize)>,
    /// Deferred frees, performed at commit.
    pub frees: Vec<(Addr, usize)>,
    /// Stripe cover of the attempt's writer commit, written by the engine's
    /// commit path and read by the driver's wake path.  Survives
    /// [`Descriptor::reset`].
    pub cover: Vec<usize>,
    /// Scratch of the post-commit wake path (`driver::wake`), kept here so
    /// that it is reused across commits like the logs are: the waiters a scan
    /// gathered.  Taken out while in use and handed back empty, like `cover`.
    pub wake_candidates: Vec<Arc<Waiter>>,
    /// Scratch of a predicate wake check: the stripes its evaluation read.
    pub pred_footprint: Vec<usize>,
    /// True once an attempt has logged an access here, i.e. later attempts
    /// start on grown containers (what `log_pool_reuses` counts).
    grown: bool,
}

impl Descriptor {
    /// True if an earlier attempt already grew this descriptor's containers.
    #[inline]
    pub fn grown(&self) -> bool {
        self.grown
    }

    /// Ends an attempt: records the read/write-set high-water marks in
    /// `stats` and empties every per-attempt container, keeping capacity.
    /// Hardware attempts count read *lines* (`read_slots`), as before.
    pub fn reset(&mut self, stats: &TxStats) {
        let reads = self.reads.len().max(self.read_slots.len());
        let writes = self.writes.len();
        TxStats::record_max(&stats.read_set_max, reads as u64);
        TxStats::record_max(&stats.write_set_max, writes as u64);
        self.grown |= reads + writes + self.locks.len() != 0;
        self.clear();
    }

    /// Empties every per-attempt container, keeping capacity.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.locks.clear();
        self.read_slots.clear();
        self.write_slots.clear();
        self.mallocs.clear();
        self.frees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_records_high_water_marks_and_keeps_capacity() {
        let stats = TxStats::default();
        let mut d = Descriptor::default();
        assert!(!d.grown());
        d.reset(&stats);
        assert!(!d.grown(), "an attempt that logged nothing grew nothing");
        for i in 0..10 {
            d.reads.record(Addr(i), i);
        }
        d.writes.record(Addr(1), 1, || 0);
        d.writes.record(Addr(2), 2, || 0);
        d.waitset.record_first(Addr(1), 7, || 0);
        d.cover.push(3);
        let cap = d.reads.capacity();
        d.reset(&stats);
        let snap = stats.snapshot();
        assert_eq!((snap.read_set_max, snap.write_set_max), (10, 2));
        assert!(d.grown());
        assert!(d.reads.is_empty() && d.writes.is_empty());
        assert_eq!(d.reads.capacity(), cap);
        assert_eq!(d.waitset.len(), 1, "the value log outlives a reset");
        assert_eq!(d.cover, vec![3], "the commit cover outlives a reset");
    }

    #[test]
    fn hardware_read_lines_feed_the_read_set_mark() {
        let stats = TxStats::default();
        let mut d = Descriptor::default();
        d.read_slots.insert(4);
        d.read_slots.insert(9);
        d.reset(&stats);
        assert_eq!(stats.snapshot().read_set_max, 2);
    }
}
