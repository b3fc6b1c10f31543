//! The shared transaction access-set layer.
//!
//! The paper's Appendix A algorithms treat each transaction's read set,
//! write log and lock set as abstract sets; this module is their one
//! concrete implementation, shared by all four runtimes:
//!
//! * [`ReadSet`] — deduplicating append with cached orec stripes and a
//!   distinct-stripe cover accumulated in O(1) per read and sorted at most
//!   once per attempt (no re-deriving the cover from the full address list
//!   at deschedule time, no re-hash at validation time),
//! * [`WriteLog`] — insertion-ordered entries with an open-addressed hash
//!   index: O(1) read-after-write lookup and "have I written this address"
//!   tests for redo logs, undo logs and the `Retry` value log alike,
//! * [`IndexSet`] — insertion-ordered, O(1)-membership sets of small
//!   indices (orec lock sets, HTM line-slot sets),
//! * [`Descriptor`] — one of each, resident in every
//!   [`crate::thread::ThreadCtx`] and lent by `&mut` to each attempt, so a
//!   re-executed attempt (and the thread's next transaction) starts on the
//!   previous one's capacity without constructing or returning anything,
//! * [`LogPool`] — a standalone mutex-guarded recycler of read sets for
//!   callers outside the driver; no attempt path uses it.
//!
//! Exactly the workloads the paper cares about — large transactions that
//! block, roll back and re-execute under condition synchronization — used
//! to pay O(log size) per read-after-write and a full sort+dedup per
//! deschedule on the flat `Vec` logs these types replace.

mod descriptor;
mod index;
mod index_set;
mod pool;
mod read_set;
mod write_log;

pub use descriptor::Descriptor;
pub use index_set::IndexSet;
pub use pool::{LogPool, Taken};
pub use read_set::{ReadEntry, ReadSet};
pub use write_log::{WriteEntry, WriteLog};

use crate::orec::OrecTable;

/// True if every stripe in `cover` is unlocked and no newer than `start`.
///
/// The shared validity check behind `Retry-Orig`'s wait condition
/// ([`crate::WaitCondition::LocksMoved`]) and [`ReadSet::valid_at`]; the
/// runtimes previously each carried their own copy (`reads_valid_at`).
pub fn cover_valid_at(orecs: &OrecTable, cover: &[usize], start: u64) -> bool {
    cover.iter().all(|&idx| {
        let o = orecs.load(idx);
        !o.is_locked() && o.version() <= start
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orec::OrecValue;

    #[test]
    fn cover_valid_at_matches_per_stripe_state() {
        let orecs = OrecTable::new(32);
        assert!(cover_valid_at(&orecs, &[0, 1, 2], 0));
        orecs.store(1, OrecValue::unlocked(7));
        assert!(!cover_valid_at(&orecs, &[0, 1, 2], 6));
        assert!(cover_valid_at(&orecs, &[0, 1, 2], 7));
        orecs.store(2, OrecValue::locked(0, 3));
        assert!(!cover_valid_at(&orecs, &[2], 100));
        assert!(cover_valid_at(&orecs, &[], 0), "empty cover is valid");
    }
}
