//! Transaction control flow: abort reasons, deschedule requests, and wait
//! conditions.
//!
//! Transaction bodies are closures returning [`TxResult`].  Returning
//! `Err(TxCtl::…)` unwinds to the runtime's driver loop, which rolls the
//! transaction back and then acts on the control request: re-execute
//! (abort), switch execution mode (HTM → software), or deschedule the
//! thread via the condition-synchronization layer.
//!
//! This mirrors the paper's structure: `Retry`, `Await` and `WaitPred` all
//! reduce to a rollback followed by `Deschedule(f, p)` (Algorithm 4), where
//! `f(p)` is a predicate over shared state that decides whether the thread
//! should wake.

use crate::access::cover_valid_at;
use crate::addr::Addr;
use crate::orec::OrecTable;
use crate::system::TmSystem;
use crate::tx::Tx;

/// Why a transaction attempt failed and must be re-executed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// A read observed a locked or too-new ownership record.
    ReadConflict,
    /// A write could not acquire an ownership record.
    WriteConflict,
    /// Commit-time validation of the read set failed.
    CommitValidation,
    /// The (simulated) hardware transaction was doomed by a conflicting
    /// access from another processor.
    HwConflict,
    /// The (simulated) hardware transaction overflowed its read or write
    /// capacity.
    HwCapacity,
    /// The fallback lock was acquired by another thread while a hardware
    /// transaction was in flight.
    HwFallbackLock,
    /// The hardware transaction aborted for an environmental reason with no
    /// data cause — an interrupt, an unfriendly instruction, or an abort
    /// manufactured by the fault-injection plane.  Not contention: the
    /// driver re-executes immediately without backing off, though the abort
    /// still spends hardware retry budget (`CmHistory::hw_failures`), so a
    /// persistent spurious-abort storm degrades to software like any other
    /// hardware failure.
    HwSpurious,
    /// The program requested an explicit abort with an 8-bit code
    /// (Intel `xabort`-style); used by the `Restart` baseline and by the
    /// WaitPred fast path discussed in §2.2.6.
    Explicit(u8),
    /// A speculative read-only snapshot attempt issued a write (or an
    /// allocation).  Not a conflict: the driver upgrades the transaction to
    /// a full update attempt and re-executes immediately, without contention
    /// management or backoff.
    ReadOnlyWrite,
    /// The heap allocator was exhausted inside a transaction.
    OutOfMemory,
}

impl AbortReason {
    /// True for aborts caused by data conflicts (as opposed to explicit or
    /// capacity aborts).
    pub fn is_conflict(self) -> bool {
        matches!(
            self,
            AbortReason::ReadConflict
                | AbortReason::WriteConflict
                | AbortReason::CommitValidation
                | AbortReason::HwConflict
        )
    }

    /// True for aborts where retrying immediately is likely to collide with
    /// the same contending thread again, so the driver should back off:
    /// data conflicts plus the fallback-lock abort (another thread holds the
    /// serial lock and will keep dooming speculative attempts until it is
    /// done).
    pub fn is_contention(self) -> bool {
        self.is_conflict() || matches!(self, AbortReason::HwFallbackLock)
    }
}

/// A control-flow request propagated out of a transaction body.
#[derive(Clone, Debug)]
pub enum TxCtl {
    /// Roll back and re-execute the transaction.
    Abort(AbortReason),
    /// Roll back, publish a wait condition, and put the thread to sleep until
    /// a later writer establishes that re-execution may be worthwhile
    /// (the paper's `Deschedule`).
    Deschedule(WaitSpec),
    /// The transaction is running in hardware and needs a facility hardware
    /// cannot provide (escape actions for descheduling, value logging for
    /// `Retry`); roll back and re-execute in a software mode.
    SwitchToSoftware,
    /// The transaction must re-execute serially (irrevocably), e.g. a
    /// hardware transaction that exhausted its retry budget.
    BecomeSerial,
}

impl From<AbortReason> for TxCtl {
    fn from(reason: AbortReason) -> Self {
        TxCtl::Abort(reason)
    }
}

/// Result type used by transaction bodies and instrumentation.
pub type TxResult<T> = Result<T, TxCtl>;

/// A user-supplied wake-up predicate: evaluated transactionally over shared
/// state, with the arguments the waiter marshalled into its wait record.
///
/// Returning `Ok(true)` means "the waiter should (re)run".
///
/// **Contract.**  The result must be a deterministic function of `args` and
/// of the words the predicate reads *through `tx`* — nothing else: no direct
/// heap loads, no clocks, no state outside the transactional heap.  A
/// sleeping predicate is re-evaluated only by commits that wrote a stripe
/// its last evaluation read (it is registered under exactly those stripes,
/// and re-registered when they change), so a predicate whose answer can
/// change without one of those words changing may sleep through the change.
/// The one exception is a predicate that reads nothing transactionally:
/// having no footprint to index, it is evaluated after every writer commit.
pub type PredFn = fn(&mut dyn Tx, &[u64]) -> TxResult<bool>;

/// What a descheduling transaction asks to wait for.
///
/// The runtime's rollback path converts a `WaitSpec` into a concrete
/// [`WaitCondition`] (reading memory where necessary) before handing it to
/// the condition-synchronization layer.
#[derive(Clone, Debug)]
pub enum WaitSpec {
    /// Wait until some location in the transaction's logged read set changes
    /// value (`Retry`, Algorithm 5).  The value log lives in
    /// [`crate::access::Descriptor::waitset`]; the runtime drains it into
    /// the materialised condition's `(addr, value)` pairs, leaving the
    /// log's capacity for the re-executed attempt.
    ReadSetValues,
    /// Wait until one of the given addresses changes value (`Await`,
    /// Algorithm 6).  The runtime captures the pre-transaction values of
    /// these addresses *after* rolling back writes, while still holding its
    /// locks, so the captured snapshot is consistent with the aborted
    /// transaction's view.
    Addrs(Vec<Addr>),
    /// Wait until the predicate returns true (`WaitPred`, Algorithm 7).
    Pred {
        /// The predicate function.
        f: PredFn,
        /// Arguments marshalled by value into the wait record (the paper
        /// cannot reference transactionally-written objects because those
        /// writes are undone).
        args: Vec<u64>,
    },
    /// Wait according to the *original* Retry mechanism (Algorithm 1): the
    /// waiter is woken by any committing writer whose lock set intersects
    /// the ownership records covering its read set — materialised as
    /// [`WaitCondition::LocksMoved`] (a serial attempt logs values instead).
    ///
    /// It exists as the `Retry-Orig` baseline the paper compares against.
    OrigReadLocks,
}

impl WaitSpec {
    /// A short human-readable label for statistics and tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            WaitSpec::ReadSetValues => "retry",
            WaitSpec::Addrs(_) => "await",
            WaitSpec::Pred { .. } => "waitpred",
            WaitSpec::OrigReadLocks => "retry-orig",
        }
    }
}

/// The materialised condition a sleeping thread waits on.
///
/// Writers evaluate this after they commit (`wakeWaiters`, Algorithm 4), as
/// an ordinary read-only transaction over shared memory — which is what makes
/// the mechanism HTM-friendly.
#[derive(Clone, Debug)]
pub enum WaitCondition {
    /// Wake when any `(addr, value)` pair no longer matches memory
    /// (`findChanges`, Algorithm 5).  Immune to silent stores: rewriting the
    /// same value does not wake the waiter.
    ValuesChanged(Vec<(Addr, u64)>),
    /// Wake when the predicate evaluates to true.
    Pred {
        /// The predicate function.
        f: PredFn,
        /// Arguments captured at deschedule time.
        args: Vec<u64>,
    },
    /// Wake when a stripe of `cover` is locked or newer than `start`, or a
    /// serial section has committed a write since (`Retry-Orig`, Algorithm
    /// 1).  Checked on the metadata, not in a transaction; like Algorithm 1
    /// and unlike `ValuesChanged`, woken by silent stores.
    LocksMoved {
        /// The attempt's read-set orec stripes, sorted.
        cover: Vec<usize>,
        /// The attempt's start time.
        start: u64,
        /// The serial gate's count of writer commits while the attempt ran:
        /// serial writes bypass the orecs, so this is how they are seen.
        serial: u64,
    },
}

impl WaitCondition {
    /// Evaluates the condition inside the given transaction; `Ok(true)` means
    /// the waiter should be woken.
    pub fn should_wake(&self, tx: &mut dyn Tx) -> TxResult<bool> {
        match self {
            WaitCondition::ValuesChanged(pairs) => {
                for &(addr, val) in pairs {
                    if tx.read(addr)? != val {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            WaitCondition::Pred { f, args } => f(tx, args),
            WaitCondition::LocksMoved { .. } => Ok(self.locks_moved(tx.system())),
        }
    }

    /// True if this is a [`WaitCondition::LocksMoved`] that holds in
    /// `system`; false for every other condition.
    pub(crate) fn locks_moved(&self, system: &TmSystem) -> bool {
        matches!(self, WaitCondition::LocksMoved { cover, start, serial }
            if !cover_valid_at(&system.orecs, cover, *start)
                || system.serial.writer_commits() != *serial)
    }

    /// A short human-readable label for statistics and tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            WaitCondition::ValuesChanged(_) => "values",
            WaitCondition::Pred { .. } => "pred",
            WaitCondition::LocksMoved { .. } => "locks",
        }
    }

    /// Number of locations / arguments / stripes tracked.
    pub fn tracked(&self) -> usize {
        match self {
            WaitCondition::ValuesChanged(pairs) => pairs.len(),
            WaitCondition::Pred { args, .. } => args.len(),
            WaitCondition::LocksMoved { cover, .. } => cover.len(),
        }
    }

    /// The ownership-record stripes covering every address this condition
    /// names, sorted and deduplicated — for `LocksMoved`, its cover.  Empty
    /// for predicate conditions, which name none: their stripes are the ones
    /// an evaluation reads, which the wait protocol records (`driver::wake`).
    ///
    /// This is the indexing side of the no-lost-wakeups invariant: the
    /// waiter registers under exactly these stripes, and committing writers
    /// scan (a superset of) the stripes they wrote through the same hash.
    pub fn stripes(&self, orecs: &OrecTable) -> Vec<usize> {
        match self {
            WaitCondition::ValuesChanged(pairs) => {
                let mut stripes: Vec<usize> = pairs
                    .iter()
                    .map(|&(addr, _)| orecs.index_for(addr))
                    .collect();
                stripes.sort_unstable();
                stripes.dedup();
                stripes
            }
            WaitCondition::Pred { .. } => Vec::new(),
            WaitCondition::LocksMoved { cover, .. } => cover.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_classification() {
        assert!(AbortReason::ReadConflict.is_conflict());
        assert!(AbortReason::CommitValidation.is_conflict());
        assert!(!AbortReason::Explicit(3).is_conflict());
        assert!(!AbortReason::HwCapacity.is_conflict());
        assert!(!AbortReason::HwSpurious.is_conflict());
        assert!(!AbortReason::ReadOnlyWrite.is_conflict());
    }

    #[test]
    fn waitspec_kinds() {
        assert_eq!(WaitSpec::ReadSetValues.kind(), "retry");
        assert_eq!(WaitSpec::Addrs(vec![]).kind(), "await");
        fn p(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(true)
        }
        assert_eq!(WaitSpec::Pred { f: p, args: vec![] }.kind(), "waitpred");
    }

    #[test]
    fn waitcondition_tracked_counts() {
        let c = WaitCondition::ValuesChanged(vec![(Addr(1), 0), (Addr(2), 5)]);
        assert_eq!(c.tracked(), 2);
        assert_eq!(c.kind(), "values");
    }

    #[test]
    fn contention_classification_includes_fallback_lock() {
        assert!(AbortReason::HwFallbackLock.is_contention());
        assert!(!AbortReason::HwFallbackLock.is_conflict());
        assert!(AbortReason::WriteConflict.is_contention());
        assert!(!AbortReason::HwCapacity.is_contention());
        assert!(!AbortReason::HwSpurious.is_contention());
        assert!(!AbortReason::Explicit(1).is_contention());
        assert!(!AbortReason::ReadOnlyWrite.is_contention());
    }

    #[test]
    fn condition_stripes_follow_the_orec_hash() {
        let orecs = OrecTable::new(256);
        let c = WaitCondition::ValuesChanged(vec![(Addr(10), 0), (Addr(99), 5), (Addr(10), 7)]);
        let stripes = c.stripes(&orecs);
        let mut expected = vec![orecs.index_for(Addr(10)), orecs.index_for(Addr(99))];
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(stripes, expected);

        fn p(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(true)
        }
        let pred = WaitCondition::Pred { f: p, args: vec![] };
        assert!(
            pred.stripes(&orecs).is_empty(),
            "predicates name no address"
        );
    }
}
