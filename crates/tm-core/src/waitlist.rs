//! The sharded, address-indexed registry of descheduled (sleeping)
//! transactions.
//!
//! This is the `waiting` list of Algorithms 1 and 4, scaled for heavy
//! traffic.  A thread that deschedules publishes a [`Waiter`] record carrying
//! its wake-up condition and an `asleep` flag; committing writers evaluate
//! each *relevant* waiter's condition in a read-only transaction and signal
//! the waiter's semaphore if the condition holds.
//!
//! The original reproduction kept one global `Mutex<Vec<Arc<Waiter>>>`, so
//! every writer commit scanned *every* sleeper — O(all sleepers) per commit
//! under a single lock.  Every address hashes to an ownership-record stripe
//! ([`crate::orec::OrecTable::index_for`]), so the registry is **sharded by
//! stripe**: a waiter is registered under every stripe of its wait
//! condition's footprint, and a committing writer looks only at the shards
//! of the stripes it actually wrote, and within them only at the waiters
//! registered under exactly those stripes.  `Retry`/`Await` conditions are
//! address sets, so their footprint is known when they deschedule; a
//! `WaitPred` predicate's footprint is the set of stripes it read when it
//! was last evaluated, which `driver::wake` records and keeps published
//! ([`WaitList::extend`]).  The *overflow* shard ([`UNINDEXED`]) holds the
//! waiters that have no usable footprint — a predicate that read nothing, or
//! one whose footprint is too wide or will not settle — and is the only shard
//! every writer scans.  Writers whose write sets are invisible (the HTM
//! serial fallback) pass [`WakeSet::All`] and scan every shard.
//!
//! Two invariants carry over from the paper and must be preserved by every
//! caller:
//!
//! * **No lost wakeups** — a waiter is registered under every stripe covering
//!   an address whose change could establish its condition, and writers
//!   report (a superset of) the stripes they wrote.  Registration before the
//!   double-check in `deschedule` closes the publish/commit race exactly as
//!   Algorithm 4 requires; sharding does not widen the window because each
//!   shard's mutex orders registration against the scan.
//! * **Free fast path** — whoever wins a waiter's claim
//!   ([`WaitList::claim`]) deregisters it before posting, so the registry
//!   holds only sleepers that still need a wake.  The common case of no
//!   *unclaimed* sleeper costs committing writers a single atomic load of
//!   the global count, so in-flight (hardware) transactions pay nothing for
//!   the mechanism — including the commits a waker makes between posting a
//!   sleeper and that sleeper running again.  With waiters registered, a
//!   commit none of them covers costs one count load per written stripe: no
//!   lock, no buffer, no allocation.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::lock::Mutex;
use crate::pad::CachePadded;

use crate::ctl::WaitCondition;
use crate::sem::Semaphore;
use crate::thread::ThreadId;

/// Why a descheduled (sleeping) transaction was re-scheduled.
///
/// Exactly one reason is recorded per sleep: the first caller of
/// [`Waiter::claim`] wins, every later claim fails, and the sleeper reads the
/// recorded reason after its semaphore wait returns.  The reason is then
/// handed to the re-executed transaction through
/// [`crate::tx::TxCommon::wake_reason`], so a timed wait can distinguish
/// "my condition was established" from "my deadline passed" from "someone
/// cancelled me".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum WakeReason {
    /// A committing writer (or the deschedule double-check) found the wait
    /// condition established.
    Woken = 1,
    /// The waiter's deadline passed before the condition was established
    /// (delivered by the timer wheel, a committing writer's lazy poll, or
    /// the sleeper's own semaphore timeout).
    Timeout = 2,
    /// Another thread cancelled the wait (`condsync::cancel`).
    Cancelled = 3,
}

impl WakeReason {
    /// A short human-readable label for statistics and tracing.
    pub fn label(self) -> &'static str {
        match self {
            WakeReason::Woken => "woken",
            WakeReason::Timeout => "timeout",
            WakeReason::Cancelled => "cancelled",
        }
    }
}

/// `Waiter::state` value while the waiter still needs to be woken; any other
/// value is the `WakeReason` discriminant that claimed it.
const ASLEEP: u8 = 0;

/// The pseudo-stripe of the overflow shard, which every writer scans: where
/// a waiter with no usable address footprint is registered.
pub const UNINDEXED: usize = usize::MAX;

/// A published record of a sleeping (descheduled) transaction.
#[derive(Debug)]
pub struct Waiter {
    /// The descheduled thread.
    pub thread: ThreadId,
    /// [`ASLEEP`] while the thread still needs to be woken, otherwise the
    /// discriminant of the [`WakeReason`] that claimed it.  Transitions away
    /// from [`ASLEEP`] exactly once (compare-and-swap in [`Waiter::claim`]),
    /// so a waiter is signalled at most once per sleep and the recorded
    /// reason never changes afterwards.
    state: AtomicU8,
    /// The condition under which the thread should be re-scheduled.
    pub condition: WaitCondition,
    /// Semaphore the thread blocks on.
    pub sem: Arc<Semaphore>,
    /// The instant after which the wait should resolve as
    /// [`WakeReason::Timeout`]; `None` for unbounded waits.
    pub deadline: Option<Instant>,
    /// The stripes this waiter is registered under ([`UNINDEXED`] for the
    /// overflow shard), in publication order; empty while unregistered.
    /// Written only by [`WaitList`] and grow-only between
    /// [`WaitList::register`] and [`WaitList::remove`], so the waiter is the
    /// one owner of where it is registered: nobody else keeps a copy that
    /// has to mirror it.
    registered: Mutex<Vec<usize>>,
    /// `registered.len()`, readable without the lock ([`Waiter::published`]).
    published: AtomicUsize,
}

impl Waiter {
    /// Creates a new unbounded waiter record (initially marked asleep).
    pub fn new(thread: ThreadId, condition: WaitCondition, sem: Arc<Semaphore>) -> Arc<Self> {
        Waiter::with_deadline(thread, condition, sem, None)
    }

    /// Creates a waiter record carrying an optional expiry deadline.
    pub fn with_deadline(
        thread: ThreadId,
        condition: WaitCondition,
        sem: Arc<Semaphore>,
        deadline: Option<Instant>,
    ) -> Arc<Self> {
        Arc::new(Waiter {
            thread,
            state: AtomicU8::new(ASLEEP),
            condition,
            sem,
            deadline,
            registered: Mutex::new(Vec::new()),
            published: AtomicUsize::new(0),
        })
    }

    /// Attempts to claim the right to wake this waiter with the given
    /// reason; returns true for exactly one caller across all reasons.
    ///
    /// A claimant that holds the system claims through [`WaitList::claim`]
    /// instead, which also takes the waiter out of the registry, so later
    /// commits do not scan a sleeper that no longer needs a wake.  This bare
    /// form is for the claimants that do not hold the registry (a cancel by
    /// waiter handle, the timer wheel); the sleeper's own post-wake
    /// [`WaitList::remove`] deregisters after them.
    pub fn claim(&self, reason: WakeReason) -> bool {
        self.state
            .compare_exchange(ASLEEP, reason as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// True if the waiter has not yet been claimed for wake-up.
    pub fn is_asleep(&self) -> bool {
        self.state.load(Ordering::Acquire) == ASLEEP
    }

    /// The reason this waiter was claimed, or `None` while still asleep.
    pub fn wake_reason(&self) -> Option<WakeReason> {
        match self.state.load(Ordering::Acquire) {
            ASLEEP => None,
            x if x == WakeReason::Timeout as u8 => Some(WakeReason::Timeout),
            x if x == WakeReason::Cancelled as u8 => Some(WakeReason::Cancelled),
            _ => Some(WakeReason::Woken),
        }
    }

    /// How many stripes this waiter is registered under (0 while
    /// unregistered).  The list only grows while registered, so an unchanged
    /// value means an unchanged registration.
    pub fn published(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// True if a commit that wrote any stripe of `footprint` is certain to
    /// find this waiter: every such stripe is registered, or the waiter is in
    /// the overflow shard.
    pub fn covers(&self, footprint: &[usize]) -> bool {
        let registered = self.registered.lock();
        registered.contains(&UNINDEXED) || footprint.iter().all(|s| registered.contains(s))
    }
}

/// Which shards a committing writer must scan.
///
/// Engines whose commit path knows the ownership-record stripes it wrote
/// (the software STMs, and hardware commits via their written cache lines)
/// produce [`WakeSet::Stripes`]; commits with invisible write sets (the HTM
/// serial fallback) conservatively produce [`WakeSet::All`].
#[derive(Clone, Debug)]
pub enum WakeSet {
    /// Scan every shard (conservative; always correct).
    All,
    /// Gather only the waiters registered under these ownership-record
    /// stripes, plus the overflow shard.
    Stripes(Vec<usize>),
}

/// What a scan gathered: the waiters to evaluate plus the number of shards
/// it visited (the `wake_shard_scans` counter in [`crate::stats::TxStats`]).
#[derive(Debug, Default)]
pub struct ScanPlan {
    /// Distinct waiters the wake set covers.
    pub waiters: Vec<Arc<Waiter>>,
    /// Shards whose lists were visited.
    pub shards_scanned: usize,
}

/// One shard: a mutex-protected list of `(stripe, waiter)` registrations
/// plus a count that lets scans skip empty shards without taking the lock.
///
/// Shards sit in an array indexed by stripe hash, so neighbours belong to
/// unrelated stripes; the count word is written on every register/remove
/// and polled by every committing writer's scan, which without padding would
/// false-share across up to eight shards per cache line.
#[derive(Debug, Default)]
struct Shard {
    list: Mutex<Vec<(usize, Arc<Waiter>)>>,
    count: AtomicUsize,
}

impl Shard {
    fn push(&self, stripe: usize, w: Arc<Waiter>) {
        let mut list = self.list.lock();
        list.push((stripe, w));
        self.count.store(list.len(), Ordering::Release);
    }

    /// Removes every registration of `w`.
    fn remove(&self, w: &Arc<Waiter>) {
        let mut list = self.list.lock();
        list.retain(|(_, x)| !Arc::ptr_eq(x, w));
        self.count.store(list.len(), Ordering::Release);
    }

    fn is_empty(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// Appends the waiters registered under `stripe` (every waiter of the
    /// shard for `None`).  Many stripes alias one shard; a waiter on another
    /// stripe of it cannot be affected by a commit to this one.
    fn collect_into(&self, stripe: Option<usize>, out: &mut Vec<Arc<Waiter>>) {
        let list = self.list.lock();
        out.extend(
            list.iter()
                .filter(|(s, _)| stripe.is_none_or(|only| *s == only))
                .map(|(_, w)| Arc::clone(w)),
        );
    }
}

/// The sharded registry of sleeping transactions.
///
/// Stripe indices (from [`crate::orec::OrecTable::index_for`]) map onto a
/// power-of-two number of shards by masking, so registration and scans agree
/// on the mapping no matter how many stripes the orec table has.
#[derive(Debug)]
pub struct WaitList {
    shards: Box<[CachePadded<Shard>]>,
    /// The overflow shard ([`UNINDEXED`]), scanned by every writer.
    unindexed: CachePadded<Shard>,
    mask: usize,
    /// Total registered waiters; the committing writer's fast path is one
    /// atomic load of this count.
    count: AtomicUsize,
}

impl Default for WaitList {
    fn default() -> Self {
        WaitList::new(64)
    }
}

impl WaitList {
    /// Creates an empty registry with `shards` shards (rounded up to a power
    /// of two).
    pub fn new(shards: usize) -> Self {
        let shards = shards.next_power_of_two().max(2);
        let vec = (0..shards)
            .map(|_| CachePadded::new(Shard::default()))
            .collect::<Vec<_>>();
        WaitList {
            shards: vec.into_boxed_slice(),
            unindexed: CachePadded::new(Shard::default()),
            mask: shards - 1,
            count: AtomicUsize::new(0),
        }
    }

    /// Number of indexed shards (excluding the overflow shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an ownership-record stripe maps to.
    #[inline]
    pub fn shard_of(&self, stripe: usize) -> usize {
        stripe & self.mask
    }

    fn shard_for(&self, stripe: usize) -> &Shard {
        if stripe == UNINDEXED {
            &self.unindexed
        } else {
            &self.shards[self.shard_of(stripe)]
        }
    }

    /// Fast check used by committing writers: is anyone possibly waiting?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// Number of currently registered waiters.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Publishes a waiter under `stripes`, its condition's first footprint;
    /// an empty list means it has none and the waiter goes to the overflow
    /// shard, scanned by every writer.
    ///
    /// The caller must double-check its wait condition *after* this returns
    /// (Algorithm 4 lines 6–13): any writer that commits after this point
    /// will observe the waiter in its `wakeWaiters` scan, and any writer that
    /// committed before it is covered by the double-check.
    pub fn register(&self, w: Arc<Waiter>, stripes: &[usize]) {
        let mut registered = w.registered.lock();
        let first = registered.is_empty();
        let stripes = if stripes.is_empty() {
            &[UNINDEXED]
        } else {
            stripes
        };
        self.publish(&w, &mut registered, stripes);
        if first {
            self.count.fetch_add(1, Ordering::Release);
        }
    }

    /// Also publishes a registered waiter under `stripes` (idempotent); does
    /// nothing to a waiter that is not, or no longer, registered.  As with
    /// [`WaitList::register`], a condition evaluated *before* this returned
    /// says nothing about commits to the new stripes: evaluate again.
    pub fn extend(&self, w: &Arc<Waiter>, stripes: &[usize]) {
        let mut registered = w.registered.lock();
        if !registered.is_empty() {
            self.publish(w, &mut registered, stripes);
        }
    }

    fn publish(&self, w: &Arc<Waiter>, registered: &mut Vec<usize>, stripes: &[usize]) {
        for &stripe in stripes {
            if !registered.contains(&stripe) {
                self.shard_for(stripe).push(stripe, Arc::clone(w));
                registered.push(stripe);
            }
        }
        w.published.store(registered.len(), Ordering::Release);
    }

    /// Claims `w` for `reason` ([`Waiter::claim`]) and, if this call won,
    /// removes it from the registry before returning, so the winner posts a
    /// waiter no commit will scan again.  Returns true for exactly one
    /// caller across all reasons; that caller owes the waiter's post.
    pub fn claim(&self, w: &Arc<Waiter>, reason: WakeReason) -> bool {
        let won = w.claim(reason);
        if won {
            self.remove(w);
        }
        won
    }

    /// Removes a waiter from every shard it is registered under.  The winner
    /// of a [`WaitList::claim`] has already done this; the sleeper calls it
    /// again after its wake-up (Algorithm 4 line 16) for the claimants that
    /// do not hold the registry.  Harmless for a waiter that is not
    /// registered.
    pub fn remove(&self, w: &Arc<Waiter>) {
        let mut registered = w.registered.lock();
        if registered.is_empty() {
            return;
        }
        for stripe in registered.drain(..) {
            self.shard_for(stripe).remove(w);
        }
        w.published.store(0, Ordering::Release);
        self.count.fetch_sub(1, Ordering::AcqRel);
    }

    /// [`WaitList::remove`] under the name and shape it had while callers
    /// kept the stripe list themselves; the slice is ignored.  Only the
    /// ledger's `waitlist.register_deregister_ns` row still calls it.
    #[doc(hidden)]
    pub fn deregister(&self, w: &Arc<Waiter>, _stripes: &[usize]) {
        self.remove(w);
    }

    /// True if a commit touching `wake` has anyone to evaluate.  Count loads
    /// only — no lock is taken — so a commit that no sleeper covers pays one
    /// load per written stripe.
    pub fn any_covered(&self, wake: &WakeSet) -> bool {
        match wake {
            WakeSet::All => !self.is_empty(),
            WakeSet::Stripes(stripes) => {
                !self.unindexed.is_empty()
                    || stripes
                        .iter()
                        .any(|&s| !self.shards[self.shard_of(s)].is_empty())
            }
        }
    }

    /// Gathers into `out` (cleared first) the distinct waiters a commit
    /// touching `wake` must evaluate: those registered under a written
    /// stripe, plus the overflow shard.  Returns how many shard lists were
    /// visited; empty shards are passed over without taking their locks.
    pub fn scan_into(&self, wake: &WakeSet, out: &mut Vec<Arc<Waiter>>) -> usize {
        out.clear();
        let mut scanned = 0usize;
        let mut visit = |shard: &Shard, stripe: Option<usize>| {
            if !shard.is_empty() {
                scanned += 1;
                shard.collect_into(stripe, out);
            }
        };
        match wake {
            WakeSet::All => self.shards.iter().for_each(|shard| visit(shard, None)),
            WakeSet::Stripes(stripes) => {
                for &s in stripes {
                    visit(&self.shards[self.shard_of(s)], Some(s));
                }
            }
        }
        visit(&self.unindexed, None);
        // A waiter registered under several scanned stripes appears once per
        // stripe; evaluate it once.
        out.sort_unstable_by_key(|w| Arc::as_ptr(w) as usize);
        out.dedup_by(|a, b| Arc::ptr_eq(a, b));
        scanned
    }

    /// [`WaitList::scan_into`] a fresh buffer, with the count of shards it visited.
    pub fn scan(&self, wake: &WakeSet) -> ScanPlan {
        let mut waiters = Vec::new();
        let shards_scanned = self.scan_into(wake, &mut waiters);
        ScanPlan {
            waiters,
            shards_scanned,
        }
    }

    /// A shallow copy of every registered waiter (`waiting.copy()` in the
    /// paper's `wakeWaiters`); the conservative scan-all path and tests.
    pub fn snapshot(&self) -> Vec<Arc<Waiter>> {
        self.scan(&WakeSet::All).waiters
    }

    /// The still-asleep waiter published by `thread`, if any.
    ///
    /// This is the discovery side of the cancellation API
    /// (`condsync::cancel_thread`): a thread blocked in a deschedule can be
    /// looked up by its id and claimed with [`WakeReason::Cancelled`].  It
    /// walks every shard, so it belongs on control paths, not hot paths.
    pub fn find_by_thread(&self, thread: ThreadId) -> Option<Arc<Waiter>> {
        if self.is_empty() {
            return None;
        }
        self.snapshot()
            .into_iter()
            .find(|w| w.thread == thread && w.is_asleep())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn dummy_waiter(tid: ThreadId) -> Arc<Waiter> {
        Waiter::new(
            tid,
            WaitCondition::ValuesChanged(vec![(Addr(1), 0)]),
            Arc::new(Semaphore::new()),
        )
    }

    fn scanned(r: &WaitList, stripes: &[usize]) -> Vec<Arc<Waiter>> {
        r.scan(&WakeSet::Stripes(stripes.to_vec())).waiters
    }

    #[test]
    fn empty_registry_reports_empty() {
        let r = WaitList::new(8);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.snapshot().is_empty());
        assert!(!r.any_covered(&WakeSet::All));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(WaitList::new(5).shard_count(), 8);
        assert_eq!(WaitList::new(64).shard_count(), 64);
        assert_eq!(WaitList::new(0).shard_count(), 2);
    }

    #[test]
    fn register_and_remove_round_trip() {
        let r = WaitList::new(8);
        let w1 = dummy_waiter(0);
        let w2 = dummy_waiter(1);
        r.register(Arc::clone(&w1), &[3]);
        r.register(Arc::clone(&w2), &[4]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(w1.published(), 1);
        r.remove(&w1);
        assert_eq!(r.len(), 1);
        assert_eq!(w1.published(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(Arc::ptr_eq(&snap[0], &w2));
        // A removed waiter can be published again (the ledger re-registers
        // one record in a loop, through the old two-argument name).
        r.register(Arc::clone(&w1), &[5]);
        assert_eq!(scanned(&r, &[5]).len(), 1);
        assert!(scanned(&r, &[3]).is_empty(), "the old stripe is gone");
        r.deregister(&w1, &[5]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn removing_an_unregistered_waiter_is_harmless() {
        let r = WaitList::new(8);
        let w1 = dummy_waiter(0);
        r.register(Arc::clone(&w1), &[1]);
        let unknown = dummy_waiter(9);
        r.remove(&unknown);
        assert_eq!(r.len(), 1);
        r.remove(&w1);
        r.remove(&w1);
        assert_eq!(r.len(), 0);
        // ... and so is extending it: a checker that still holds a waiter
        // whose sleeper already left must not bring it back.
        r.extend(&w1, &[2]);
        assert!(r.is_empty() && r.snapshot().is_empty());
        assert!(!r.any_covered(&WakeSet::Stripes(vec![2])));
    }

    #[test]
    fn targeted_scan_hits_matching_stripes_only() {
        let r = WaitList::new(8);
        let a = dummy_waiter(0);
        let b = dummy_waiter(1);
        r.register(Arc::clone(&a), &[0]); // shard 0
        r.register(Arc::clone(&b), &[1]); // shard 1
        let hit = r.scan(&WakeSet::Stripes(vec![0]));
        assert_eq!(hit.waiters.len(), 1);
        assert!(Arc::ptr_eq(&hit.waiters[0], &a));
        assert_eq!(hit.shards_scanned, 1);
        assert!(r.any_covered(&WakeSet::Stripes(vec![0])));
        let miss = r.scan(&WakeSet::Stripes(vec![2]));
        assert!(miss.waiters.is_empty());
        assert_eq!(miss.shards_scanned, 0);
        assert!(!r.any_covered(&WakeSet::Stripes(vec![2])));
    }

    #[test]
    fn stripes_aliasing_one_shard_are_told_apart() {
        let r = WaitList::new(4);
        let w = dummy_waiter(0);
        let other = dummy_waiter(1);
        // Stripes 1, 5 and 9 all map to shard 1 with 4 shards.
        r.register(Arc::clone(&w), &[1, 5]);
        r.register(Arc::clone(&other), &[9]);
        assert_eq!(r.shard_of(1), r.shard_of(5));
        assert_eq!(r.shard_of(1), r.shard_of(9));
        let plan = scanned(&r, &[1, 5]);
        assert_eq!(plan.len(), 1, "waiter must be deduplicated");
        assert!(
            Arc::ptr_eq(&plan[0], &w),
            "stripe 9's waiter is not a candidate"
        );
        // The shard is occupied, so the probe cannot rule stripe 13 out, but
        // the scan gathers nobody for it.
        assert!(r.any_covered(&WakeSet::Stripes(vec![13])));
        assert!(scanned(&r, &[13]).is_empty());
        r.remove(&w);
        r.remove(&other);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn multi_stripe_waiter_found_from_any_stripe() {
        let r = WaitList::new(8);
        let w = dummy_waiter(0);
        r.register(Arc::clone(&w), &[2, 6]);
        assert_eq!(r.len(), 1, "one waiter regardless of stripe fan-out");
        for stripe in [2usize, 6] {
            assert_eq!(scanned(&r, &[stripe]).len(), 1);
        }
        assert_eq!(scanned(&r, &[2, 6]).len(), 1, "scan across both dedups");
        r.remove(&w);
        assert!(r.is_empty());
        assert!(scanned(&r, &[2]).is_empty());
    }

    #[test]
    fn extending_a_registration_publishes_new_stripes_once() {
        let r = WaitList::new(8);
        let w = dummy_waiter(0);
        r.register(Arc::clone(&w), &[2]);
        assert!(w.covers(&[2]) && w.covers(&[]) && !w.covers(&[2, 11]));
        r.extend(&w, &[11, 2, 11]);
        assert_eq!(w.published(), 2, "already published stripes are kept");
        assert_eq!(r.len(), 1, "still one waiter");
        assert!(w.covers(&[11, 2]));
        assert_eq!(scanned(&r, &[11]).len(), 1);
        // The overflow shard covers every footprint.
        r.extend(&w, &[UNINDEXED]);
        assert!(w.covers(&[77]));
        assert_eq!(scanned(&r, &[77]).len(), 1);
        r.remove(&w);
        assert!(r.is_empty());
        assert!(r.scan(&WakeSet::All).waiters.is_empty(), "every shard left");
    }

    #[test]
    fn only_waiters_without_a_footprint_are_seen_by_every_wake_set() {
        let r = WaitList::new(8);
        let indexed = dummy_waiter(0);
        let overflow = dummy_waiter(1);
        r.register(Arc::clone(&indexed), &[3]);
        r.register(Arc::clone(&overflow), &[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.scan(&WakeSet::All).waiters.len(), 2);
        for stripes in [vec![7], vec![]] {
            let seen = scanned(&r, &stripes);
            assert_eq!(seen.len(), 1);
            assert!(Arc::ptr_eq(&seen[0], &overflow));
        }
        assert_eq!(scanned(&r, &[3]).len(), 2);
        r.remove(&overflow);
        r.remove(&indexed);
        assert!(r.is_empty());
    }

    #[test]
    fn claim_succeeds_exactly_once() {
        let w = dummy_waiter(0);
        assert!(w.is_asleep());
        assert!(w.wake_reason().is_none());
        assert!(w.claim(WakeReason::Woken));
        assert!(!w.claim(WakeReason::Woken));
        assert!(!w.is_asleep());
        assert_eq!(w.wake_reason(), Some(WakeReason::Woken));
    }

    #[test]
    fn first_claim_fixes_the_wake_reason() {
        for reason in [
            WakeReason::Woken,
            WakeReason::Timeout,
            WakeReason::Cancelled,
        ] {
            let w = dummy_waiter(0);
            assert!(w.claim(reason));
            // Later claims with any reason fail and do not overwrite.
            assert!(!w.claim(WakeReason::Woken));
            assert!(!w.claim(WakeReason::Timeout));
            assert!(!w.claim(WakeReason::Cancelled));
            assert_eq!(w.wake_reason(), Some(reason));
        }
    }

    #[test]
    fn a_registry_claim_deregisters_its_winner_only() {
        let r = WaitList::new(8);
        let w = dummy_waiter(0);
        r.register(Arc::clone(&w), &[3, UNINDEXED]);
        assert!(r.claim(&w, WakeReason::Woken));
        assert!(r.is_empty() && r.snapshot().is_empty());
        assert_eq!(w.published(), 0);
        // A bare claim (cancel by handle, the timer wheel) leaves the waiter
        // for its sleeper's own remove; a losing registry claim removes
        // nothing either.
        let bare = dummy_waiter(1);
        r.register(Arc::clone(&bare), &[3]);
        assert!(bare.claim(WakeReason::Cancelled));
        assert!(!r.claim(&bare, WakeReason::Woken));
        assert_eq!(r.len(), 1);
        assert_eq!(bare.wake_reason(), Some(WakeReason::Cancelled));
        r.remove(&bare);
        assert!(r.is_empty());
    }

    #[test]
    fn find_by_thread_returns_only_sleeping_waiters() {
        let r = WaitList::new(8);
        assert!(r.find_by_thread(0).is_none());
        let w = dummy_waiter(7);
        r.register(Arc::clone(&w), &[3]);
        assert!(r.find_by_thread(9).is_none());
        let found = r.find_by_thread(7).expect("registered waiter");
        assert!(Arc::ptr_eq(&found, &w));
        // Once claimed, the waiter no longer counts as cancellable.
        assert!(w.claim(WakeReason::Cancelled));
        assert!(r.find_by_thread(7).is_none());
        r.remove(&w);
    }

    #[test]
    fn deadline_carrying_waiters_expose_their_deadline() {
        let soon = Instant::now() + std::time::Duration::from_millis(5);
        let w = Waiter::with_deadline(
            0,
            WaitCondition::ValuesChanged(vec![(Addr(1), 0)]),
            Arc::new(Semaphore::new()),
            Some(soon),
        );
        assert_eq!(w.deadline, Some(soon));
        assert!(dummy_waiter(0).deadline.is_none());
    }

    #[test]
    fn concurrent_claims_have_single_winner() {
        let w = dummy_waiter(0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || w.claim(WakeReason::Woken)));
        }
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&x| x)
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn snapshot_is_shallow_copy() {
        let r = WaitList::new(8);
        let w = dummy_waiter(0);
        r.register(Arc::clone(&w), &[1]);
        let snap = r.snapshot();
        // Claiming through the snapshot is visible through the registry copy.
        assert!(snap[0].claim(WakeReason::Woken));
        assert!(!r.snapshot()[0].is_asleep());
    }
}
