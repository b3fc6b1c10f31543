//! Thread contexts and the global thread registry.
//!
//! Each worker thread registers once with the [`crate::system::TmSystem`] and
//! receives an [`ThreadCtx`] carrying its identity, statistics, its padded
//! slot in the registry's [`EpochTable`] (its published start time, for
//! privatization-safe quiescence), the "doomed" flag through which the HTM
//! simulator delivers asynchronous conflict aborts, the resident attempt
//! [`Descriptor`] the driver lends to every transaction attempt, and the
//! semaphore the thread parks on when it deschedules.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::access::Descriptor;
use crate::epoch::{EpochSlot, EpochTable};
use crate::lock::RwLock;
use crate::pad::CachePadded;
use crate::sem::Semaphore;
use crate::stats::TxStats;

/// Identifier of a registered thread (dense, starting from 0).
pub type ThreadId = usize;

/// Sentinel published as a thread's start time when it is not inside a
/// transaction.
pub const NOT_IN_TX: u64 = u64::MAX;

/// Epoch-table capacity of a standalone [`ThreadRegistry::new`] (unit-test
/// convenience; systems size theirs from
/// [`crate::config::TmConfig::max_threads`]).
const STANDALONE_REGISTRY_CAPACITY: usize = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The thread's resident attempt descriptor behind an exclusive-access
/// flag — the heap arenas' `ArenaSlot` idiom: one swap to enter, one release
/// store to leave, on a line only the owner writes.
#[derive(Default)]
struct DescriptorSlot {
    /// Set while a [`Checkout`] of `desc` is live.  Acquire on the swap and
    /// Release on the store order one holder's writes before the next
    /// holder's reads.
    busy: AtomicBool,
    desc: UnsafeCell<Descriptor>,
}

// SAFETY: `desc` is reached only through a resident `Checkout`, which exists
// only after winning the `busy` swap and clears the flag only when dropped,
// so at most one reference to it is live; `busy` is atomic.  `Descriptor` is
// plain owned data (`Send`).
unsafe impl Sync for DescriptorSlot {}

impl std::fmt::Debug for DescriptorSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescriptorSlot")
            .field("busy", &self.busy.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Exclusive use of an attempt [`Descriptor`] for one transaction: the
/// thread's resident one, or a cold heap-allocated one when that was busy.
/// See [`ThreadCtx::checkout`].
#[derive(Debug)]
pub struct Checkout<'a> {
    slot: &'a DescriptorSlot,
    /// `Some` when `slot` was busy; dropped with the guard.
    cold: Option<Box<Descriptor>>,
}

impl Deref for Checkout<'_> {
    type Target = Descriptor;

    fn deref(&self) -> &Descriptor {
        match &self.cold {
            Some(cold) => cold,
            // SAFETY: no cold descriptor means this guard won the `busy`
            // swap and still holds it, so it is the only path to `desc`.
            None => unsafe { &*self.slot.desc.get() },
        }
    }
}

impl DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut Descriptor {
        match &mut self.cold {
            Some(cold) => cold,
            // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
            None => unsafe { &mut *self.slot.desc.get() },
        }
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if self.cold.is_none() {
            self.slot.busy.store(false, Ordering::Release);
        }
    }
}

/// Per-thread context shared between the thread itself and other threads
/// (committers performing quiescence, hardware transactions dooming each
/// other, writers waking sleepers).
///
/// A context is used by one OS thread at a time, so it has at most one
/// sleep in progress: every sleep parks on the same [`ThreadCtx::park`]
/// semaphore, and a second one overlapping it could take the first one's
/// wake-up.
#[derive(Debug)]
pub struct ThreadCtx {
    /// Dense thread identifier.
    pub id: ThreadId,
    /// Event counters.
    pub stats: TxStats,
    /// The semaphore this thread parks on when it deschedules (the paper's
    /// per-thread `sem`), lent to the waiter record of each sleep.  A waker
    /// posts it only when it wins the waiter's claim, and the sleeper takes
    /// that permit before its sleep returns, so it holds none between sleeps.
    pub park: Arc<Semaphore>,
    /// The shared epoch table; this thread owns slot [`ThreadCtx::id`],
    /// which carries its published start time on a private cache line.
    epochs: Arc<EpochTable>,
    /// Set by another thread to doom this thread's in-flight *hardware*
    /// transaction (simulating a coherence-triggered abort).  Padded: it is
    /// remote-written on conflicts and owner-polled on the hardware hot
    /// path, so it must not share a line with the rest of the context.
    pub doomed: CachePadded<AtomicBool>,
    /// The resident attempt descriptor (see [`ThreadCtx::checkout`]).
    descriptor: DescriptorSlot,
    /// xorshift64 state for the thread's backoff jitter, seeded from the
    /// thread id.  Owner-only (replaces the driver's old process-global
    /// seed atomic, which was a shared hot line).
    backoff_rng: CachePadded<AtomicU64>,
}

impl ThreadCtx {
    fn new(id: ThreadId, epochs: Arc<EpochTable>) -> Self {
        ThreadCtx {
            id,
            stats: TxStats::default(),
            park: Arc::new(Semaphore::new()),
            epochs,
            doomed: CachePadded::new(AtomicBool::new(false)),
            descriptor: DescriptorSlot::default(),
            // splitmix64 never maps distinct inputs to the same output and
            // maps nothing to 0 except one input; or-in a bit so xorshift
            // (which fixes 0) always starts live.
            backoff_rng: CachePadded::new(AtomicU64::new(splitmix64(id as u64 + 1) | 1)),
        }
    }

    /// This thread's padded epoch-table slot.
    #[inline]
    pub fn epoch_slot(&self) -> &EpochSlot {
        self.epochs.slot(self.id)
    }

    /// Next value of the thread's private backoff RNG (xorshift64).
    ///
    /// Deterministic per thread id, and touches only this thread's own
    /// cache line.
    #[inline]
    pub fn next_backoff_seed(&self) -> u64 {
        let mut s = self.backoff_rng.load(Ordering::Relaxed);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.backoff_rng.store(s, Ordering::Relaxed);
        s
    }

    /// Checks out the attempt descriptor for one transaction.
    ///
    /// The driver calls this once per `run`, lends the descriptor by `&mut`
    /// to each attempt, and drops the guard before anything that may start
    /// another transaction on this thread (wake checks, the deschedule
    /// double-check), so those run on the same warm containers.  A
    /// transaction started while the descriptor is still out — from inside
    /// a body, or from a `commit_and_wait`'s wake scan and sleep — gets a
    /// cold one of its own instead of waiting.
    pub fn checkout(&self) -> Checkout<'_> {
        let busy = self.descriptor.busy.swap(true, Ordering::Acquire);
        Checkout {
            slot: &self.descriptor,
            cold: busy.then(Box::default),
        }
    }

    /// Publishes the start time of an in-flight transaction.
    #[inline]
    pub fn enter_tx(&self, start: u64) {
        self.epoch_slot().set_start(start);
    }

    /// Publishes that the thread is no longer inside a transaction.
    #[inline]
    pub fn exit_tx(&self) {
        self.epoch_slot().clear_start();
    }

    /// The published start time, or [`NOT_IN_TX`].
    #[inline]
    pub fn published_start(&self) -> u64 {
        self.epoch_slot().start()
    }

    /// Marks this thread's hardware transaction as doomed.
    #[inline]
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// Clears and returns the doomed flag (called when a hardware attempt
    /// begins or notices the abort).
    #[inline]
    pub fn take_doomed(&self) -> bool {
        self.doomed.swap(false, Ordering::AcqRel)
    }

    /// Reads the doomed flag without clearing it.
    #[inline]
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }
}

/// Registry of all threads that ever joined the system.
#[derive(Debug)]
pub struct ThreadRegistry {
    threads: RwLock<Vec<Arc<ThreadCtx>>>,
    /// The registry's epoch table; registration activates one padded slot
    /// per thread.
    epochs: Arc<EpochTable>,
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        ThreadRegistry::new()
    }
}

impl ThreadRegistry {
    /// Creates an empty standalone registry with a small epoch table.
    pub fn new() -> Self {
        ThreadRegistry::with_capacity(STANDALONE_REGISTRY_CAPACITY)
    }

    /// Creates an empty registry with room for `max_threads` threads.
    pub fn with_capacity(max_threads: usize) -> Self {
        ThreadRegistry {
            threads: RwLock::new(Vec::new()),
            epochs: Arc::new(EpochTable::new(max_threads)),
        }
    }

    /// The epoch table this registry's threads publish into.
    pub fn epochs(&self) -> &Arc<EpochTable> {
        &self.epochs
    }

    /// Registers a new thread and returns its context.
    ///
    /// Panics when the epoch table is full (raise
    /// [`crate::config::TmConfig::max_threads`]).
    pub fn register(&self) -> Arc<ThreadCtx> {
        let mut threads = self.threads.write();
        let id = threads.len();
        self.epochs.activate(id);
        let ctx = Arc::new(ThreadCtx::new(id, Arc::clone(&self.epochs)));
        threads.push(Arc::clone(&ctx));
        ctx
    }

    /// Number of registered threads.
    pub fn len(&self) -> usize {
        self.threads.read().len()
    }

    /// True if no thread has registered yet.
    pub fn is_empty(&self) -> bool {
        self.threads.read().is_empty()
    }

    /// A snapshot of all registered threads.
    pub fn snapshot(&self) -> Vec<Arc<ThreadCtx>> {
        self.threads.read().clone()
    }

    /// Looks up a thread by id (used by the HTM simulator to deliver
    /// conflict aborts).
    pub fn get(&self, id: ThreadId) -> Option<Arc<ThreadCtx>> {
        self.threads.read().get(id).cloned()
    }

    /// Runs `f` for every registered thread other than `me`.
    pub fn for_each_other<F: FnMut(&ThreadCtx)>(&self, me: ThreadId, mut f: F) {
        for t in self.threads.read().iter() {
            if t.id != me {
                f(t);
            }
        }
    }

    /// Aggregated statistics across all threads.
    pub fn aggregate_stats(&self) -> crate::stats::StatsSnapshot {
        self.threads
            .read()
            .iter()
            .map(|t| t.stats.snapshot())
            .fold(crate::stats::StatsSnapshot::default(), |a, b| a.merge(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TxStats;

    #[test]
    fn registration_assigns_dense_ids() {
        let r = ThreadRegistry::new();
        let a = r.register();
        let b = r.register();
        let c = r.register();
        assert_eq!((a.id, b.id, c.id), (0, 1, 2));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn start_time_defaults_to_not_in_tx() {
        let r = ThreadRegistry::new();
        let t = r.register();
        assert_eq!(t.published_start(), NOT_IN_TX);
        t.enter_tx(42);
        assert_eq!(t.published_start(), 42);
        t.exit_tx();
        assert_eq!(t.published_start(), NOT_IN_TX);
    }

    #[test]
    fn doom_flag_is_sticky_until_taken() {
        let r = ThreadRegistry::new();
        let t = r.register();
        assert!(!t.is_doomed());
        t.doom();
        assert!(t.is_doomed());
        assert!(t.take_doomed());
        assert!(!t.is_doomed());
        assert!(!t.take_doomed());
    }

    #[test]
    fn for_each_other_skips_self() {
        let r = ThreadRegistry::new();
        let me = r.register();
        let _a = r.register();
        let _b = r.register();
        let mut seen = Vec::new();
        r.for_each_other(me.id, |t| seen.push(t.id));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn checkout_reuses_the_resident_descriptor_and_falls_back_cold_when_busy() {
        use crate::addr::Addr;
        let r = ThreadRegistry::new();
        let t = r.register();
        {
            let mut d = t.checkout();
            d.reads.record(Addr(1), 1);
            let mut nested = t.checkout();
            assert!(nested.reads.is_empty(), "a busy slot yields a cold one");
            nested.reads.record(Addr(2), 2);
            drop(nested);
            assert_eq!(d.reads.len(), 1, "the nested guard left ours alone");
        }
        let d = t.checkout();
        assert_eq!(d.reads.len(), 1, "released and checked out again");
        assert!(d.reads.contains(Addr(1)));
    }

    #[test]
    fn aggregate_stats_merges_every_thread() {
        let r = ThreadRegistry::new();
        let a = r.register();
        let b = r.register();
        TxStats::bump(&a.stats.sw_commits);
        TxStats::bump(&b.stats.sw_commits);
        TxStats::bump(&b.stats.sleeps);
        let agg = r.aggregate_stats();
        assert_eq!(agg.sw_commits, 2);
        assert_eq!(agg.sleeps, 1);
    }

    #[test]
    fn start_times_are_visible_through_the_epoch_table() {
        let r = ThreadRegistry::new();
        let t = r.register();
        t.enter_tx(9);
        assert_eq!(r.epochs().slot(t.id).start(), 9);
        t.exit_tx();
        assert_eq!(r.epochs().slot(t.id).start(), NOT_IN_TX);
    }

    #[test]
    fn backoff_rng_is_deterministic_per_thread_and_distinct_across_threads() {
        let r1 = ThreadRegistry::new();
        let r2 = ThreadRegistry::new();
        let a1 = r1.register();
        let b1 = r1.register();
        let a2 = r2.register();
        let seq_a1: Vec<u64> = (0..4).map(|_| a1.next_backoff_seed()).collect();
        let seq_b1: Vec<u64> = (0..4).map(|_| b1.next_backoff_seed()).collect();
        let seq_a2: Vec<u64> = (0..4).map(|_| a2.next_backoff_seed()).collect();
        assert_eq!(seq_a1, seq_a2, "same id, same sequence");
        assert_ne!(seq_a1, seq_b1, "different ids diverge");
        assert!(seq_a1.iter().all(|&s| s != 0), "xorshift state stays live");
    }

    #[test]
    fn registration_panics_when_the_epoch_table_is_full() {
        let r = ThreadRegistry::with_capacity(1);
        let _ok = r.register();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.register()));
        assert!(attempt.is_err());
    }
}
