//! The Deschedule abstract mechanism (Algorithm 4): parking and waking.
//!
//! A transaction that discovers its precondition does not hold is rolled
//! back by the driver loop, which then calls [`deschedule`] with the
//! materialised wait condition.  `deschedule`:
//!
//! 1. publishes a [`Waiter`] record (condition + the thread's park
//!    semaphore, [`ThreadCtx::park`]) in the sharded waiter registry, under
//!    every ownership-record stripe of its condition's footprint — the
//!    addresses a `Retry`/`Await` condition names, or the stripes a
//!    `WaitPred` predicate read when it was evaluated just before,
//! 2. re-evaluates the condition in a fresh read-only transaction
//!    (the "double-check" of Algorithm 4 lines 6–13) — publishing *before*
//!    checking is what removes the need to validate the read set atomically
//!    with the insertion, and is the key difference from Algorithm 1,
//! 3. if the condition still does not hold, yields the CPU once — a waker
//!    sharing it then runs, claims the waiter, deregisters it and posts
//!    before the sleeper blocks — and waits on the park semaphore,
//! 4. returns upon wake-up, at which point the driver re-executes the
//!    original transaction from its checkpoint.  The claim's winner already
//!    took the waiter out of the registry ([`WaitList::claim`]) before
//!    posting, so the commits a waker makes while the sleeper has yet to run
//!    again find no *unclaimed* sleeper and take the empty-registry fast
//!    path; the sleeper's own `remove` after waking is only the backstop for
//!    the claimants that do not hold the registry (`condsync::cancel` by
//!    waiter handle, the timer wheel).
//!
//! Writers call [`wake_waiters_matching`] strictly *after* committing, with
//! the stripes their commit wrote ([`Descriptor::cover`]): only the waiters
//! registered under those stripes — plus the registry's overflow shard —
//! are evaluated, so a commit's wake work scales with the sleepers that
//! could actually be affected, not with every sleeper in the system.  The
//! decision to wake is still a computation over (now committed) shared
//! memory, so it never burdens the in-flight transaction — in particular
//! hardware transactions that never deschedule pay nothing beyond an
//! empty-registry check (one atomic load).
//!
//! A predicate's footprint can depend on the data it reads (it reads `sel`,
//! then `a` or `b`), so the double-check and the writers' wake checks both
//! go through one helper (`check`) that keeps *publish, then check* true
//! for it.  A deterministic predicate can only turn true after some location
//! its last false evaluation read has changed.  So `check` answers "false"
//! only from an evaluation whose whole footprint was published before that
//! evaluation began — the commit that changes one of those locations then
//! finds the waiter; otherwise it first publishes the new stripes
//! ([`WaitList::extend`]) and evaluates again.  The writer whose commit
//! moved the predicate onto a new path is itself running `check`, so it
//! re-establishes the invariant for that path before it returns.
//!
//! This logic lives in `tm-core` because the unified driver loop
//! ([`super::run`]) is its only legitimate caller on the hot path; the
//! `condsync` crate re-exports the entry points as part of its public API.
//!
//! [`Descriptor::cover`]: crate::access::Descriptor::cover
//! [`WaitList::extend`]: crate::waitlist::WaitList::extend
//! [`WaitList::claim`]: crate::waitlist::WaitList::claim

use std::sync::Arc;
use std::time::Instant;

use crate::addr::Addr;
use crate::ctl::{TxResult, WaitCondition};
use crate::orec::OrecTable;
use crate::runtime::TmRuntime;
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon};
use crate::waitlist::{Waiter, WakeReason, WakeSet, UNINDEXED};

/// Outcome of a [`deschedule`] / [`deschedule_until`] call, for the driver
/// loop, statistics and tests.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DescheduleOutcome {
    /// The condition was found already established (by the double-check, or
    /// for a predicate by the evaluation that finds its first footprint);
    /// the thread never slept.
    SkippedSleep,
    /// The thread slept (or its deadline had already passed) and was
    /// re-scheduled for the recorded reason.
    Slept(WakeReason),
}

impl DescheduleOutcome {
    /// The wake reason the re-executed transaction should observe.  A
    /// skipped sleep counts as [`WakeReason::Woken`]: the condition held.
    pub fn reason(self) -> WakeReason {
        match self {
            DescheduleOutcome::SkippedSleep => WakeReason::Woken,
            DescheduleOutcome::Slept(reason) => reason,
        }
    }
}

/// The widest footprint (in stripes) a predicate waiter is indexed under; a
/// predicate that reads more goes to the overflow shard, where every commit
/// checks it, because registering and filtering it would cost more than
/// that.  Every `tm-sync` predicate reads one word.
const PRED_FOOTPRINT_CAP: usize = 16;

/// The stripes to register a predicate waiter under, given the footprint of
/// an evaluation: the footprint itself, or the overflow shard when it is too
/// wide to index (an empty one goes there by [`WaitList::register`]'s rule).
///
/// [`WaitList::register`]: crate::waitlist::WaitList::register
fn indexable(footprint: &[usize]) -> &[usize] {
    if footprint.len() > PRED_FOOTPRINT_CAP {
        &[UNINDEXED]
    } else {
        footprint
    }
}

/// How many times one `check` re-registers a predicate whose footprint keeps
/// moving before it gives the waiter to the overflow shard instead.
const PRED_REINDEX_ROUNDS: usize = 4;

/// The transaction handle a predicate is evaluated through: forwards every
/// call to the runtime's attempt and notes the stripe of each read, so one
/// implementation serves all runtimes and every execution mode.
struct FootprintTx<'a> {
    inner: &'a mut dyn Tx,
    orecs: &'a OrecTable,
    /// Distinct stripes read so far; stops growing one past
    /// [`PRED_FOOTPRINT_CAP`], which is all "too wide" needs.
    stripes: &'a mut Vec<usize>,
}

impl FootprintTx<'_> {
    fn note(&mut self, addr: Addr) {
        let stripe = self.orecs.index_for(addr);
        if self.stripes.len() <= PRED_FOOTPRINT_CAP && !self.stripes.contains(&stripe) {
            self.stripes.push(stripe);
        }
    }
}

impl Tx for FootprintTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.note(addr);
        self.inner.read(addr)
    }
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.inner.write(addr, val)
    }
    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        self.note(addr);
        self.inner.read_for_write(addr)
    }
    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.inner.alloc(words)
    }
    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        self.inner.free(addr, words)
    }
    fn commit_and_wait(&mut self, condition: WaitCondition) -> TxResult<()> {
        self.inner.commit_and_wait(condition)
    }
    fn common(&self) -> &TxCommon {
        self.inner.common()
    }
    fn common_mut(&mut self) -> &mut TxCommon {
        self.inner.common_mut()
    }
    fn system(&self) -> &Arc<TmSystem> {
        self.inner.system()
    }
    fn thread(&self) -> &Arc<ThreadCtx> {
        self.inner.thread()
    }
}

/// Evaluates `condition` once, in a transaction of its own on `thread`
/// (`LocksMoved` on the orecs directly); for a predicate, `footprint` is
/// left holding the stripes that evaluation read.
fn evaluate(
    rt: &dyn TmRuntime,
    thread: &Arc<ThreadCtx>,
    condition: &WaitCondition,
    footprint: &mut Vec<usize>,
) -> bool {
    let orecs = &rt.system().orecs;
    match condition {
        WaitCondition::Pred { f, args } => rt.exec_bool(thread, &mut |tx| {
            // Per execution, not per call: the driver may run this body
            // several times before one attempt commits.
            footprint.clear();
            let mut tx = FootprintTx {
                inner: tx,
                orecs,
                stripes: footprint,
            };
            f(&mut tx, args)
        }),
        // Lock metadata needs no transaction to read.
        WaitCondition::LocksMoved { .. } => condition.locks_moved(rt.system()),
        values => rt.exec_bool(thread, &mut |tx| values.should_wake(tx)),
    }
}

/// Should the registered `waiter` be woken?  The deschedule double-check
/// and the writers' wake checks both ask through here.
///
/// "No" is only ever answered from an evaluation whose footprint was already
/// published when it began (see the module docs); until then the footprint
/// is published and the condition evaluated again.  A `Retry`/`Await`
/// condition is registered under all its addresses from the start, so it is
/// evaluated exactly once.
fn check(rt: &dyn TmRuntime, thread: &Arc<ThreadCtx>, waiter: &Arc<Waiter>) -> bool {
    if !matches!(waiter.condition, WaitCondition::Pred { .. }) {
        return evaluate(rt, thread, &waiter.condition, &mut Vec::new());
    }
    let mut footprint = std::mem::take(&mut thread.checkout().pred_footprint);
    let mut reindexes = 0;
    let established = loop {
        let published = waiter.published();
        if evaluate(rt, thread, &waiter.condition, &mut footprint) {
            break true;
        }
        if !waiter.is_asleep() {
            // Claimed meanwhile (and possibly gone from the registry):
            // nobody is waiting for this answer.
            break false;
        }
        if !waiter.covers(&footprint) {
            let stripes = if reindexes < PRED_REINDEX_ROUNDS {
                indexable(&footprint)
            } else {
                &[UNINDEXED]
            };
            rt.system().waiters.extend(waiter, stripes);
            TxStats::bump(&thread.stats.pred_reindexes);
            reindexes += 1;
        } else if waiter.published() == published {
            break false;
        }
        // Else another checker extended the registration while we
        // evaluated, and we cannot tell whether before or after our reads.
    };
    thread.checkout().pred_footprint = footprint;
    established
}

/// Publishes `condition` and blocks the calling thread until a committed
/// writer establishes it (or until the immediate double-check finds it
/// already established).  Unbounded form of [`deschedule_until`].
///
/// The caller (the driver loop) must have completely rolled back the
/// descheduling transaction before calling this, so that the program state
/// is indistinguishable from the transaction never having run (Figure 2.1,
/// time 1).
pub fn deschedule(
    rt: &dyn TmRuntime,
    thread: &Arc<ThreadCtx>,
    condition: WaitCondition,
) -> DescheduleOutcome {
    deschedule_until(rt, thread, condition, None)
}

/// Publishes `condition` and blocks the calling thread until a committed
/// writer establishes it, the optional `deadline` passes, or another thread
/// cancels the wait.
///
/// The timeout state machine (one transition, three exits):
///
/// ```text
///            ┌──────────── register + arm timer ───────────┐
///            │                                              ▼
///  double-check true ──▶ SkippedSleep      yield once, then park.wait_deadline
///                                                 │          │          │
///                                       writer claim   timer/self   cancel
///                                         Woken         Timeout    Cancelled
///                                                 └──────────┼──────────┘
///                                                claim CAS: exactly one wins,
///                                              deregisters and posts; a sleeper
///                                              that loses its own claim takes
///                                              that post
/// ```
///
/// Timeout delivery is doubly covered: the system's lazily polled timer
/// wheel ([`crate::timer::TimerWheel`]) expires the waiter promptly while
/// other threads are running, and the sleeper's own
/// [`Semaphore::wait_deadline`] bounds the sleep even on an otherwise idle
/// system.  Whoever gets there first wins the one [`Waiter::claim`]; the
/// waiter is signalled at most once per sleep regardless.
///
/// Every sleep of `thread` parks on its one [`ThreadCtx::park`] semaphore,
/// so the permit count must be zero between sleeps.  The claim decides who
/// owes the post: a waker posts only when it wins, so the sleeper takes one
/// permit for each claim it loses — the double-check's and its own
/// timeout's — and none for a claim it wins.
///
/// [`Semaphore::wait_deadline`]: crate::sem::Semaphore::wait_deadline
pub fn deschedule_until(
    rt: &dyn TmRuntime,
    thread: &Arc<ThreadCtx>,
    condition: WaitCondition,
    deadline: Option<Instant>,
) -> DescheduleOutcome {
    let system = rt.system();
    let park = &thread.park;
    debug_assert_eq!(park.permits(), 0, "a permit left from an earlier sleep");
    TxStats::bump(&thread.stats.descheds);
    let waiter = Waiter::with_deadline(thread.id, condition, Arc::clone(park), deadline);

    // Publish first, then double-check.  Any writer that commits after this
    // point will see us in its wakeWaiters scan; any writer that committed
    // before it is covered by the double-check below.  The stripes are those
    // of every address whose change could establish the condition: any
    // writer whose commit touches one of them finds the waiter under it,
    // which is the no-lost-wakeups invariant.
    if let WaitCondition::Pred { .. } = waiter.condition {
        // A predicate names no addresses; one evaluation tells which it
        // reads (and `check` keeps that current).  If it already holds there
        // is nothing to publish.
        let mut footprint = std::mem::take(&mut thread.checkout().pred_footprint);
        let established = evaluate(rt, thread, &waiter.condition, &mut footprint);
        if !established {
            system
                .waiters
                .register(Arc::clone(&waiter), indexable(&footprint));
        }
        thread.checkout().pred_footprint = footprint;
        if established {
            TxStats::bump(&thread.stats.desched_skips);
            return DescheduleOutcome::SkippedSleep;
        }
    } else {
        let stripes = waiter.condition.stripes(&system.orecs);
        system.waiters.register(Arc::clone(&waiter), &stripes);
    }
    // Arm the timer wheel only for deadlines still in the future; an
    // already-expired deadline resolves below without ever arming.
    let armed = match deadline {
        Some(d) if d > Instant::now() => {
            system.timers.arm(&waiter);
            true
        }
        _ => false,
    };

    if check(rt, thread, &waiter) {
        // Claim our own wake-up so no waker signals us.  A waker (writer,
        // timer poll or cancel) that won the race owes the park one post:
        // take it, or it would end this thread's next sleep.  The remove
        // backs up a winner that does not hold the registry.
        if !system.waiters.claim(&waiter, WakeReason::Woken) {
            park.wait();
        }
        system.waiters.remove(&waiter);
        if armed {
            system.timers.disarm(&waiter);
        }
        TxStats::bump(&thread.stats.desched_skips);
        debug_assert_eq!(park.permits(), 0, "a permit left by this sleep");
        return DescheduleOutcome::SkippedSleep;
    }

    TxStats::bump(&thread.stats.sleeps);
    // Hand the CPU over once before blocking: a waker sharing it then runs,
    // claims the waiter and posts while nobody is blocked, and the wait
    // below takes that permit without a system call.
    std::thread::yield_now();
    if !waiter.is_asleep() {
        TxStats::bump(&thread.stats.yield_handoffs);
    }
    match deadline {
        None => park.wait(),
        Some(d) => {
            // The deadline passed with no signal: claim the timeout
            // ourselves.  Losing this claim means a waker got in just
            // before us and its reason stands; take the post it owes.
            if !park.wait_deadline(d) && !system.waiters.claim(&waiter, WakeReason::Timeout) {
                park.wait();
            }
        }
    }
    let reason = waiter
        .wake_reason()
        .expect("the park is posted only for a claimed waiter");
    // A writer, our own timeout or `cancel_thread` deregistered the waiter
    // when it won the claim; a cancel by handle or the timer wheel did not.
    system.waiters.remove(&waiter);
    if armed {
        system.timers.disarm(&waiter);
    }
    match reason {
        WakeReason::Woken => {}
        WakeReason::Timeout => TxStats::bump(&thread.stats.wake_timeouts),
        WakeReason::Cancelled => TxStats::bump(&thread.stats.wake_cancels),
    }
    debug_assert_eq!(park.permits(), 0, "a permit left by this sleep");
    DescheduleOutcome::Slept(reason)
}

/// Lazily advances the system's timer wheel, expiring timed waiters whose
/// deadlines have passed.
///
/// Called from the committing-writer wake path (behind the empty-registry
/// fast path) and from the driver's contention-backoff path; costs one
/// atomic load when no timer is armed — the clock is read only after that
/// check, since a commit with untimed sleepers parked pays this every time.
pub fn poll_timers(rt: &dyn TmRuntime, thread: &Arc<ThreadCtx>) {
    let timers = &rt.system().timers;
    if timers.idle() {
        return;
    }
    let poll = timers.poll(Instant::now());
    if poll.ticks > 0 {
        TxStats::add(&thread.stats.timer_ticks, poll.ticks);
    }
}

/// The wake scan a writer commit owes (Algorithm 4, `wakeWaiters`): every
/// shard after a serial commit, which leaves no write-set metadata, else the
/// shards of the commit's stripe `cover`, which is moved into the wake set
/// rather than copied and handed back in place.
///
/// The driver calls this after a transaction's last commit and
/// [`Tx::commit_and_wait`] after the commit at a wait point.  Each wake
/// check is a transaction of its own on `thread`, so a caller still holding
/// the thread's descriptor makes them run on a cold one.
pub(crate) fn wake_after_commit(
    rt: &dyn TmRuntime,
    thread: &Arc<ThreadCtx>,
    serial: bool,
    cover: &mut Vec<usize>,
) {
    let wake_set = if serial {
        WakeSet::All
    } else {
        WakeSet::Stripes(std::mem::take(cover))
    };
    wake_waiters_matching(rt, thread, &wake_set);
    if let WakeSet::Stripes(stripes) = wake_set {
        *cover = stripes;
    }
}

/// Gathers the waiters registered under the stripes of `wake` after a writer
/// commit and wakes every sleeper whose condition now holds (Algorithm 4,
/// `wakeWaiters`, sharded).
///
/// Each condition is evaluated in its own read-only transaction; on the HTM
/// runtime these run as (simulated) hardware transactions, which is why the
/// paper keeps the wake-up computation small and contention-free.
pub fn wake_waiters_matching(rt: &dyn TmRuntime, thread: &Arc<ThreadCtx>, wake: &WakeSet) {
    let waiters = &rt.system().waiters;
    // Fast path: nobody is waiting (the common case, and the reason in-flight
    // transactions see no overhead from the mechanism).
    if waiters.is_empty() {
        return;
    }
    // Someone is waiting, so this commit also lends a hand to the timed
    // waiters: advance the lazily driven timer wheel before scanning.  Kept
    // behind the fast path above so the no-sleeper commit stays one atomic
    // load.
    poll_timers(rt, thread);
    if let WakeSet::Stripes(_) = wake {
        TxStats::bump(&thread.stats.wake_targeted);
    }
    // Second fast path: sleepers exist, but none this commit could affect.
    // Count loads only; no lock, no buffer.
    if !waiters.any_covered(wake) {
        return;
    }
    // Shallow copy of the covered waiters, into the thread's reused buffer,
    // so the checks happen without holding any registry lock.
    let mut candidates = std::mem::take(&mut thread.checkout().wake_candidates);
    let scanned = waiters.scan_into(wake, &mut candidates);
    TxStats::add(&thread.stats.wake_shard_scans, scanned as u64);
    for waiter in &candidates {
        if !waiter.is_asleep() {
            continue;
        }
        TxStats::bump(&thread.stats.wake_checks);
        // Deregister before posting: the commits this thread makes until the
        // sleeper runs again then find it gone instead of scanning it.
        if check(rt, thread, waiter) && waiters.claim(waiter, WakeReason::Woken) {
            waiter.sem.post();
            TxStats::bump(&thread.stats.wakeups);
        }
    }
    candidates.clear();
    thread.checkout().wake_candidates = candidates;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use crate::config::TmConfig;
    use crate::orec::OrecValue;
    use crate::sem::Semaphore;
    use crate::tx::TxMode;

    /// A toy runtime whose "transactions" are direct heap accesses; adequate
    /// for exercising the deschedule/wake protocol in isolation.
    #[derive(Debug)]
    struct ToyRuntime {
        system: Arc<TmSystem>,
        exec_count: AtomicU64,
    }

    struct ToyTx {
        common: TxCommon,
        system: Arc<TmSystem>,
        thread: Arc<ThreadCtx>,
    }

    impl Tx for ToyTx {
        fn read(&mut self, addr: Addr) -> TxResult<u64> {
            Ok(self.system.heap.load(addr))
        }
        fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
            self.system.heap.store(addr, val);
            Ok(())
        }
        fn alloc(&mut self, words: usize) -> TxResult<Addr> {
            Ok(self.system.heap.alloc(words).unwrap())
        }
        fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
            self.system.heap.dealloc(addr, words);
            Ok(())
        }
        fn common(&self) -> &TxCommon {
            &self.common
        }
        fn common_mut(&mut self) -> &mut TxCommon {
            &mut self.common
        }
        fn system(&self) -> &Arc<TmSystem> {
            &self.system
        }
        fn thread(&self) -> &Arc<ThreadCtx> {
            &self.thread
        }
    }

    impl TmRuntime for ToyRuntime {
        fn system(&self) -> &Arc<TmSystem> {
            &self.system
        }
        fn exec_bool(
            &self,
            thread: &Arc<ThreadCtx>,
            body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
        ) -> bool {
            self.atomically(thread, body)
        }
        /// Runs the body once on a [`ToyTx`].
        fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, mut body: F) -> T
        where
            F: FnMut(&mut dyn Tx) -> TxResult<T>,
        {
            self.exec_count.fetch_add(1, Ordering::Relaxed);
            let mut tx = ToyTx {
                common: TxCommon::new(TxMode::Software, 0),
                system: Arc::clone(&self.system),
                thread: Arc::clone(thread),
            };
            body(&mut tx).expect("toy runtime cannot abort")
        }
        fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
        where
            F: FnMut(&mut dyn Tx) -> TxResult<T>,
        {
            self.atomically(thread, body)
        }
    }

    fn toy() -> (Arc<TmSystem>, ToyRuntime) {
        let system = TmSystem::new(TmConfig::small());
        let rt = ToyRuntime {
            system: Arc::clone(&system),
            exec_count: AtomicU64::new(0),
        };
        (system, rt)
    }

    /// A waiter's first footprint, found the way `deschedule` finds it: a
    /// values-changed condition's stripes, or the stripes a first (false)
    /// evaluation of a predicate read.
    fn first_footprint(rt: &ToyRuntime, w: &Arc<Waiter>) -> Vec<usize> {
        let mut stripes = w.condition.stripes(&rt.system.orecs);
        if let WaitCondition::Pred { .. } = w.condition {
            let th = rt.system.register_thread();
            assert!(!evaluate(rt, &th, &w.condition, &mut stripes));
        }
        stripes
    }

    fn register_manually(rt: &ToyRuntime, w: &Arc<Waiter>) -> Vec<usize> {
        let stripes = first_footprint(rt, w);
        rt.system.waiters.register(Arc::clone(w), &stripes);
        stripes
    }

    /// Ends a park-balance case: `th`'s park semaphore holds no permit, and
    /// — the proof that matters — its next untimed sleep lasts until a
    /// writer establishes the condition, which a stale permit would cut
    /// short.
    fn assert_park_balanced(rt: &Arc<ToyRuntime>, th: &Arc<ThreadCtx>) {
        assert_eq!(th.park.permits(), 0, "a sleep left a permit behind");
        let word = Addr(90);
        rt.system.heap.store(word, 0);
        let sleeps = th.stats.snapshot().sleeps;
        let (rt2, th2) = (Arc::clone(rt), Arc::clone(th));
        let sleeper = std::thread::spawn(move || {
            let outcome = deschedule(
                rt2.as_ref(),
                &th2,
                WaitCondition::ValuesChanged(vec![(word, 0)]),
            );
            (outcome, rt2.system.heap.load(word))
        });
        while th.stats.snapshot().sleeps == sleeps && !sleeper.is_finished() {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(!sleeper.is_finished(), "the sleep ended before any writer");
        rt.system.heap.store(word, 1);
        let writer = rt.system.register_thread();
        wake_waiters_matching(rt.as_ref(), &writer, &WakeSet::All);
        assert_eq!(
            sleeper.join().unwrap(),
            (DescheduleOutcome::Slept(WakeReason::Woken), 1)
        );
        assert_eq!(th.park.permits(), 0);
        let stats = th.stats.snapshot();
        assert!(stats.yield_handoffs <= stats.sleeps, "{stats:?}");
    }

    #[test]
    fn double_check_skips_sleep_when_condition_holds() {
        let (system, rt) = toy();
        let th = system.register_thread();
        // Memory already differs from the recorded value -> no sleep.
        system.heap.store(Addr(10), 5);
        let outcome = deschedule(&rt, &th, WaitCondition::ValuesChanged(vec![(Addr(10), 4)]));
        assert_eq!(outcome, DescheduleOutcome::SkippedSleep);
        assert!(system.waiters.is_empty(), "waiter must deregister itself");
        assert_eq!(th.stats.snapshot().desched_skips, 1);
        assert_eq!(th.stats.snapshot().sleeps, 0);
        assert_park_balanced(&Arc::new(rt), &th);
    }

    /// `args = [thread]`: false until that thread's waiter is registered;
    /// then claims and posts it, as a writer committing between the
    /// registration and the double-check would, and holds.
    fn claimed_meanwhile(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
        let Some(w) = tx.system().waiters.find_by_thread(args[0] as usize) else {
            return Ok(false);
        };
        if tx.system().waiters.claim(&w, WakeReason::Woken) {
            w.sem.post();
        }
        Ok(true)
    }

    /// A double-check that loses its claim to a waker takes the waker's
    /// post, so the skip leaves the park empty.
    #[test]
    fn a_double_check_that_loses_its_claim_takes_the_wakers_post() {
        let (system, rt) = toy();
        let th = system.register_thread();
        let condition = WaitCondition::Pred {
            f: claimed_meanwhile,
            args: vec![th.id as u64],
        };
        assert_eq!(
            deschedule(&rt, &th, condition),
            DescheduleOutcome::SkippedSleep
        );
        assert!(system.waiters.is_empty());
        assert_park_balanced(&Arc::new(rt), &th);
    }

    #[test]
    fn writer_wakes_sleeping_thread() {
        let (system, rt) = toy();
        let waiter_thread = system.register_thread();
        let writer_thread = system.register_thread();
        system.heap.store(Addr(20), 0);

        let system2 = Arc::clone(&system);
        let rt = Arc::new(rt);
        let rt2 = Arc::clone(&rt);
        let wt = Arc::clone(&waiter_thread);
        let sleeper = std::thread::spawn(move || {
            deschedule(
                rt2.as_ref(),
                &wt,
                WaitCondition::ValuesChanged(vec![(Addr(20), 0)]),
            )
        });

        // Wait until the sleeper is registered and actually asleep.
        while system2.waiters.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));

        // "Commit" a write that changes the value, then run wakeWaiters.
        system.heap.store(Addr(20), 7);
        wake_waiters_matching(rt.as_ref(), &writer_thread, &WakeSet::All);

        assert_eq!(
            sleeper.join().unwrap(),
            DescheduleOutcome::Slept(WakeReason::Woken)
        );
        assert_eq!(writer_thread.stats.snapshot().wakeups, 1);
        assert!(system.waiters.is_empty());
        assert_park_balanced(&rt, &waiter_thread);
    }

    #[test]
    fn targeted_wake_reaches_sleeper_through_its_stripe() {
        let (system, rt) = toy();
        let waiter_thread = system.register_thread();
        let writer_thread = system.register_thread();
        system.heap.store(Addr(21), 0);

        let system2 = Arc::clone(&system);
        let rt = Arc::new(rt);
        let rt2 = Arc::clone(&rt);
        let wt = Arc::clone(&waiter_thread);
        let sleeper = std::thread::spawn(move || {
            deschedule(
                rt2.as_ref(),
                &wt,
                WaitCondition::ValuesChanged(vec![(Addr(21), 0)]),
            )
        });
        while system2.waiters.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));

        system.heap.store(Addr(21), 7);
        let stripe = system.orecs.index_for(Addr(21));
        wake_waiters_matching(rt.as_ref(), &writer_thread, &WakeSet::Stripes(vec![stripe]));

        assert_eq!(
            sleeper.join().unwrap(),
            DescheduleOutcome::Slept(WakeReason::Woken)
        );
        let stats = writer_thread.stats.snapshot();
        assert_eq!(stats.wakeups, 1);
        assert_eq!(stats.wake_targeted, 1);
        assert!(stats.wake_shard_scans >= 1);
        assert!(system.waiters.is_empty());
    }

    #[test]
    fn targeted_wake_skips_unrelated_stripes() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        system.heap.store(Addr(30), 0);
        let sem = Arc::new(Semaphore::new());
        let w = Waiter::new(
            99,
            WaitCondition::ValuesChanged(vec![(Addr(30), 0)]),
            Arc::clone(&sem),
        );
        let stripes = register_manually(&rt, &w);

        // Pick a stripe that maps to a different shard than the waiter's.
        let waiter_shard = system.waiters.shard_of(stripes[0]);
        let other_stripe = (0..system.orecs.len())
            .find(|&s| system.waiters.shard_of(s) != waiter_shard)
            .expect("more than one shard");

        // The value HAS changed, but the writer only wrote an unrelated
        // stripe, so the targeted scan must not even evaluate the waiter.
        system.heap.store(Addr(30), 1);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![other_stripe]));
        assert!(w.is_asleep(), "unrelated commit must not wake the sleeper");
        let snap = writer.stats.snapshot();
        assert_eq!(snap.wake_checks, 0);
        assert_eq!((snap.wake_targeted, snap.wake_shard_scans), (1, 0));

        // A commit touching the right stripe wakes it.
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(stripes.clone()));
        assert!(!w.is_asleep());
        assert_eq!(sem.permits(), 1);
        system.waiters.remove(&w);
    }

    #[test]
    fn waiters_on_other_stripes_of_a_scanned_shard_are_not_checked() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        // Two words whose stripes differ but alias one registry shard.
        let shard = |a: usize| system.waiters.shard_of(system.orecs.index_for(Addr(a)));
        let first = 100usize;
        let second = (first + 1..system.heap.len())
            .find(|&a| {
                shard(a) == shard(first)
                    && system.orecs.index_for(Addr(a)) != system.orecs.index_for(Addr(first))
            })
            .expect("some other stripe shares the shard");
        let mut waiters = Vec::new();
        for addr in [first, second] {
            system.heap.store(Addr(addr), 0);
            let w = Waiter::new(
                addr,
                WaitCondition::ValuesChanged(vec![(Addr(addr), 0)]),
                Arc::new(Semaphore::new()),
            );
            register_manually(&rt, &w);
            waiters.push(w);
        }

        // Both values changed, but the commit wrote only the first stripe.
        system.heap.store(Addr(first), 1);
        system.heap.store(Addr(second), 1);
        let stripe = system.orecs.index_for(Addr(first));
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![stripe]));
        let stats = writer.stats.snapshot();
        assert_eq!(
            stats.wake_checks, 1,
            "only the waiter on the written stripe"
        );
        assert_eq!(stats.wake_shard_scans, 1);
        assert!(!waiters[0].is_asleep());
        assert!(waiters[1].is_asleep());

        // A commit with no write-set information still checks everyone.
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        assert!(!waiters[1].is_asleep());
        for w in &waiters {
            system.waiters.remove(w);
        }
    }

    #[test]
    fn silent_store_does_not_wake() {
        let (system, rt) = toy();
        let writer_thread = system.register_thread();
        system.heap.store(Addr(30), 9);
        // Register a waiter manually (not sleeping on a real thread).
        let sem = Arc::new(Semaphore::new());
        let w = Waiter::new(
            99,
            WaitCondition::ValuesChanged(vec![(Addr(30), 9)]),
            Arc::clone(&sem),
        );
        register_manually(&rt, &w);

        // A "silent store" writes the same value; the waiter must not wake.
        system.heap.store(Addr(30), 9);
        wake_waiters_matching(&rt, &writer_thread, &WakeSet::All);
        assert!(w.is_asleep());
        assert_eq!(sem.permits(), 0);

        // A real change wakes it.
        system.heap.store(Addr(30), 10);
        wake_waiters_matching(&rt, &writer_thread, &WakeSet::All);
        assert!(!w.is_asleep());
        assert_eq!(sem.permits(), 1);
        system.waiters.remove(&w);
    }

    /// A `Retry-Orig` condition over `cover`, captured as a software attempt
    /// captures it while its start is still published.
    fn locks(system: &TmSystem, cover: &[usize]) -> WaitCondition {
        WaitCondition::LocksMoved {
            cover: cover.to_vec(),
            start: system.clock.now(),
            serial: system.serial.writer_commits(),
        }
    }

    /// Algorithm 1's rules, kept by a `LocksMoved` waiter: it sleeps only
    /// while its cover is unmoved, and is woken by a commit to a covered
    /// stripe and by no other, checked without opening a transaction.
    #[test]
    fn retry_orig_sleepers_wake_on_an_intersecting_commit_only() {
        let (system, rt) = toy();
        let th = system.register_thread();
        // What a writer commit leaves in a stripe's orec: a newer version.
        let committed = OrecValue::unlocked(system.clock.now() + 1);
        let stale = locks(&system, &[1]);
        system.orecs.store(1, committed);
        assert_eq!(deschedule(&rt, &th, stale), DescheduleOutcome::SkippedSleep);

        let waiters = [vec![5], vec![5, 6], vec![7]]
            .map(|cover| Waiter::new(0, locks(&system, &cover), Arc::new(Semaphore::new())));
        for w in &waiters {
            register_manually(&rt, w);
        }
        system.orecs.store(3, committed);
        wake_waiters_matching(&rt, &th, &WakeSet::Stripes(vec![3]));
        system.orecs.store(5, committed);
        wake_waiters_matching(&rt, &th, &WakeSet::All);
        assert_eq!(waiters.each_ref().map(|w| w.sem.permits()), [1, 1, 0]);
        let stats = th.stats.snapshot();
        assert_eq!((stats.wake_checks, stats.wakeups), (3, 2), "stripe 3: none");
        assert_eq!(rt.exec_count.load(Ordering::Relaxed), 0, "no transaction");

        for w in [&waiters[0], &waiters[0], &waiters[1]] {
            system.waiters.remove(w);
        }
        let left = system.waiters.snapshot();
        assert!(left.len() == 1 && Arc::ptr_eq(&left[0], &waiters[2]));
    }

    /// Serial sections write in place and never touch an orec, so a
    /// `Retry-Orig` condition sees them through the gate's writer-commit
    /// count: a serial commit that lands between the attempt's rollback and
    /// its registration (when no scan can find it) must skip the sleep.
    #[test]
    fn a_serial_commit_before_registration_skips_the_retry_orig_sleep() {
        let (system, rt) = toy();
        let th = system.register_thread();
        let captured = locks(&system, &[system.orecs.index_for(Addr(80))]);
        let serial = crate::serial::SerialAttempt::begin(&system, &th);
        system.heap.store(Addr(80), 1);
        serial.commit(true);
        let outcome = deschedule(&rt, &th, captured);
        assert_eq!(outcome, DescheduleOutcome::SkippedSleep);
    }

    #[test]
    fn waiter_is_signalled_at_most_once() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        system.heap.store(Addr(40), 1);
        let sem = Arc::new(Semaphore::new());
        let w = Waiter::new(
            7,
            WaitCondition::ValuesChanged(vec![(Addr(40), 0)]),
            Arc::clone(&sem),
        );
        register_manually(&rt, &w);
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        assert_eq!(sem.permits(), 1, "exactly one signal per sleep");
    }

    /// The claim's winner deregisters before it posts: a woken sleeper that
    /// has not run yet is already out of the registry, so the waker's next
    /// commit takes the empty-registry fast path instead of scanning it.
    #[test]
    fn a_woken_waiter_leaves_the_registry_before_its_sleeper_runs() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        let sleeper = system.register_thread();
        let word = Addr(72);
        system.heap.store(word, 0);
        let w = Waiter::new(
            sleeper.id,
            WaitCondition::ValuesChanged(vec![(word, 0)]),
            Arc::clone(&sleeper.park),
        );
        let wake = WakeSet::Stripes(register_manually(&rt, &w));
        system.heap.store(word, 1);
        wake_waiters_matching(&rt, &writer, &wake);
        assert!(system.waiters.is_empty(), "the winner deregistered it");
        assert_eq!(w.wake_reason(), Some(WakeReason::Woken));
        assert_eq!(sleeper.park.permits(), 1, "posted once");
        let targeted = writer.stats.snapshot().wake_targeted;
        assert_eq!(targeted, 1);
        wake_waiters_matching(&rt, &writer, &wake);
        assert_eq!(
            writer.stats.snapshot().wake_targeted,
            targeted,
            "the next commit finds no unclaimed sleeper and scans nothing"
        );
        // What the sleeper does when it runs: take the post, remove (a no-op).
        sleeper.park.wait();
        system.waiters.remove(&w);
        assert!(system.waiters.is_empty());
    }

    #[test]
    fn predicate_conditions_are_evaluated_transactionally() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        fn above_threshold(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(tx.read(Addr(args[0] as usize))? > args[1])
        }
        system.heap.store(Addr(50), 3);
        let sem = Arc::new(Semaphore::new());
        let w = Waiter::new(
            1,
            WaitCondition::Pred {
                f: above_threshold,
                args: vec![50, 10],
            },
            Arc::clone(&sem),
        );
        let stripes = register_manually(&rt, &w);
        assert_eq!(stripes, vec![system.orecs.index_for(Addr(50))]);

        // Value changes but predicate still false: no wake (this is the
        // false-wake-up immunity WaitPred buys over Retry).
        system.heap.store(Addr(50), 8);
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        assert!(w.is_asleep());
        assert_eq!(writer.stats.snapshot().wake_checks, 1);

        // The predicate is indexed by the stripe it read, so a targeted
        // commit that wrote elsewhere does not evaluate it — even though it
        // would now hold.
        system.heap.store(Addr(50), 11);
        let elsewhere = (0..system.orecs.len())
            .find(|s| !stripes.contains(s))
            .expect("more than one stripe");
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![elsewhere]));
        assert!(w.is_asleep());
        assert_eq!(writer.stats.snapshot().wake_checks, 1);

        // The commit that wrote its stripe does.
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(stripes));
        assert!(!w.is_asleep());
        assert_eq!(sem.permits(), 1);
        assert_eq!(writer.stats.snapshot().pred_reindexes, 0);
        system.waiters.remove(&w);
    }

    /// `args = [sel, a, b, want]`: compares the word `sel` currently selects.
    fn selected_equals(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
        let pick = if tx.read(Addr(args[0] as usize))? == 0 {
            args[1]
        } else {
            args[2]
        };
        Ok(tx.read(Addr(pick as usize))? == args[3])
    }

    #[test]
    fn a_check_that_reads_a_new_stripe_publishes_it_before_answering_no() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        let (sel, a, b) = (Addr(70), Addr(700), Addr(1400));
        let stripe = |addr| system.orecs.index_for(addr);
        assert!(stripe(a) != stripe(b) && stripe(sel) != stripe(b));
        let w = Waiter::new(
            1,
            WaitCondition::Pred {
                f: selected_equals,
                args: vec![sel.0 as u64, a.0 as u64, b.0 as u64, 9],
            },
            Arc::new(Semaphore::new()),
        );
        let first = register_manually(&rt, &w);
        assert_eq!(first, vec![stripe(sel), stripe(a)], "in read order");
        assert!(!w.covers(&[stripe(b)]));

        // A commit flips the selector; the predicate is still false, but it
        // now depends on `b`, which no commit would have found the waiter
        // under.  The flipping commit's own check must close that gap.
        system.heap.store(sel, 1);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![stripe(sel)]));
        assert!(w.is_asleep());
        assert!(w.covers(&[stripe(sel), stripe(b)]));
        let stats = writer.stats.snapshot();
        assert_eq!(stats.pred_reindexes, 1);
        assert_eq!(stats.wake_checks, 1, "re-evaluating is part of one check");
        assert_eq!(
            rt.exec_count.load(Ordering::Relaxed),
            3,
            "the first footprint, then evaluate, publish, evaluate again"
        );

        // Satisfied through the newly read word only.
        system.heap.store(b, 9);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![stripe(b)]));
        assert!(!w.is_asleep());
        assert_eq!(writer.stats.snapshot().pred_reindexes, 1);
        system.waiters.remove(&w);
        assert!(system.waiters.scan(&WakeSet::All).waiters.is_empty());
    }

    #[test]
    fn predicates_without_a_usable_footprint_go_to_the_overflow_shard() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        fn never(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(false)
        }
        /// Reads `args[0]` consecutive words from `args[1]`; true once the
        /// first is non-zero.
        fn wide(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            let mut first = 0;
            for i in (0..args[0]).rev() {
                first = tx.read(Addr((args[1] + i) as usize))?;
            }
            Ok(first != 0)
        }
        let reads_nothing = Waiter::new(
            1,
            WaitCondition::Pred {
                f: never,
                args: vec![],
            },
            Arc::new(Semaphore::new()),
        );
        let too_wide = Waiter::new(
            2,
            WaitCondition::Pred {
                f: wide,
                args: vec![4 * PRED_FOOTPRINT_CAP as u64, 2000],
            },
            Arc::new(Semaphore::new()),
        );
        // What `deschedule_until` does with a first footprint.
        for w in [&reads_nothing, &too_wide] {
            let footprint = first_footprint(&rt, w);
            system
                .waiters
                .register(Arc::clone(w), indexable(&footprint));
            assert!(w.covers(&[12345]), "overflow covers every stripe");
        }
        // Every commit checks them, wherever it wrote.
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![3]));
        assert_eq!(writer.stats.snapshot().wake_checks, 2);
        system.heap.store(Addr(2000), 1);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![3]));
        assert!(!too_wide.is_asleep() && reads_nothing.is_asleep());
        assert_eq!(writer.stats.snapshot().pred_reindexes, 0);

        // A predicate that widens while registered is moved there by the
        // check that notices.
        system.heap.store(Addr(2000), 0);
        let widens = Waiter::new(
            3,
            WaitCondition::Pred {
                f: wide,
                args: vec![4 * PRED_FOOTPRINT_CAP as u64, 2000],
            },
            Arc::new(Semaphore::new()),
        );
        let narrow = [system.orecs.index_for(Addr(2000))];
        system.waiters.register(Arc::clone(&widens), &narrow);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(narrow.to_vec()));
        assert!(widens.is_asleep());
        assert!(widens.covers(&[12345]));
        assert_eq!(writer.stats.snapshot().pred_reindexes, 1);
        for w in [&reads_nothing, &too_wide, &widens] {
            system.waiters.remove(w);
        }
        assert!(system.waiters.is_empty());
    }

    #[test]
    fn timed_deschedule_times_out_without_writer() {
        let (system, rt) = toy();
        let th = system.register_thread();
        system.heap.store(Addr(60), 0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(25);
        let outcome = deschedule_until(
            &rt,
            &th,
            WaitCondition::ValuesChanged(vec![(Addr(60), 0)]),
            Some(deadline),
        );
        assert_eq!(outcome, DescheduleOutcome::Slept(WakeReason::Timeout));
        assert!(system.waiters.is_empty(), "timed-out waiter deregisters");
        assert!(system.timers.idle(), "timed-out waiter disarms");
        let stats = th.stats.snapshot();
        assert_eq!(stats.wake_timeouts, 1);
        assert_eq!(stats.sleeps, 1);
        assert_park_balanced(&Arc::new(rt), &th);
    }

    #[test]
    fn already_expired_deadline_resolves_without_arming() {
        let (system, rt) = toy();
        let th = system.register_thread();
        system.heap.store(Addr(61), 0);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let outcome = deschedule_until(
            &rt,
            &th,
            WaitCondition::ValuesChanged(vec![(Addr(61), 0)]),
            Some(past),
        );
        assert_eq!(outcome, DescheduleOutcome::Slept(WakeReason::Timeout));
        assert!(system.timers.idle());
        assert_eq!(th.stats.snapshot().wake_timeouts, 1);
    }

    #[test]
    fn timed_deschedule_skips_sleep_when_condition_holds() {
        let (system, rt) = toy();
        let th = system.register_thread();
        system.heap.store(Addr(62), 5);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let outcome = deschedule_until(
            &rt,
            &th,
            WaitCondition::ValuesChanged(vec![(Addr(62), 4)]),
            Some(deadline),
        );
        assert_eq!(outcome, DescheduleOutcome::SkippedSleep);
        assert_eq!(outcome.reason(), WakeReason::Woken);
        assert!(system.timers.idle(), "skipped sleep must disarm its timer");
        assert_eq!(th.stats.snapshot().wake_timeouts, 0);
    }

    #[test]
    fn wake_beats_deadline() {
        let (system, rt) = toy();
        let waiter_thread = system.register_thread();
        let writer_thread = system.register_thread();
        system.heap.store(Addr(63), 0);

        let system2 = Arc::clone(&system);
        let rt = Arc::new(rt);
        let rt2 = Arc::clone(&rt);
        let wt = Arc::clone(&waiter_thread);
        let sleeper = std::thread::spawn(move || {
            deschedule_until(
                rt2.as_ref(),
                &wt,
                WaitCondition::ValuesChanged(vec![(Addr(63), 0)]),
                Some(std::time::Instant::now() + std::time::Duration::from_secs(30)),
            )
        });
        while system2.waiters.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));

        system.heap.store(Addr(63), 7);
        wake_waiters_matching(rt.as_ref(), &writer_thread, &WakeSet::All);

        assert_eq!(
            sleeper.join().unwrap(),
            DescheduleOutcome::Slept(WakeReason::Woken)
        );
        let stats = waiter_thread.stats.snapshot();
        assert_eq!(stats.wake_timeouts, 0, "the wake won the race");
        assert!(system.timers.idle(), "woken sleeper disarms its timer");
    }

    #[test]
    fn cancelled_sleeper_reports_cancellation() {
        let (system, rt) = toy();
        let waiter_thread = system.register_thread();
        system.heap.store(Addr(64), 0);

        let system2 = Arc::clone(&system);
        let rt = Arc::new(rt);
        let rt2 = Arc::clone(&rt);
        let wt = Arc::clone(&waiter_thread);
        let tid = waiter_thread.id;
        let sleeper = std::thread::spawn(move || {
            deschedule_until(
                rt2.as_ref(),
                &wt,
                WaitCondition::ValuesChanged(vec![(Addr(64), 0)]),
                Some(std::time::Instant::now() + std::time::Duration::from_secs(30)),
            )
        });
        while system2.waiters.find_by_thread(tid).is_none() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));

        let w = system.waiters.find_by_thread(tid).expect("sleeper found");
        assert!(w.claim(WakeReason::Cancelled));
        w.sem.post();

        assert_eq!(
            sleeper.join().unwrap(),
            DescheduleOutcome::Slept(WakeReason::Cancelled)
        );
        assert_eq!(waiter_thread.stats.snapshot().wake_cancels, 1);
        assert!(system.waiters.is_empty());
        assert!(system.timers.idle());
        assert_park_balanced(&rt, &waiter_thread);
    }

    /// A waker that claims the waiter but posts only after the deadline has
    /// passed: the sleeper loses its own timeout claim, and its sleep lasts
    /// until that post arrives rather than leaving it for the next sleep.
    #[test]
    fn a_sleeper_that_loses_its_timeout_claim_takes_the_late_post() {
        let (system, rt) = toy();
        let rt = Arc::new(rt);
        let th = system.register_thread();
        system.heap.store(Addr(68), 0);
        let outcome = std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| {
                deschedule_until(
                    rt.as_ref(),
                    &th,
                    WaitCondition::ValuesChanged(vec![(Addr(68), 0)]),
                    Some(Instant::now() + Duration::from_millis(50)),
                )
            });
            let w = loop {
                match system.waiters.find_by_thread(th.id) {
                    Some(w) => break w,
                    None => std::thread::yield_now(),
                }
            };
            assert!(
                w.claim(WakeReason::Woken),
                "claimed well before the deadline"
            );
            std::thread::sleep(Duration::from_millis(100));
            w.sem.post();
            sleeper.join().unwrap()
        });
        assert_eq!(outcome, DescheduleOutcome::Slept(WakeReason::Woken));
        assert_park_balanced(&rt, &th);
    }

    /// Rounds of each park-balance race below.
    const RACES: u64 = 200;

    /// A commit landing before, during or just after a short timed sleep:
    /// whichever claim wins, the sleeper leaves the park empty.
    #[test]
    fn park_is_balanced_when_a_commit_races_the_deadline() {
        let (system, rt) = toy();
        let rt = Arc::new(rt);
        let th = system.register_thread();
        let writer = system.register_thread();
        let word = Addr(66);
        system.heap.store(word, 0);
        for round in 0..RACES {
            let outcome = std::thread::scope(|scope| {
                let sleeper = scope.spawn(|| {
                    deschedule_until(
                        rt.as_ref(),
                        &th,
                        WaitCondition::ValuesChanged(vec![(word, round)]),
                        Some(Instant::now() + Duration::from_micros(200)),
                    )
                });
                std::thread::sleep(Duration::from_micros(round % 8 * 50));
                system.heap.store(word, round + 1);
                wake_waiters_matching(rt.as_ref(), &writer, &WakeSet::All);
                sleeper.join().unwrap()
            });
            assert_ne!(outcome.reason(), WakeReason::Cancelled);
            assert_eq!(th.park.permits(), 0, "round {round}: {outcome:?}");
        }
        assert_park_balanced(&rt, &th);
    }

    /// A cancel racing the commit that establishes the condition: one of
    /// them claims, and the sleeper takes exactly that one post.
    #[test]
    fn park_is_balanced_when_a_cancel_races_a_commit() {
        let (system, rt) = toy();
        let rt = Arc::new(rt);
        let th = system.register_thread();
        let writer = system.register_thread();
        let word = Addr(67);
        system.heap.store(word, 0);
        for round in 0..RACES {
            let outcome = std::thread::scope(|scope| {
                let sleeper = scope.spawn(|| {
                    deschedule(
                        rt.as_ref(),
                        &th,
                        WaitCondition::ValuesChanged(vec![(word, round)]),
                    )
                });
                let registered = loop {
                    match system.waiters.find_by_thread(th.id) {
                        None if !sleeper.is_finished() => std::thread::yield_now(),
                        found => break found,
                    }
                };
                if let Some(w) = registered {
                    scope.spawn(move || {
                        if w.claim(WakeReason::Cancelled) {
                            w.sem.post();
                        }
                    });
                    system.heap.store(word, round + 1);
                    wake_waiters_matching(rt.as_ref(), &writer, &WakeSet::All);
                }
                sleeper.join().unwrap()
            });
            assert_ne!(outcome.reason(), WakeReason::Timeout);
            assert_eq!(th.park.permits(), 0, "round {round}: {outcome:?}");
        }
        assert_park_balanced(&rt, &th);
    }

    #[test]
    fn committing_writers_drive_the_timer_wheel() {
        let (system, rt) = toy();
        let writer_thread = system.register_thread();
        system.heap.store(Addr(65), 0);

        // A parked timed waiter whose condition never becomes true: only the
        // timer wheel can end this wait.  Registered manually so no sleeper
        // thread races the writer's poll with its own semaphore backstop.
        let sem = Arc::new(Semaphore::new());
        let w = Waiter::with_deadline(
            99,
            WaitCondition::ValuesChanged(vec![(Addr(65), 0)]),
            Arc::clone(&sem),
            Some(std::time::Instant::now() + std::time::Duration::from_millis(10)),
        );
        register_manually(&rt, &w);
        system.timers.arm(&w);

        // Before the deadline a writer scan leaves the waiter alone (the
        // value is unchanged, so no condition-based wake either).
        wake_waiters_matching(&rt, &writer_thread, &WakeSet::All);
        assert!(w.is_asleep());

        std::thread::sleep(std::time::Duration::from_millis(15));
        wake_waiters_matching(&rt, &writer_thread, &WakeSet::All);
        assert_eq!(w.wake_reason(), Some(WakeReason::Timeout));
        assert_eq!(sem.permits(), 1, "expired waiter signalled exactly once");
        assert!(writer_thread.stats.snapshot().timer_ticks > 0);
        system.waiters.remove(&w);
        assert!(system.timers.idle(), "the poll consumed the wheel entry");
    }

    #[test]
    fn wake_waiters_with_empty_registry_runs_no_transactions() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        wake_waiters_matching(&rt, &writer, &WakeSet::All);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![1, 2, 3]));
        assert_eq!(rt.exec_count.load(Ordering::Relaxed), 0);
        let stats = writer.stats.snapshot();
        assert_eq!(stats.wake_checks, 0);
        assert_eq!(stats.wake_shard_scans, 0);
        assert_eq!(
            stats.wake_targeted, 0,
            "the fast path returns before any accounting"
        );
        let _ = system;
    }
}
