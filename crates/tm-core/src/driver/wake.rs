//! The Deschedule abstract mechanism (Algorithm 4): parking and waking.
//!
//! A transaction that discovers its precondition does not hold is rolled
//! back by the driver loop, which then calls [`deschedule`] with the
//! materialised wait condition.  `deschedule`:
//!
//! 1. publishes a [`Waiter`] record (condition + semaphore) in the sharded
//!    waiter registry, under every ownership-record stripe its condition
//!    covers (predicate conditions, which name no addresses, go to the
//!    registry's unindexed shard),
//! 2. re-evaluates the condition in a fresh read-only transaction
//!    (the "double-check" of Algorithm 4 lines 6–13) — publishing *before*
//!    checking is what removes the need to validate the read set atomically
//!    with the insertion, and is the key difference from Algorithm 1,
//! 3. sleeps on the semaphore if the condition still does not hold,
//! 4. deregisters itself upon wake-up and returns, at which point the driver
//!    re-executes the original transaction from its checkpoint.
//!
//! Writers call [`wake_waiters_matching`] strictly *after* committing, with
//! the stripes their commit wrote ([`Descriptor::cover`]): only the
//! shards covering those stripes — plus the unindexed shard — are scanned,
//! so a commit's wake work scales with the sleepers that could actually be
//! affected, not with every sleeper in the system.  The decision to wake is
//! still a computation over (now committed) shared memory, so it never
//! burdens the in-flight transaction — in particular hardware transactions
//! that never deschedule pay nothing beyond an empty-registry check (one
//! atomic load).
//!
//! This logic lives in `tm-core` because the unified driver loop
//! ([`super::run`]) is its only legitimate caller on the hot path; the
//! `condsync` crate re-exports the entry points as part of its public API.
//!
//! [`Descriptor::cover`]: crate::access::Descriptor::cover

use std::sync::Arc;
use std::time::Instant;

use crate::ctl::WaitCondition;
use crate::runtime::TmRuntime;
use crate::sem::Semaphore;
use crate::stats::TxStats;
use crate::thread::ThreadCtx;
use crate::waitlist::{Waiter, WakeReason, WakeSet};

/// Outcome of a [`deschedule`] / [`deschedule_until`] call, for the driver
/// loop, statistics and tests.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DescheduleOutcome {
    /// The double-check found the condition already established; the thread
    /// never slept.
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
///  double-check true ──▶ SkippedSleep            asleep (sem.wait_deadline)
///                                                 │          │          │
///                                       writer claim   timer/self   cancel
///                                         Woken         Timeout    Cancelled
///                                                 └──────────┼──────────┘
///                                                claim CAS: exactly one wins
/// ```
///
/// Timeout delivery is doubly covered: the system's lazily polled timer
/// wheel ([`crate::timer::TimerWheel`]) expires the waiter promptly while
/// other threads are running, and the sleeper's own
/// [`Semaphore::wait_deadline`] bounds the sleep even on an otherwise idle
/// system.  Whoever gets there first wins the one [`Waiter::claim`]; the
/// waiter is signalled at most once per sleep regardless.
pub fn deschedule_until(
    rt: &dyn TmRuntime,
    thread: &Arc<ThreadCtx>,
    condition: WaitCondition,
    deadline: Option<Instant>,
) -> DescheduleOutcome {
    let system = rt.system();
    TxStats::bump(&thread.stats.descheds);

    // A fresh semaphore per sleep avoids consuming permits left over from
    // earlier sleeps (a waiter can be woken spuriously and re-deschedule).
    let sem = Arc::new(Semaphore::new());
    // The stripes covering every address whose change could establish the
    // condition; any writer whose commit touches one of them scans the
    // covering shard, which is the no-lost-wakeups invariant.
    let stripes = condition.stripes(&system.orecs);
    let waiter = Waiter::with_deadline(thread.id, condition, Arc::clone(&sem), deadline);

    // Publish first, then double-check.  Any writer that commits after this
    // point will see us in its wakeWaiters scan; any writer that committed
    // before it is covered by the double-check below.
    system.waiters.register(Arc::clone(&waiter), &stripes);
    // Arm the timer wheel only for deadlines still in the future; an
    // already-expired deadline resolves below without ever arming.
    let armed = match deadline {
        Some(d) if d > Instant::now() => {
            system.timers.arm(&waiter);
            true
        }
        _ => false,
    };

    // The double-check is transactional bookkeeping of the wait protocol,
    // not an operation of its own: suspend any workload-declared operation
    // class so its commit does not add a second entry to the operation's
    // latency histogram.
    let op_class = thread.op_class();
    thread.clear_op_class();
    let established = rt.exec_bool(thread, &mut |tx| waiter.condition.should_wake(tx));
    if let Some(class) = op_class {
        thread.set_op_class(class);
    }
    if established {
        // Claim our own wake-up so a concurrent writer does not also signal
        // us; if the writer won the race the permit simply goes unused
        // because the semaphore is private to this sleep.
        waiter.claim(WakeReason::Woken);
        system.waiters.deregister(&waiter, &stripes);
        if armed {
            system.timers.disarm(&waiter);
        }
        TxStats::bump(&thread.stats.desched_skips);
        return DescheduleOutcome::SkippedSleep;
    }

    TxStats::bump(&thread.stats.sleeps);
    match deadline {
        None => sem.wait(),
        Some(d) => {
            if !sem.wait_deadline(d) {
                // The deadline passed with no signal: claim the timeout
                // ourselves.  Losing this claim means a waker (writer, timer
                // poll, or cancel) got in just before us and its reason
                // stands; the permit it posted goes unused, which is fine
                // because the semaphore is private to this sleep.
                waiter.claim(WakeReason::Timeout);
            }
        }
    }
    let reason = waiter.wake_reason().unwrap_or(WakeReason::Woken);
    system.waiters.deregister(&waiter, &stripes);
    if armed {
        system.timers.disarm(&waiter);
    }
    match reason {
        WakeReason::Woken => {}
        WakeReason::Timeout => TxStats::bump(&thread.stats.wake_timeouts),
        WakeReason::Cancelled => TxStats::bump(&thread.stats.wake_cancels),
    }
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

/// Conservative `wakeWaiters`: scans every shard of the registry.
///
/// Equivalent to [`wake_waiters_matching`] with [`WakeSet::All`]; kept as
/// the public entry point for callers that commit outside the driver loop
/// and do not know their write set.
pub fn wake_waiters(rt: &dyn TmRuntime, thread: &Arc<ThreadCtx>) {
    wake_waiters_matching(rt, thread, &WakeSet::All);
}

/// Scans the waiter-registry shards covered by `wake` after a writer commit
/// and wakes every sleeper whose condition now holds (Algorithm 4,
/// `wakeWaiters`, sharded).
///
/// Each condition is evaluated in its own read-only transaction; on the HTM
/// runtime these run as (simulated) hardware transactions, which is why the
/// paper keeps the wake-up computation small and contention-free.
pub fn wake_waiters_matching(rt: &dyn TmRuntime, thread: &Arc<ThreadCtx>, wake: &WakeSet) {
    let system = rt.system();
    // Fast path: nobody is waiting (the common case, and the reason in-flight
    // transactions see no overhead from the mechanism).
    if system.waiters.is_empty() {
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
    // Shallow copy of the relevant shards so the scan happens without
    // holding any registry lock.
    let plan = system.waiters.scan(wake);
    TxStats::add(&thread.stats.wake_shard_scans, plan.shards_scanned as u64);
    TxStats::add(&thread.stats.wake_shard_skips, plan.shards_skipped as u64);
    // Wake-check transactions run on the committer's thread but are not
    // part of the workload operation that committed: suspend any declared
    // operation class so each operation records exactly one latency entry.
    let op_class = thread.op_class();
    thread.clear_op_class();
    for waiter in plan.waiters {
        if !waiter.is_asleep() {
            continue;
        }
        TxStats::bump(&thread.stats.wake_checks);
        let should_wake = rt.exec_bool(thread, &mut |tx| waiter.condition.should_wake(tx));
        if should_wake && waiter.claim_wake() {
            waiter.sem.post();
            TxStats::bump(&thread.stats.wakeups);
        }
    }
    if let Some(class) = op_class {
        thread.set_op_class(class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::addr::Addr;
    use crate::config::TmConfig;
    use crate::ctl::{TxResult, WaitCondition};
    use crate::system::TmSystem;
    use crate::tx::{Tx, TxCommon, TxMode};

    /// A toy runtime whose "transactions" are direct heap accesses; adequate
    /// for exercising the deschedule/wake protocol in isolation.
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
        fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
            block();
            Ok(())
        }
        fn explicit_abort(&mut self, code: u8) -> crate::ctl::TxCtl {
            crate::ctl::TxCtl::Abort(crate::ctl::AbortReason::Explicit(code))
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
        fn name(&self) -> &'static str {
            "toy"
        }
        fn exec_u64(
            &self,
            thread: &Arc<ThreadCtx>,
            body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<u64>,
        ) -> u64 {
            self.exec_count.fetch_add(1, Ordering::Relaxed);
            let mut tx = ToyTx {
                common: TxCommon::new(TxMode::Software, 0),
                system: Arc::clone(&self.system),
                thread: Arc::clone(thread),
            };
            body(&mut tx).expect("toy runtime cannot abort")
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

    /// Registers a values-changed waiter under its condition's stripes, the
    /// way `deschedule` does.
    fn register_manually(system: &Arc<TmSystem>, w: &Arc<Waiter>) -> Vec<usize> {
        let stripes = w.condition.stripes(&system.orecs);
        system.waiters.register(Arc::clone(w), &stripes);
        stripes
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
        wake_waiters(rt.as_ref(), &writer_thread);

        assert_eq!(
            sleeper.join().unwrap(),
            DescheduleOutcome::Slept(WakeReason::Woken)
        );
        assert_eq!(writer_thread.stats.snapshot().wakeups, 1);
        assert!(system.waiters.is_empty());
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
        let stripes = register_manually(&system, &w);

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
        assert_eq!(writer.stats.snapshot().wake_checks, 0);
        assert!(writer.stats.snapshot().wake_shard_skips >= 1);

        // A commit touching the right stripe wakes it.
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(stripes.clone()));
        assert!(!w.is_asleep());
        assert_eq!(sem.permits(), 1);
        system.waiters.deregister(&w, &stripes);
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
        let stripes = register_manually(&system, &w);

        // A "silent store" writes the same value; the waiter must not wake.
        system.heap.store(Addr(30), 9);
        wake_waiters(&rt, &writer_thread);
        assert!(w.is_asleep());
        assert_eq!(sem.permits(), 0);

        // A real change wakes it.
        system.heap.store(Addr(30), 10);
        wake_waiters(&rt, &writer_thread);
        assert!(!w.is_asleep());
        assert_eq!(sem.permits(), 1);
        system.waiters.deregister(&w, &stripes);
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
        register_manually(&system, &w);
        wake_waiters(&rt, &writer);
        wake_waiters(&rt, &writer);
        wake_waiters(&rt, &writer);
        assert_eq!(sem.permits(), 1, "exactly one signal per sleep");
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
        register_manually(&system, &w);

        // Value changes but predicate still false: no wake (this is the
        // false-wake-up immunity WaitPred buys over Retry).
        system.heap.store(Addr(50), 8);
        wake_waiters(&rt, &writer);
        assert!(w.is_asleep());

        // Predicate waiters live in the unindexed shard, so even a targeted
        // commit that wrote "elsewhere" must evaluate them.
        system.heap.store(Addr(50), 11);
        wake_waiters_matching(&rt, &writer, &WakeSet::Stripes(vec![0]));
        assert!(!w.is_asleep());
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
        wake_waiters(rt.as_ref(), &writer_thread);

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
        let stripes = register_manually(&system, &w);
        system.timers.arm(&w);

        // Before the deadline a writer scan leaves the waiter alone (the
        // value is unchanged, so no condition-based wake either).
        wake_waiters(&rt, &writer_thread);
        assert!(w.is_asleep());

        std::thread::sleep(std::time::Duration::from_millis(15));
        wake_waiters(&rt, &writer_thread);
        assert_eq!(w.wake_reason(), Some(WakeReason::Timeout));
        assert_eq!(sem.permits(), 1, "expired waiter signalled exactly once");
        assert!(writer_thread.stats.snapshot().timer_ticks > 0);
        system.waiters.deregister(&w, &stripes);
        assert!(system.timers.idle(), "the poll consumed the wheel entry");
    }

    #[test]
    fn wake_waiters_with_empty_registry_runs_no_transactions() {
        let (system, rt) = toy();
        let writer = system.register_thread();
        wake_waiters(&rt, &writer);
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
