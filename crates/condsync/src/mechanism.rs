//! The condition-synchronization mechanisms: the user-facing constructs and
//! the enumeration the evaluation sweeps over.
//!
//! # Constructs
//!
//! [`retry`], [`await_addrs`] / [`await_one`], [`wait_pred`], [`retry_orig`]
//! and [`restart`] are called from *inside* a transaction body and return an
//! `Err(TxCtl::…)` that the body must propagate with `?`.  The unified
//! driver loop ([`tm_core::driver::run`]) then rolls the transaction back
//! and performs the requested action (deschedule, mode switch, or plain
//! restart).  This mirrors the paper's presentation, where `Retry`, `Await`
//! and `WaitPred` all reduce to `Deschedule(f, p)` after the transaction's
//! effects have been undone.
//!
//! # Enumeration
//!
//! [`Mechanism`] names the seven schemes of §2.4 — the five constructs above
//! plus the `Pthreads` and `TMCondVar` baselines — so workloads and figure
//! binaries can sweep over them uniformly.
//!
//! (Historically these lived in two separate modules, `mechanism` and
//! `mechanisms`; they are one module now.)

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use tm_core::{AbortReason, Addr, PredFn, Tx, TxCtl, TxResult, WaitSpec};

use crate::timed::{await_one_for, retry_for, wait_pred_for};

/// Explicit-abort code used by the [`restart`] baseline.
pub const RESTART_ABORT_CODE: u8 = 0xFE;

/// `Retry` (Algorithm 5): undo the transaction and sleep until some location
/// it read changes value.
///
/// The runtime handles the two-phase protocol: if the current attempt was not
/// logging `(addr, value)` pairs (first software attempt, or a hardware
/// attempt, which cannot log values at all), it restarts the transaction in
/// value-logging software mode; once the value log is populated the
/// transaction is descheduled with a [`WaitSpec::ReadSetValues`] condition.
/// The value log itself is a hash-indexed [`tm_core::access::WriteLog`] in
/// first-value-wins mode ([`tm_core::access::Descriptor::waitset`]), so
/// re-reads deduplicate in O(1) and re-logging attempts reuse its capacity.
///
/// Never returns `Ok`; the `T` parameter lets call sites use it in tail
/// position of any expression type.  For a deadline-bounded variant see
/// [`crate::retry_for`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_core::{TmConfig, TmRuntime, TmSystem, TmVar};
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let flag = TmVar::<u64>::alloc(&system, 0);
///
/// // A waiter blocks until *something it read* changes value...
/// let (rt2, system2, flag2) = (Arc::clone(&rt), Arc::clone(&system), flag.clone());
/// let waiter = std::thread::spawn(move || {
///     let th = system2.register_thread();
///     rt2.atomically(&th, |tx| {
///         let v = flag2.get(tx)?;
///         if v == 0 {
///             return condsync::retry(tx);
///         }
///         Ok(v)
///     })
/// });
///
/// // ...and a writer's commit wakes it.
/// let th = system.register_thread();
/// rt.atomically(&th, |tx| flag.set(tx, 9));
/// assert_eq!(waiter.join().unwrap(), 9);
/// ```
pub fn retry<T>(tx: &mut dyn Tx) -> TxResult<T> {
    // Unbounded: clear any deadline a timed construct stashed earlier in
    // this attempt, so the deschedule request carries exactly its own.
    tx.common_mut().wait_deadline = None;
    Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
}

/// `Await` (Algorithm 6): undo the transaction and sleep until one of the
/// given addresses changes value.
///
/// The addresses should have been read by the transaction (the paper assumes
/// this and our runtimes validate it during rollback); the runtime captures
/// their pre-transaction values after undoing the transaction's writes, while
/// its locks are still held, so the snapshot is consistent.  For a
/// deadline-bounded variant see [`crate::await_for`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_core::{TmConfig, TmRuntime, TmSystem, TmVar};
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let count = TmVar::<u64>::alloc(&system, 0);
///
/// let (rt2, system2, count2) = (Arc::clone(&rt), Arc::clone(&system), count.clone());
/// let waiter = std::thread::spawn(move || {
///     let th = system2.register_thread();
///     rt2.atomically(&th, |tx| {
///         let v = count2.get(tx)?;
///         if v == 0 {
///             // Wait on exactly this address, as Fig. 2.2 waits on <&count>.
///             return condsync::await_addrs(tx, &[count2.addr()]);
///         }
///         Ok(v)
///     })
/// });
///
/// let th = system.register_thread();
/// rt.atomically(&th, |tx| count.set(tx, 1));
/// assert_eq!(waiter.join().unwrap(), 1);
/// ```
pub fn await_addrs<T>(tx: &mut dyn Tx, addrs: &[Addr]) -> TxResult<T> {
    tx.common_mut().wait_deadline = None;
    Err(TxCtl::Deschedule(WaitSpec::Addrs(addrs.to_vec())))
}

/// Convenience wrapper for awaiting a single address (the common case in the
/// paper's bounded buffer, which waits on `&count`).
pub fn await_one<T>(tx: &mut dyn Tx, addr: Addr) -> TxResult<T> {
    await_addrs(tx, &[addr])
}

/// `WaitPred` (Algorithm 7): undo the transaction and sleep until `pred`
/// evaluates to true.
///
/// `args` are marshalled *by value* into the wait record: the paper notes the
/// waiter cannot point at objects it wrote, because those writes are undone
/// before the record is published.  For a deadline-bounded variant see
/// [`crate::wait_pred_for`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_core::{Addr, TmConfig, TmRuntime, TmSystem, TmVar, Tx, TxResult};
///
/// // Predicates are plain functions over transactional state.
/// fn at_least(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
///     Ok(tx.read(Addr(args[0] as usize))? >= args[1])
/// }
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let count = TmVar::<u64>::alloc(&system, 0);
///
/// let (rt2, system2, count2) = (Arc::clone(&rt), Arc::clone(&system), count.clone());
/// let waiter = std::thread::spawn(move || {
///     let th = system2.register_thread();
///     rt2.atomically(&th, |tx| {
///         let v = count2.get(tx)?;
///         if v < 2 {
///             // Immune to false wake-ups: only predicate-true commits wake us.
///             return condsync::wait_pred(tx, at_least, &[count2.addr().0 as u64, 2]);
///         }
///         Ok(v)
///     })
/// });
///
/// let th = system.register_thread();
/// for _ in 0..2 {
///     rt.atomically(&th, |tx| {
///         let v = count.get(tx)?;
///         count.set(tx, v + 1)
///     });
/// }
/// assert_eq!(waiter.join().unwrap(), 2);
/// ```
pub fn wait_pred<T>(tx: &mut dyn Tx, pred: PredFn, args: &[u64]) -> TxResult<T> {
    tx.common_mut().wait_deadline = None;
    Err(TxCtl::Deschedule(WaitSpec::Pred {
        f: pred,
        args: args.to_vec(),
    }))
}

/// The original lock-metadata `Retry` (Algorithm 1), kept as the `Retry-Orig`
/// baseline.  Needs STM lock metadata.  Its sleepers are ordinary waiters, so
/// [`crate::cancel_thread`] reaches them; it has no timed variant only
/// because none was asked for.
pub fn retry_orig<T>(tx: &mut dyn Tx) -> TxResult<T> {
    tx.common_mut().wait_deadline = None;
    Err(TxCtl::Deschedule(WaitSpec::OrigReadLocks))
}

/// The `Restart` baseline: abort and immediately re-execute the transaction
/// without sleeping.  Equivalent to a Conditional-Critical-Region retry loop.
pub fn restart<T>(_tx: &mut dyn Tx) -> TxResult<T> {
    Err(TxCtl::Abort(AbortReason::Explicit(RESTART_ABORT_CODE)))
}

#[cfg(test)]
mod construct_tests {
    use super::*;
    use tm_core::{DirectTx, TmConfig, TmSystem};

    fn direct_tx() -> DirectTx {
        DirectTx::new(&TmSystem::new(TmConfig::small()))
    }

    #[test]
    fn retry_requests_readset_deschedule() {
        let mut tx = direct_tx();
        match retry::<()>(&mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::ReadSetValues)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn condvar_wait_without_a_runtime_returns_its_request() {
        let mut tx = direct_tx();
        match crate::TmCondVar::new().wait(&mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(addrs))) => assert_eq!(addrs.len(), 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn await_carries_address_list() {
        let mut tx = direct_tx();
        match await_addrs::<()>(&mut tx, &[Addr(3), Addr(9)]) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(a))) => assert_eq!(a, vec![Addr(3), Addr(9)]),
            other => panic!("unexpected: {other:?}"),
        }
        match await_one::<()>(&mut tx, Addr(5)) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(a))) => assert_eq!(a, vec![Addr(5)]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn wait_pred_carries_function_and_args() {
        fn p(_tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(args[0] > 0)
        }
        let mut tx = direct_tx();
        match wait_pred::<()>(&mut tx, p, &[7, 8]) {
            Err(TxCtl::Deschedule(WaitSpec::Pred { args, .. })) => assert_eq!(args, vec![7, 8]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn retry_orig_requests_lock_based_deschedule() {
        let mut tx = direct_tx();
        match retry_orig::<()>(&mut tx) {
            Err(TxCtl::Deschedule(WaitSpec::OrigReadLocks)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn restart_is_an_explicit_abort() {
        let mut tx = direct_tx();
        match restart::<()>(&mut tx) {
            Err(TxCtl::Abort(AbortReason::Explicit(code))) => assert_eq!(code, RESTART_ABORT_CODE),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn mechanism_wait_dispatches_to_the_matching_construct() {
        fn p(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(true)
        }
        let mut tx = direct_tx();
        let mut wait = |m: Mechanism| m.wait::<()>(&mut tx, Addr(4), p, &[4, 1]).unwrap_err();
        assert!(matches!(
            wait(Mechanism::Retry),
            TxCtl::Deschedule(WaitSpec::ReadSetValues)
        ));
        assert!(matches!(
            wait(Mechanism::RetryOrig),
            TxCtl::Deschedule(WaitSpec::OrigReadLocks)
        ));
        assert!(matches!(
            wait(Mechanism::Await),
            TxCtl::Deschedule(WaitSpec::Addrs(a)) if a == [Addr(4)]
        ));
        assert!(matches!(
            wait(Mechanism::WaitPred),
            TxCtl::Deschedule(WaitSpec::Pred { args, .. }) if args == [4, 1]
        ));
        assert!(matches!(
            wait(Mechanism::Restart),
            TxCtl::Abort(AbortReason::Explicit(RESTART_ABORT_CODE))
        ));
        // The timed form stashes a deadline; the untimed one clears it.
        let timeout = Duration::from_secs(1);
        let _ = Mechanism::Await.wait_for::<()>(&mut tx, Addr(4), p, &[], timeout);
        assert!(tx.common().wait_deadline.is_some());
        let _ = Mechanism::Await.wait::<()>(&mut tx, Addr(4), p, &[]);
        assert!(tx.common().wait_deadline.is_none());
    }

    #[test]
    #[should_panic(expected = "does not support timed waits")]
    fn timed_wait_rejects_the_untimed_mechanisms() {
        fn p(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(true)
        }
        let timeout = Duration::from_secs(1);
        let _ = Mechanism::RetryOrig.wait_for::<()>(&mut direct_tx(), Addr(4), p, &[], timeout);
    }

    #[test]
    fn unbounded_constructs_clear_a_stale_deadline() {
        let mut tx = direct_tx();
        tx.common_mut().wait_deadline = Some(std::time::Instant::now());
        let _ = retry::<()>(&mut tx);
        assert!(tx.common().wait_deadline.is_none());

        tx.common_mut().wait_deadline = Some(std::time::Instant::now());
        let _ = await_addrs::<()>(&mut tx, &[Addr(1)]);
        assert!(tx.common().wait_deadline.is_none());

        fn p(_: &mut dyn Tx, _: &[u64]) -> TxResult<bool> {
            Ok(true)
        }
        tx.common_mut().wait_deadline = Some(std::time::Instant::now());
        let _ = wait_pred::<()>(&mut tx, p, &[]);
        assert!(tx.common().wait_deadline.is_none());

        tx.common_mut().wait_deadline = Some(std::time::Instant::now());
        let _ = retry_orig::<()>(&mut tx);
        assert!(tx.common().wait_deadline.is_none());
    }
}

/// The seven condition-synchronization mechanisms of §2.4.
///
/// # Examples
///
/// Workloads sweep over the enumeration and dispatch to the matching
/// construct; the labels round-trip through [`FromStr`] so harness CLI
/// arguments and figure legends agree:
///
/// ```
/// use condsync::Mechanism;
///
/// for m in Mechanism::ALL {
///     assert_eq!(m.label().parse::<Mechanism>().unwrap(), m);
/// }
/// assert!(Mechanism::Retry.is_deschedule_based());
/// assert!(!Mechanism::RetryOrig.supports_htm());
/// assert_eq!("retry-orig".parse::<Mechanism>(), Ok(Mechanism::RetryOrig));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Mechanism {
    /// Locks + POSIX-style condition variables (no transactions at all).
    Pthreads,
    /// Transactions + transaction-safe condition variables (breaks atomicity
    /// at the wait point).
    TmCondVar,
    /// The paper's predicate-based mechanism (Algorithm 7).
    WaitPred,
    /// The paper's explicit-address mechanism (Algorithm 6).
    Await,
    /// The paper's value-based Retry (Algorithm 5).
    Retry,
    /// The original lock-metadata Retry (Algorithm 1); software runtimes only.
    RetryOrig,
    /// Abort-and-immediately-restart baseline (no sleeping).
    Restart,
}

impl Mechanism {
    /// All mechanisms, in the order the paper's figure legends list them.
    pub const ALL: [Mechanism; 7] = [
        Mechanism::Pthreads,
        Mechanism::TmCondVar,
        Mechanism::WaitPred,
        Mechanism::Await,
        Mechanism::Retry,
        Mechanism::RetryOrig,
        Mechanism::Restart,
    ];

    /// The mechanisms that run on the HTM configuration (Retry-Orig is
    /// STM-only, so Figures 2.5 and 2.8 omit it).
    pub const HTM_SET: [Mechanism; 6] = [
        Mechanism::Pthreads,
        Mechanism::TmCondVar,
        Mechanism::WaitPred,
        Mechanism::Await,
        Mechanism::Retry,
        Mechanism::Restart,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Pthreads => "Pthreads",
            Mechanism::TmCondVar => "TMCondVar",
            Mechanism::WaitPred => "WaitPred",
            Mechanism::Await => "Await",
            Mechanism::Retry => "Retry",
            Mechanism::RetryOrig => "Retry-Orig",
            Mechanism::Restart => "Restart",
        }
    }

    /// True for the three mechanisms the paper introduces (all built on
    /// Deschedule).
    pub fn is_deschedule_based(self) -> bool {
        matches!(
            self,
            Mechanism::WaitPred | Mechanism::Await | Mechanism::Retry
        )
    }

    /// True if the mechanism can run on the HTM configuration.
    pub fn supports_htm(self) -> bool {
        self != Mechanism::RetryOrig
    }

    /// The one wait site: from inside a transaction body whose precondition
    /// does not hold, waits with this mechanism — [`retry`], [`retry_orig`],
    /// [`await_one`] on `addr`, [`wait_pred`] on `pred(args)`, or
    /// [`restart`].  The data structures state *what* each mechanism should
    /// watch; which construct that turns into is decided here.
    ///
    /// Like the constructs, never returns `Ok`.
    ///
    /// # Panics
    ///
    /// Panics for [`Mechanism::Pthreads`] and [`Mechanism::TmCondVar`],
    /// which wait outside (or around) transactions.
    pub fn wait<T>(self, tx: &mut dyn Tx, addr: Addr, pred: PredFn, args: &[u64]) -> TxResult<T> {
        match self {
            Mechanism::Retry => retry(tx),
            Mechanism::RetryOrig => retry_orig(tx),
            Mechanism::Await => await_one(tx, addr),
            Mechanism::WaitPred => wait_pred(tx, pred, args),
            Mechanism::Restart => restart(tx),
            Mechanism::Pthreads | Mechanism::TmCondVar => {
                panic!("lock-based mechanisms wait outside transactions")
            }
        }
    }

    /// [`Mechanism::wait`] bounded by `timeout` ([`retry_for`],
    /// [`await_one_for`], [`wait_pred_for`]).  The caller re-checks its
    /// condition and then [`crate::wait_interrupted`] *before* calling this,
    /// in that order, so a wait whose condition was established in time
    /// still succeeds.
    ///
    /// # Panics
    ///
    /// Panics for mechanisms without timed-wait support (`Pthreads`,
    /// `TMCondVar`, `Retry-Orig`, `Restart`).
    pub fn wait_for<T>(
        self,
        tx: &mut dyn Tx,
        addr: Addr,
        pred: PredFn,
        args: &[u64],
        timeout: Duration,
    ) -> TxResult<T> {
        match self {
            Mechanism::Retry => retry_for(tx, timeout),
            Mechanism::Await => await_one_for(tx, addr, timeout),
            Mechanism::WaitPred => wait_pred_for(tx, pred, args, timeout),
            other => panic!("{other} does not support timed waits"),
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Mechanism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase().replace(['-', '_'], "");
        Ok(match norm.as_str() {
            "pthreads" | "pthread" | "lock" => Mechanism::Pthreads,
            "tmcondvar" | "condvar" => Mechanism::TmCondVar,
            "waitpred" => Mechanism::WaitPred,
            "await" => Mechanism::Await,
            "retry" => Mechanism::Retry,
            "retryorig" | "orig" => Mechanism::RetryOrig,
            "restart" => Mechanism::Restart,
            _ => return Err(format!("unknown mechanism: {s}")),
        })
    }
}

#[cfg(test)]
mod enum_tests {
    use super::*;

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Mechanism::Pthreads.label(), "Pthreads");
        assert_eq!(Mechanism::RetryOrig.label(), "Retry-Orig");
        assert_eq!(Mechanism::ALL.len(), 7);
        assert_eq!(Mechanism::HTM_SET.len(), 6);
    }

    #[test]
    fn htm_set_excludes_retry_orig() {
        assert!(!Mechanism::HTM_SET.contains(&Mechanism::RetryOrig));
        assert!(!Mechanism::RetryOrig.supports_htm());
        assert!(Mechanism::Retry.supports_htm());
    }

    #[test]
    fn classification() {
        assert!(Mechanism::Retry.is_deschedule_based());
        assert!(Mechanism::Await.is_deschedule_based());
        assert!(Mechanism::WaitPred.is_deschedule_based());
        assert!(!Mechanism::TmCondVar.is_deschedule_based());
    }

    #[test]
    fn parsing_accepts_legend_spellings() {
        assert_eq!(
            "Retry-Orig".parse::<Mechanism>().unwrap(),
            Mechanism::RetryOrig
        );
        assert_eq!(
            "waitpred".parse::<Mechanism>().unwrap(),
            Mechanism::WaitPred
        );
        assert_eq!(
            "PTHREADS".parse::<Mechanism>().unwrap(),
            Mechanism::Pthreads
        );
        assert_eq!(
            "TMCondVar".parse::<Mechanism>().unwrap(),
            Mechanism::TmCondVar
        );
        assert!("bogus".parse::<Mechanism>().is_err());
    }

    #[test]
    fn display_round_trips_through_fromstr() {
        for m in Mechanism::ALL {
            assert_eq!(m.to_string().parse::<Mechanism>().unwrap(), m);
        }
    }
}
