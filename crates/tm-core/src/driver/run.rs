//! The one driver loop shared by every runtime.
//!
//! Before this module existed each runtime crate hand-rolled a near-identical
//! ~100-line loop (begin → body → commit/abort → deschedule materialisation →
//! `wakeWaiters` → backoff).  [`run`] is that loop, written once against
//! [`TxEngine`]; the state machine it owns is:
//!
//! ```text
//!            begin(mode) ── body ── try_commit ──ok──▶ wakeWaiters ─▶ return
//!                ▲                      │
//!                │                      ▼ TxCtl
//!   backoff ◀─ Abort            Deschedule(spec)            SwitchToSoftware
//!                │                      │                         │
//!                │     hardware attempt │ software attempt        ▼
//!                │      relog / serial  │ relog? → deschedule    mode ladder
//!                └──────────────────────┴─────────────────────────┘
//! ```
//!
//! Each attempt leaves the diagram exactly once: by `try_commit`, by
//! `rollback_for_deschedule`, or by being dropped, which rolls it back — so
//! a body that panics unwinds through the same rollback as an abort.
//!
//! The deschedule hand-off ([`super::deschedule`]) and the post-commit
//! [`super::wake_waiters_matching`] scan are called from here — and from
//! [`Tx::commit_and_wait`], the `TMCondVar` baseline's wait point, through
//! the same helpers — so a runtime picks up the paper's whole
//! condition-synchronization protocol by implementing the engine trait.

use std::sync::Arc;

use crate::backoff::Backoff;
use crate::config::BackoffConfig;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitSpec};
use crate::policy::{CmEvent, CmHistory};
use crate::stats::TxStats;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon, TxKind, TxMode};
use crate::waitlist::WakeReason;

use super::engine::{Attempt, CommitOutcome, TxEngine};
use super::wake;

/// Moves the transaction to `next` mode, counting the change (the
/// `mode_switches` statistic tracks every attempt-to-attempt mode change:
/// ladder escalations, relogs, and post-wake resets alike).
fn switch_mode(mode: &mut TxMode, next: TxMode, thread: &ThreadCtx) {
    if *mode != next {
        TxStats::bump(&thread.stats.mode_switches);
        *mode = next;
    }
}

/// Counts one committed segment of a `kind` transaction on the rung it
/// committed on: `hw_commits` or `sw_commits`, plus `serial_commits` for a
/// serial commit and `ro_fast_commits` for a hardware commit of a
/// declared-read-only transaction that wrote nothing (free the same way a
/// software snapshot commit is, which the engines count themselves).  The
/// driver's commit and every [`Tx::commit_and_wait`] call this, so a wait
/// point's segment is one commit on every runtime.
#[inline]
pub(crate) fn count_commit(thread: &ThreadCtx, kind: TxKind, outcome: &CommitOutcome) {
    let stats = &thread.stats;
    TxStats::bump(if outcome.hardware {
        &stats.hw_commits
    } else {
        &stats.sw_commits
    });
    if outcome.serial {
        TxStats::bump(&stats.serial_commits);
    }
    if kind == TxKind::ReadOnly && outcome.hardware && !outcome.was_writer {
        TxStats::bump(&stats.ro_fast_commits);
    }
}

/// Whether a software attempt in `mode` that requests `spec` must first be
/// re-executed in value-logging mode ([`TxMode::SoftwareRetry`]).
fn relogs_first(spec: &WaitSpec, mode: TxMode, kind: TxKind) -> bool {
    match spec {
        // Retry was called before the value log existed (Algorithm 5, lines
        // 2–5).  This also covers the first attempt after waking up, and
        // serial attempts (whose direct reads are never value-logged).
        WaitSpec::ReadSetValues => mode != TxMode::SoftwareRetry,
        // Retry-Orig from an attempt that keeps no read-orec cover (snapshot
        // or serial) would sleep on an empty one.
        WaitSpec::OrigReadLocks => {
            mode == TxMode::Serial || (kind == TxKind::ReadOnly && mode == TxMode::Software)
        }
        _ => false,
    }
}

/// Runs `body` as a transaction on `engine` until it commits, handling
/// re-execution, mode switching, contention management, descheduling and
/// post-commit wake-ups.
pub fn run<E, T, F>(engine: &E, thread: &Arc<ThreadCtx>, body: F) -> T
where
    E: TxEngine,
    F: FnMut(&mut dyn Tx) -> TxResult<T>,
{
    run_kind(engine, thread, TxKind::Update, body)
}

/// [`run`] with an explicit transaction kind.
///
/// A [`TxKind::ReadOnly`] transaction runs software attempts on the snapshot
/// read path (no read set, validation-free commit).  If the body writes, the
/// attempt aborts with [`AbortReason::ReadOnlyWrite`] and is upgraded here to
/// a full [`TxKind::Update`] transaction — re-executed immediately, with no
/// contention management or backoff, since the abort carries no conflict
/// information.  A read-only attempt that deschedules is first re-executed
/// as a logged ([`TxMode::SoftwareRetry`]) attempt so the value-based and
/// Retry-Orig wait mechanisms see a real read set.
pub fn run_kind<E, T, F>(engine: &E, thread: &Arc<ThreadCtx>, kind: TxKind, mut body: F) -> T
where
    E: TxEngine,
    F: FnMut(&mut dyn Tx) -> TxResult<T>,
{
    // Backoff jitter comes from the thread's private RNG (seeded from its
    // id): no shared seed line, and each thread's jitter sequence is
    // deterministic.  Seeds only need to differ across concurrently running
    // transactions.
    let seed = thread.next_backoff_seed();
    let mut backoff = Backoff::new(BackoffConfig::default(), seed);
    let mut mode = engine.initial_mode();
    let mut kind = kind;
    // Abort history for the contention policy, reset when a deschedule ends
    // the contention episode (and by policies when they escalate).
    let mut history = CmHistory::default();
    let mut attempts: u32 = 0;
    // How the most recent deschedule of this transaction ended.  Handed to
    // every subsequent attempt through `TxCommon::wake_reason`, so a timed
    // wait's body can observe `Timeout` / `Cancelled` after it is
    // re-executed and give up instead of waiting again.  Sticky across
    // conflict aborts (the fact that the wait timed out is not undone by a
    // failed re-execution attempt); overwritten by the next deschedule;
    // scoped to this `run` call, so the flag never leaks into a later
    // transaction.
    let mut pending_wake: Option<WakeReason> = None;
    // The thread's attempt descriptor, held across attempts and released
    // around everything that runs other transactions on this thread (wake
    // checks, the deschedule double-check) so they find it warm.
    let mut desc = thread.checkout();

    loop {
        let logs = &mut *desc;
        if mode == TxMode::SoftwareRetry {
            logs.waitset.clear();
        }
        if logs.grown() {
            TxStats::bump(&thread.stats.log_pool_reuses);
        }
        let mut common = TxCommon::new(mode, attempts).with_kind(kind);
        common.wake_reason = pending_wake;
        attempts += 1;
        // Speculative attempts are exactly the `Hardware`-mode ones: every
        // other mode runs on a software rung.
        let hardware_attempt = !mode.is_software();
        let mut tx = engine.begin(thread, logs, common);
        // Every arm ends the attempt exactly once: a commit, a deschedule's
        // rollback, or — for every other outcome — dropping it, which is its
        // rollback, before anything else runs on this thread.
        let ctl = match body(&mut tx) {
            Ok(value) => match tx.try_commit() {
                Ok(outcome) => {
                    count_commit(thread, kind, &outcome);
                    // Post-commit wake-ups (every mechanism's, Retry-Orig
                    // included).  The empty-registry check keeps the common
                    // no-sleeper case at one atomic load; a waiter
                    // registering after it is covered by its own
                    // double-check, which runs after our (completed) commit.
                    if outcome.was_writer && !engine.system().waiters.is_empty() {
                        // Each wake check is a transaction of its own:
                        // release the descriptor so they find it warm.
                        let mut cover = std::mem::take(&mut desc.cover);
                        drop(desc);
                        wake::wake_after_commit(engine, thread, outcome.serial, &mut cover);
                        thread.checkout().cover = cover;
                    }
                    return value;
                }
                Err(reason) => TxCtl::Abort(reason),
            },
            Err(TxCtl::Deschedule(spec))
                if !hardware_attempt && !relogs_first(&spec, mode, kind) =>
            {
                // The deadline (if any) was stashed in the attempt metadata
                // by the timed construct (`retry_for` & friends); read it
                // before the attempt ends.
                let deadline = tx.common().wait_deadline;
                match tx.rollback_for_deschedule(spec) {
                    Ok(cond) => {
                        // The double-check is a transaction of its own.
                        drop(desc);
                        let outcome = wake::deschedule_until(engine, thread, cond, deadline);
                        pending_wake = Some(outcome.reason());
                        desc = thread.checkout();
                    }
                    Err(_) => {
                        // The wait condition could not be captured
                        // consistently: treat it as an ordinary abort.
                        TxStats::bump(&thread.stats.sw_aborts);
                        backoff.abort_and_wait();
                    }
                }
                // After waking, restart plainly; Retry will re-request value
                // logging if it trips again (the paper resets `is_retry` the
                // same way).  The sleep also ended whatever contention burst
                // the attempt saw, so the backoff window and the policy's
                // abort history start over.
                switch_mode(&mut mode, engine.mode_after_wake(), thread);
                history.reset();
                backoff.reset();
                continue;
            }
            Err(ctl) => {
                drop(tx);
                ctl
            }
        };

        match ctl {
            TxCtl::Abort(reason) => {
                if hardware_attempt {
                    TxStats::bump(&thread.stats.hw_aborts);
                } else {
                    TxStats::bump(&thread.stats.sw_aborts);
                }
                if let AbortReason::Explicit(_) = reason {
                    // Program-requested restarts (the Restart baseline) are
                    // control flow, not contention: re-execute immediately
                    // and feed nothing to the policy.
                    TxStats::bump(&thread.stats.explicit_aborts);
                } else if reason == AbortReason::ReadOnlyWrite {
                    // The declared-read-only body wrote: upgrade to a full
                    // update transaction and re-execute immediately.  Like
                    // explicit aborts this is control flow, not contention —
                    // nothing conflicted, so the policy sees nothing.
                    TxStats::bump(&thread.stats.ro_upgrades);
                    kind = TxKind::Update;
                } else {
                    // Everything else is the contention manager's call:
                    // back off, re-execute immediately, or climb one rung
                    // of the engine's mode ladder (hardware → software →
                    // serial) so the transaction is guaranteed to finish.
                    let event = CmEvent {
                        reason,
                        hardware: hardware_attempt,
                        mode,
                        hw_budget: engine.system().config.htm.max_attempts,
                    };
                    history.note(&event);
                    let action = engine.system().policy().on_abort(&mut history, &event);
                    if action.escalate {
                        TxStats::bump(&thread.stats.cm_escalations);
                        let next = engine.escalated_mode(mode);
                        switch_mode(&mut mode, next, thread);
                    }
                    if action.backoff {
                        // A thread about to spin has time to spare: advance
                        // the lazily driven timer wheel so timed waiters are
                        // expired promptly even when no writer is
                        // committing.  One atomic load when no timer is
                        // armed.
                        wake::poll_timers(engine, thread);
                        // Jittered exponential backoff (capped via
                        // `BackoffConfig`): the one wait policy for every
                        // contention-class abort, rather than ad-hoc
                        // spinning.
                        backoff.abort_and_wait();
                    }
                }
            }
            TxCtl::Deschedule(spec) if hardware_attempt => {
                // No escape actions in hardware: abort and re-execute in a
                // software mode, value-logging if the request was a Retry
                // (§2.2.3).  Which software mode exists is the engine's
                // call: the pure HTM simulator only has the serial
                // fallback, the hybrid runtime has a real STM path.
                TxStats::bump(&thread.stats.hw_aborts);
                let next = match spec {
                    WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => TxMode::SoftwareRetry,
                    _ => engine.mode_for_software_switch(mode),
                };
                switch_mode(&mut mode, next, thread);
            }
            // A software attempt that needs no relog slept above; this one
            // must first re-execute value-logging.
            TxCtl::Deschedule(_) => switch_mode(&mut mode, TxMode::SoftwareRetry, thread),
            TxCtl::SwitchToSoftware => {
                let next = engine.mode_for_software_switch(mode);
                switch_mode(&mut mode, next, thread);
            }
            TxCtl::BecomeSerial => {
                // Irrevocability on request: every engine honors the
                // system-wide serial gate, so this works identically on the
                // STMs, the HTM simulator and the hybrid runtime.
                switch_mode(&mut mode, TxMode::Serial, thread);
            }
        }
    }
}
