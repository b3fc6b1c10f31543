//! The [`TxEngine`] trait: the narrow interface a transaction runtime must
//! implement to plug into the shared driver loop ([`super::run`]).
//!
//! A runtime supplies `begin`; its attempt type ([`Attempt`]) supplies
//! commit, a rollback-on-drop and the one condition-synchronization hook
//! that genuinely differs between designs — how a wait condition is
//! materialised during rollback — and the runtime inherits the whole
//! retry/abort/deschedule state machine.  The hooks with defaults encode the
//! software-STM behaviour; the HTM simulator overrides them to express its
//! speculative/serial mode ladder.

use std::fmt;
use std::sync::Arc;

use crate::access::Descriptor;
use crate::ctl::{AbortReason, TxResult, WaitCondition, WaitSpec};
use crate::runtime::TmRuntime;
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon, TxKind, TxMode};

/// What a successful commit tells the driver loop.
///
/// One shape serves every runtime, and it is plain data: the stripe cover of
/// a writer commit is not carried here but left in the attempt's
/// [`Descriptor::cover`] — the lock set for software commits, the stripes
/// of the written cache lines (a superset of the written words' stripes,
/// which the simulator *can* observe) for hardware commits — so a commit
/// allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOutcome {
    /// True if the transaction performed any write.
    pub was_writer: bool,
    /// True if the attempt committed in (simulated) hardware.
    pub hardware: bool,
    /// True if the attempt committed while holding the system's
    /// [`crate::serial::SerialGate`].  Serial commits carry no write-set
    /// metadata ([`Descriptor::cover`] is meaningless for them), so the
    /// wake path scans everything.
    pub serial: bool,
    /// The commit timestamp (global-clock value); 0 when no clock was
    /// ticked (read-only and hardware commits).
    pub commit_time: u64,
}

impl CommitOutcome {
    /// A read-only commit (no wake-ups required).
    pub fn read_only() -> Self {
        CommitOutcome::default()
    }

    /// A software writer commit at `commit_time`.
    pub fn software_writer(commit_time: u64) -> Self {
        CommitOutcome {
            was_writer: true,
            commit_time,
            ..CommitOutcome::default()
        }
    }

    /// A (simulated) hardware commit.
    pub fn hardware(was_writer: bool) -> Self {
        CommitOutcome {
            was_writer,
            hardware: true,
            ..CommitOutcome::default()
        }
    }

    /// A serial-mode commit (software-visible, but no metadata at all: the
    /// wake path must scan conservatively).
    pub fn serial(was_writer: bool) -> Self {
        CommitOutcome {
            was_writer,
            serial: true,
            ..CommitOutcome::default()
        }
    }
}

/// What the driver loop asks of an in-flight attempt once the body is done
/// with its [`Tx`] accesses: the per-design commit/materialise primitives.
///
/// An attempt ends exactly once.  Both endings take it by value, and
/// dropping an attempt that has not ended *is* its rollback — undo, release
/// locks and directory slots, leave the epoch slot and the serial gate, free
/// the attempt's allocations — so a body that unwinds leaves the system as
/// if the attempt never ran.  Ending an attempt twice does not compile:
///
/// ```compile_fail,E0382
/// fn commit_twice(tx: impl tm_core::Attempt) {
///     let _ = tx.try_commit();
///     let _ = tx.try_commit();
/// }
/// ```
///
/// ```compile_fail,E0382
/// use tm_core::{Addr, Attempt, WaitSpec};
/// fn read_after_deschedule(mut tx: impl Attempt, spec: WaitSpec) {
///     let _ = tx.rollback_for_deschedule(spec);
///     let _ = tx.read(Addr(0));
/// }
/// ```
pub trait Attempt: Tx + Sized {
    /// Commits the attempt.  On `Err` it has already been rolled back.  A
    /// non-serial writer commit leaves the stripe cover of its write set in
    /// [`Descriptor::cover`]; the cover must never under-report, or the
    /// targeted wake scan loses wakeups.
    fn try_commit(self) -> Result<CommitOutcome, AbortReason>;

    /// Rolls the attempt back *and* captures the condition the thread wants
    /// to sleep on, consistently with the aborted attempt's view of memory.
    ///
    /// `Err` means the condition could not be captured consistently; the
    /// attempt is rolled back all the same and the driver re-executes.
    fn rollback_for_deschedule(self, spec: WaitSpec) -> Result<WaitCondition, AbortReason>;
}

/// The engine interface between a transaction runtime and the shared driver
/// loop.
///
/// Implementations are thin: they construct attempts.  Everything that used
/// to be copied between the three runtime crates — re-execution, abort-reason
/// dispatch, `Retry` value-log restarts, the deschedule hand-off and
/// post-commit `wakeWaiters` — lives in [`super::run`] instead, and one
/// blanket impl makes every engine a [`TmRuntime`] whose entry points
/// forward there.  A concrete engine with both traits in scope names its
/// system as `TmRuntime::system(&engine)`.
pub trait TxEngine: Send + Sync + fmt::Debug + Sized {
    /// The system this engine executes against.
    fn system(&self) -> &Arc<TmSystem>;

    /// One attempt.  It owns nothing: the engine, the thread and the
    /// thread's [`Descriptor`] are all borrowed for `'a`.
    type Tx<'a>: Attempt
    where
        Self: 'a;

    /// Begins a fresh attempt of `thread` on the (empty) logs of `desc`
    /// with the given per-attempt metadata.
    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> Self::Tx<'a>;

    /// The execution mode of the first attempt.
    fn initial_mode(&self) -> TxMode {
        TxMode::Software
    }

    /// The mode to re-execute in after returning from a deschedule (whether
    /// the thread slept or skipped the sleep).  Hardware engines restart
    /// speculatively; software engines drop back to plain instrumentation.
    fn mode_after_wake(&self) -> TxMode {
        TxMode::Software
    }

    /// The mode to re-execute in after a `SwitchToSoftware` request (or a
    /// hardware attempt that needs software facilities, e.g. escape actions
    /// for descheduling) in `current` mode.  Software engines just
    /// re-execute; the HTM simulator escalates to the serial fallback; the
    /// hybrid runtime drops from hardware to its instrumented STM path.
    fn mode_for_software_switch(&self, current: TxMode) -> TxMode {
        current
    }

    /// One rung up this engine's mode ladder from `current`, taken when the
    /// contention policy requests escalation
    /// ([`crate::policy::CmAction::escalate`]).
    ///
    /// The default — and every software engine's answer — is the
    /// guaranteed-progress [`TxMode::Serial`] path behind the system's
    /// [`crate::serial::SerialGate`]; the hybrid runtime interposes its
    /// software STM rung first (hardware → software → serial).
    fn escalated_mode(&self, current: TxMode) -> TxMode {
        let _ = current;
        TxMode::Serial
    }
}

/// Every engine is a [`TmRuntime`]: each entry point forwards to the shared
/// driver loop ([`super::run`] / [`super::run_kind`]).
impl<E: TxEngine> TmRuntime for E {
    fn system(&self) -> &Arc<TmSystem> {
        TxEngine::system(self)
    }

    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool {
        super::run(self, thread, body)
    }

    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        super::run(self, thread, body)
    }

    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        super::run_kind(self, thread, TxKind::ReadOnly, body)
    }
}
