//! The object-safe transaction handle used by transaction bodies.
//!
//! Data structures and workloads are written once against `&mut dyn Tx` and
//! run unchanged on the eager STM, the lazy STM and the HTM simulator.  The
//! handle exposes word reads and writes (the paper's `TxRead`/`TxWrite`
//! instrumentation), transactional allocation, the `read-for-write`
//! optimisation used by production STMs (§2.2.4), and the commit-and-wait
//! hook needed by transaction-safe condition variables.

use std::sync::Arc;
use std::time::Instant;

use crate::addr::Addr;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitCondition, WaitSpec};
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::waitlist::WakeReason;

/// The execution mode of the current transaction attempt.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxMode {
    /// Running as a (simulated) hardware transaction.
    Hardware,
    /// Running under software instrumentation.
    Software,
    /// Running under software instrumentation *and* logging `(addr, value)`
    /// pairs on every read, because the previous attempt called `Retry`
    /// (Algorithm 5's `is_retry` flag).
    SoftwareRetry,
    /// Running serially/irrevocably (all other transactions excluded).
    Serial,
}

impl TxMode {
    /// True for the software modes (instrumented reads and writes).
    pub fn is_software(self) -> bool {
        !matches!(self, TxMode::Hardware)
    }
}

/// Whether the transaction is a full update transaction or a declared
/// read-only transaction eligible for the snapshot read path.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum TxKind {
    /// A full transaction: reads are tracked and validated, writes allowed.
    #[default]
    Update,
    /// A read-only transaction: software attempts read against the begin
    /// snapshot with no read set and commit without validation.  A write
    /// upgrades the transaction to [`TxKind::Update`] and restarts it.
    ReadOnly,
}

/// Per-attempt metadata shared by all runtimes: plain data the driver
/// builds for every attempt.  The attempt's logs (including the `Retry`
/// value log) live in the thread's [`crate::access::Descriptor`], and the
/// thread and system are borrowed by the attempt, not owned here.
#[derive(Debug, Clone, Copy)]
pub struct TxCommon {
    /// Execution mode of this attempt.
    pub mode: TxMode,
    /// Update or declared read-only (snapshot-eligible).  Defaults to
    /// [`TxKind::Update`]; the driver sets [`TxKind::ReadOnly`] for
    /// `atomically_read` attempts and clears it again on upgrade.
    pub kind: TxKind,
    /// How many times this transaction has been attempted (for backoff and
    /// the HTM fallback policy).
    pub attempts: u32,
    /// How the transaction's most recent deschedule ended, set by the driver
    /// loop when it re-executes the body after a sleep.  `None` until the
    /// transaction deschedules for the first time.  This is the hand-off
    /// that lets a timed wait observe its own timeout: the body reads it
    /// through `condsync::wake_reason` / `condsync::timed_out` and decides
    /// whether to give up instead of waiting again.
    pub wake_reason: Option<WakeReason>,
    /// Deadline requested by a timed wait construct (`retry_for` and
    /// friends) during *this* attempt; the driver reads it when the body
    /// requests a deschedule and forwards it to `deschedule_until`.  Plain
    /// (unbounded) constructs reset it to `None`, so each deschedule request
    /// carries exactly the deadline of the construct that raised it.
    pub wait_deadline: Option<Instant>,
}

impl TxCommon {
    /// Creates the metadata of attempt number `attempts` in `mode`.
    pub fn new(mode: TxMode, attempts: u32) -> Self {
        TxCommon {
            mode,
            kind: TxKind::Update,
            attempts,
            wake_reason: None,
            wait_deadline: None,
        }
    }

    /// Sets the transaction kind (builder-style, used by the driver when
    /// beginning a declared read-only attempt).
    pub fn with_kind(mut self, kind: TxKind) -> Self {
        self.kind = kind;
        self
    }
}

/// The transaction handle passed to transaction bodies.
///
/// All methods may return `Err(TxCtl::…)`, which the body must propagate
/// (with `?`) so the runtime can roll back and act on the control request.
pub trait Tx {
    /// Transactionally reads the word at `addr`.
    fn read(&mut self, addr: Addr) -> TxResult<u64>;

    /// Transactionally writes `val` to `addr`.
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()>;

    /// Reads a word that the caller intends to subsequently write.
    ///
    /// Production STMs implement this as "read for write" (§2.2.4): the
    /// location is locked immediately and is *not* added to the read set.
    /// The default implementation is a plain read.
    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        self.read(addr)
    }

    /// Transactionally allocates `words` contiguous heap words.
    ///
    /// The allocation is undone if the transaction aborts ("captured
    /// memory", §2.2.4).
    fn alloc(&mut self, words: usize) -> TxResult<Addr>;

    /// Transactionally frees `words` words at `addr`; reclamation is deferred
    /// until the transaction commits.
    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()>;

    /// Commits the transaction's work so far, sleeps until a later commit
    /// establishes `condition`, then begins a fresh transaction for the
    /// remainder of the body in the same flavour.
    ///
    /// The commit is an ordinary one: it wakes the sleepers its writes
    /// concern, exactly as the driver's final commit does.  The sleep is the
    /// ordinary `Deschedule` sleep ([`crate::driver::deschedule_until`]) on
    /// the runtime that began the attempt, during which the thread holds no
    /// published start, no serial gate and no directory slot.  An `Err`
    /// means the commit failed; the attempt is then rolled back like any
    /// aborted one.
    ///
    /// This deliberately *breaks atomicity* and exists only to implement
    /// transaction-safe condition variables (the `TMCondVar` baseline); the
    /// paper's own mechanisms never need it.  A handle with no runtime
    /// behind it (a test double such as [`DirectTx`]) cannot sleep: the
    /// default returns the request to the caller as a
    /// [`TxCtl::Deschedule`].
    fn commit_and_wait(&mut self, condition: WaitCondition) -> TxResult<()> {
        Err(TxCtl::Deschedule(match condition {
            WaitCondition::ValuesChanged(pairs) => {
                WaitSpec::Addrs(pairs.into_iter().map(|(addr, _)| addr).collect())
            }
            WaitCondition::Pred { f, args } => WaitSpec::Pred { f, args },
            WaitCondition::LocksMoved { .. } => WaitSpec::OrigReadLocks,
        }))
    }

    /// Access to the attempt metadata.
    fn common(&self) -> &TxCommon;

    /// Mutable access to the attempt metadata.
    fn common_mut(&mut self) -> &mut TxCommon;

    /// The system (heap, clocks, registries) this transaction runs against.
    fn system(&self) -> &Arc<TmSystem>;

    /// The executing thread.
    fn thread(&self) -> &Arc<ThreadCtx>;

    /// The current execution mode.
    fn mode(&self) -> TxMode {
        self.common().mode
    }
}

/// A pass-through [`Tx`]: reads, writes, allocations and frees go straight
/// to the heap of its system; nothing is logged, nothing is locked and
/// nothing can conflict.
///
/// This is the test double for code written against `&mut dyn Tx` — typed
/// views, data structures, wait constructs — when the logic under test needs
/// a heap but no runtime.  It reports [`TxMode::Serial`] because, like a
/// serial attempt, it is only correct while nothing else touches the heap.
/// Control requests (`Err(TxCtl::…)`), a `commit_and_wait` included, are
/// returned to the caller as they are: there is no driver loop behind it to
/// act on them.
#[derive(Debug)]
pub struct DirectTx {
    common: TxCommon,
    system: Arc<TmSystem>,
    thread: Arc<ThreadCtx>,
}

impl DirectTx {
    /// A handle on `system`, running as a freshly registered thread.
    pub fn new(system: &Arc<TmSystem>) -> Self {
        DirectTx::on_thread(system, system.register_thread())
    }

    /// A handle on `system`, running as `thread` (one of its threads).
    pub fn on_thread(system: &Arc<TmSystem>, thread: Arc<ThreadCtx>) -> Self {
        DirectTx {
            common: TxCommon::new(TxMode::Serial, 0),
            thread,
            system: Arc::clone(system),
        }
    }
}

impl Tx for DirectTx {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        Ok(self.system.heap.load(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.system.heap.store(addr, val);
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.system
            .heap
            .alloc(words)
            .ok_or(TxCtl::Abort(AbortReason::OutOfMemory))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_software_classification() {
        assert!(TxMode::Software.is_software());
        assert!(TxMode::SoftwareRetry.is_software());
        assert!(TxMode::Serial.is_software());
        assert!(!TxMode::Hardware.is_software());
    }

    #[test]
    fn kind_defaults_to_update_and_with_kind_overrides() {
        let c = TxCommon::new(TxMode::Software, 0);
        assert_eq!(c.kind, TxKind::Update);
        let c = TxCommon::new(TxMode::Software, 0).with_kind(TxKind::ReadOnly);
        assert_eq!(c.kind, TxKind::ReadOnly);
    }
}
