//! The software-TM runtime: one [`TxEngine`] over [`SoftwareTx`], generic
//! over the eager and the lazy protocol.
//!
//! All driver-loop logic (re-execution, abort dispatch, `Retry` value-log
//! restarts, deschedule hand-off, post-commit wake-ups, backoff) lives in
//! [`tm_core::driver::run`]; this file only wires the attempt type and the
//! `Retry-Orig` registry into that loop.  It lives here rather than next to
//! [`SoftwareTx`] because `tm-core` cannot see the registry.

use std::marker::PhantomData;
use std::sync::Arc;

use tm_core::access::cover_valid_at;
use tm_core::driver::{CommitOutcome, TxEngine};
use tm_core::{
    Descriptor, SoftwareProtocol, SoftwareTx, ThreadCtx, TmSystem, TxCommon, TxCtl, WaitCondition,
    WaitSpec,
};

use crate::orig::{sleep_until_intersection, OrigRegistry};

/// A software TM runtime under protocol `P` (`stm_eager::EagerStm`,
/// `stm_lazy::LazyStm`).
#[derive(Debug)]
pub struct SoftwareStm<P> {
    system: Arc<TmSystem>,
    /// Waiting list for the `Retry-Orig` baseline (Algorithm 1).
    orig: OrigRegistry,
    protocol: PhantomData<P>,
}

impl<P: SoftwareProtocol> SoftwareStm<P> {
    /// Creates a runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Arc::new(SoftwareStm {
            system,
            orig: OrigRegistry::new(),
            protocol: PhantomData,
        })
    }

    /// The `Retry-Orig` waiting list (exposed for tests).
    pub fn orig_registry(&self) -> &OrigRegistry {
        &self.orig
    }
}

/// The `Retry-Orig` deschedule of a software attempt (Algorithm 1): copies
/// the read set's orec cover into the waiter record, rolls `tx` back, then
/// registers and sleeps unless a covered stripe already moved past the
/// attempt's start.
pub fn deschedule_orig<P: SoftwareProtocol>(
    registry: &OrigRegistry,
    thread: &Arc<ThreadCtx>,
    tx: &mut SoftwareTx<'_, P>,
) {
    // The read set's own sorted stripe cover, not recomputed from the
    // address list.
    let read_orecs = tx.core.d.reads.orec_cover().to_vec();
    let (system, start) = (tx.core.system, tx.core.start());
    tx.rollback();
    sleep_until_intersection(registry, thread, read_orecs, |cover| {
        cover_valid_at(&system.orecs, cover, start)
    });
}

impl<P: SoftwareProtocol> TxEngine for SoftwareStm<P> {
    type Tx<'a> = SoftwareTx<'a, P>;

    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> SoftwareTx<'a, P> {
        SoftwareTx::begin(&self.system, thread, desc, common)
    }

    fn try_commit(&self, tx: &mut SoftwareTx<'_, P>) -> Result<CommitOutcome, TxCtl> {
        tx.try_commit()
    }

    fn rollback(&self, tx: &mut SoftwareTx<'_, P>) {
        tx.rollback();
    }

    fn materialise_wait(
        &self,
        tx: &mut SoftwareTx<'_, P>,
        spec: WaitSpec,
    ) -> Result<WaitCondition, TxCtl> {
        tx.rollback_for_deschedule(spec)
    }

    fn supports_orig_retry(&self) -> bool {
        true
    }

    fn deschedule_orig(&self, thread: &Arc<ThreadCtx>, tx: &mut SoftwareTx<'_, P>) {
        deschedule_orig(&self.orig, thread, tx);
    }

    fn after_writer_commit(
        &self,
        thread: &Arc<ThreadCtx>,
        outcome: &CommitOutcome,
        cover: &[usize],
    ) {
        self.orig.wake_after_commit(thread, outcome.serial, cover);
    }
}

tm_core::engine_runtime!(P::NAME, SoftwareStm<P>, P: SoftwareProtocol);
