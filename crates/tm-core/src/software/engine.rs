//! The software-TM runtime: one [`TxEngine`] over [`SoftwareTx`], generic
//! over the eager and the lazy protocol.
//!
//! All driver-loop logic (re-execution, abort dispatch, `Retry` value-log
//! restarts, deschedule hand-off, post-commit wake-ups, backoff) lives in
//! [`crate::driver::run`]; this file only wires the attempt type and the
//! `Retry-Orig` deschedule into that loop.

use std::marker::PhantomData;
use std::sync::Arc;

use super::orig::sleep_until_intersection;
use super::{SoftwareProtocol, SoftwareTx};
use crate::access::{cover_valid_at, Descriptor};
use crate::driver::{Attempt, TxEngine};
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::TxCommon;

/// A software TM runtime under protocol `P` ([`super::EagerStm`],
/// [`super::LazyStm`]).
#[derive(Debug)]
pub struct SoftwareStm<P> {
    system: Arc<TmSystem>,
    protocol: PhantomData<P>,
}

impl<P: SoftwareProtocol> SoftwareStm<P> {
    /// Creates a runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Arc::new(SoftwareStm {
            system,
            protocol: PhantomData,
        })
    }
}

/// The `Retry-Orig` deschedule of a software attempt (Algorithm 1): copies
/// the read set's orec cover into the waiter record, rolls `tx` back, then
/// registers with the system's waiting list and sleeps unless a covered
/// stripe already moved past the attempt's start.
pub fn deschedule_orig<P: SoftwareProtocol>(thread: &Arc<ThreadCtx>, tx: &mut SoftwareTx<'_, P>) {
    // The read set's own sorted stripe cover, not recomputed from the
    // address list.
    let read_orecs = tx.core.d.reads.orec_cover().to_vec();
    let (system, start) = (tx.core.system, tx.core.start());
    tx.rollback();
    sleep_until_intersection(&system.orig, thread, read_orecs, |cover| {
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

    fn supports_orig_retry(&self) -> bool {
        true
    }

    fn deschedule_orig(&self, thread: &Arc<ThreadCtx>, tx: &mut SoftwareTx<'_, P>) {
        deschedule_orig(thread, tx);
    }
}

crate::engine_runtime!(P::NAME, SoftwareStm<P>, P: SoftwareProtocol);
