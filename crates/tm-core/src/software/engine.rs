//! The software-TM runtime: one [`TxEngine`] over [`SoftwareTx`], generic
//! over the eager and the lazy protocol.
//!
//! All driver-loop logic (re-execution, abort dispatch, `Retry` value-log
//! restarts, deschedule hand-off, post-commit wake-ups, backoff) lives in
//! [`crate::driver::run`]; this file only wires the attempt type into that
//! loop.

use std::marker::PhantomData;
use std::sync::Arc;

use super::{SoftwareProtocol, SoftwareTx};
use crate::access::Descriptor;
use crate::driver::TxEngine;
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

impl<P: SoftwareProtocol> TxEngine for SoftwareStm<P> {
    type Tx<'a> = SoftwareTx<'a, P>;

    fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    fn begin<'a>(
        &'a self,
        thread: &'a Arc<ThreadCtx>,
        desc: &'a mut Descriptor,
        common: TxCommon,
    ) -> SoftwareTx<'a, P> {
        SoftwareTx::begin(self, thread, desc, common)
    }
}
