//! An eager (undo-log, encounter-time locking) software TM, following the
//! paper's Appendix A (Algorithms 8–11), in the style of TinySTM and the GCC
//! libitm "ml-wt" method the paper evaluates as **Eager STM**.
//!
//! What the two STMs share — reads validated against the global version
//! clock when they happen (giving opacity) and re-validated at commit, the
//! snapshot read path, deferred frees, quiescence for privatization safety,
//! the serial mode — is `tm_core::software`.  This crate is the [`Eager`]
//! protocol over it:
//!
//! * Writes acquire the ownership record covering the address at encounter
//!   time, log the old value in an undo log, and update memory in place.
//! * Commit validates the read set (with the TL2-style fast path when no
//!   other writer intervened) and releases locks at the new version.
//! * Abort undoes writes in reverse order, releases locks at `version + 1`
//!   and blindly bumps the clock.
//! * `Await` captures its value snapshot while the attempt's locks are held.
//!
//! [`EagerStm`] is the shared engine (`condsync::SoftwareStm`) at this
//! protocol, plugged into the one driver loop in `tm_core::driver`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runtime;
pub mod tx;

pub use runtime::EagerStm;
pub use tx::{Eager, EagerTx};
