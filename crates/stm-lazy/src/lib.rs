//! A lazy (redo-log, commit-time locking) software TM in the style of TL2,
//! corresponding to the paper's **Lazy STM** configuration (a
//! privatization-safe, redo-log variant of the GCC STM).
//!
//! What the two STMs share is `tm_core::software`; this crate is the
//! [`Lazy`] protocol over it:
//!
//! * Writes are buffered in a redo log; memory is untouched until commit.
//! * Reads check the redo log first (read-your-writes).
//! * Commit acquires the ownership records covering the write set, stamps
//!   the clock, validates the read set, writes the redo log back to memory,
//!   and releases the locks at the commit timestamp.
//! * Abort merely discards the logs (nothing was written in place), so
//!   `Await` captures its value snapshot from current memory.
//!
//! [`LazyStm`] is the shared engine (`condsync::SoftwareStm`) at this
//! protocol, plugged into the one driver loop in `tm_core::driver`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runtime;
pub mod tx;

pub use runtime::LazyStm;
pub use tx::{CommitInterlock, Lazy, LazyTx};
