//! Workload drivers for the paper's evaluation (§2.4).
//!
//! Two workload families are provided, mirroring the two halves of the
//! evaluation:
//!
//! * [`pc`] — the bounded-buffer producer/consumer micro-benchmark of
//!   §2.4.1, parameterized by producer count, consumer count and buffer
//!   size (Figures 2.3–2.5).
//! * [`parsec`] — synthetic kernels reproducing the condition-
//!   synchronization structure of the eight PARSEC applications of §2.4.2
//!   (Figures 2.6–2.8), plus [`loc`], the Table 2.1 lines-of-code
//!   accounting.
//!
//! Beyond the paper, [`timeout`] exercises the timed-wait extension
//! (`consume_timeout` over a stalling pipeline; lossy consumers that give
//! up after repeated deadline misses), and [`zipf`] draws the skewed keys
//! of the benchmark's session-store mix over the transactional KV plane.
//!
//! Both families run every combination of the seven mechanisms
//! ([`condsync::Mechanism`]) and the three runtime configurations
//! ([`RuntimeKind`]); results are collected into the serializable records of
//! [`report`], which the `tm-bench` figure binaries render as the same rows
//! and series the paper plots.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod loc;
pub mod parsec;
pub mod pc;
pub mod report;
pub mod runtime;
pub mod timeout;
pub mod zipf;

pub use runtime::{AnyRuntime, RuntimeKind};
pub use zipf::ZipfGen;

/// The `TM_STRESS_ITERS` soak multiplier, shared by the seeded race suites:
/// the scheduled CI `stress` job sets it to 10 so interleaving-sensitive
/// tests run at 10× their PR-gate iteration counts.  Unset, unparsable or
/// zero values all mean 1× (the normal gate).
pub fn stress_iters() -> u64 {
    std::env::var("TM_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}
