//! The pluggable hardware plane: the [`HwTm`] trait every hardware-TM
//! backend implements, plus the deterministic [`FaultPlane`] fault-injection
//! layer that wraps any backend.
//!
//! The paper's hybrid designs assume a best-effort hardware TM whose aborts
//! (conflict, capacity, spurious) the software rungs must absorb.  Rather
//! than hard-wiring the `htm-sim` simulator as *the* hardware path, the
//! runtimes talk to the hardware through this trait:
//!
//! * the **HTM runtime** (`htm_sim::HtmSim`) drives its speculative attempts
//!   through a plane — by default the simulator's line-table backend, but any
//!   [`HwTm`] can be installed ([`htm_sim::HtmSim::with_plane`]);
//! * the **hybrid runtime** (`htm_sim::HybridTm`) routes its software
//!   write-back interlock through the same plane, so software commits doom
//!   overlapping speculative transactions whatever the backend is;
//! * the [`FaultPlane`] is a decorator backend: it delegates to an inner
//!   plane and injects deterministic, seeded aborts — conflicts on chosen
//!   lines or at a chosen rate, capacity aborts at a chosen footprint,
//!   spurious aborts, and aborts *inside the commit window* — so the
//!   Hw→Sw→Serial mode ladder, the serial-gate drain and the orec-coupled
//!   write-back interlock are drivable on demand instead of by luck.
//!
//! [`htm_sim::HtmSim`]: ../../htm_sim/struct.HtmSim.html
//! [`htm_sim::HtmSim::with_plane`]: ../../htm_sim/struct.HtmSim.html#method.with_plane

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::addr::LineId;
use crate::config::FaultConfig;
use crate::ctl::AbortReason;
use crate::pad::CachePadded;
use crate::thread::ThreadId;

/// Classification of a hardware abort, as reported by a [`HwTm`] backend.
///
/// This is the architectural taxonomy (what Intel's `RTM` status word or Arm
/// TME's failure register encode); [`HwAbortKind::reason`] maps it onto the
/// runtime-level [`AbortReason`] the driver and contention policies consume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HwAbortKind {
    /// A conflicting access from another processor invalidated a
    /// speculatively read or written line.
    Conflict,
    /// The transaction's read or write footprint overflowed the speculative
    /// capacity.
    Capacity,
    /// An environmental abort with no data cause (interrupt, TLB shootdown,
    /// unfriendly instruction) — retrying immediately may well succeed, so it
    /// is not classified as contention.
    Spurious,
}

impl HwAbortKind {
    /// The runtime-level abort reason this hardware abort maps to.
    pub fn reason(self) -> AbortReason {
        match self {
            HwAbortKind::Conflict => AbortReason::HwConflict,
            HwAbortKind::Capacity => AbortReason::HwCapacity,
            HwAbortKind::Spurious => AbortReason::HwSpurious,
        }
    }

    /// A short label for reports and tracing.
    pub fn label(self) -> &'static str {
        match self {
            HwAbortKind::Conflict => "conflict",
            HwAbortKind::Capacity => "capacity",
            HwAbortKind::Spurious => "spurious",
        }
    }
}

/// A hardware abort: its architectural classification plus whether a
/// [`FaultPlane`] injected it (so the runtime can count injected faults
/// separately in `TxStats::hw_faults_injected`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HwAbort {
    /// What kind of abort the backend reported.
    pub kind: HwAbortKind,
    /// True when a fault-injection layer manufactured this abort.
    pub injected: bool,
}

impl HwAbort {
    /// A genuine (non-injected) abort of the given kind.
    pub fn real(kind: HwAbortKind) -> Self {
        HwAbort {
            kind,
            injected: false,
        }
    }

    /// An abort manufactured by a fault-injection layer.
    pub fn injected(kind: HwAbortKind) -> Self {
        HwAbort {
            kind,
            injected: true,
        }
    }
}

/// The contract a hardware-TM backend provides to the runtimes.
///
/// The trait covers the whole speculative life cycle at cache-line
/// granularity — begin, read/write registration, footprint (capacity)
/// policing, the commit-window check, cleanup — plus the two couplings the
/// hybrid runtime needs: the non-speculative write-back claim a software
/// commit uses to doom overlapping speculation, and line-cover reporting
/// (committed line → ownership-record stripes) for targeted wake scans.
///
/// Conflicting *other* transactions are doomed inside the backend (the
/// simulator delivers dooms through the thread registry); the caller only
/// learns whether *its own* attempt must abort, and why, via [`HwAbort`].
/// All methods take `&self` so a backend can be shared as `Arc<dyn HwTm>`.
///
/// A real Intel RTM / Arm TME backend would plug in here too, but not
/// call by call: between `_xbegin` and `_xend` the hardware tracks every
/// access itself, so it would bracket the whole attempt in
/// [`HwTm::begin_attempt`] … [`HwTm::commit_check`] and translate the abort
/// status word into [`HwAbortKind`], leaving the per-line calls empty.
pub trait HwTm: Send + Sync + fmt::Debug {
    /// Called when a speculative attempt begins (fault planes may reseed or
    /// count here).  Default: nothing.
    fn begin_attempt(&self, tid: ThreadId) {
        let _ = tid;
    }

    /// Maps a cache line to the backend's tracking token (the simulator's
    /// directory slot).  Callers pass the token back to the registration,
    /// clear and claim methods.
    fn slot_for(&self, line: LineId) -> usize;

    /// Registers `tid` as a speculative reader of `line` (token `slot`),
    /// until [`HwTm::clear_read`]: the runtimes call this on an attempt's
    /// first read of a line it has not written, and treat every later
    /// access to the line as a hit.  `Err` means the attempt must abort; any
    /// conflicting speculative writer has already been doomed and the
    /// registration undone.
    fn read_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort>;

    /// Registers `tid` as the speculative writer of `line` (token `slot`),
    /// until [`HwTm::clear_write`]: called on an attempt's first write of
    /// the line only.  On success every conflicting speculative reader has
    /// been doomed; `Err` means the attempt must abort.
    fn write_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort>;

    /// Polices the read footprint after it grew to `distinct_lines` distinct
    /// lines; `Err` (normally [`HwAbortKind::Capacity`]) aborts the attempt.
    fn check_read_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort>;

    /// Polices the write footprint after it grew to `distinct_lines`
    /// distinct lines.
    fn check_write_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort>;

    /// The backend's last chance to abort the attempt *inside the commit
    /// window*: called under the commit barrier, after the doom check and
    /// before the write-back becomes unabortable.  Fault planes inject here
    /// to exercise exactly the window where the Algorithm-3 hazards live.
    fn commit_check(&self, tid: ThreadId) -> Result<(), HwAbort>;

    /// Removes `tid`'s reader registration from `slot` (abort or commit).
    fn clear_read(&self, slot: usize, tid: ThreadId);

    /// Removes `tid`'s writer registration from `slot` (abort or commit).
    fn clear_write(&self, slot: usize, tid: ThreadId);

    /// Unconditionally claims `slot` for a *software* commit's write-back
    /// (the hybrid interlock), dooming every speculative occupant.  Never
    /// fails: the software commit has validated and will write the line.
    fn claim_for_writeback(&self, slot: usize, tid: ThreadId);

    /// Releases a [`HwTm::claim_for_writeback`] claim after the write-back.
    fn release_writeback(&self, slot: usize, tid: ThreadId);

    /// Appends the ownership-record stripes covering every word of `line` to
    /// `out` (the caller sorts/dedups).  An uncoupled hardware commit's
    /// effects are visible only at line granularity; this cover is a
    /// superset of the written words' stripes, so targeted wake scans built
    /// on it can never lose a wakeup.  (An orec-coupled commit locks and
    /// publishes the written words' own stripes, like a software commit.)
    fn line_cover(&self, line: LineId, out: &mut Vec<usize>);
}

/// `splitmix64` — seeds the per-thread xorshift streams so nearby seeds and
/// thread ids still produce uncorrelated streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic fault-injection layer: an [`HwTm`] decorator that
/// delegates to an inner backend and manufactures aborts according to a
/// seeded [`FaultConfig`].
///
/// Determinism: each thread draws from its own `xorshift64*` stream, seeded
/// from `(seed, thread id)`, so a single thread's fault sequence is exactly
/// reproducible from the seed regardless of scheduling.  (Cross-thread
/// interleaving still varies — the *faults* are deterministic, the races
/// they provoke are the point.)
///
/// Injection points and the [`FaultConfig`] knobs that drive them:
///
/// * [`HwTm::read_line`] / [`HwTm::write_line`] — conflict aborts on chosen
///   lines (`conflict_line_mod`) or at a seeded rate (`conflict_per_64k`),
///   and spurious aborts at a seeded rate (`spurious_per_64k`).  The
///   runtimes call these once per *first touch of a line in an attempt*
///   (first read, first write), not per access, so that is what the rates
///   count.  Injection is decided *before* delegating, so no registration
///   is left behind.
/// * [`HwTm::check_read_footprint`] / [`HwTm::check_write_footprint`] —
///   capacity aborts at a chosen footprint (`capacity_read_lines` /
///   `capacity_write_lines`), tighter than the real capacity.
/// * [`HwTm::commit_check`] — conflict aborts *inside the commit window*
///   (`commit_window_per_64k`): past the doom check, before the write-back.
///
/// The write-back claim ([`HwTm::claim_for_writeback`]) is never injected:
/// a validated software commit must not fail.
pub struct FaultPlane {
    inner: Arc<dyn HwTm>,
    cfg: FaultConfig,
    /// Per-thread xorshift64* states (padded: each thread owns its slot).
    rng: Box<[CachePadded<AtomicU64>]>,
    /// Total faults this plane manufactured (all threads, all kinds).
    injected: CachePadded<AtomicU64>,
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlane")
            .field("cfg", &self.cfg)
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultPlane {
    /// Wraps `inner` with the given configuration; `max_threads` bounds the
    /// thread ids that will ever be seen (one rng stream each).
    pub fn new(inner: Arc<dyn HwTm>, cfg: FaultConfig, max_threads: usize) -> Self {
        let rng = (0..max_threads.max(1))
            .map(|tid| {
                CachePadded::new(AtomicU64::new(
                    // Never zero: xorshift's absorbing state.
                    splitmix64(cfg.seed ^ (tid as u64).wrapping_mul(0xA24B_AED4_963E_E407)) | 1,
                ))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FaultPlane {
            inner,
            cfg,
            rng,
            injected: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn HwTm> {
        &self.inner
    }

    /// Total faults manufactured so far (all threads, all kinds).
    pub fn injected_total(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Advances `tid`'s xorshift64* stream and returns the next value.
    fn next_rand(&self, tid: ThreadId) -> u64 {
        let slot = &self.rng[tid % self.rng.len()];
        let mut x = slot.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One Bernoulli draw with probability `rate / 65536`.
    fn hit(&self, tid: ThreadId, rate: u16) -> bool {
        rate != 0 && (self.next_rand(tid) & 0xFFFF) < rate as u64
    }

    /// Records and returns one manufactured abort.
    fn inject(&self, kind: HwAbortKind) -> HwAbort {
        self.injected.fetch_add(1, Ordering::Relaxed);
        HwAbort::injected(kind)
    }

    /// The access-time injection decision shared by reads and writes.
    fn access_fault(&self, line: LineId, tid: ThreadId) -> Option<HwAbort> {
        let m = self.cfg.conflict_line_mod;
        if m != 0 && (line.0 as u64).is_multiple_of(m) {
            return Some(self.inject(HwAbortKind::Conflict));
        }
        if self.hit(tid, self.cfg.conflict_per_64k) {
            return Some(self.inject(HwAbortKind::Conflict));
        }
        if self.hit(tid, self.cfg.spurious_per_64k) {
            return Some(self.inject(HwAbortKind::Spurious));
        }
        None
    }
}

impl HwTm for FaultPlane {
    fn begin_attempt(&self, tid: ThreadId) {
        self.inner.begin_attempt(tid);
    }

    fn slot_for(&self, line: LineId) -> usize {
        self.inner.slot_for(line)
    }

    fn read_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        if let Some(fault) = self.access_fault(line, tid) {
            return Err(fault);
        }
        self.inner.read_line(line, slot, tid)
    }

    fn write_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        if let Some(fault) = self.access_fault(line, tid) {
            return Err(fault);
        }
        self.inner.write_line(line, slot, tid)
    }

    fn check_read_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        let cap = self.cfg.capacity_read_lines;
        if cap != 0 && distinct_lines > cap {
            return Err(self.inject(HwAbortKind::Capacity));
        }
        self.inner.check_read_footprint(distinct_lines)
    }

    fn check_write_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        let cap = self.cfg.capacity_write_lines;
        if cap != 0 && distinct_lines > cap {
            return Err(self.inject(HwAbortKind::Capacity));
        }
        self.inner.check_write_footprint(distinct_lines)
    }

    fn commit_check(&self, tid: ThreadId) -> Result<(), HwAbort> {
        if self.hit(tid, self.cfg.commit_window_per_64k) {
            return Err(self.inject(HwAbortKind::Conflict));
        }
        self.inner.commit_check(tid)
    }

    fn clear_read(&self, slot: usize, tid: ThreadId) {
        self.inner.clear_read(slot, tid);
    }

    fn clear_write(&self, slot: usize, tid: ThreadId) {
        self.inner.clear_write(slot, tid);
    }

    fn claim_for_writeback(&self, slot: usize, tid: ThreadId) {
        self.inner.claim_for_writeback(slot, tid);
    }

    fn release_writeback(&self, slot: usize, tid: ThreadId) {
        self.inner.release_writeback(slot, tid);
    }

    fn line_cover(&self, line: LineId, out: &mut Vec<usize>) {
        self.inner.line_cover(line, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A permissive backend: every operation succeeds, nothing is tracked.
    #[derive(Debug, Default)]
    struct NullHw;

    impl HwTm for NullHw {
        fn slot_for(&self, line: LineId) -> usize {
            line.0
        }
        fn read_line(&self, _: LineId, _: usize, _: ThreadId) -> Result<(), HwAbort> {
            Ok(())
        }
        fn write_line(&self, _: LineId, _: usize, _: ThreadId) -> Result<(), HwAbort> {
            Ok(())
        }
        fn check_read_footprint(&self, _: usize) -> Result<(), HwAbort> {
            Ok(())
        }
        fn check_write_footprint(&self, _: usize) -> Result<(), HwAbort> {
            Ok(())
        }
        fn commit_check(&self, _: ThreadId) -> Result<(), HwAbort> {
            Ok(())
        }
        fn clear_read(&self, _: usize, _: ThreadId) {}
        fn clear_write(&self, _: usize, _: ThreadId) {}
        fn claim_for_writeback(&self, _: usize, _: ThreadId) {}
        fn release_writeback(&self, _: usize, _: ThreadId) {}
        fn line_cover(&self, _: LineId, _: &mut Vec<usize>) {}
    }

    fn plane(cfg: FaultConfig) -> FaultPlane {
        FaultPlane::new(Arc::new(NullHw), cfg, 4)
    }

    #[test]
    fn abort_kinds_map_to_reasons() {
        assert_eq!(HwAbortKind::Conflict.reason(), AbortReason::HwConflict);
        assert_eq!(HwAbortKind::Capacity.reason(), AbortReason::HwCapacity);
        assert_eq!(HwAbortKind::Spurious.reason(), AbortReason::HwSpurious);
        assert_eq!(HwAbortKind::Spurious.label(), "spurious");
        assert!(HwAbort::injected(HwAbortKind::Conflict).injected);
        assert!(!HwAbort::real(HwAbortKind::Conflict).injected);
    }

    #[test]
    fn zero_config_injects_nothing() {
        let p = plane(FaultConfig::default());
        for i in 0..1000 {
            assert!(p.read_line(LineId(i), i, 0).is_ok());
            assert!(p.write_line(LineId(i), i, 1).is_ok());
            assert!(p.commit_check(0).is_ok());
        }
        assert!(p.check_read_footprint(usize::MAX).is_ok());
        assert_eq!(p.injected_total(), 0);
    }

    #[test]
    fn chosen_lines_always_conflict() {
        let p = plane(FaultConfig {
            conflict_line_mod: 4,
            ..FaultConfig::default()
        });
        let fault = p.read_line(LineId(8), 0, 0).unwrap_err();
        assert_eq!(fault.kind, HwAbortKind::Conflict);
        assert!(fault.injected);
        assert!(p.read_line(LineId(7), 0, 0).is_ok());
        assert!(p.write_line(LineId(12), 0, 0).is_err());
        assert!(p.write_line(LineId(13), 0, 0).is_ok());
    }

    #[test]
    fn capacity_faults_at_the_chosen_footprint() {
        let p = plane(FaultConfig {
            capacity_read_lines: 3,
            capacity_write_lines: 2,
            ..FaultConfig::default()
        });
        assert!(p.check_read_footprint(3).is_ok());
        let fault = p.check_read_footprint(4).unwrap_err();
        assert_eq!(fault.kind, HwAbortKind::Capacity);
        assert!(fault.injected);
        assert!(p.check_write_footprint(2).is_ok());
        assert!(p.check_write_footprint(3).is_err());
    }

    #[test]
    fn rates_are_seeded_and_deterministic_per_thread() {
        let cfg = FaultConfig {
            seed: 42,
            spurious_per_64k: 16384, // 25%
            ..FaultConfig::default()
        };
        let run = || {
            let p = plane(cfg);
            (0..256)
                .map(|i| p.read_line(LineId(i), i, 1).is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same thread, same fault sequence");
        let faults = a.iter().filter(|&&f| f).count();
        assert!(
            (16..112).contains(&faults),
            "a 25% rate should fault roughly a quarter of 256 accesses, got {faults}"
        );

        let other_seed = FaultConfig { seed: 43, ..cfg };
        let c = {
            let p = plane(other_seed);
            (0..256)
                .map(|i| p.read_line(LineId(i), i, 1).is_err())
                .collect::<Vec<_>>()
        };
        assert_ne!(a, c, "different seeds draw different streams");
    }

    #[test]
    fn commit_window_faults_inject_conflicts() {
        let p = plane(FaultConfig {
            commit_window_per_64k: u16::MAX, // ~always
            ..FaultConfig::default()
        });
        let fault = p.commit_check(0).unwrap_err();
        assert_eq!(fault.kind, HwAbortKind::Conflict);
        assert!(fault.injected);
        assert!(p.injected_total() >= 1);
    }

    #[test]
    fn injection_counts_accumulate() {
        let p = plane(FaultConfig {
            conflict_line_mod: 1,
            ..FaultConfig::default()
        });
        for i in 0..10 {
            assert!(p.read_line(LineId(i), i, 0).is_err());
        }
        assert_eq!(p.injected_total(), 10);
    }
}
