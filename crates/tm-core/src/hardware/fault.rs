//! Deterministic hardware fault injection: the seeded [`FaultInjector`] a
//! [`super::Directory`] consults when [`FaultConfig`] enables it.
//!
//! The paper's hybrid designs assume a best-effort hardware TM whose aborts
//! (conflict, capacity, spurious) the software rungs must absorb.  The
//! injector manufactures conflict and spurious aborts on demand — conflicts
//! on chosen lines or at a chosen rate, spurious aborts, and aborts *inside
//! the commit window* — so the Hw→Sw→Serial mode ladder, the serial-gate
//! drain and the orec-coupled write-back are drivable on purpose instead of
//! by luck.  Capacity aborts need no injector: a small
//! [`crate::config::HtmConfig`] footprint produces real ones.  With
//! injection disabled the directory holds no injector and pays one `None`
//! test per injection point.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use super::directory::{HwAbort, HwAbortKind};
use crate::addr::LineId;
use crate::backoff::splitmix64;
use crate::config::FaultConfig;
use crate::pad::CachePadded;
use crate::thread::ThreadId;

/// Manufactures hardware aborts according to a seeded [`FaultConfig`].
///
/// Determinism: each thread draws from its own `xorshift64*` stream, seeded
/// from `(seed, thread id)`, so a single thread's fault sequence is exactly
/// reproducible from the seed regardless of scheduling.  (Cross-thread
/// interleaving still varies — the *faults* are deterministic, the races
/// they provoke are the point.)
///
/// Injection points and the [`FaultConfig`] knobs that drive them:
///
/// * [`FaultInjector::access_fault`] — conflict aborts on chosen lines
///   (`conflict_line_mod`) or at a seeded rate (`conflict_per_64k`), and
///   spurious aborts at a seeded rate (`spurious_per_64k`).  The directory
///   asks once per *line registration* (an attempt's first read or first
///   write of a line), not per access, so that is what the rates count.
///   Injection is decided *before* registering, so no registration is left
///   behind.
/// * [`FaultInjector::commit_fault`] — conflict aborts *inside the commit
///   window* (`commit_window_per_64k`): past the doom check, before the
///   write-back.
///
/// A software commit's write-back claim is never injected: a validated
/// software commit must not fail.
pub(crate) struct FaultInjector {
    cfg: FaultConfig,
    /// Per-thread xorshift64* states (padded: each thread owns its slot).
    rng: Box<[CachePadded<AtomicU64>]>,
    /// Total faults manufactured (all threads, all kinds).
    injected: CachePadded<AtomicU64>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("cfg", &self.cfg)
            .field("injected", &self.injected_total())
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// An injector for `cfg`; `max_threads` bounds the thread ids that will
    /// ever be seen (one rng stream each).
    pub(crate) fn new(cfg: FaultConfig, max_threads: usize) -> Self {
        let rng = (0..max_threads.max(1))
            .map(|tid| {
                CachePadded::new(AtomicU64::new(
                    // Never zero: xorshift's absorbing state.
                    splitmix64(cfg.seed ^ (tid as u64).wrapping_mul(0xA24B_AED4_963E_E407)) | 1,
                ))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FaultInjector {
            cfg,
            rng,
            injected: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Total faults manufactured so far (all threads, all kinds).
    pub(crate) fn injected_total(&self) -> u64 {
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
    fn inject(&self, kind: HwAbortKind) -> Result<(), HwAbort> {
        self.injected.fetch_add(1, Ordering::Relaxed);
        Err(HwAbort::injected(kind))
    }

    /// The registration-time decision shared by reads and writes of `line`.
    pub(crate) fn access_fault(&self, line: LineId, tid: ThreadId) -> Result<(), HwAbort> {
        let m = self.cfg.conflict_line_mod;
        let chosen = m != 0 && (line.0 as u64).is_multiple_of(m);
        if chosen || self.hit(tid, self.cfg.conflict_per_64k) {
            return self.inject(HwAbortKind::Conflict);
        }
        if self.hit(tid, self.cfg.spurious_per_64k) {
            return self.inject(HwAbortKind::Spurious);
        }
        Ok(())
    }

    /// The commit-window decision: a conflict abort past the doom check.
    pub(crate) fn commit_fault(&self, tid: ThreadId) -> Result<(), HwAbort> {
        if self.hit(tid, self.cfg.commit_window_per_64k) {
            return self.inject(HwAbortKind::Conflict);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(cfg: FaultConfig) -> FaultInjector {
        FaultInjector::new(cfg, 4)
    }

    #[test]
    fn zero_config_injects_nothing() {
        let f = injector(FaultConfig::default());
        for i in 0..1000 {
            assert!(f.access_fault(LineId(i), i % 4).is_ok());
            assert!(f.commit_fault(0).is_ok());
        }
        assert_eq!(f.injected_total(), 0);
    }

    #[test]
    fn chosen_lines_always_conflict() {
        let f = injector(FaultConfig {
            conflict_line_mod: 4,
            ..FaultConfig::default()
        });
        let fault = f.access_fault(LineId(8), 0).unwrap_err();
        assert_eq!(fault, HwAbort::injected(HwAbortKind::Conflict));
        assert!(f.access_fault(LineId(7), 0).is_ok());
        assert!(f.access_fault(LineId(12), 1).is_err());
        assert!(f.access_fault(LineId(13), 1).is_ok());
    }

    #[test]
    fn rates_are_seeded_and_deterministic_per_thread() {
        let cfg = FaultConfig {
            seed: 42,
            spurious_per_64k: 16384, // 25%
            ..FaultConfig::default()
        };
        let run = |cfg| {
            let f = injector(cfg);
            (0..256)
                .map(|i| f.access_fault(LineId(i), 1).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(cfg);
        assert_eq!(a, run(cfg), "same seed, same thread, same fault sequence");
        let faults = a.iter().filter(|&&f| f).count();
        assert!(
            (16..112).contains(&faults),
            "a 25% rate should fault roughly a quarter of 256 draws, got {faults}"
        );
        assert_ne!(
            a,
            run(FaultConfig { seed: 43, ..cfg }),
            "different seeds draw different streams"
        );
    }

    #[test]
    fn commit_window_faults_inject_conflicts() {
        let f = injector(FaultConfig {
            commit_window_per_64k: u16::MAX, // ~always
            ..FaultConfig::default()
        });
        let fault = f.commit_fault(0).unwrap_err();
        assert_eq!(fault, HwAbort::injected(HwAbortKind::Conflict));
        assert!(f.injected_total() >= 1);
    }

    #[test]
    fn injection_counts_accumulate() {
        let f = injector(FaultConfig {
            conflict_line_mod: 1,
            ..FaultConfig::default()
        });
        for i in 0..10 {
            assert!(f.access_fault(LineId(i), 0).is_err());
        }
        assert_eq!(f.injected_total(), 10);
    }
}
