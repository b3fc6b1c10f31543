//! The hardware rung's residency rule: only the first speculative touch of a
//! line in an attempt goes to the coherence directory, every later access to
//! the line is a hit — and the hit path keeps the conflict semantics of a
//! per-access registration.
//!
//! The count tests drive a counting [`HwTm`] decorator over the simulator's
//! [`SimPlane`].  The conflict tests are deterministic: two registered
//! threads are driven from one OS thread, so the conflicting party arrives
//! exactly between the victim's first and second access to the line.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tm_repro::core::driver::{Attempt, TxEngine};
use tm_repro::core::hwtm::{HwAbort, HwTm};
use tm_repro::core::{
    AbortReason, Addr, LineId, ThreadId, TmConfig, TmRt, TmSystem, TmVar, Tx, TxCommon, TxCtl,
    TxMode, LINE_WORDS,
};
use tm_repro::htm::{HtmSim, HybridTm, SimPlane};

/// First word of the cache line the single-line tests work on.
const BASE: Addr = Addr(64);

/// Counts the directory calls a runtime makes, delegating to the simulator.
#[derive(Debug)]
struct CountingPlane {
    inner: Arc<SimPlane>,
    read_line: AtomicUsize,
    write_line: AtomicUsize,
    clear_read: AtomicUsize,
    clear_write: AtomicUsize,
}

impl CountingPlane {
    /// `[read_line, write_line, clear_read, clear_write]` calls so far.
    fn counts(&self) -> [usize; 4] {
        [
            &self.read_line,
            &self.write_line,
            &self.clear_read,
            &self.clear_write,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

impl HwTm for CountingPlane {
    fn slot_for(&self, line: LineId) -> usize {
        self.inner.slot_for(line)
    }
    fn read_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        self.read_line.fetch_add(1, Ordering::Relaxed);
        self.inner.read_line(line, slot, tid)
    }
    fn write_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        self.write_line.fetch_add(1, Ordering::Relaxed);
        self.inner.write_line(line, slot, tid)
    }
    fn check_read_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        self.inner.check_read_footprint(distinct_lines)
    }
    fn check_write_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        self.inner.check_write_footprint(distinct_lines)
    }
    fn commit_check(&self, tid: ThreadId) -> Result<(), HwAbort> {
        self.inner.commit_check(tid)
    }
    fn clear_read(&self, slot: usize, tid: ThreadId) {
        self.clear_read.fetch_add(1, Ordering::Relaxed);
        self.inner.clear_read(slot, tid);
    }
    fn clear_write(&self, slot: usize, tid: ThreadId) {
        self.clear_write.fetch_add(1, Ordering::Relaxed);
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

/// Commits `TXS` read-modify-write transactions over `vars` on an HTM
/// runtime behind a [`CountingPlane`] and returns the directory calls per
/// committed attempt.
fn calls_per_commit(vars: &[TmVar<u64>]) -> [usize; 4] {
    const TXS: usize = 10;
    let system = TmSystem::new(TmConfig::small());
    let plane = Arc::new(CountingPlane {
        inner: SimPlane::new(Arc::clone(&system)),
        read_line: AtomicUsize::new(0),
        write_line: AtomicUsize::new(0),
        clear_read: AtomicUsize::new(0),
        clear_write: AtomicUsize::new(0),
    });
    let rt = HtmSim::with_plane(Arc::clone(&system), Arc::clone(&plane) as _, false);
    let th = system.register_thread();
    for _ in 0..TXS {
        rt.atomically(&th, |tx| {
            for v in vars {
                let x = v.get(tx)?;
                v.set(tx, x + 1)?;
            }
            Ok(())
        });
    }
    let stats = th.stats.snapshot();
    assert_eq!(stats.hw_commits, TXS as u64, "every attempt commits");
    assert_eq!(stats.hw_aborts, 0);
    for v in vars {
        assert_eq!(v.load_direct(&system), TXS as u64);
    }
    plane.counts().map(|c| {
        assert_eq!(c % TXS, 0, "the same calls on every attempt");
        c / TXS
    })
}

#[test]
fn four_variables_on_one_line_register_the_line_once() {
    let vars: Vec<_> = (0..4).map(|i| TmVar::from_addr(BASE.offset(i))).collect();
    assert!(vars.iter().all(|v| v.addr().line() == BASE.line()));
    assert_eq!(
        calls_per_commit(&vars),
        [1, 1, 1, 1],
        "[read_line, write_line, clear_read, clear_write] per committed attempt"
    );
}

#[test]
fn k_distinct_lines_register_k_times() {
    for k in 1..=4 {
        let vars: Vec<_> = (0..k)
            .map(|i| TmVar::from_addr(BASE.offset(i * LINE_WORDS)))
            .collect();
        assert_eq!(calls_per_commit(&vars), [k; 4], "{k} lines");
    }
}

#[test]
fn a_written_line_is_resident_for_reads_too() {
    // Write first: the writer registration subsumes the reader's, so reading
    // another word of the line afterwards registers nothing.
    let system = TmSystem::new(TmConfig::small());
    let rt = HtmSim::new(Arc::clone(&system));
    let th = system.register_thread();
    let mut desc = th.checkout();
    let mut tx = rt.begin(&th, &mut desc, TxCommon::new(TxMode::Hardware, 0));
    let slot = rt.lines().slot_for(BASE.line());
    tx.write(BASE, 1).unwrap();
    assert_eq!(tx.read(BASE.offset(1)).unwrap(), 0);
    assert_eq!(rt.lines().writer_of(slot), Some(th.id));
    assert!(!rt.lines().is_reader(slot, th.id));
    tx.try_commit().unwrap();
    assert_eq!(rt.lines().writer_of(slot), None);
}

// --- The conflict semantics the hit path must keep. -----------------------

#[test]
fn a_read_hit_on_a_line_a_foreign_writer_took_aborts() {
    let system = TmSystem::new(TmConfig::small());
    let rt = HtmSim::new(Arc::clone(&system));
    let (t0, t1) = (system.register_thread(), system.register_thread());
    let mut desc = t0.checkout();
    let mut tx = rt.begin(&t0, &mut desc, TxCommon::new(TxMode::Hardware, 0));
    assert_eq!(tx.read(BASE).unwrap(), 0);

    // T1's store request finds T0's standing registration and dooms it.
    let (line, plane) = (BASE.line(), rt.plane());
    let slot = plane.slot_for(line);
    plane.write_line(line, slot, t1.id).unwrap();

    assert!(
        matches!(
            tx.read(BASE.offset(1)),
            Err(TxCtl::Abort(AbortReason::HwConflict))
        ),
        "the second read never asks the directory, yet must see the conflict"
    );
    tx.rollback();
    plane.clear_write(slot, t1.id);
}

#[test]
fn a_write_hit_on_a_line_a_software_commit_claimed_loses_no_update() {
    // `commit_instead`: T0 goes straight to commit rather than writing again.
    for commit_instead in [false, true] {
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let rt = HybridTm::new(Arc::clone(&system));
        let (t0, t1) = (system.register_thread(), system.register_thread());
        let v = TmVar::<u64>::from_addr(BASE);
        let mut desc = t0.checkout();
        let mut tx = rt.begin(&t0, &mut desc, TxCommon::new(TxMode::Hardware, 0));
        tx.write(BASE, 1).unwrap();

        // A software commit claims the line for its write-back.
        rt.atomically(&t1, |tx| {
            if tx.mode() == TxMode::Hardware {
                return Err(TxCtl::SwitchToSoftware);
            }
            v.set(tx, 7)
        });
        assert_eq!(t1.stats.snapshot().sw_commits, 1);

        let lost = if commit_instead {
            tx.try_commit().map(drop)
        } else {
            tx.write(BASE.offset(1), 2)
        };
        assert!(
            matches!(lost, Err(TxCtl::Abort(AbortReason::HwConflict))),
            "commit_instead={commit_instead}: got {lost:?}"
        );
        tx.rollback();
        assert_eq!(v.load_direct(&system), 7, "the software value survives");
        assert_eq!(system.heap.load(BASE.offset(1)), 0);
    }
}

#[test]
fn a_coupled_hardware_commit_publishes_to_the_written_words_orecs_only() {
    let system = TmSystem::new(TmConfig::small().without_quiescence());
    let rt = HybridTm::new(Arc::clone(&system));
    let (w1, w2, elsewhere) = (BASE, BASE.offset(1), BASE.offset(4 * LINE_WORDS));
    let orecs = &system.orecs;
    assert_ne!(orecs.index_for(w1), orecs.index_for(w2), "distinct stripes");
    let before = (orecs.load_for(w1).version(), orecs.load_for(w2).version());

    // Two software transactions open before the hardware commit: one read the
    // word it will write, the other its unwritten neighbour on the same line.
    let software = TxCommon::new(TxMode::Software, 0);
    let (ta, tb) = (system.register_thread(), system.register_thread());
    let (mut da, mut db) = (ta.checkout(), tb.checkout());
    let mut read_w1 = rt.begin(&ta, &mut da, software);
    let mut read_w2 = rt.begin(&tb, &mut db, software);
    assert_eq!(read_w1.read(w1).unwrap(), 0);
    assert_eq!(read_w2.read(w2).unwrap(), 0);

    let hw = system.register_thread();
    rt.atomically(&hw, |tx| tx.write(w1, 5));
    assert_eq!(hw.stats.snapshot().hw_commits, 1);
    assert!(
        orecs.load_for(w1).version() > before.0,
        "w1's orec is bumped"
    );
    assert_eq!(
        orecs.load_for(w2).version(),
        before.1,
        "w2 shares the line but was not written: its orec is left alone"
    );

    read_w1.write(elsewhere, 1).unwrap();
    assert!(
        matches!(
            read_w1.try_commit(),
            Err(TxCtl::Abort(AbortReason::CommitValidation))
        ),
        "a software reader of the written word must fail validation"
    );
    read_w1.rollback();
    read_w2.write(elsewhere, 2).unwrap();
    read_w2
        .try_commit()
        .expect("a reader of the unwritten neighbour is not disturbed");
    assert_eq!(system.heap.load(elsewhere), 2);
}
