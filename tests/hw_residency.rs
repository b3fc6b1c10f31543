//! The hardware rung's residency rule: only the first speculative touch of a
//! line in an attempt goes to the coherence directory, every later access to
//! the line is a hit — and the hit path keeps the conflict semantics of a
//! per-access registration.  (The directory-call counts themselves are
//! pinned by the `tm_core::hardware` unit tests, which can see the
//! directory's test-only counters.)
//!
//! The tests are deterministic: registered threads are driven from one OS
//! thread, so the conflicting party arrives exactly between the victim's
//! first and second access to the line.

use std::sync::Arc;

use tm_repro::core::driver::{Attempt, TxEngine};
use tm_repro::core::hardware::lines::MAX_HW_THREADS;
use tm_repro::core::{
    AbortReason, Addr, StatsSnapshot, TmConfig, TmRuntime, TmSystem, TmVar, Tx, TxCommon, TxCtl,
    TxMode, LINE_WORDS,
};
use tm_repro::htm::{Directory, HtmSim, HybridTm};

/// First word of the cache line the single-line tests work on.
const BASE: Addr = Addr(64);

#[test]
fn a_written_line_is_resident_for_reads_too() {
    // Write first: the writer registration subsumes the reader's, so reading
    // another word of the line afterwards registers nothing.
    let system = TmSystem::new(TmConfig::small());
    let rt = HtmSim::new(Arc::clone(&system));
    let th = system.register_thread();
    let mut desc = th.checkout();
    let mut tx = rt.begin(&th, &mut desc, TxCommon::new(TxMode::Hardware, 0));
    let lines = rt.directory().lines();
    let slot = lines.slot_for(BASE.line());
    tx.write(BASE, 1).unwrap();
    assert_eq!(tx.read(BASE.offset(1)).unwrap(), 0);
    assert_eq!(lines.writer_of(slot), Some(th.id));
    assert!(!lines.is_reader(slot, th.id));
    tx.try_commit().unwrap();
    assert_eq!(lines.writer_of(slot), None);
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
    let (line, dir) = (BASE.line(), rt.directory());
    let slot = dir.slot_for(line);
    dir.write_line(line, slot, t1.id).unwrap();

    assert!(
        matches!(
            tx.read(BASE.offset(1)),
            Err(TxCtl::Abort(AbortReason::HwConflict))
        ),
        "the second read never asks the directory, yet must see the conflict"
    );
    drop(tx);
    dir.clear_write(slot, t1.id);
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
            tx.try_commit().map(drop).map_err(TxCtl::Abort)
        } else {
            let lost = tx.write(BASE.offset(1), 2);
            drop(tx);
            lost
        };
        assert!(
            matches!(lost, Err(TxCtl::Abort(AbortReason::HwConflict))),
            "commit_instead={commit_instead}: got {lost:?}"
        );
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
        matches!(read_w1.try_commit(), Err(AbortReason::CommitValidation)),
        "a software reader of the written word must fail validation"
    );
    read_w2.write(elsewhere, 2).unwrap();
    read_w2
        .try_commit()
        .expect("a reader of the unwritten neighbour is not disturbed");
    assert_eq!(system.heap.load(elsewhere), 2);
}

// --- Thread ids the directory's reader mask cannot represent. -------------

/// Thread 64 — the first id past the directory's 64-bit reader mask — runs
/// beside thread 0, which holds a speculative read registration on `BASE`'s
/// line.  Returns thread 64's statistics and whether thread 0 ended up
/// doomed.
fn past_the_reader_mask<R: TxEngine>(
    rt: &R,
    dir: &Directory,
    system: &Arc<TmSystem>,
) -> (StatsSnapshot, bool) {
    let threads: Vec<_> = (0..=MAX_HW_THREADS)
        .map(|_| system.register_thread())
        .collect();
    let (t0, t64) = (&threads[0], &threads[MAX_HW_THREADS]);
    let slot = dir.slot_for(BASE.line());
    let t0_registered = || dir.lines().is_reader(slot, t0.id);
    let mut d0 = t0.checkout();
    let mut reader = rt.begin(t0, &mut d0, TxCommon::new(TxMode::Hardware, 0));
    assert_eq!(reader.read(BASE).unwrap(), 0);
    assert!(t0_registered());

    // Speculation is refused at thread 64's first registration, as a
    // capacity abort, and its cleanup clears nothing of thread 0's.
    {
        let mut d64 = t64.checkout();
        let mut tx = rt.begin(t64, &mut d64, TxCommon::new(TxMode::Hardware, 0));
        let refused = tx.read(BASE);
        assert!(matches!(
            refused,
            Err(TxCtl::Abort(AbortReason::HwCapacity))
        ));
    }
    assert!(t0_registered() && !t0.is_doomed());

    // The mode ladder finishes thread 64's transaction off speculation, and
    // leaves no registration or claim of its own behind.
    let out = TmVar::<u64>::from_addr(BASE.offset(4 * LINE_WORDS));
    rt.atomically(t64, |tx| {
        let x = tx.read(BASE)?;
        out.set(tx, x + 7)
    });
    assert_eq!(out.load_direct(system), 7);
    assert!(t0_registered());
    assert_eq!(dir.lines().writer_of(dir.slot_for(out.addr().line())), None);
    let doomed = t0.is_doomed();
    drop(reader);
    assert!(!t0_registered());
    (t64.stats.snapshot(), doomed)
}

#[test]
fn a_thread_past_the_reader_mask_commits_off_speculation_and_disturbs_no_other() {
    let config = TmConfig::small().with_max_threads(MAX_HW_THREADS + 1);

    let system = TmSystem::new(config);
    let rt = HtmSim::new(Arc::clone(&system));
    let (stats, doomed) = past_the_reader_mask(&*rt, rt.directory(), &system);
    assert_eq!(stats.hw_commits, 0);
    assert_eq!(stats.serial_commits, 1, "htm: the serial rung commits it");
    assert!(stats.hw_aborts >= 1);
    // Taking the serial gate aborts every in-flight hardware attempt (the
    // fallback-lock subscription), so here thread 0 is doomed by the gate.
    assert!(doomed);

    let system = TmSystem::new(config);
    let rt = HybridTm::new(Arc::clone(&system));
    let (stats, doomed) = past_the_reader_mask(&*rt, rt.htm().directory(), &system);
    assert_eq!(stats.hw_commits, 0);
    assert_eq!(
        (stats.sw_commits, stats.serial_commits),
        (1, 0),
        "hybrid: the software rung commits it"
    );
    assert!(
        !doomed,
        "a software commit to another line dooms no speculative reader"
    );
}
