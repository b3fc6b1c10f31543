//! The behaviour the eager and the lazy STM share (`tm_core::software`),
//! checked once per protocol from one table: each case below is a function
//! generic over the protocol, and `cases!` runs it on both protocols under
//! both clock planes.
//!
//! These are the unit tests that used to be written twice, once in each
//! runtime crate.  Protocol-specific behaviour (undo in place, redo
//! buffering, prefix release, the `Await` capture) is tested next to its
//! protocol, in `tm_core::software::{eager, lazy}`.

use std::any::TypeId;
use std::sync::Arc;

use tm_core::software::{Eager, Lazy, SoftwareStm};
use tm_core::{
    AbortReason, Addr, Attempt, ClockMode, Descriptor, SoftwareProtocol, SoftwareTx, ThreadCtx,
    TmConfig, TmSystem, Tx, TxCommon, TxCtl, TxKind, TxMode,
};

fn config(clock: ClockMode) -> TmConfig {
    TmConfig::small().with_clock(clock)
}

/// Two handles are driven from one OS thread in many cases, so a committer
/// must not quiesce waiting for the other handle (it could never finish).
fn two_handle_system(clock: ClockMode) -> Arc<TmSystem> {
    TmSystem::new(config(clock).without_quiescence())
}

/// A thread context and a private descriptor for one test handle.
fn party(system: &Arc<TmSystem>) -> (Arc<ThreadCtx>, Descriptor) {
    (system.register_thread(), Descriptor::default())
}

fn software() -> TxCommon {
    TxCommon::new(TxMode::Software, 0)
}

fn read_only() -> TxCommon {
    software().with_kind(TxKind::ReadOnly)
}

/// Commits `val` to `addr` from a fresh thread.
fn commit_write<P: SoftwareProtocol>(system: &Arc<TmSystem>, addr: Addr, val: u64) {
    let (th, mut d) = party(system);
    let rt = SoftwareStm::<P>::new(Arc::clone(system));
    let mut w = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
    w.write(addr, val).unwrap();
    w.try_commit().unwrap();
}

mod case {
    use super::*;

    pub fn read_only_commit_is_trivial<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        system.heap.store(Addr(3), 11);
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
        assert_eq!(tx.read(Addr(3)).unwrap(), 11);
        let info = tx.try_commit().unwrap();
        assert!(!info.was_writer);
        assert_eq!(info.commit_time, 0);
    }

    pub fn commit_validation_detects_stale_reads<P: SoftwareProtocol>(clock: ClockMode) {
        let system = two_handle_system(clock);
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        // tx1 reads addr 6, then another transaction commits a write to it,
        // then tx1 writes something else and tries to commit: validation
        // must fail.
        let (t1, mut d1) = party(&system);
        let mut tx1 = SoftwareTx::<P>::begin(&*rt, &t1, &mut d1, software());
        assert_eq!(tx1.read(Addr(6)).unwrap(), 0);
        commit_write::<P>(&system, Addr(6), 9);
        tx1.write(Addr(7), 1).unwrap();
        assert!(matches!(
            tx1.try_commit(),
            Err(AbortReason::CommitValidation)
        ));
        assert_eq!(system.heap.load(Addr(7)), 0);
        assert_eq!(system.heap.load(Addr(6)), 9);
    }

    pub fn read_after_foreign_commit_aborts_immediately<P: SoftwareProtocol>(clock: ClockMode) {
        let system = two_handle_system(clock);
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (t1, mut d1) = party(&system);
        let mut tx1 = SoftwareTx::<P>::begin(&*rt, &t1, &mut d1, software());
        let _ = tx1.read(Addr(2)).unwrap();
        // Another transaction commits a write to a different orec: tx1 can
        // still read locations whose version predates its start.
        commit_write::<P>(&system, Addr(100), 1);
        // Reading the *updated* location must abort tx1 (version too new).
        assert!(tx1.read(Addr(100)).is_err());
    }

    pub fn reexecuted_attempts_start_on_the_grown_descriptor<P: SoftwareProtocol>(
        clock: ClockMode,
    ) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
        let _ = tx.read(Addr(1)).unwrap();
        tx.write(Addr(2), 2).unwrap();
        drop(tx);
        assert!(d.grown());
        assert!(d.reads.is_empty() && d.writes.is_empty() && d.locks.is_empty());
        assert!(d.reads.capacity() > 0 && d.writes.capacity() > 0);
        let snap = th.stats.snapshot();
        assert_eq!((snap.read_set_max, snap.write_set_max), (1, 1));
    }

    pub fn transactional_alloc_is_undone_on_rollback<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
        let before = system.heap.allocated_words();
        let a = tx.alloc(8).unwrap();
        assert!(!a.is_null());
        assert_eq!(system.heap.allocated_words(), before + 8);
        drop(tx);
        assert_eq!(system.heap.allocated_words(), before);
    }

    pub fn transactional_free_is_deferred_to_commit<P: SoftwareProtocol>(clock: ClockMode) {
        // Through the read-only commit and through a writer commit.
        for writer in [false, true] {
            let system = TmSystem::new(config(clock));
            let rt = SoftwareStm::<P>::new(Arc::clone(&system));
            let (th, mut d) = party(&system);
            let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
            let a = system.heap.alloc(4).unwrap();
            let before = system.heap.allocated_words();
            tx.free(a, 4).unwrap();
            if writer {
                tx.write(Addr(1), 1).unwrap();
            }
            assert_eq!(
                system.heap.allocated_words(),
                before,
                "free deferred until commit"
            );
            assert_eq!(tx.try_commit().unwrap().was_writer, writer);
            assert_eq!(system.heap.allocated_words(), before - 4);
        }
    }

    pub fn read_orec_cover_deduplicates<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(31)).unwrap();
        assert!(tx.core.d.reads.orec_cover().len() <= 2);
    }

    pub fn snapshot_read_keeps_no_read_set_and_commits_free<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        system.heap.store(Addr(3), 7);
        system.heap.store(Addr(4), 8);
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, read_only());
        assert_eq!(tx.read(Addr(3)).unwrap(), 7);
        assert_eq!(tx.read(Addr(4)).unwrap(), 8);
        assert!(tx.core.d.reads.is_empty(), "snapshot reads record nothing");
        let info = tx.try_commit().unwrap();
        assert!(!info.was_writer);
        let snap = th.stats.snapshot();
        assert_eq!(snap.ro_fast_commits, 1);
        assert_eq!(snap.read_set_max, 0, "no read set was ever built");
    }

    pub fn snapshot_write_aborts_with_read_only_write<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, read_only());
        assert!(matches!(
            tx.write(Addr(1), 9),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        assert!(matches!(
            tx.alloc(4),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        assert!(matches!(
            tx.free(Addr(1), 1),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        // The one place the protocols differ on this path: an eager
        // read-for-write locks, so it is an update; a lazy one is just a
        // read, still legal here (the upgrade happens at the first actual
        // write).
        let eager = TypeId::of::<P>() == TypeId::of::<Eager>();
        match tx.read_for_write(Addr(1)) {
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite)) => assert!(eager),
            Ok(0) => assert!(!eager),
            other => panic!("unexpected read-for-write result {other:?}"),
        }
    }

    pub fn snapshot_refreshes_at_first_read_instead_of_aborting<P: SoftwareProtocol>(
        clock: ClockMode,
    ) {
        let system = two_handle_system(clock);
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, read_only());
        // A foreign commit moves Addr(6) past the snapshot's start.
        commit_write::<P>(&system, Addr(6), 9);
        // First read: too new, but nothing observed yet — refresh, not abort.
        assert_eq!(tx.read(Addr(6)).unwrap(), 9);
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().snapshot_refreshes, 1);
    }

    pub fn snapshot_aborts_on_too_new_after_first_read<P: SoftwareProtocol>(clock: ClockMode) {
        let system = two_handle_system(clock);
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, read_only());
        assert_eq!(tx.read(Addr(5)).unwrap(), 0, "pin the snapshot");
        commit_write::<P>(&system, Addr(6), 9);
        assert!(matches!(
            tx.read(Addr(6)),
            Err(TxCtl::Abort(AbortReason::ReadConflict))
        ));
    }

    pub fn an_update_attempt_tracks_its_reads<P: SoftwareProtocol>(clock: ClockMode) {
        let system = TmSystem::new(config(clock));
        let rt = SoftwareStm::<P>::new(Arc::clone(&system));
        let (th, mut d) = party(&system);
        let mut tx = SoftwareTx::<P>::begin(&*rt, &th, &mut d, software());
        assert_eq!(tx.read(Addr(3)).unwrap(), 0);
        assert_eq!(tx.core.d.reads.len(), 1, "the tracked read path");
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().ro_fast_commits, 0);
    }
}

/// The table: every case runs on both protocols under both clock planes.
/// `TmConfig::small()` is GV1, which production never uses, so the lazy
/// plane is swept alongside it.
macro_rules! cases {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            for clock in [ClockMode::Gv1, ClockMode::LazyGv5] {
                case::$name::<Eager>(clock);
                case::$name::<Lazy>(clock);
            }
        }
    )*};
}

cases![
    read_only_commit_is_trivial,
    commit_validation_detects_stale_reads,
    read_after_foreign_commit_aborts_immediately,
    reexecuted_attempts_start_on_the_grown_descriptor,
    transactional_alloc_is_undone_on_rollback,
    transactional_free_is_deferred_to_commit,
    read_orec_cover_deduplicates,
    snapshot_read_keeps_no_read_set_and_commits_free,
    snapshot_write_aborts_with_read_only_write,
    snapshot_refreshes_at_first_read_instead_of_aborting,
    snapshot_aborts_on_too_new_after_first_read,
    an_update_attempt_tracks_its_reads,
];
