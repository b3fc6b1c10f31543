//! A transaction body that panics leaves the system as if the attempt never
//! ran, on all four runtimes and on every rung of their mode ladders.
//!
//! Each case runs a body that writes a word, allocates and then panics, and
//! catches the unwind on the same thread.  Afterwards the word holds its
//! pre-transaction value, the allocation is gone, the serial gate is free,
//! the thread has no published start time, its descriptor is clean, and both
//! the thread itself and another thread — on the same word and on a disjoint
//! one — still commit.  Every step that could block runs under a hard
//! deadline, so a wedged runtime fails the suite instead of hanging it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use tm_repro::core::thread::NOT_IN_TX;
use tm_repro::core::{ThreadCtx, TmConfig, TmVar, Tx, TxCtl, TxMode, TxResult};
use tm_repro::structures::TmHashMap;
use tm_repro::workloads::runtime::{AnyRuntime, RuntimeKind};

/// A healthy step takes milliseconds; a wedged one never finishes.
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `step` on a thread of its own and returns its result, failing the
/// test if it does not finish within [`DEADLINE`] (and re-raising its panic
/// if it panicked).
fn within_deadline<T: Send + 'static>(what: &str, step: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(step());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(value) => {
            worker.join().expect("the step already returned");
            value
        }
        Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what} missed the {DEADLINE:?} deadline: an unwound attempt wedged the system")
        }
    }
}

/// Which rung the panicking attempt runs on.
#[derive(Clone, Copy, Debug)]
enum Rung {
    /// The engine's first attempt: hardware on htm and hybrid, the
    /// instrumented STM on eager and lazy.
    Speculative,
    /// After `SwitchToSoftware`: hybrid's lazy-STM rung (htm's is serial).
    Software,
    /// After `BecomeSerial`: behind the serial gate on every runtime.
    Serial,
}

impl Rung {
    /// Steers the attempt onto this rung, or `Ok` once it is there.
    fn climb(self, tx: &mut dyn Tx) -> TxResult<()> {
        match self {
            Rung::Software if tx.mode() == TxMode::Hardware => Err(TxCtl::SwitchToSoftware),
            Rung::Serial if tx.mode() != TxMode::Serial => Err(TxCtl::BecomeSerial),
            _ => Ok(()),
        }
    }
}

/// Asserts that `th`'s side of the system is back to rest: serial gate free,
/// no published start time, an empty descriptor, `baseline` words allocated.
fn assert_at_rest(rt: &AnyRuntime, th: &ThreadCtx, baseline: usize, what: &str) {
    let system = rt.system();
    assert_eq!(
        system.heap.allocated_words(),
        baseline,
        "{what}: allocation leaked"
    );
    assert!(!system.serial.held(), "{what}: serial gate still held");
    assert_eq!(
        th.published_start(),
        NOT_IN_TX,
        "{what}: start time still published"
    );
    let d = th.checkout();
    assert!(
        d.reads.is_empty()
            && d.writes.is_empty()
            && d.locks.is_empty()
            && d.read_slots.is_empty()
            && d.write_slots.is_empty()
            && d.mallocs.is_empty()
            && d.frees.is_empty(),
        "{what}: the descriptor kept the unwound attempt's logs"
    );
}

/// Panics inside a body on `rung` of `kind`, then checks the aftermath.
fn unwind_on(kind: RuntimeKind, rung: Rung) {
    let what = format!("{kind} / {rung:?}");
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let word = TmVar::<u64>::alloc(&system, 5);
    let disjoint = TmVar::<u64>::alloc(&system, 0);
    let baseline = system.heap.allocated_words();
    let th = system.register_thread();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        rt.atomically(&th, |tx| -> TxResult<()> {
            rung.climb(tx)?;
            word.set(tx, 99)?;
            tx.alloc(4)?;
            panic!("body panics mid-attempt");
        })
    }));
    assert!(
        unwound.is_err(),
        "{what}: the body's panic must reach the caller"
    );
    assert_eq!(word.load_direct(&system), 5, "{what}: the write survived");
    assert_at_rest(&rt, &th, baseline, &what);

    let (rt2, word2) = (rt.clone(), word.clone());
    within_deadline(
        &format!("{what}: the same thread's next commit"),
        move || {
            rt2.atomically(&th, |tx| word2.update(tx, |x| x + 1));
        },
    );
    let (rt2, word2) = (rt.clone(), word.clone());
    within_deadline(&format!("{what}: another thread's commits"), move || {
        let other = rt2.system().register_thread();
        rt2.atomically(&other, |tx| word2.update(tx, |x| x + 10));
        rt2.atomically(&other, |tx| disjoint.set(tx, 1));
    });
    assert_eq!(word.load_direct(&system), 16, "{what}");
}

#[test]
fn a_panic_on_the_speculative_rung_rolls_back() {
    for kind in RuntimeKind::ALL {
        unwind_on(kind, Rung::Speculative);
    }
}

#[test]
fn a_panic_on_the_software_rung_rolls_back() {
    for kind in RuntimeKind::ALL {
        unwind_on(kind, Rung::Software);
    }
}

#[test]
fn a_panic_on_the_serial_rung_rolls_back() {
    for kind in RuntimeKind::ALL {
        unwind_on(kind, Rung::Serial);
    }
}

/// `TmHashMap::insert` panics on a full table; the transaction around it —
/// here one that already removed a key and reused its slot — is rolled back
/// on the way out, and the map keeps working for everyone.
#[test]
fn a_full_hash_map_insert_unwinds_without_a_trace() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let map = Arc::new(TmHashMap::<u64, u64>::new(&system, 4));
        let th = system.register_thread();
        for k in 0..map.capacity() as u64 {
            rt.atomically(&th, |tx| map.insert(tx, k, k));
        }
        let contents = map.dump_direct(&system);
        let baseline = system.heap.allocated_words();

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            rt.atomically(&th, |tx| {
                map.remove(tx, 0)?;
                map.insert(tx, 100, 1)?;
                map.insert(tx, 101, 1)
            })
        }));
        assert!(unwound.is_err(), "{kind}: the full table must panic");
        assert_eq!(
            map.dump_direct(&system),
            contents,
            "{kind}: contents changed"
        );
        assert_eq!(map.len_direct(&system), 4, "{kind}: counters changed");
        assert_at_rest(&rt, &th, baseline, &kind.to_string());

        let (rt2, map2) = (rt.clone(), Arc::clone(&map));
        within_deadline(
            &format!("{kind}: another thread's map commits"),
            move || {
                let other = rt2.system().register_thread();
                assert_eq!(rt2.atomically(&other, |tx| map2.insert(tx, 0, 7)), Some(0));
                assert_eq!(rt2.atomically(&other, |tx| map2.remove(tx, 1)), Some(1));
            },
        );
        assert_eq!(map.len_direct(&system), 3, "{kind}");
    }
}
