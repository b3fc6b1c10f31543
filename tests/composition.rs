//! Integration tests for the composability argument (§2.2.1, §2.3,
//! Algorithm 3): composing `Produce` and `Consume` into `Produce1Consume2`
//! stays atomic under the paper's mechanisms, and the intermediate state of
//! the composition is never visible to other transactions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use condsync::Mechanism;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

const ROUNDS: u64 = 30;

/// Runs `Produce1Consume2` rounds against an adversarial observer and returns
/// how often the observer saw the in-progress flag set in *committed* state.
fn observed_leaks(kind: RuntimeKind, mechanism: Mechanism) -> u64 {
    let rt = kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let buffer = TmBoundedBuffer::new(&system, 8);
    let inprogress = TmVar::<u64>::alloc(&system, 0);
    let leaks = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Observer.
        {
            let (rt, system) = (rt.clone(), Arc::clone(&system));
            let (inprogress, leaks, stop) =
                (inprogress.clone(), Arc::clone(&leaks), Arc::clone(&stop));
            scope.spawn(move || {
                let th = system.register_thread();
                while !stop.load(Ordering::Relaxed) {
                    if rt.atomically(&th, |tx| inprogress.get(tx)) != 0 {
                        leaks.fetch_add(1, Ordering::Relaxed);
                    }
                    // A short sleep keeps the observer honest without starving
                    // the composed transaction on a single-core host.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // Refill helper: keeps two spare elements around so the composed
        // transaction's "consume two" precondition (count ≥ 2 for WaitPred)
        // can always be established by someone else's commit.
        {
            let (rt, system, buffer) = (rt.clone(), Arc::clone(&system), Arc::clone(&buffer));
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let th = system.register_thread();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    rt.atomically(&th, |tx| {
                        let count = tx.read(buffer.count_addr())?;
                        if count < 2 {
                            buffer.produce(mechanism, tx, 10_000 + i)?;
                        }
                        Ok(())
                    });
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // The composed transaction.
        let main = {
            let (rt, system, buffer) = (rt.clone(), Arc::clone(&system), Arc::clone(&buffer));
            let inprogress = inprogress.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let th = system.register_thread();
                for round in 0..ROUNDS {
                    rt.atomically(&th, |tx| {
                        inprogress.set(tx, 1)?;
                        let (_a, _b) = buffer.produce1_consume2(mechanism, tx, round)?;
                        inprogress.set(tx, 0)
                    });
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        main.join().expect("composed transaction");
    });

    leaks.load(Ordering::Relaxed)
}

#[test]
fn retry_preserves_composition_atomicity_on_eager_stm() {
    assert_eq!(observed_leaks(RuntimeKind::EagerStm, Mechanism::Retry), 0);
}

#[test]
fn retry_preserves_composition_atomicity_on_lazy_stm() {
    assert_eq!(observed_leaks(RuntimeKind::LazyStm, Mechanism::Retry), 0);
}

#[test]
fn retry_preserves_composition_atomicity_on_htm() {
    assert_eq!(observed_leaks(RuntimeKind::Htm, Mechanism::Retry), 0);
}

#[test]
fn await_and_waitpred_preserve_composition_atomicity() {
    assert_eq!(observed_leaks(RuntimeKind::EagerStm, Mechanism::Await), 0);
    assert_eq!(
        observed_leaks(RuntimeKind::EagerStm, Mechanism::WaitPred),
        0
    );
}

#[test]
fn restart_preserves_composition_atomicity() {
    assert_eq!(observed_leaks(RuntimeKind::EagerStm, Mechanism::Restart), 0);
}

/// The composed transaction's results are two consecutive elements when the
/// buffer is drained by nobody else — the property §2.2.1 shows condition
/// variables cannot provide.
#[test]
fn produce1_consume2_returns_consecutive_elements_single_threaded() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let buffer = TmBoundedBuffer::new(&system, 8);
    buffer.prefill(&system, 2); // elements 1 and 2
    let th = system.register_thread();
    let (a, b) = rt.atomically(&th, |tx| buffer.produce1_consume2(Mechanism::Retry, tx, 99));
    // FIFO: the two consumed elements are the two oldest, in order.
    assert_eq!((a, b), (1, 2));
    assert_eq!(
        buffer.len_direct(&system),
        1,
        "the produced element remains"
    );
}

/// Nested library-style use: a transaction that calls a helper which itself
/// may retry composes into one atomic action (flat nesting).
#[test]
fn waiting_inside_a_helper_function_composes() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let buffer = TmBoundedBuffer::new(&system, 4);
    let log = TmVar::<u64>::alloc(&system, 0);

    let rt_w = rt.clone();
    let system_w = Arc::clone(&system);
    let buffer_w = Arc::clone(&buffer);
    let log_w = log.clone();
    let consumer = std::thread::spawn(move || {
        let th = system_w.register_thread();
        rt_w.atomically(&th, |tx| {
            // Outer transaction writes something first…
            log_w.set(tx, 1)?;
            // …then calls a library helper that waits inside the same
            // transaction.  If the wait rolls back, the log write must roll
            // back with it (no partial state is ever committed).
            let v = buffer_w.consume(Mechanism::Retry, tx)?;
            log_w.set(tx, v)?;
            Ok(v)
        })
    });

    std::thread::sleep(std::time::Duration::from_millis(20));
    // Before the producer acts, the consumer must not have committed the
    // `log = 1` prefix.
    assert_eq!(log.load_direct(&system), 0, "partial state leaked");

    let th = system.register_thread();
    rt.atomically(&th, |tx| buffer.produce(Mechanism::Retry, tx, 55));
    assert_eq!(consumer.join().unwrap(), 55);
    assert_eq!(log.load_direct(&system), 55);
}
