//! Hang-free TMCondVar: the regression soak for the lost signal.
//!
//! The `TMCondVar` baseline commits the in-flight transaction at the wait
//! point.  When its generation was bumped outside the signaler's
//! transaction, a waiter that sampled its ticket after the signal but
//! checked its predicate against pre-commit state slept forever — a roughly
//! 1-in-120 `producer_consumer` hang on the HTM and hybrid runtimes.  The
//! generation is now a transactional word the signal writes in the
//! signaler's own transaction, so the signal commits with its data.
//!
//! These tests soak exactly that workload under a hard wall-clock deadline:
//! each trial runs in its own thread and must report back within
//! [`TRIAL_DEADLINE`], otherwise the suite fails loudly instead of hanging
//! CI.  The iteration count scales with `TM_STRESS_ITERS` (the scheduled
//! stress job runs 5 x 50 = 250 trials per runtime).

use std::sync::mpsc;
use std::time::Duration;

use tm_repro::sync::Mechanism;
use tm_repro::workloads::pc::{run_pc, PcParams};
use tm_repro::workloads::runtime::RuntimeKind;
use tm_repro::workloads::stress_iters;

/// Items per trial — matches the `producer_consumer` suite, where the hang
/// historically reproduced.
const ITEMS: u64 = 384;

/// Hard per-trial deadline.  A healthy trial finishes in well under a
/// second; a lost wake-up never finishes at all.
const TRIAL_DEADLINE: Duration = Duration::from_secs(60);

/// Runs `5 * stress_iters()` TMCondVar producer/consumer trials on `kind`,
/// each under the hard deadline, and asserts conservation on every one.
fn soak(kind: RuntimeKind) {
    let trials = 5 * stress_iters();
    for trial in 0..trials {
        let (done, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let params = PcParams::new(2, 2, 8, ITEMS, Mechanism::TmCondVar);
            let result = run_pc(kind, &params);
            // A dropped receiver (deadline already missed) is fine: the
            // suite has failed and this thread is just draining.
            let _ = done.send((params, result));
        });
        match rx.recv_timeout(TRIAL_DEADLINE) {
            Ok((params, result)) => {
                worker.join().expect("trial thread panicked");
                assert!(
                    result.checksum_ok,
                    "conservation failed on {kind} trial {trial}/{trials}"
                );
                assert_eq!(result.produced, params.effective_total());
                assert_eq!(result.consumed, params.effective_total());
            }
            Err(_) => panic!(
                "hang detected: TMCondVar producer/consumer on {kind} \
                 (trial {trial}/{trials}) missed the {TRIAL_DEADLINE:?} deadline \
                 — a signal was lost"
            ),
        }
    }
}

#[test]
fn htm_tmcondvar_soak_never_hangs() {
    soak(RuntimeKind::Htm);
}

#[test]
fn hybrid_tmcondvar_soak_never_hangs() {
    soak(RuntimeKind::Hybrid);
}

#[test]
fn software_tmcondvar_soak_never_hangs() {
    // The software runtimes commit at the wait point synchronously, so the
    // historical window was narrower there — but the wait protocol is
    // shared, and this pins it on every runtime.
    soak(RuntimeKind::EagerStm);
    soak(RuntimeKind::LazyStm);
}
