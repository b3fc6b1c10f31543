//! The unified mode-control plane, end to end: the system-wide serial gate,
//! `TxCtl::BecomeSerial` on every runtime, policy-driven escalation, and the
//! hybrid runtime's mixed hardware/software conflict detection.
//!
//! The forced-serial sweep re-runs the serializability invariants with every
//! Nth transaction escalated to serial mode on all four runtimes, so
//! gate acquisition/release interleaves with ordinary optimistic commits.

use std::sync::Arc;

use tm_repro::core::policy::PolicyKind;
use tm_repro::core::tx::TxMode;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

use tm_repro::workloads::stress_iters as stress_mult;

const THREADS: usize = 4;

/// Every `period`-th transaction of each thread requests `BecomeSerial` on
/// its first (non-serial) attempt, so serial sections continuously
/// interleave with optimistic commits.
fn forced_serial_counter_sweep(kind: RuntimeKind, period: u64) {
    let per_thread: u64 = 200 * stress_mult();
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let counter = TmVar::<u64>::alloc(&system, 0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for i in 0..per_thread {
                    let force_serial = i % period == 0;
                    rt.atomically(&th, |tx| {
                        if force_serial && tx.mode() != TxMode::Serial {
                            return Err(TxCtl::BecomeSerial);
                        }
                        let x = counter.get(tx)?;
                        counter.set(tx, x + 1)
                    });
                }
            });
        }
    });
    assert_eq!(
        counter.load_direct(&system),
        THREADS as u64 * per_thread,
        "lost updates with forced-serial transactions on {kind}"
    );
    let stats = system.stats();
    let forced = THREADS as u64 * per_thread.div_ceil(period);
    // At least every forced transaction commits serially; the pure HTM may
    // add organic escalations of its own (contention spending the
    // speculative budget), so this is a floor, not an exact count.
    assert!(
        stats.serial_commits >= forced,
        "{kind}: every forced transaction must commit serially \
         (serial {} < forced {forced})",
        stats.serial_commits
    );
    assert!(
        stats.serial_acquires >= forced,
        "{kind}: serial commits require gate acquisitions"
    );
    assert!(
        stats.mode_switches >= forced,
        "{kind}: BecomeSerial must register as a mode switch"
    );
    assert!(!system.serial.held(), "{kind}: the gate must be released");
}

#[test]
fn forced_serial_sweep_preserves_serializability_on_all_runtimes() {
    for kind in RuntimeKind::ALL {
        forced_serial_counter_sweep(kind, 5);
    }
}

#[test]
fn serial_sections_are_opaque_to_concurrent_readers() {
    // A serial writer updates two locations with a deliberate pause in
    // between; transactional readers must never observe the intermediate
    // state (one updated, the other not), on any runtime.
    const ROUNDS: u64 = 30;
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let a = TmVar::<u64>::alloc(&system, 0);
        let b = TmVar::<u64>::alloc(&system, 0);
        std::thread::scope(|scope| {
            {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    let th = system.register_thread();
                    for round in 1..=ROUNDS {
                        rt.atomically(&th, |tx| {
                            if tx.mode() != TxMode::Serial {
                                return Err(TxCtl::BecomeSerial);
                            }
                            a.set(tx, round)?;
                            // Widen the window in which a non-excluded
                            // reader would see a != b.
                            std::hint::black_box(&a);
                            std::thread::yield_now();
                            b.set(tx, round)
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rt = rt.clone();
                let system = Arc::clone(&system);
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    let th = system.register_thread();
                    loop {
                        let (x, y) = rt.atomically(&th, |tx| Ok((a.get(tx)?, b.get(tx)?)));
                        assert_eq!(x, y, "{kind}: reader observed a torn serial section");
                        if x == ROUNDS {
                            return;
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert!(!system.serial.held());
    }
}

/// The hardware commit section is the serial gate's, so a serial attempt
/// begun through *any* runtime handle over the system — here a software one,
/// which has no hardware engine to drain anything for it — starts only once
/// the section is free: "the holder runs alone" holds by construction.
#[test]
fn a_software_serial_attempt_waits_out_the_hardware_commit_section() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    use tm_repro::eager::EagerStm;

    let system = TmSystem::new(TmConfig::small());
    let rt = EagerStm::new(Arc::clone(&system));
    let v = TmVar::<u64>::alloc(&system, 0);

    let section = system.serial.hw_commit_section();
    let (started_tx, started_rx) = mpsc::channel();
    let (system_w, v_w) = (Arc::clone(&system), v.clone());
    let worker = std::thread::spawn(move || {
        let th = system_w.register_thread();
        rt.atomically(&th, |tx| {
            if tx.mode() != TxMode::Serial {
                return Err(TxCtl::BecomeSerial);
            }
            let _ = started_tx.send(());
            v_w.set(tx, 1)
        });
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    while !system.serial.held() {
        assert!(Instant::now() < deadline, "the gate was never requested");
        std::thread::yield_now();
    }
    assert!(
        started_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the serial body ran inside a hardware commit section"
    );
    assert_eq!(v.load_direct(&system), 0);
    drop(section);
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the serial body runs once the section is released");
    worker.join().expect("serial transaction commits");
    assert_eq!(v.load_direct(&system), 1);
    assert!(!system.serial.held());
}

#[test]
fn adaptive_policy_escalates_a_starving_transaction() {
    // Deterministic starvation: the body reports contention aborts until the
    // driver escalates it to the serial rung, where it must finally commit.
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small().with_policy(PolicyKind::Adaptive {
            contention_threshold: 3,
        }));
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 7);
        let got = rt.atomically(&th, |tx| {
            if tx.mode() != TxMode::Serial {
                return Err(TxCtl::Abort(tm_repro::core::AbortReason::WriteConflict));
            }
            v.get(tx)
        });
        assert_eq!(got, 7, "{kind}");
        let stats = th.stats.snapshot();
        assert!(
            stats.cm_escalations >= 1,
            "{kind}: the policy must have escalated"
        );
        assert_eq!(stats.serial_commits, 1, "{kind}");
        assert!(!system.serial.held(), "{kind}");
    }
}

#[test]
fn adaptive_policy_escalates_repeated_out_of_memory() {
    // The body runs out of memory until the driver escalates it to the
    // serial rung: two `OutOfMemory` aborts must escalate under the adaptive
    // policy on every runtime, though they are not contention.
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small().with_policy(PolicyKind::ADAPTIVE_DEFAULT));
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 3);
        let got = rt.atomically(&th, |tx| {
            if tx.mode() != TxMode::Serial {
                return Err(TxCtl::Abort(tm_repro::core::AbortReason::OutOfMemory));
            }
            v.get(tx)
        });
        assert_eq!(got, 3, "{kind}");
        let stats = th.stats.snapshot();
        assert!(
            stats.cm_escalations >= 1,
            "{kind}: the policy must have escalated"
        );
        assert_eq!(stats.serial_commits, 1, "{kind}");
        assert!(!system.serial.held(), "{kind}");
    }
}

#[test]
fn stubborn_policy_escalates_after_its_patience() {
    let rt = RuntimeKind::EagerStm
        .build(TmConfig::small().with_policy(PolicyKind::Stubborn { patience: 4 }));
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    let v = TmVar::<u64>::alloc(&system, 1);
    let mut aborts_seen = 0u32;
    let got = rt.atomically(&th, |tx| {
        if tx.mode() != TxMode::Serial {
            aborts_seen += 1;
            return Err(TxCtl::Abort(tm_repro::core::AbortReason::ReadConflict));
        }
        v.get(tx)
    });
    assert_eq!(got, 1);
    assert_eq!(
        aborts_seen, 5,
        "patience 4 tolerates four aborts; the fifth escalates"
    );
    assert_eq!(th.stats.snapshot().cm_escalations, 1);
}

#[test]
fn hybrid_mixed_hw_sw_conflicts_are_serializable() {
    // Hardware and software transactions hammer the same counter; every
    // cross-path conflict must be detected (software commits doom
    // overlapping hardware lines, hardware commits publish to the orecs),
    // or increments would be lost.
    let per_thread: u64 = 400 * stress_mult();
    let rt = RuntimeKind::Hybrid.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let counter = TmVar::<u64>::alloc(&system, 0);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for i in 0..per_thread {
                    let force_sw = (tid as u64 + i).is_multiple_of(2);
                    rt.atomically(&th, |tx| {
                        if force_sw && tx.mode() == TxMode::Hardware {
                            return Err(TxCtl::SwitchToSoftware);
                        }
                        let x = counter.get(tx)?;
                        counter.set(tx, x + 1)
                    });
                }
            });
        }
    });
    assert_eq!(
        counter.load_direct(&system),
        THREADS as u64 * per_thread,
        "a hardware/software conflict went undetected"
    );
    let stats = system.stats();
    assert!(stats.hw_commits > 0, "the hardware path must participate");
    assert!(stats.sw_commits > 0, "the software path must participate");
}

/// The three stock contention-management policies: the hybrid's
/// hardware-first, software-before-serial ladder must hold under each.
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Fixed,
    PolicyKind::ADAPTIVE_DEFAULT,
    PolicyKind::STUBBORN_DEFAULT,
];

/// One `Retry` producer/consumer trial on the hybrid runtime under `policy`.
fn hybrid_pc(
    policy: PolicyKind,
    producers: usize,
    consumers: usize,
    buffer: usize,
    items: u64,
) -> tm_repro::workloads::pc::PcResult {
    use tm_repro::workloads::pc::{run_pc_configured, PcParams};
    let params = PcParams::new(
        producers,
        consumers,
        buffer,
        items,
        condsync::Mechanism::Retry,
    );
    let config = TmConfig::default()
        .with_heap_words(params.heap_words())
        .with_policy(policy);
    let result = run_pc_configured(RuntimeKind::Hybrid, &params, config);
    assert!(result.checksum_ok, "{policy:?}");
    result
}

#[test]
fn hybrid_commits_in_hardware_under_low_contention() {
    for policy in POLICIES {
        let result = hybrid_pc(policy, 1, 1, 64, 1024);
        assert!(
            result.stats.hw_commits > 0,
            "{policy:?}: an uncontended hybrid workload must use the hardware fast path"
        );
    }
}

#[test]
fn hybrid_degrades_to_software_not_serial_under_contention() {
    for policy in POLICIES {
        let stats = hybrid_pc(policy, 4, 4, 2, 2048).stats;
        assert!(
            stats.sw_commits > 0,
            "{policy:?}: contended hybrid transactions must complete on the software path"
        );
        assert!(
            stats.serial_commits < stats.sw_commits,
            "{policy:?}: contention must not collapse onto the serial gate (serial {} >= sw {})",
            stats.serial_commits,
            stats.sw_commits
        );
    }
}

#[test]
fn explicit_aborts_surface_in_aggregated_stats() {
    // The Restart baseline's aborts were previously invisible in reports;
    // they must flow through the aggregated snapshot on every runtime.
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let flag = TmVar::<u64>::alloc(&system, 1);
        let mut restarts = 3u32;
        rt.atomically(&th, |tx| {
            let v = flag.get(tx)?;
            if restarts > 0 {
                restarts -= 1;
                return condsync::restart(tx);
            }
            Ok(v)
        });
        assert_eq!(
            system.stats().explicit_aborts,
            3,
            "{kind}: every Restart must be counted"
        );
    }
}
