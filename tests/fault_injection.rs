//! Deterministic hardware fault injection: the seeded fault-injector matrix.
//!
//! Every test here runs with an explicit [`FaultConfig`] — a fixed seed plus
//! one or more injection knobs — layered between the HTM runtimes and the
//! simulated hardware backend, or with a hardware capacity shrunk below the
//! transactions' footprint.  The assertions are always the same two
//! properties, exercised per fault kind and per runtime:
//!
//! 1. **No lost work**: injected aborts (conflict, capacity, spurious, and
//!    aborts inside the commit window) may slow a transaction down but never
//!    lose its updates — counters end exact, the producer/consumer checksum
//!    balances.
//! 2. **The ladder degrades, it does not wedge**: a hardware path that keeps
//!    faulting climbs to the software path (hybrid) or the serial gate (pure
//!    HTM) and finishes there.
//!
//! The software runtimes have no hardware plane, so a fault configuration is
//! inert on them — which is exactly what the golden-parity test checks.
//!
//! [`FaultConfig`]: tm_repro::core::FaultConfig

use std::sync::Arc;

use tm_repro::core::{FaultConfig, HtmConfig, StatsSnapshot, TmArray, TmConfig, TmVar};
use tm_repro::sync::Mechanism;
use tm_repro::workloads::pc::{run_pc, run_pc_configured, PcParams};
use tm_repro::workloads::runtime::RuntimeKind;

/// A fixed seed so every run of this suite injects the same fault schedule.
const SEED: u64 = 0x5EED_FA17_0000_0001;

/// Threads hammering the shared counter.
const THREADS: usize = 4;

/// Increments per thread.
const INCS: u64 = 256;

/// Array indices one cache line (8 words) apart: four distinct lines, so
/// a shrunken hardware capacity has something to trip on.
const CELLS: [usize; 4] = [0, 8, 16, 24];

/// Runs `THREADS x INCS` concurrent increments of one shared counter on
/// `kind` with the given fault configuration, asserts no update was lost,
/// and returns the aggregated statistics.
fn hammer_counter(kind: RuntimeKind, fault: FaultConfig) -> StatsSnapshot {
    let rt = kind.build(TmConfig::small().with_fault(fault));
    let system = Arc::clone(rt.system());
    let counter = TmVar::<u64>::alloc(&system, 0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for _ in 0..INCS {
                    rt.atomically(&th, |tx| {
                        let v = counter.get(tx)?;
                        counter.set(tx, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(
        counter.load_direct(&system),
        THREADS as u64 * INCS,
        "updates lost on {kind} under {fault:?}"
    );
    system.stats()
}

/// Like [`hammer_counter`] but each transaction reads and increments four
/// cells one line apart, so its footprint spans four distinct cache lines;
/// `config` carries the fault knobs or a shrunken hardware capacity.
fn hammer_lines(kind: RuntimeKind, config: TmConfig, threads: usize, txs: u64) -> StatsSnapshot {
    let rt = kind.build(config);
    let system = Arc::clone(rt.system());
    let cells = TmArray::<u64>::alloc(&system, 32, 0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let cells = cells.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for _ in 0..txs {
                    rt.atomically(&th, |tx| {
                        for &i in &CELLS {
                            let v = cells.get(tx, i)?;
                            cells.set(tx, i, v + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    for &i in &CELLS {
        assert_eq!(
            cells.load_direct(&system, i),
            threads as u64 * txs,
            "cell {i} lost updates on {kind} under {:?} / {:?}",
            config.fault,
            config.htm
        );
    }
    system.stats()
}

// --- Degradation: the ladder climbs off the faulting hardware path. -------

#[test]
fn injected_conflicts_degrade_htm_to_serial() {
    let stats = hammer_counter(
        RuntimeKind::Htm,
        FaultConfig {
            seed: SEED,
            conflict_per_64k: 16384, // ~25% per speculative access
            ..FaultConfig::default()
        },
    );
    assert!(stats.hw_faults_injected > 0, "the plane must have fired");
    assert!(stats.hw_aborts >= stats.hw_faults_injected);
    assert!(
        stats.serial_commits > 0,
        "pure HTM's only fallback is the serial gate; got {stats:?}"
    );
}

#[test]
fn injected_conflicts_degrade_hybrid_to_software() {
    let stats = hammer_counter(
        RuntimeKind::Hybrid,
        FaultConfig {
            seed: SEED,
            conflict_per_64k: 16384,
            ..FaultConfig::default()
        },
    );
    assert!(stats.hw_faults_injected > 0, "the plane must have fired");
    assert!(
        stats.sw_commits > 0,
        "the hybrid must degrade Hw -> Sw, not jump straight to serial; got {stats:?}"
    );
}

#[test]
fn capacity_aborts_fire_at_the_configured_write_footprint() {
    // Every transaction writes 4 distinct lines; the write capacity is 2
    // lines, so no hardware attempt can ever reach its commit point.
    let config = TmConfig::small().with_htm(HtmConfig {
        max_write_lines: 2,
        ..HtmConfig::default()
    });
    let stats = hammer_lines(RuntimeKind::Htm, config, 1, 64);
    assert!(stats.hw_aborts > 0, "the capacity limit must have fired");
    assert_eq!(
        stats.hw_commits, 0,
        "a 4-line writer can never fit in a 2-line capacity"
    );
    assert!(stats.serial_commits > 0, "all work must finish serially");
}

#[test]
fn poisoned_lines_force_all_work_off_speculation() {
    // conflict_line_mod = 1 dooms every cache line: the hardware path is
    // useless, but the ladder still finishes every transaction.
    for kind in [RuntimeKind::Htm, RuntimeKind::Hybrid] {
        let stats = hammer_counter(
            kind,
            FaultConfig {
                seed: SEED,
                conflict_line_mod: 1,
                ..FaultConfig::default()
            },
        );
        assert!(stats.hw_faults_injected > 0, "{kind}");
        assert_eq!(
            stats.hw_commits, 0,
            "every speculative access faults, so nothing can hw-commit ({kind})"
        );
    }
}

// --- No lost updates, per fault kind and runtime (the seeded matrix). -----

#[test]
fn fault_matrix_conserves_on_both_hardware_runtimes() {
    // fault kind x rate x runtime: each cell runs the 4-line walker and the
    // helper asserts exact conservation; here we additionally require that
    // the configured kind actually fired.  A capacity abort is a real one
    // (the walker reads 4 lines into a 2-line read capacity), so it fires
    // when no hardware attempt commits.
    let injected = |fault| TmConfig::small().with_fault(fault);
    let kinds = [
        (
            "conflict",
            injected(FaultConfig {
                seed: SEED,
                conflict_per_64k: 8192, // ~12.5% per access
                ..FaultConfig::default()
            }),
        ),
        (
            "capacity",
            TmConfig::small().with_htm(HtmConfig {
                max_read_lines: 2,
                ..HtmConfig::default()
            }),
        ),
        (
            "spurious",
            injected(FaultConfig {
                seed: SEED,
                spurious_per_64k: 8192,
                ..FaultConfig::default()
            }),
        ),
        (
            "commit-window",
            injected(FaultConfig {
                seed: SEED,
                commit_window_per_64k: 32768, // half of all commit attempts
                ..FaultConfig::default()
            }),
        ),
    ];
    for runtime in [RuntimeKind::Htm, RuntimeKind::Hybrid] {
        for (name, config) in kinds {
            let stats = hammer_lines(runtime, config, THREADS, 64);
            let fired = if name == "capacity" {
                stats.hw_commits == 0
            } else {
                stats.hw_faults_injected > 0
            };
            assert!(fired, "{name} on {runtime}: the knob never fired");
        }
    }
}

#[test]
fn commit_window_aborts_lose_no_updates() {
    // The sharpest lost-update window: the abort lands after the doom check,
    // inside the commit critical section, before write-back.  Conservation
    // is asserted by the helper; also check the ladder stayed live.
    for kind in [RuntimeKind::Htm, RuntimeKind::Hybrid] {
        let stats = hammer_counter(
            kind,
            FaultConfig {
                seed: SEED,
                commit_window_per_64k: 32768,
                ..FaultConfig::default()
            },
        );
        assert!(stats.hw_faults_injected > 0, "{kind}");
        assert!(
            stats.hw_commits + stats.sw_commits + stats.serial_commits >= THREADS as u64 * INCS,
            "{kind}: every increment must have committed somewhere"
        );
    }
}

#[test]
fn spurious_faults_rerun_without_losing_updates() {
    for kind in [RuntimeKind::Htm, RuntimeKind::Hybrid] {
        let stats = hammer_counter(
            kind,
            FaultConfig {
                seed: SEED,
                spurious_per_64k: 8192,
                ..FaultConfig::default()
            },
        );
        assert!(stats.hw_faults_injected > 0, "{kind}");
    }
}

// --- Golden parity: a faulty hardware plane changes timing, not results. --

#[test]
fn golden_parity_with_the_zero_fault_baseline() {
    let fault = FaultConfig {
        seed: SEED,
        conflict_per_64k: 4096,
        spurious_per_64k: 2048,
        commit_window_per_64k: 8192,
        ..FaultConfig::default()
    };
    for kind in RuntimeKind::ALL {
        let params = PcParams::new(2, 2, 8, 256, Mechanism::Retry);
        let baseline = run_pc(kind, &params);
        let config = TmConfig {
            heap_words: params.heap_words(),
            ..TmConfig::default()
        }
        .with_fault(fault);
        let faulty = run_pc_configured(kind, &params, config);

        assert!(baseline.checksum_ok, "{kind}: zero-fault baseline");
        assert!(faulty.checksum_ok, "{kind}: under injection");
        assert_eq!(faulty.produced, baseline.produced, "{kind}");
        assert_eq!(faulty.consumed, baseline.consumed, "{kind}");

        // The software runtimes have no hardware plane: injection is inert.
        if matches!(kind, RuntimeKind::EagerStm | RuntimeKind::LazyStm) {
            assert_eq!(
                faulty.stats.hw_faults_injected, 0,
                "{kind} has no hardware plane to fault"
            );
        }
    }
}
