//! HTM-specific integration tests: the architectural properties the paper's
//! design depends on (capacity limits, serial fallback, software-mode
//! descheduling) must be visible in the simulator's behaviour, and condition
//! synchronization must keep working across all of them, on the HTM and on
//! the hybrid.

use std::sync::Arc;
use std::time::Duration;

use condsync::Mechanism;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

use tm_repro::core::HtmConfig;
use tm_repro::htm::{HtmSim, HybridTm};

fn htm(config: TmConfig) -> (AnyRuntime, Arc<TmSystem>) {
    let rt = RuntimeKind::Htm.build(config);
    let system = Arc::clone(rt.system());
    (rt, system)
}

#[test]
fn small_transactions_commit_in_hardware() {
    let (rt, system) = htm(TmConfig::small());
    let v = TmVar::<u64>::alloc(&system, 0);
    let th = system.register_thread();
    for i in 1..=50u64 {
        rt.atomically(&th, |tx| v.set(tx, i));
    }
    let stats = system.stats();
    assert!(
        stats.hw_commits >= 50,
        "expected hardware commits, got {stats:?}"
    );
    assert_eq!(v.load_direct(&system), 50);
}

#[test]
fn capacity_overflow_falls_back_to_serial_and_still_commits() {
    // Write far more distinct lines than the configured write capacity: every
    // hardware attempt must abort on capacity and the fallback must finish
    // the job.
    let config = TmConfig::default()
        .with_heap_words(1 << 14)
        .with_htm(HtmConfig {
            max_read_lines: 64,
            max_write_lines: 4,
            max_attempts: 2,
        });
    let (rt, system) = htm(config);
    let arr = TmArray::<u64>::alloc(&system, 512, 0);
    let th = system.register_thread();

    rt.atomically(&th, |tx| {
        for i in 0..512 {
            arr.set(tx, i, i as u64 + 1)?;
        }
        Ok(())
    });

    for i in 0..512 {
        assert_eq!(arr.load_direct(&system, i), i as u64 + 1);
    }
    let stats = system.stats();
    assert!(stats.hw_aborts > 0, "capacity aborts expected: {stats:?}");
    assert!(
        stats.serial_acquires + stats.sw_commits > 0,
        "the overflowing transaction must have finished outside hardware: {stats:?}"
    );
}

#[test]
fn descheduling_from_hardware_switches_to_software_mode() {
    // A waiter that must sleep cannot do so inside a hardware transaction
    // (no escape actions); the runtime re-executes it in a software mode.
    let (rt, system) = htm(TmConfig::small());
    let flag = TmVar::<u64>::alloc(&system, 0);

    let (rt_w, system_w, flag_w) = (rt.clone(), Arc::clone(&system), flag.clone());
    let waiter = std::thread::spawn(move || {
        let th = system_w.register_thread();
        rt_w.atomically(&th, |tx| {
            let v = flag_w.get(tx)?;
            if v == 0 {
                return retry(tx);
            }
            Ok(v)
        })
    });

    std::thread::sleep(Duration::from_millis(20));
    let th = system.register_thread();
    rt.atomically(&th, |tx| flag.set(tx, 3));
    assert_eq!(waiter.join().unwrap(), 3);

    let stats = system.stats();
    assert!(
        stats.descheds >= 1,
        "the waiter must have descheduled: {stats:?}"
    );
    // The writer that woke it ran in hardware; the waiter's sleeping attempt
    // could not have.
    assert!(stats.hw_commits >= 1);
}

#[test]
fn explicit_abort_codes_reach_the_restart_baseline() {
    let (rt, system) = htm(TmConfig::small());
    let gate = TmVar::<u64>::alloc(&system, 0);
    let th = system.register_thread();

    let mut attempts = 0u32;
    let got = rt.atomically(&th, |tx| {
        attempts += 1;
        let v = gate.get(tx)?;
        if v == 0 && attempts < 4 {
            // xabort-style explicit abort (the Restart baseline's code path).
            return restart(tx);
        }
        gate.set(tx, 9)?;
        Ok(attempts)
    });
    assert!(got >= 4);
    assert_eq!(gate.load_direct(&system), 9);
    assert!(system.stats().explicit_aborts >= 3);
}

#[test]
fn wake_scan_conflicts_do_not_lose_elements() {
    // The paper notes TSX aborts read-only wakeWaiters scans that collide
    // with writers; correctness must not depend on those scans succeeding on
    // the first try.  A tiny buffer with several threads maximises collisions
    // between scans, producers and consumers.
    use tm_repro::workloads::pc::{run_pc, PcParams};
    let params = PcParams::new(2, 2, 2, 256, Mechanism::WaitPred);
    let result = run_pc(RuntimeKind::Htm, &params);
    assert!(result.checksum_ok);
    assert!(result.stats.hw_commits > 0);
}

#[test]
fn serial_fallback_threshold_is_respected() {
    // With max_attempts = 1 every conflicting transaction goes serial after a
    // single speculative failure; the counter must still end exactly right.
    let config = TmConfig::small().with_htm(HtmConfig {
        max_read_lines: 512,
        max_write_lines: 64,
        max_attempts: 1,
    });
    let (rt, system) = htm(config);
    let counter = TmCounter::new(&system, 0);
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 100;

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for _ in 0..PER_THREAD {
                    rt.atomically(&th, |tx| counter.increment(tx).map(|_| ()));
                }
            });
        }
    });
    assert_eq!(counter.load_direct(&system), THREADS as u64 * PER_THREAD);
}

// --- Waiting through `condsync` on the hardware engines, driven directly. --

/// Runs a transaction on `rt` that calls `wait` (given a flag's address)
/// until the flag is non-zero, sets the flag to 3 from this thread once the
/// waiter has descheduled or restarted, and returns what the waiter saw.
fn flag_waiter<R: TmRuntime + 'static>(
    rt: Arc<R>,
    system: &Arc<TmSystem>,
    wait: fn(&mut dyn Tx, Addr) -> TxResult<u64>,
) -> u64 {
    let waits = || system.stats().descheds + system.stats().explicit_aborts;
    let before = waits();
    let flag = TmVar::<u64>::alloc(system, 0);
    let (rt2, system2, addr) = (Arc::clone(&rt), Arc::clone(system), flag.addr());
    let waiter = std::thread::spawn(move || {
        let th = system2.register_thread();
        rt2.atomically(&th, |tx| match tx.read(addr)? {
            0 => wait(tx, addr),
            v => Ok(v),
        })
    });
    while waits() == before {
        std::thread::yield_now();
    }
    let th = system.register_thread();
    rt.atomically(&th, |tx| flag.set(tx, 3));
    waiter.join().unwrap()
}

fn htm_rt() -> (Arc<TmSystem>, Arc<HtmSim>) {
    let system = TmSystem::new(TmConfig::small());
    (Arc::clone(&system), HtmSim::new(system))
}

fn hybrid_rt() -> (Arc<TmSystem>, Arc<HybridTm>) {
    let system = TmSystem::new(TmConfig::small());
    (Arc::clone(&system), HybridTm::new(system))
}

#[test]
fn retry_switches_to_software_and_wakes() {
    let (system, rt) = htm_rt();
    assert_eq!(flag_waiter(rt, &system, |tx, _| retry(tx)), 3);
    assert!(!system.serial.held());
}

#[test]
fn await_and_waitpred_work_on_htm() {
    fn nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
        Ok(tx.read(Addr(args[0] as usize))? != 0)
    }
    let (system, rt) = htm_rt();
    let awaited = flag_waiter(Arc::clone(&rt), &system, |tx, a| await_one(tx, a));
    assert_eq!(awaited, 3);
    let waited = flag_waiter(rt, &system, |tx, a| wait_pred(tx, nonzero, &[a.0 as u64]));
    assert_eq!(waited, 3);
}

#[test]
fn explicit_restart_works_on_htm() {
    let (system, rt) = htm_rt();
    assert_eq!(flag_waiter(rt, &system, |tx, _| restart(tx)), 3);
}

#[test]
fn retry_deschedules_via_the_software_path_and_wakes() {
    let (system, rt) = hybrid_rt();
    assert_eq!(flag_waiter(rt, &system, |tx, _| retry(tx)), 3);
    assert_eq!(
        system.stats().serial_acquires,
        0,
        "the whole retry round-trip stays off the serial rung"
    );
}

#[test]
fn retry_orig_is_supported_on_the_hybrid() {
    let (system, rt) = hybrid_rt();
    assert_eq!(flag_waiter(rt, &system, |tx, _| retry_orig(tx)), 3);
    assert_eq!(system.waiters.len(), 0);
}
