//! The producer/consumer micro-benchmark of §2.4.1 (Figures 2.3–2.5).
//!
//! A bounded buffer is shared by `p` producer threads and `c` consumer
//! threads.  A fixed number of elements is produced in total (split evenly
//! across producers) and the same number is consumed (split evenly across
//! consumers); the buffer is half-filled before each trial, exactly as in the
//! paper.  Each (mechanism, runtime, p, c, buffer-size) combination is one
//! trial; the figure binaries sweep these parameters and average several
//! trials.

use std::sync::Arc;
use std::time::{Duration, Instant};

use condsync::Mechanism;
use tm_core::{StatsSnapshot, TmConfig};
use tm_sync::{PthreadBuffer, TmBoundedBuffer};

use crate::runtime::{AnyRuntime, RuntimeKind};

/// Parameters of one producer/consumer trial.
#[derive(Copy, Clone, Debug)]
pub struct PcParams {
    /// Number of producer threads (`p` in the figure labels).
    pub producers: usize,
    /// Number of consumer threads (`c` in the figure labels).
    pub consumers: usize,
    /// Bounded-buffer capacity (the figures' x-axis: 4, 16 or 128).
    pub buffer_size: usize,
    /// Total number of elements produced (and consumed).  The paper uses
    /// 2^20; scaled-down runs use smaller values.
    pub total_items: u64,
    /// Which condition-synchronization mechanism the buffer uses.
    pub mechanism: Mechanism,
}

impl PcParams {
    /// The paper's full-scale configuration (2^20 items).
    pub const PAPER_ITEMS: u64 = 1 << 20;

    /// Creates parameters with explicit values.
    pub fn new(
        producers: usize,
        consumers: usize,
        buffer_size: usize,
        total_items: u64,
        mechanism: Mechanism,
    ) -> Self {
        assert!(producers > 0 && consumers > 0, "need at least one of each");
        assert!(
            buffer_size >= 2,
            "the paper half-fills the buffer, so cap >= 2"
        );
        PcParams {
            producers,
            consumers,
            buffer_size,
            total_items,
            mechanism,
        }
    }

    /// Number of items each producer creates.  The total is rounded up to a
    /// common multiple of the producer and consumer counts so the split is
    /// exact (the paper's counts — powers of two everywhere — need no
    /// rounding).
    pub fn items_per_producer(&self) -> u64 {
        self.effective_total() / self.producers as u64
    }

    /// Number of items each consumer removes.
    pub fn items_per_consumer(&self) -> u64 {
        self.effective_total() / self.consumers as u64
    }

    /// The total after rounding up so it divides evenly by both thread
    /// counts.
    pub fn effective_total(&self) -> u64 {
        let p = self.producers as u64;
        let c = self.consumers as u64;
        let lcm = p * c / gcd(p, c);
        self.total_items.div_ceil(lcm) * lcm
    }

    /// The paper's prefill: half the buffer.
    pub fn prefill(&self) -> usize {
        self.buffer_size / 2
    }

    /// The `pi-cj` panel label used in Figures 2.3–2.5.
    pub fn panel_label(&self) -> String {
        format!("p{}-c{}", self.producers, self.consumers)
    }

    /// Heap words needed for this trial: the buffer plus slack for the
    /// condition-variable generation words.  [`run_pc`] uses it to size the
    /// system; callers building their own [`TmConfig`] (the figure
    /// binaries, the policy tests) should too, so the formulas cannot diverge.
    pub fn heap_words(&self) -> usize {
        (self.buffer_size + 64).next_power_of_two().max(1 << 12)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Result of one producer/consumer trial.
#[derive(Debug, Clone)]
pub struct PcResult {
    /// The parameters that produced this result.
    pub params: PcParams,
    /// Which runtime executed the transactional mechanisms (`None` for the
    /// Pthreads baseline, which uses no transactions).
    pub runtime: Option<RuntimeKind>,
    /// Wall-clock duration of the trial.
    pub elapsed: Duration,
    /// Items actually produced.
    pub produced: u64,
    /// Items actually consumed.
    pub consumed: u64,
    /// Sum of all consumed values plus the elements left in the buffer;
    /// compared against the sum of all produced values to check conservation.
    pub checksum_ok: bool,
    /// Aggregated transaction statistics (zero for Pthreads).
    pub stats: StatsSnapshot,
}

impl PcResult {
    /// Wall-clock seconds (the figures' y-axis).
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Runs one trial: `params.mechanism` on `runtime_kind`, with the default
/// system configuration (heap sized to the buffer, `Fixed` policy).
///
/// For [`Mechanism::Pthreads`] the runtime kind is irrelevant (no
/// transactions run) and the lock-based buffer is used instead.
pub fn run_pc(runtime_kind: RuntimeKind, params: &PcParams) -> PcResult {
    let config = TmConfig {
        heap_words: params.heap_words(),
        ..TmConfig::default()
    };
    run_pc_configured(runtime_kind, params, config)
}

/// Runs one trial with a caller-supplied system configuration (a fault
/// injector, a contention-management policy).  The heap must be large
/// enough for the buffer; [`run_pc`] sizes it automatically.
pub fn run_pc_configured(
    runtime_kind: RuntimeKind,
    params: &PcParams,
    config: TmConfig,
) -> PcResult {
    if params.mechanism == Mechanism::Pthreads {
        return run_pc_pthreads(params);
    }
    assert!(
        params.mechanism.supports_htm() || runtime_kind.supports_retry_orig(),
        "Retry-Orig needs STM lock metadata and cannot run on the HTM configuration"
    );

    let rt = runtime_kind.build(config);
    let system = Arc::clone(rt.system());
    let buffer = TmBoundedBuffer::new(&system, params.buffer_size);
    buffer.prefill(&system, params.prefill());
    let initial_sum: u64 = (1..=params.prefill() as u64).sum();

    let per_prod = params.items_per_producer();
    let per_cons = params.items_per_consumer();
    let mechanism = params.mechanism;

    let start = Instant::now();
    let produced_sum = std::thread::scope(|scope| {
        let mut producers = Vec::with_capacity(params.producers);
        for pid in 0..params.producers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let buffer = Arc::clone(&buffer);
            producers.push(scope.spawn(move || {
                let th = system.register_thread();
                let mut sum = 0u64;
                for i in 0..per_prod {
                    // Distinct values per producer so the conservation check
                    // is meaningful.
                    let value = (pid as u64) * per_prod + i + 1_000_000;
                    rt.atomically(&th, |tx| buffer.produce(mechanism, tx, value));
                    sum += value;
                }
                sum
            }));
        }
        let mut consumers = Vec::with_capacity(params.consumers);
        for _ in 0..params.consumers {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let buffer = Arc::clone(&buffer);
            consumers.push(scope.spawn(move || {
                let th = system.register_thread();
                let mut sum = 0u64;
                for _ in 0..per_cons {
                    sum += rt.atomically(&th, |tx| buffer.consume(mechanism, tx));
                }
                sum
            }));
        }
        let produced: u64 = producers
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .sum();
        let consumed: u64 = consumers
            .into_iter()
            .map(|h| h.join().expect("consumer"))
            .sum();
        (produced, consumed)
    });
    let elapsed = start.elapsed();

    // Conservation: everything produced (plus the prefill) is either consumed
    // or still in the buffer, and the buffer ends exactly as full as it
    // started because produce and consume counts are equal.
    let (produced_total, consumed_total) = produced_sum;
    let remaining = buffer.len_direct(&system);
    let remaining_sum = drain_remaining(&rt, &buffer, remaining);
    let checksum_ok = produced_total + initial_sum == consumed_total + remaining_sum
        && remaining == params.prefill() as u64;

    PcResult {
        params: *params,
        runtime: Some(runtime_kind),
        elapsed,
        produced: per_prod * params.producers as u64,
        consumed: per_cons * params.consumers as u64,
        checksum_ok,
        stats: system.stats(),
    }
}

/// Drains whatever is left in the buffer (non-concurrently) and returns the
/// sum of the drained values, for the conservation check.
fn drain_remaining(rt: &AnyRuntime, buffer: &Arc<TmBoundedBuffer>, remaining: u64) -> u64 {
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    let mut sum = 0u64;
    for _ in 0..remaining {
        sum += rt.atomically(&th, |tx| buffer.get(tx));
    }
    sum
}

/// The Pthreads baseline: mutex + condition variables, no transactions.
fn run_pc_pthreads(params: &PcParams) -> PcResult {
    let buffer = Arc::new(PthreadBuffer::new(params.buffer_size));
    buffer.prefill(params.prefill());
    let initial_sum: u64 = (1..=params.prefill() as u64).sum();

    let per_prod = params.items_per_producer();
    let per_cons = params.items_per_consumer();

    let start = Instant::now();
    let (produced_total, consumed_total) = std::thread::scope(|scope| {
        let mut producers = Vec::with_capacity(params.producers);
        for pid in 0..params.producers {
            let buffer = Arc::clone(&buffer);
            producers.push(scope.spawn(move || {
                let mut sum = 0u64;
                for i in 0..per_prod {
                    let value = (pid as u64) * per_prod + i + 1_000_000;
                    buffer.produce(value);
                    sum += value;
                }
                sum
            }));
        }
        let mut consumers = Vec::with_capacity(params.consumers);
        for _ in 0..params.consumers {
            let buffer = Arc::clone(&buffer);
            consumers.push(scope.spawn(move || {
                let mut sum = 0u64;
                for _ in 0..per_cons {
                    sum += buffer.consume();
                }
                sum
            }));
        }
        let produced: u64 = producers
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .sum();
        let consumed: u64 = consumers
            .into_iter()
            .map(|h| h.join().expect("consumer"))
            .sum();
        (produced, consumed)
    });
    let elapsed = start.elapsed();

    let mut remaining_sum = 0u64;
    let mut remaining = 0u64;
    while let Some(v) = buffer.try_consume() {
        remaining_sum += v;
        remaining += 1;
    }
    let checksum_ok = produced_total + initial_sum == consumed_total + remaining_sum
        && remaining == params.prefill() as u64;

    PcResult {
        params: *params,
        runtime: None,
        elapsed,
        produced: per_prod * params.producers as u64,
        consumed: per_cons * params.consumers as u64,
        checksum_ok,
        stats: StatsSnapshot::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: u64 = 512;

    fn check(kind: RuntimeKind, mech: Mechanism, p: usize, c: usize, cap: usize) {
        let params = PcParams::new(p, c, cap, SMALL, mech);
        let result = run_pc(kind, &params);
        assert!(
            result.checksum_ok,
            "conservation failed: {mech} on {kind} p{p}c{c} cap{cap}"
        );
        assert_eq!(result.produced, params.effective_total());
        assert_eq!(result.consumed, params.effective_total());
    }

    #[test]
    fn params_split_items_evenly() {
        let p = PcParams::new(4, 8, 16, 1000, Mechanism::Retry);
        let total = p.effective_total();
        assert!(total >= 1000);
        assert_eq!(total % 4, 0);
        assert_eq!(total % 8, 0);
        assert_eq!(p.items_per_producer() * 4, total);
        assert_eq!(p.items_per_consumer() * 8, total);
        assert_eq!(p.prefill(), 8);
        assert_eq!(p.panel_label(), "p4-c8");
    }

    #[test]
    fn effective_total_is_identity_for_paper_configs() {
        // Powers of two divide 2^20 exactly: no rounding in the paper sweep.
        for &(p, c) in &[(1, 1), (2, 4), (8, 8), (1, 8)] {
            let params = PcParams::new(p, c, 16, PcParams::PAPER_ITEMS, Mechanism::Retry);
            assert_eq!(params.effective_total(), PcParams::PAPER_ITEMS);
        }
    }

    #[test]
    fn pthreads_baseline_conserves_elements() {
        check(RuntimeKind::EagerStm, Mechanism::Pthreads, 2, 2, 8);
    }

    #[test]
    fn eager_stm_all_mechanisms_balanced() {
        for mech in [
            Mechanism::TmCondVar,
            Mechanism::WaitPred,
            Mechanism::Await,
            Mechanism::Retry,
            Mechanism::RetryOrig,
            Mechanism::Restart,
        ] {
            check(RuntimeKind::EagerStm, mech, 2, 2, 8);
        }
    }

    #[test]
    fn lazy_stm_retry_and_await_balanced() {
        check(RuntimeKind::LazyStm, Mechanism::Retry, 2, 2, 8);
        check(RuntimeKind::LazyStm, Mechanism::Await, 2, 2, 8);
        check(RuntimeKind::LazyStm, Mechanism::WaitPred, 1, 2, 4);
    }

    #[test]
    fn htm_retry_and_waitpred_balanced() {
        check(RuntimeKind::Htm, Mechanism::Retry, 2, 2, 8);
        check(RuntimeKind::Htm, Mechanism::WaitPred, 2, 1, 4);
    }

    #[test]
    fn imbalanced_configurations_complete() {
        check(RuntimeKind::EagerStm, Mechanism::Retry, 1, 4, 4);
        check(RuntimeKind::EagerStm, Mechanism::Await, 4, 1, 4);
    }

    #[test]
    fn tiny_buffer_forces_sleeping_and_still_conserves() {
        let params = PcParams::new(2, 2, 2, SMALL, Mechanism::Retry);
        let result = run_pc(RuntimeKind::EagerStm, &params);
        assert!(result.checksum_ok);
        // With a 2-slot buffer and 4 threads, somebody must have slept or at
        // least descheduled: the stats should show mechanism activity.
        assert!(result.stats.descheds + result.stats.desched_skips + result.stats.sw_aborts > 0);
    }

    #[test]
    #[should_panic(expected = "Retry-Orig")]
    fn retry_orig_on_htm_is_rejected() {
        let params = PcParams::new(1, 1, 4, 16, Mechanism::RetryOrig);
        let _ = run_pc(RuntimeKind::Htm, &params);
    }
}
