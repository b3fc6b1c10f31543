//! Criterion benchmarks of the raw transaction primitives each runtime
//! provides: read-only transactions, writer transactions, and the
//! empty-registry fast path of `wakeWaiters`.
//!
//! These numbers establish the baseline transaction costs that the
//! condition-synchronization mechanisms add to; the paper's claim is that
//! in-flight transactions (especially hardware ones) pay nothing beyond the
//! empty-waiter check.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use condsync::wake_waiters_matching;
use tm_core::{TmConfig, TmVar, WakeSet};
use tm_workloads::runtime::RuntimeKind;

fn read_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitive_read_only_tx");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        for &reads in &[1usize, 16, 128] {
            let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
            let system = Arc::clone(rt.system());
            let arr: Vec<TmVar<u64>> = (0..reads)
                .map(|i| TmVar::alloc(&system, i as u64))
                .collect();
            let th = system.register_thread();
            group.bench_with_input(BenchmarkId::new(kind.label(), reads), &reads, |b, _| {
                b.iter(|| {
                    rt.atomically(&th, |tx| {
                        let mut sum = 0u64;
                        for v in &arr {
                            sum = sum.wrapping_add(v.get(tx)?);
                        }
                        Ok(sum)
                    })
                })
            });
        }
    }
    group.finish();
}

fn writer(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitive_writer_tx");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        for &writes in &[1usize, 16] {
            let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
            let system = Arc::clone(rt.system());
            let arr: Vec<TmVar<u64>> = (0..writes)
                .map(|i| TmVar::alloc(&system, i as u64))
                .collect();
            let th = system.register_thread();
            group.bench_with_input(BenchmarkId::new(kind.label(), writes), &writes, |b, _| {
                b.iter(|| {
                    rt.atomically(&th, |tx| {
                        for v in &arr {
                            let x = v.get(tx)?;
                            v.set(tx, x.wrapping_add(1))?;
                        }
                        Ok(())
                    })
                })
            });
        }
    }
    group.finish();
}

fn wake_waiters_empty(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitive_wake_waiters_empty");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        group.bench_function(kind.label(), |b| {
            b.iter(|| wake_waiters_matching(rt.as_dyn(), &th, &WakeSet::All))
        });
    }
    group.finish();
}

criterion_group!(benches, read_only, writer, wake_waiters_empty);
criterion_main!(benches);
