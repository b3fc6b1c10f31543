//! The five workloads, one rep at a time.
//!
//! A rep builds a fresh system and runtime with `TmConfig::default()`, runs
//! a fixed number of ops in a closed loop on at most two threads, and checks
//! its own result.  Only public functions of the library are called, so a
//! rep measures what ships.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use condsync::Mechanism;
use tm_core::{Addr, StatsSnapshot, TmArray, TmConfig, TmVar, Tx, TxResult, WakeReason};
use tm_sync::{TmBoundedBuffer, TmHashMap, TmOrderedMap};
use tm_workloads::{RuntimeKind, ZipfGen};

use crate::trace::{ThreadTrace, GRANT_WAIT, ROOT};

/// Short runtime labels, in `RuntimeKind::ALL` order; they suffix the
/// per-runtime metric names.
pub const RUNTIMES: [(&str, RuntimeKind); 4] = [
    ("eager", RuntimeKind::EagerStm),
    ("lazy", RuntimeKind::LazyStm),
    ("htm", RuntimeKind::Htm),
    ("hybrid", RuntimeKind::Hybrid),
];

/// Variables each `tx_*` op reads and writes (the `thread_scaling` body).
const BLOCK_VARS: usize = 4;

/// What one rep is asked to do.
#[derive(Copy, Clone, Debug)]
pub struct RepSpec {
    /// Which runtime runs the transactions.
    pub kind: RuntimeKind,
    /// Ops to run (items × 2 for `pc_*`).
    pub ops: u64,
    /// Seed of the benchmark's own input generator.
    pub seed: u64,
    /// Record spans for every op instead of timing one op in eight.
    pub traced: bool,
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Ops completed.
    pub ops: u64,
    /// Buffer items moved (`pc_*`), 0 elsewhere.
    pub items: u64,
    /// Wall time of the measured region.
    pub wall_ns: u64,
    /// Set-up: build system and runtime, allocate, prefill, spawn threads,
    /// park the bystander.
    pub setup_ns: u64,
    /// Sampled op latencies, ns (untraced reps).
    pub latencies_ns: Vec<u32>,
    /// Why the rep's result check failed, if it did.
    pub failure: Option<String>,
    /// `TmSystem::stats` at the end of the rep (the system is fresh, so this
    /// is the rep's own delta).
    pub stats: StatsSnapshot,
    /// One trace per worker thread (traced reps).
    pub traces: Vec<ThreadTrace>,
}

/// One op in eight is timed, chosen by a multiplicative hash of the op index
/// rather than a fixed stride: `pc_handoff` alternates blocking and
/// non-blocking ops with period two, which a stride of eight would alias.
#[inline]
fn sampled(index: u64) -> bool {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
}

/// Per-thread instrumentation: latencies when untraced, spans when traced.
struct Probe {
    traced: bool,
    latencies_ns: Vec<u32>,
    trace: ThreadTrace,
}

/// Handed to an op so its transaction body can mark its own executions and
/// the `tm-sync` calls inside them.  Does nothing in an untraced rep.
struct OpCtx<'a> {
    trace: Option<&'a mut ThreadTrace>,
    root: i32,
    body: i32,
    op: u32,
}

impl Probe {
    fn new(spec: &RepSpec) -> Self {
        Probe {
            traced: spec.traced,
            latencies_ns: Vec::with_capacity(if spec.traced {
                0
            } else {
                spec.ops as usize / 6
            }),
            trace: ThreadTrace::default(),
        }
    }

    #[inline]
    fn op<T>(&mut self, name: &'static str, index: u64, f: impl FnOnce(&mut OpCtx<'_>) -> T) -> T {
        if self.traced {
            let root = self.trace.open(name, ROOT, index as u32);
            let out = f(&mut OpCtx {
                trace: Some(&mut self.trace),
                root,
                body: ROOT,
                op: index as u32,
            });
            self.trace.close(root);
            out
        } else if sampled(index) {
            let start = Instant::now();
            let out = f(&mut OpCtx::untraced());
            self.latencies_ns
                .push(start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            out
        } else {
            f(&mut OpCtx::untraced())
        }
    }

    /// A wait that is flow control rather than an op: a root span when
    /// traced, untimed otherwise.
    fn wait<T>(&mut self, index: u64, f: impl FnOnce() -> T) -> T {
        if self.traced {
            self.trace.within(GRANT_WAIT, ROOT, index as u32, f)
        } else {
            f()
        }
    }
}

impl OpCtx<'_> {
    fn untraced() -> Self {
        OpCtx {
            trace: None,
            root: ROOT,
            body: ROOT,
            op: 0,
        }
    }

    /// Marks one execution of the transaction body.
    #[inline]
    fn body<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let (root, op) = (self.root, self.op);
        if let Some(trace) = self.trace.as_deref_mut() {
            self.body = trace.open("body", root, op);
        }
        let out = f(self);
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.close(self.body);
        }
        out
    }

    /// Marks one `tm-sync` call inside the current body execution.
    #[inline]
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.trace.as_deref_mut() {
            Some(trace) => trace.within(name, self.body, self.op, f),
            None => f(),
        }
    }
}

/// Two barriers: set-up ends when every worker has arrived at `ready`, and
/// the measured region starts when the main thread releases `go`.
struct Gate {
    ready: Barrier,
    go: Barrier,
}

impl Gate {
    fn new(workers: usize) -> Self {
        Gate {
            ready: Barrier::new(workers + 1),
            go: Barrier::new(workers + 1),
        }
    }

    fn arrive(&self) {
        self.ready.wait();
        self.go.wait();
    }
}

/// What a worker thread hands back: a check value and its instrumentation.
type Worked<T> = (T, Probe);

/// Runs two workers between the gate's barriers and fills in the timing
/// fields of `rep`.  The stopwatch starts before `go` is released: on one
/// CPU the workers can otherwise finish before this thread runs again.
fn run_pair<A: Send, B: Send>(
    rep: &mut Rep,
    setup_start: Instant,
    first: impl FnOnce(&Gate) -> Worked<A> + Send,
    second: impl FnOnce(&Gate) -> Worked<B> + Send,
) -> Option<(A, B)> {
    let gate = Gate::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| first(&gate));
        let b = scope.spawn(|| second(&gate));
        gate.ready.wait();
        rep.setup_ns = setup_start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        gate.go.wait();
        let joined = (a.join(), b.join());
        rep.wall_ns = start.elapsed().as_nanos() as u64;
        joined
    });
    match (a, b) {
        (Ok((a, pa)), Ok((b, pb))) => {
            for probe in [pa, pb] {
                rep.latencies_ns.extend(probe.latencies_ns);
                rep.traces.push(probe.trace);
            }
            Some((a, b))
        }
        _ => {
            rep.failure = Some("a worker thread panicked".into());
            None
        }
    }
}

// ---------------------------------------------------------------- tx_* ----

/// Who else is registered while the `tx_*` writer runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Bystander {
    /// Nobody: the registry stays empty (`tx_update`).
    None,
    /// A thread asleep in `wait_pred` on a predicate that stays false: it
    /// names no address, so every commit must check it (`tx_bystander`).
    Pred,
    /// A thread asleep in `retry` on a word whose stripe and wait-list shard
    /// are disjoint from the writer's block: a targeted scan skips it.
    RetryDisjoint,
}

fn pred_nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

/// A flag word for the bystander: at least 16 words (two cache lines) from
/// the writer's block and, when `disjoint`, on a stripe and wait-list shard
/// that no commit of the block can touch on any runtime (hardware commits
/// report the stripe cover of whole cache lines).
fn place_flag(
    system: &Arc<tm_core::TmSystem>,
    block: &[TmVar<u64>],
    disjoint: bool,
) -> Option<TmVar<u64>> {
    let mut stripes = Vec::new();
    for v in block {
        stripes.extend(system.orecs.line_indices(v.addr().line()));
    }
    let shards: Vec<usize> = stripes
        .iter()
        .map(|&s| system.waiters.shard_of(s))
        .collect();
    let candidates = TmArray::<u64>::alloc(system, 512, 0);
    (0..candidates.len())
        .map(|i| candidates.addr_of(i))
        .find(|&addr| {
            let stripe = system.orecs.index_for(addr);
            let far = block.iter().all(|v| v.addr().0.abs_diff(addr.0) >= 16);
            far && (!disjoint
                || (!stripes.contains(&stripe)
                    && !shards.contains(&system.waiters.shard_of(stripe))))
        })
        .map(TmVar::from_addr)
}

/// `tx_update` and its bystander variants: one writer, each op reads and
/// writes four private variables.
pub fn tx_rep(spec: &RepSpec, bystander: Bystander) -> Rep {
    let mut rep = Rep::default();
    let setup_start = Instant::now();
    let rt = spec.kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let th = system.register_thread();
    let block: Vec<TmVar<u64>> = (0..BLOCK_VARS).map(|_| TmVar::alloc(&system, 0)).collect();
    let Some(flag) = place_flag(&system, &block, bystander == Bystander::RetryDisjoint) else {
        rep.failure = Some("no heap word is disjoint from the writer's block".into());
        return rep;
    };
    let mut probe = Probe::new(spec);

    let woken = std::thread::scope(|scope| {
        let sleeper = (bystander != Bystander::None).then(|| {
            let handle = scope.spawn(|| {
                let th = system.register_thread();
                rt.atomically(&th, |tx| {
                    if flag.get(tx)? == 0 {
                        return match bystander {
                            Bystander::Pred => {
                                condsync::wait_pred(tx, pred_nonzero, &[flag.addr().0 as u64])
                            }
                            _ => condsync::retry(tx),
                        };
                    }
                    Ok(condsync::wake_reason(tx))
                })
            });
            // Parked means blocked on its semaphore, not merely registered.
            while system.stats().sleeps == 0 && !handle.is_finished() {
                std::thread::sleep(Duration::from_micros(50));
            }
            handle
        });
        rep.setup_ns = setup_start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        for i in 0..spec.ops {
            probe.op("tx.update", i, |ctx| {
                rt.atomically(&th, |tx| {
                    ctx.body(|_| {
                        for v in &block {
                            let x = v.get(tx)?;
                            v.set(tx, x + 1)?;
                        }
                        Ok(())
                    })
                })
            });
        }
        rep.wall_ns = start.elapsed().as_nanos() as u64;

        // Outside the measured region: the writer makes the flag true, which
        // must wake the bystander exactly once.
        sleeper.map(|handle| {
            rt.atomically(&th, |tx| flag.set(tx, 1));
            handle.join()
        })
    });

    rep.ops = spec.ops;
    rep.stats = system.stats();
    rep.latencies_ns = probe.latencies_ns;
    rep.traces.push(probe.trace);
    if let Some(v) = block.iter().find(|v| v.load_direct(&system) != spec.ops) {
        rep.failure = Some(format!(
            "lost update: counter holds {} after {} ops",
            v.load_direct(&system),
            spec.ops
        ));
    }
    match woken {
        None => {}
        Some(Ok(Some(WakeReason::Woken))) if rep.stats.sleeps == 1 && rep.stats.wakeups == 1 => {}
        Some(other) => {
            rep.failure = Some(format!(
                "bystander: wake reason {other:?}, sleeps {}, wakeups {} (want Woken, 1, 1)",
                rep.stats.sleeps, rep.stats.wakeups
            ));
        }
    }
    rep
}

// ---------------------------------------------------------------- pc_* ----

/// `pc_handoff` / `pc_stream`: one producer and one consumer through a
/// `TmBoundedBuffer` with `Mechanism::Retry`; `spec.ops / 2` items.
pub fn pc_rep(spec: &RepSpec, capacity: usize, prefill: usize) -> Rep {
    const MECHANISM: Mechanism = Mechanism::Retry;
    let mut rep = Rep::default();
    let setup_start = Instant::now();
    let rt = spec.kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let buffer = TmBoundedBuffer::new(&system, capacity);
    buffer.prefill(&system, prefill);
    let prefilled_sum: u64 = (1..=prefill as u64).sum();
    let items = spec.ops / 2;
    // Item values come from the seed, so the conservation check does not
    // compare the same numbers on every run.
    let base = spec.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16;

    let sums = run_pair(
        &mut rep,
        setup_start,
        |gate| {
            let th = system.register_thread();
            let mut probe = Probe::new(spec);
            gate.arrive();
            let mut sum = 0u64;
            for i in 0..items {
                let value = base + i;
                probe.op("pc.produce", i, |ctx| {
                    rt.atomically(&th, |tx| {
                        ctx.body(|ctx| {
                            ctx.call("buffer.produce", || buffer.produce(MECHANISM, tx, value))
                        })
                    })
                });
                sum = sum.wrapping_add(value);
            }
            (sum, probe)
        },
        |gate| {
            let th = system.register_thread();
            let mut probe = Probe::new(spec);
            gate.arrive();
            let mut sum = 0u64;
            for i in 0..items {
                let got = probe.op("pc.consume", i, |ctx| {
                    rt.atomically(&th, |tx| {
                        ctx.body(|ctx| ctx.call("buffer.consume", || buffer.consume(MECHANISM, tx)))
                    })
                });
                sum = sum.wrapping_add(got);
            }
            (sum, probe)
        },
    );
    rep.ops = items * 2;
    rep.items = items;
    rep.stats = system.stats();

    // The `run_pc` conservation identity: everything produced, plus the
    // prefill, was consumed or is still in the buffer, and the buffer ends
    // as full as it started.
    if let Some((produced, consumed)) = sums {
        let remaining = buffer.len_direct(&system);
        let th = system.register_thread();
        let left: u64 = (0..remaining)
            .map(|_| rt.atomically(&th, |tx| buffer.get(tx)))
            .fold(0, u64::wrapping_add);
        if remaining != prefill as u64
            || produced.wrapping_add(prefilled_sum) != consumed.wrapping_add(left)
        {
            rep.failure = Some(format!(
                "conservation: {remaining} items left (want {prefill}), produced+prefill {} vs consumed+left {}",
                produced.wrapping_add(prefilled_sum),
                consumed.wrapping_add(left)
            ));
        }
    }
    rep
}

// ----------------------------------------------------------- kv_session ----

const KV_KEYSPACE: usize = 4096;
const KV_THETA: f64 = 0.99;
const KV_GET_PCT: u32 = 70;
const KV_SCAN_PCT: u32 = 10;
const KV_DELETE_PCT: u32 = 8;
const KV_SCAN_SPAN: u64 = 7;
const KV_MAP_SLOTS: usize = 16384;
const KV_PREPOPULATE: usize = 2048;
const KV_MAILBOX_CAP: usize = 4;
const KV_GRANT_BATCH: u64 = 16;
const KV_GRANT_TIMEOUT: Duration = Duration::from_millis(5);

/// `kv_session`: the `tm_workloads::kv_store` mix with one session and one
/// dispatcher, its loop re-hosted here so that each op can be timed.
pub fn kv_rep(spec: &RepSpec) -> Rep {
    let mut rep = Rep::default();
    let setup_start = Instant::now();
    let rt = spec.kind.build(TmConfig::default());
    let system = Arc::clone(rt.system());
    let store = TmHashMap::<u64, u64>::new(&system, KV_MAP_SLOTS);
    let index = TmOrderedMap::<u64, u64>::new(&system);
    let mailbox = TmBoundedBuffer::new(&system, KV_MAILBOX_CAP);
    for key in 0..KV_PREPOPULATE as u64 {
        store.insert_direct(&system, key, key + 1);
        index.insert_direct(&system, key, key + 1);
    }
    let grants = spec.ops.div_ceil(KV_GRANT_BATCH);
    let scans_end = KV_GET_PCT + KV_SCAN_PCT;
    let deletes_end = scans_end + KV_DELETE_PCT;

    let done = run_pair(
        &mut rep,
        setup_start,
        |gate| {
            // Dispatcher: a full mailbox is backpressure, so a produce that
            // times out is simply tried again.
            let th = system.register_thread();
            gate.arrive();
            for g in 0..grants {
                while !rt.atomically(&th, |tx| {
                    mailbox.produce_timeout(Mechanism::Await, tx, g + 1, KV_GRANT_TIMEOUT)
                }) {}
            }
            ((), Probe::new(&RepSpec { ops: 0, ..*spec }))
        },
        |gate| {
            let th = system.register_thread();
            let mut probe = Probe::new(spec);
            let mut keys = ZipfGen::new(KV_KEYSPACE, KV_THETA, spec.seed);
            let (mut inserts_new, mut delete_hits) = (0u64, 0u64);
            gate.arrive();
            for i in 0..spec.ops {
                if i % KV_GRANT_BATCH == 0 {
                    // One grant per batch of ops; a deadline miss is flow
                    // control, not failure.
                    probe.wait(i, || {
                        while rt
                            .atomically(&th, |tx| {
                                mailbox.consume_timeout(Mechanism::Await, tx, KV_GRANT_TIMEOUT)
                            })
                            .is_none()
                        {}
                    });
                }
                let key = keys.next_key() as u64;
                let roll = (keys.next_u64() >> 32) as u32 % 100;
                if roll < KV_GET_PCT {
                    let got = probe.op("kv.get", i, |ctx| {
                        rt.atomically_read(&th, |tx| {
                            ctx.body(|ctx| ctx.call("map.get", || store.get(tx, key)))
                        })
                    });
                    std::hint::black_box(got);
                } else if roll < scans_end {
                    let hi = key.saturating_add(KV_SCAN_SPAN);
                    let entries = probe.op("kv.scan", i, |ctx| {
                        rt.atomically_read(&th, |tx| {
                            ctx.body(|ctx| ctx.call("ordered.range", || index.range(tx, key, hi)))
                        })
                    });
                    std::hint::black_box(entries);
                } else if roll < deletes_end {
                    let old = probe.op("kv.delete", i, |ctx| {
                        rt.atomically(&th, |tx| {
                            ctx.body(|ctx| {
                                let old = ctx.call("map.remove", || store.remove(tx, key))?;
                                if old.is_some() {
                                    ctx.call("ordered.remove", || index.remove(tx, key))?;
                                }
                                Ok(old)
                            })
                        })
                    });
                    delete_hits += u64::from(old.is_some());
                } else {
                    let value = (1 << 32) | i;
                    let old = probe.op("kv.put", i, |ctx| {
                        rt.atomically(&th, |tx| {
                            ctx.body(|ctx| {
                                let old =
                                    ctx.call("map.insert", || store.insert(tx, key, value))?;
                                ctx.call("ordered.insert", || index.insert(tx, key, value))?;
                                Ok(old)
                            })
                        })
                    });
                    inserts_new += u64::from(old.is_none());
                }
            }
            ((inserts_new, delete_hits), probe)
        },
    );
    rep.ops = spec.ops;
    rep.stats = system.stats();

    if let Some(((), (inserts_new, delete_hits))) = done {
        let final_len = store.len_direct(&system);
        let expected = KV_PREPOPULATE as u64 + inserts_new - delete_hits;
        let store_dump = store.dump_direct(&system);
        if final_len != expected || store_dump.len() as u64 != final_len {
            rep.failure = Some(format!(
                "conservation: store holds {final_len} entries, want {expected}"
            ));
        } else if store_dump != index.dump_direct(&system) {
            rep.failure = Some("store and ordered index disagree".into());
        }
    }
    rep
}

// ------------------------------------------------------------ the table ----

/// A benchmark workload: its name, why it is here, its size and its rep.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Ops per rep (`pc_*`: two per item).
    pub ops: u64,
    /// Runs one rep.
    pub rep: fn(&RepSpec) -> Rep,
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tx_update",
        why: "1 thread, 4-var update transactions, no waiter ever registers: the commit path does all the work and the wake path none",
        ops: 200_000,
        rep: |spec| tx_rep(spec, Bystander::None),
    },
    Workload {
        name: "tx_bystander",
        why: "same writer while a thread sleeps in wait_pred on a false predicate: every commit pays a registry scan and one wake check, nobody parks",
        ops: 200_000,
        rep: |spec| tx_rep(spec, Bystander::Pred),
    },
    Workload {
        name: "pc_handoff",
        why: "capacity-2 bounded buffer, Retry: every item sleeps, so deschedule, park, wake check and unpark dominate and bodies are 3-4 accesses",
        ops: 80_000,
        rep: |spec| pc_rep(spec, 2, 1),
    },
    Workload {
        name: "pc_stream",
        why: "capacity-128 bounded buffer, Retry: long batches between sleeps, so commits dominate while the registry is only sometimes non-empty",
        ops: 200_000,
        rep: |spec| pc_rep(spec, 128, 64),
    },
    Workload {
        name: "kv_session",
        why: "Zipf 70/10/8/12 get/scan/delete/put over hash map + ordered index behind a timed-Await mailbox: snapshot reads, containers, heap arenas, timers",
        ops: 100_000,
        rep: kv_rep,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_op_in_eight_is_sampled_and_both_parities_are() {
        let picked: Vec<u64> = (0..80_000).filter(|&i| sampled(i)).collect();
        assert!((9_500..=10_500).contains(&picked.len()), "{}", picked.len());
        let odd = picked.iter().filter(|&&i| i % 2 == 1).count();
        assert!(
            odd * 3 > picked.len() && odd * 3 < picked.len() * 2,
            "{odd}"
        );
    }

    #[test]
    fn every_workload_passes_its_own_check_on_every_runtime() {
        for w in &WORKLOADS {
            for (label, kind) in RUNTIMES {
                for traced in [false, true] {
                    let rep = (w.rep)(&RepSpec {
                        kind,
                        ops: 2_000,
                        seed: 7,
                        traced,
                    });
                    assert_eq!(rep.failure, None, "{} {label} traced={traced}", w.name);
                    assert_eq!(rep.ops, 2_000, "{} {label}", w.name);
                    assert_eq!(
                        rep.traces.iter().any(|t| !t.spans.is_empty()),
                        traced,
                        "{} {label}",
                        w.name
                    );
                    assert_eq!(rep.latencies_ns.is_empty(), traced, "{} {label}", w.name);
                }
            }
        }
    }
}
