//! Heap-plane properties: word conservation under multi-thread
//! transactional churn with cross-thread frees, carve integrity (no two
//! threads are ever handed overlapping blocks), refills amortized over a
//! batch, exhaustion parity between the arena front-end and the global
//! allocator alone, and arenas made on a thread's first allocation.

use std::sync::{mpsc, Arc};

use tm_core::{Addr, ThreadRegistry, TmConfig, TmHeap, TmSystem};
use tm_repro::workloads::RuntimeKind;

const THREADS: usize = 4;
const ITERS: usize = 3_000;
/// Every n-th retired block is sent to the next worker, whose free then
/// lands on a block another thread's arena owns.
const DONATE_EVERY: usize = 5;

/// What each churn worker allocates.
#[derive(Clone, Copy, Debug)]
enum Churn {
    /// 1..=32-word blocks — every arena size class; 32 is the largest small
    /// block the arenas front — with 16 kept live.
    Mixed,
    /// 4-word nodes with 256 kept live: a linked structure's steady state,
    /// where the live set is large enough that a refill carving one block
    /// at a time would show up in the refill ratio.
    Nodes,
}

impl Churn {
    fn words(self, rng: u64) -> usize {
        match self {
            Churn::Mixed => 1 + (rng >> 33) as usize % 32,
            Churn::Nodes => 4,
        }
    }

    /// Blocks each worker keeps live before it starts freeing.
    fn live_cap(self) -> usize {
        match self {
            Churn::Mixed => 16,
            Churn::Nodes => 256,
        }
    }
}

/// Allocates and frees in eager-STM transactions, filling every word of a
/// block with a tag unique to (thread, iteration) and verifying the tag
/// right before the block is freed.  If the allocator ever carved
/// overlapping blocks for two threads, the later tag fill clobbers the
/// earlier block and the verification fails.
fn churn(shape: Churn) -> tm_core::StatsSnapshot {
    let system = TmSystem::new(
        TmConfig::default()
            .with_heap_words(1 << 16)
            .with_max_threads(8),
    );
    let rt = RuntimeKind::EagerStm.over(Arc::clone(&system));
    let (mut senders, receivers): (Vec<_>, Vec<_>) = (0..THREADS)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<(Addr, usize, u64)>();
            (Some(tx), rx)
        })
        .unzip();
    std::thread::scope(|s| {
        for (t, rx) in receivers.into_iter().enumerate() {
            // Ring topology: worker t donates to worker t+1.  Each channel
            // has exactly one sender, so `recv` disconnects once the donor
            // finishes and drops its end.
            let donate = senders[(t + 1) % THREADS].take().expect("one donor each");
            let system = Arc::clone(&system);
            let rt = rt.clone();
            s.spawn(move || {
                let th = system.register_thread();
                let verify_and_free = |addr: Addr, words: usize, tag: u64, donated: bool| {
                    for w in 0..words {
                        assert_eq!(
                            system.heap.load(Addr(addr.0 + w)),
                            tag,
                            "{shape:?}: word {w} of a {}block was \
                             clobbered — overlapping carve or double-carve",
                            if donated { "donated " } else { "" }
                        );
                    }
                    rt.atomically(&th, |tx| tx.free(addr, words));
                };
                let mut live: Vec<(Addr, usize, u64)> = Vec::new();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_add(t as u64);
                for i in 0..ITERS {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let words = shape.words(rng);
                    let tag = ((t as u64) << 48) | ((i as u64) << 8) | 0xA5;
                    // Out of memory would rerun forever; fail instead.
                    let addr =
                        rt.atomically(&th, |tx| Ok(tx.alloc(words).expect("churn heap exhausted")));
                    for w in 0..words {
                        system.heap.store(Addr(addr.0 + w), tag);
                    }
                    live.push((addr, words, tag));
                    if live.len() > shape.live_cap() {
                        let pick = ((rng >> 16) as usize) % live.len();
                        let (a, n, tag) = live.swap_remove(pick);
                        if i.is_multiple_of(DONATE_EVERY) {
                            donate.send((a, n, tag)).expect("receiver alive");
                        } else {
                            verify_and_free(a, n, tag, false);
                        }
                    }
                    while let Ok((a, n, tag)) = rx.try_recv() {
                        verify_and_free(a, n, tag, true);
                    }
                }
                for (a, n, tag) in live.drain(..) {
                    verify_and_free(a, n, tag, false);
                }
                // Drop our sender *before* blocking on the final drain, so
                // the ring of receivers cannot deadlock waiting on each
                // other's disconnects.
                drop(donate);
                while let Ok((a, n, tag)) = rx.recv() {
                    verify_and_free(a, n, tag, true);
                }
            });
        }
    });
    assert_eq!(
        system.heap.allocated_words(),
        0,
        "{shape:?}: churn leaked heap words"
    );
    system.stats()
}

#[test]
fn multi_thread_churn_conserves_every_word_through_the_arenas() {
    for shape in [Churn::Mixed, Churn::Nodes] {
        let stats = churn(shape);
        assert!(
            stats.heap_arena_allocs > 0,
            "{shape:?}: arenas never served an allocation"
        );
        assert!(
            stats.heap_global_refills > 0,
            "{shape:?}: arenas never refilled from the global allocator"
        );
        assert!(
            stats.heap_remote_frees > 0,
            "{shape:?}: ring donations never exercised the remote-free path"
        );
        if let Churn::Nodes = shape {
            // One size class: the bins, not the global lock, carry the
            // steady state, and each refill carves a batch.
            assert!(
                stats.heap_global_refills * 20 < stats.heap_arena_allocs,
                "refills {} >= 5% of arena allocs {}",
                stats.heap_global_refills,
                stats.heap_arena_allocs
            );
        }
    }
}

#[test]
fn exhaustion_is_identical_with_and_without_arenas() {
    // The arena front-end spills its caches and retries before reporting
    // out-of-memory, so the arena-fronted `alloc_for`/`dealloc_for`
    // sequence must succeed and fail at exactly the same points as the same
    // sequence through identity-less `alloc`/`dealloc`, which always takes
    // the global allocator, on a twin system of the same size.
    let outcomes: Vec<Vec<bool>> = [true, false]
        .into_iter()
        .map(|arenas| {
            let system =
                TmSystem::new(TmConfig::default().with_heap_words(128).with_max_threads(4));
            let th = system.register_thread();
            let heap = &system.heap;
            let alloc = |words| match arenas {
                true => heap.alloc_for(&th, words),
                false => heap.alloc(words),
            };
            let mut got = Vec::new();
            // A large block, an impossible one, a small (arena-fronted)
            // one while nearly full, then the same small one after the
            // large block is freed.
            let big = alloc(100);
            got.push(big.is_some());
            got.push(alloc(500).is_some());
            got.push(alloc(32).is_some());
            if let Some(addr) = big {
                match arenas {
                    true => heap.dealloc_for(&th, addr, 100),
                    false => heap.dealloc(addr, 100),
                }
            }
            got.push(alloc(32).is_some());
            got
        })
        .collect();
    assert_eq!(
        outcomes[0], outcomes[1],
        "exhaustion behavior diverged between the arenas and the global allocator"
    );
    assert_eq!(outcomes[0], vec![true, false, false, true]);
}

#[test]
fn an_arena_made_on_first_use_conserves_and_spills_like_the_rest() {
    // A heap sized for 1,024 threads of which only thread 700 allocates:
    // its arena slot is made by that first allocation, another thread's
    // frees are remote pushes into it, and exhaustion spills it.
    const THREADS: usize = 1024;
    const BLOCK: usize = 4;
    let registry = ThreadRegistry::with_capacity(THREADS);
    let threads: Vec<_> = (0..=700).map(|_| registry.register()).collect();
    let (owner, freer) = (&threads[700], &threads[1]);
    assert_eq!(owner.id, 700);
    let heap = TmHeap::new(1 << 12, THREADS);

    let blocks: Vec<Addr> = (0..64)
        .map(|_| heap.alloc_for(owner, BLOCK).expect("room for 64 blocks"))
        .collect();
    let served = owner.stats.snapshot();
    assert!(
        served.heap_global_refills > 0 && served.heap_arena_allocs > 0,
        "thread 700's arena served its blocks: {served:?}"
    );
    let (freed, kept): (Vec<Addr>, Vec<Addr>) = blocks.chunks(2).map(|p| (p[0], p[1])).unzip();
    std::thread::scope(|s| {
        s.spawn(|| {
            for &addr in &freed {
                heap.dealloc_for(freer, addr, BLOCK);
            }
        });
    });
    assert_eq!(freer.stats.snapshot().heap_remote_frees, freed.len() as u64);
    assert_eq!(heap.allocated_words(), kept.len() * BLOCK);

    // Fill the heap through the global allocator: the last requests
    // succeed only because the blocks cached in thread 700's remote-free
    // stack spill back.
    let mut filled = Vec::new();
    while let Some(addr) = heap.alloc(BLOCK) {
        filled.push(addr);
    }
    assert!(
        heap.allocated_words() > heap.len() - 1 - BLOCK,
        "exhaustion left {} of {} words unallocated",
        heap.len() - 1 - heap.allocated_words(),
        heap.len() - 1
    );
    for addr in kept {
        heap.dealloc_for(owner, addr, BLOCK);
    }
    for addr in filled {
        heap.dealloc(addr, BLOCK);
    }
    assert_eq!(heap.allocated_words(), 0, "the lazily made arena leaked");
}
