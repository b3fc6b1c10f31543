//! Heap-plane properties: word conservation under multi-thread churn with
//! cross-thread frees, carve integrity (no two threads are ever handed
//! overlapping blocks), and exhaustion parity between the bare heap and the
//! arena front-end.

use std::sync::{mpsc, Arc};

use tm_core::{Addr, TmConfig, TmSystem};

const THREADS: usize = 4;
const ITERS: usize = 3_000;
/// Blocks each worker keeps live before it starts freeing.
const LIVE_CAP: usize = 16;
/// Every n-th retired block is sent to the next worker, whose free then
/// lands on a block another thread's arena owns.
const DONATE_EVERY: usize = 5;

/// Fills every word of a block with a tag unique to (thread, iteration) and
/// verifies the tag right before the block is freed.  If the allocator ever
/// carved overlapping blocks for two threads, the later tag fill clobbers
/// the earlier block and the verification fails.
fn churn(arenas: bool) -> tm_core::StatsSnapshot {
    let system = TmSystem::new(
        TmConfig::default()
            .with_heap_words(1 << 16)
            .with_max_threads(8)
            .with_heap_arenas(arenas),
    );
    assert_eq!(system.heap.has_arenas(), arenas);
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
            s.spawn(move || {
                let th = system.register_thread();
                let verify_and_free = |addr: Addr, words: usize, tag: u64, donated: bool| {
                    for w in 0..words {
                        assert_eq!(
                            system.heap.load(Addr(addr.0 + w)),
                            tag,
                            "arenas={arenas}: word {w} of a {}block was clobbered — \
                             overlapping carve or double-carve",
                            if donated { "donated " } else { "" }
                        );
                    }
                    system.heap.dealloc_for(&th, addr, words);
                };
                let mut live: Vec<(Addr, usize, u64)> = Vec::new();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_add(t as u64);
                for i in 0..ITERS {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // 1..=32 words: spans every arena size class, and 32 is
                    // the largest small block the arenas front.
                    let words = 1 + (rng >> 33) as usize % 32;
                    let tag = ((t as u64) << 48) | ((i as u64) << 8) | 0xA5;
                    let addr = system
                        .heap
                        .alloc_for(&th, words)
                        .expect("churn heap exhausted");
                    for w in 0..words {
                        system.heap.store(Addr(addr.0 + w), tag);
                    }
                    live.push((addr, words, tag));
                    if live.len() > LIVE_CAP {
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
        "arenas={arenas}: churn leaked heap words"
    );
    system.stats()
}

#[test]
fn multi_thread_churn_conserves_every_word_without_arenas() {
    let stats = churn(false);
    assert_eq!(stats.heap_arena_allocs, 0, "bare heap served arena allocs");
    assert_eq!(stats.heap_global_refills, 0, "bare heap recorded refills");
    assert_eq!(
        stats.heap_remote_frees, 0,
        "bare heap recorded remote frees"
    );
}

#[test]
fn multi_thread_churn_conserves_every_word_with_arenas() {
    let stats = churn(true);
    assert!(
        stats.heap_arena_allocs > 0,
        "arenas never served an allocation"
    );
    assert!(
        stats.heap_global_refills > 0,
        "arenas never refilled from the global allocator"
    );
    assert!(
        stats.heap_remote_frees > 0,
        "ring donations never exercised the remote-free path"
    );
}

#[test]
fn exhaustion_is_identical_with_and_without_arenas() {
    // The arena front-end spills its caches and retries before reporting
    // out-of-memory, so the same request sequence must succeed and fail at
    // exactly the same points as the bare heap.
    let outcomes: Vec<Vec<bool>> = [false, true]
        .into_iter()
        .map(|arenas| {
            let system = TmSystem::new(
                TmConfig::default()
                    .with_heap_words(128)
                    .with_max_threads(4)
                    .with_heap_arenas(arenas),
            );
            let th = system.register_thread();
            let mut got = Vec::new();
            // A large block, an impossible one, a small (arena-fronted)
            // one while nearly full, then the same small one after the
            // large block is freed.
            let big = system.heap.alloc_for(&th, 100);
            got.push(big.is_some());
            got.push(system.heap.alloc_for(&th, 500).is_some());
            got.push(system.heap.alloc_for(&th, 32).is_some());
            if let Some(addr) = big {
                system.heap.dealloc_for(&th, addr, 100);
            }
            got.push(system.heap.alloc_for(&th, 32).is_some());
            got
        })
        .collect();
    assert_eq!(
        outcomes[0], outcomes[1],
        "exhaustion behavior diverged between bare heap and arenas"
    );
    assert_eq!(outcomes[0], vec![true, false, false, true]);
}
