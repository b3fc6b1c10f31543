//! The word-addressable transactional heap.
//!
//! The paper's mechanisms instrument loads and stores of ordinary C memory.
//! Our stand-in is a contiguous array of `AtomicU64` words: transactional
//! reads and writes go through the runtime instrumentation, while the atomics
//! keep the eager runtime's racy in-place updates well defined in Rust.
//!
//! The heap also provides a segregated free-list allocator so that
//! transactions can `malloc`/`free` words (Appendix A defers reclamation
//! until commit and undoes allocation on abort; the runtimes implement that
//! policy on top of these primitives).  Small allocations — the common case
//! for transactional nodes — are O(1) pushes/pops on exact-size bins;
//! address-ordered coalescing is preserved by lazily flushing the bins back
//! into the sorted region list whenever a carve fails.
//!
//! On top of the global allocator sits the **arena plane** (`ArenaPlane`):
//! per-thread front-ends that serve small allocations mutex-free.  A
//! registered thread's first arena allocation makes its `ArenaSlot`, which
//! holds exact-size bins that refill in batches from the global allocator;
//! a free of *another* thread's block is pushed onto the owner's lock-free
//! remote-free stack (threaded through the free blocks' own heap words) and
//! reclaimed when the owner refills.  Exhaustion spills every arena back into the global
//! allocator and retries, so "heap full" means the whole heap genuinely
//! cannot satisfy the request, and conservation accounting
//! ([`TmHeap::allocated_words`]) still balances to zero.  Identity-less
//! [`TmHeap::alloc`] always takes the global allocator.
//!
//! The word array and the owner tags are zeroed allocations
//! (`tm_core::pad::zeroed_slice`) and the arena slots are made on first use,
//! so building a heap writes none of its pages: each is faulted in by the
//! thread that first uses it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::lock::Mutex;

use crate::addr::Addr;
use crate::pad::{zeroed_slice, CachePadded};
use crate::stats::TxStats;
use crate::thread::ThreadCtx;

/// A contiguous, word-addressable shared heap.
#[derive(Debug)]
pub struct TmHeap {
    words: Box<[AtomicU64]>,
    alloc: Mutex<Allocator>,
    arenas: ArenaPlane,
}

impl TmHeap {
    /// Creates a heap with `words` 64-bit words, all initialised to zero,
    /// and an arena plane with room for `threads` registered threads (a
    /// system passes its `max_threads`).  Neither is written here.
    ///
    /// Word 0 is reserved as the null address and never handed out.
    pub fn new(words: usize, threads: usize) -> Self {
        assert!(words >= 2, "heap must have at least two words");
        TmHeap {
            words: zeroed_slice(words),
            alloc: Mutex::new(Allocator::new(words)),
            arenas: ArenaPlane::new(words, threads),
        }
    }

    /// Number of words in the heap.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the heap has no words (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads the word at `addr` directly (no transactional instrumentation).
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[addr.0].load(Ordering::Acquire)
    }

    /// Writes the word at `addr` directly (no transactional instrumentation).
    #[inline]
    pub fn store(&self, addr: Addr, val: u64) {
        self.words[addr.0].store(val, Ordering::Release);
    }

    /// Atomically compare-and-swaps the word at `addr`.
    ///
    /// Used by non-transactional setup code and by the HTM simulator's
    /// commit path.
    #[inline]
    pub fn cas(&self, addr: Addr, old: u64, new: u64) -> bool {
        self.words[addr.0]
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Allocates `words` contiguous words, returning the base address, or
    /// `None` if the heap is exhausted.
    ///
    /// Always takes the global allocator path; transactional call sites use
    /// [`TmHeap::alloc_for`] so small allocations ride the caller's arena.
    pub fn alloc(&self, words: usize) -> Option<Addr> {
        if words == 0 {
            return Some(Addr::NULL);
        }
        let addr = self.global_alloc(words)?;
        self.zero(addr, words);
        Some(addr)
    }

    /// Allocates `words` contiguous words on behalf of registered thread
    /// `th`: small requests are served mutex-free from the thread's arena,
    /// everything else (and every arena-exhausted request) falls through to
    /// the global allocator.
    pub fn alloc_for(&self, th: &ThreadCtx, words: usize) -> Option<Addr> {
        if words == 0 {
            return Some(Addr::NULL);
        }
        let plane = &self.arenas;
        if words <= ARENA_MAX_WORDS && th.id < plane.slots.len() {
            if let Some(addr) = plane.alloc_small(self, th, words) {
                self.zero(addr, words);
                return Some(addr);
            }
        }
        let addr = self.global_alloc(words)?;
        self.zero(addr, words);
        Some(addr)
    }

    /// Returns `words` words starting at `addr` to the allocator.
    ///
    /// A block that belongs to some thread's arena (it was carved by a
    /// refill) goes back to that arena — onto the owner's remote-free stack,
    /// since the caller has no thread identity here — so arena blocks are
    /// never leaked into the global free list by identity-less frees.
    pub fn dealloc(&self, addr: Addr, words: usize) {
        if words == 0 || addr.is_null() {
            return;
        }
        let tag = self.arenas.owner_tag(addr);
        if tag != 0 {
            self.arenas.push_remote(self, tag as usize - 1, addr, words);
            return;
        }
        self.alloc.lock().dealloc(addr, words);
    }

    /// Returns `words` words starting at `addr` on behalf of registered
    /// thread `th`: the owner's free is an O(1) push onto its own bin, a
    /// free of another thread's block is a lock-free push onto the owner's
    /// remote-free stack, and untagged (globally carved) blocks take the
    /// global lock as before.
    pub fn dealloc_for(&self, th: &ThreadCtx, addr: Addr, words: usize) {
        if words == 0 || addr.is_null() {
            return;
        }
        let plane = &self.arenas;
        let tag = plane.owner_tag(addr);
        if tag != 0 {
            let owner = tag as usize - 1;
            if owner == th.id && plane.free_local(self, owner, addr, words) {
                return;
            }
            // Someone else's block — or our own slot was busy, which only
            // happens if a context is misused across threads; the remote
            // stack is correct in either case.
            plane.push_remote(self, owner, addr, words);
            if owner != th.id {
                TxStats::bump(&th.stats.heap_remote_frees);
            }
            return;
        }
        self.alloc.lock().dealloc(addr, words);
    }

    /// Number of words currently handed out by the allocator (for tests and
    /// leak detection).
    ///
    /// Arena-cached blocks (bins and remote-free stacks) are *free* memory
    /// that the global allocator still counts as carved, so they are
    /// subtracted back out: conservation tests see 0 after all frees even
    /// when the blocks are parked in arenas.  Reads are relaxed, so the
    /// value is exact only at rest.
    pub fn allocated_words(&self) -> usize {
        let allocated = self.alloc.lock().allocated;
        let cached: usize = self
            .arenas
            .slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| s.cached_words.load(Ordering::Relaxed))
            .sum();
        allocated.saturating_sub(cached)
    }

    /// Zeroes a freshly allocated block, mirroring calloc semantics and
    /// preventing stale values (including remote-free link words) from
    /// leaking between allocations.
    fn zero(&self, addr: Addr, words: usize) {
        for i in 0..words {
            self.store(Addr(addr.0 + i), 0);
        }
    }

    /// Global allocation with the arena-aware exhaustion path: if the fully
    /// coalesced global free space cannot satisfy the request, every
    /// arena's cached blocks are spilled back and the carve is retried, so
    /// "heap full" still means the whole heap genuinely cannot satisfy it.
    fn global_alloc(&self, words: usize) -> Option<Addr> {
        if let Some(addr) = self.alloc.lock().alloc(words) {
            return Some(addr);
        }
        self.spill_arenas();
        self.alloc.lock().alloc(words)
    }

    /// Returns every arena-cached block (bins and remote stacks, all slots)
    /// to the global allocator.  Never holds the global lock while waiting
    /// on a slot's busy flag, so it cannot deadlock against a refilling
    /// owner that holds its flag while waiting for the global lock.
    fn spill_arenas(&self) {
        let plane = &self.arenas;
        for slot in plane.slots.iter().filter_map(OnceLock::get) {
            // The owner holds its flag only for short, bounded arena
            // operations, so spinning here terminates.
            let mut guard = loop {
                if let Some(g) = slot.try_enter() {
                    break g;
                }
                std::hint::spin_loop();
            };
            let mut blocks: Vec<(usize, usize)> = Vec::new();
            let bins = guard.bins();
            for size in 1..=ARENA_MAX_WORDS {
                for base in std::mem::take(&mut bins.by_size[size - 1]) {
                    blocks.push((base, size));
                }
            }
            let mut head = slot.remote_head.swap(0, Ordering::Acquire);
            while head != 0 {
                let (base, size) = unpack_remote(head);
                head = self.words[base].load(Ordering::Acquire);
                blocks.push((base, size));
            }
            drop(guard);
            if blocks.is_empty() {
                continue;
            }
            let total: usize = blocks.iter().map(|&(_, w)| w).sum();
            let mut global = self.alloc.lock();
            for &(base, size) in &blocks {
                plane.owner[base].store(0, Ordering::Release);
                global.dealloc(Addr(base), size);
            }
            drop(global);
            slot.cached_words.fetch_sub(total, Ordering::Relaxed);
        }
    }
}

/// Largest allocation size (in words) served by a per-thread arena bin.
/// Transactional nodes — list cells, tree nodes, queue slots — are a handful
/// of words; anything bigger goes straight to the global allocator.
const ARENA_MAX_WORDS: usize = 32;

/// Blocks carved from the global allocator per arena refill.  One refill
/// amortizes the global lock over this many subsequent mutex-free
/// allocations.
const REFILL_BLOCKS: usize = 8;

/// Per-bin block cap; exceeding it spills half the bin back to the global
/// allocator so one thread's free-heavy phase cannot strand the whole heap
/// in its arena.
const BIN_CAP: usize = 64;

/// Packs a remote-free stack entry: block base address in the high 32 bits,
/// size in words in the low 32.  Zero (the null address) means "empty".
#[inline]
fn pack_remote(addr: Addr, words: usize) -> u64 {
    ((addr.0 as u64) << 32) | words as u64
}

#[inline]
fn unpack_remote(entry: u64) -> (usize, usize) {
    ((entry >> 32) as usize, (entry & 0xFFFF_FFFF) as usize)
}

/// The per-thread exact-size free lists, guarded by [`ArenaSlot::busy`].
#[derive(Debug, Default)]
struct ArenaBins {
    /// `by_size[s-1]` holds bases of free blocks of exactly `s` words.
    by_size: [Vec<usize>; ARENA_MAX_WORDS],
}

/// One thread's arena: exact-size bins plus the lock-free stack other
/// threads push this thread's blocks onto when they free them.
struct ArenaSlot {
    /// Exclusive-access flag for `bins`.  The owner is the only thread that
    /// takes it on the hot path, so the swap is an uncontended RMW on a
    /// line nobody else writes; the exhaustion spiller takes it rarely.
    /// Acquire/Release on swap/store make the bins' contents visible.
    busy: AtomicBool,
    /// The owner's free lists; safe to touch only while holding `busy`.
    bins: UnsafeCell<ArenaBins>,
    /// Treiber stack of blocks freed by other threads, threaded through the
    /// free blocks' first heap words; `0` is empty.  Push-only CAS — the
    /// owner (or the spiller) detaches the whole list with a swap, so the
    /// classic ABA pop hazard does not arise.
    remote_head: CachePadded<AtomicU64>,
    /// Words parked in this arena (bins + remote stack): free memory the
    /// global allocator still counts as carved.  Padded because remote
    /// freers on other cores add to it.
    cached_words: CachePadded<AtomicUsize>,
}

// SAFETY: `bins` is only accessed while `busy` is held (enforced by
// `try_enter` returning the sole `BusyGuard`); every other field is atomic.
unsafe impl Sync for ArenaSlot {}

impl ArenaSlot {
    fn new() -> Self {
        ArenaSlot {
            busy: AtomicBool::new(false),
            bins: UnsafeCell::new(ArenaBins::default()),
            remote_head: CachePadded::new(AtomicU64::new(0)),
            cached_words: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Claims exclusive access to the bins; `None` if another thread holds
    /// it (callers fall back to a path that does not need the bins).
    fn try_enter(&self) -> Option<BusyGuard<'_>> {
        if self.busy.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(BusyGuard(self))
        }
    }
}

impl std::fmt::Debug for ArenaSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaSlot")
            .field("cached_words", &self.cached_words.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII for [`ArenaSlot::busy`]; the only way to reach the bins.
struct BusyGuard<'a>(&'a ArenaSlot);

impl BusyGuard<'_> {
    fn bins(&mut self) -> &mut ArenaBins {
        // SAFETY: holding the guard means we won the `busy` swap; the flag
        // is not released until drop, so this is the only live reference.
        unsafe { &mut *self.0.bins.get() }
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

/// The per-thread arena front-ends over the global allocator, plus the
/// owner-tag side table that routes frees back to the carving arena.
struct ArenaPlane {
    /// One slot per registrable thread, indexed by `ThreadCtx::id`, made by
    /// the thread's first arena allocation (`ArenaPlane::slot`): a slot is
    /// ~1 KiB and a system has room for `max_threads` threads, while a
    /// workload registers a few.  The exhaustion spill and
    /// `allocated_words` visit only the slots made.
    slots: Box<[OnceLock<Box<ArenaSlot>>]>,
    /// Per-word owner tags, meaningful at block base addresses: `0` means
    /// globally carved, `tid + 1` means the block belongs to thread `tid`'s
    /// arena.  Set when a refill carves the block, cleared when a spill
    /// returns it to the global allocator; stable while a block is live, so
    /// the freeing thread's read cannot race a transition.
    owner: Box<[AtomicU16]>,
}

impl std::fmt::Debug for ArenaPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaPlane")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl ArenaPlane {
    fn new(heap_words: usize, threads: usize) -> Self {
        assert!(
            heap_words < (1 << 32),
            "remote-free entries pack addresses into 32 bits"
        );
        // Owner tags are `tid + 1` in a u16; threads beyond the tag space
        // simply use the global path (`alloc_for` guards on slot count).
        let threads = threads.min(u16::MAX as usize - 1);
        ArenaPlane {
            slots: (0..threads).map(|_| OnceLock::new()).collect(),
            owner: zeroed_slice(heap_words),
        }
    }

    /// Thread `tid`'s arena slot, made on first use.  A remote push always
    /// targets an owner that has carved, so it finds the slot made.
    #[inline]
    fn slot(&self, tid: usize) -> &ArenaSlot {
        self.slots[tid].get_or_init(|| Box::new(ArenaSlot::new()))
    }

    /// The owner tag at a block base address.
    #[inline]
    fn owner_tag(&self, addr: Addr) -> u16 {
        self.owner[addr.0].load(Ordering::Acquire)
    }

    /// Serves a small allocation from `th`'s arena: bin pop, else drain the
    /// remote-free stack and retry, else refill a batch from the global
    /// allocator.  `None` when the global heap is exhausted (the caller
    /// runs the spill-coalesce-retry path) or the slot is busy.
    fn alloc_small(&self, heap: &TmHeap, th: &ThreadCtx, words: usize) -> Option<Addr> {
        let slot = self.slot(th.id);
        let mut guard = slot.try_enter()?;
        if let Some(base) = guard.bins().by_size[words - 1].pop() {
            slot.cached_words.fetch_sub(words, Ordering::Relaxed);
            TxStats::bump(&th.stats.heap_arena_allocs);
            return Some(Addr(base));
        }
        if self.drain_remote(heap, slot, guard.bins()) {
            if let Some(base) = guard.bins().by_size[words - 1].pop() {
                slot.cached_words.fetch_sub(words, Ordering::Relaxed);
                TxStats::bump(&th.stats.heap_arena_allocs);
                return Some(Addr(base));
            }
        }
        self.refill(heap, th, slot, guard.bins(), words)
    }

    /// Moves every block on the remote-free stack into the bins; returns
    /// whether anything arrived.  The whole list is detached with one swap,
    /// so concurrent pushes land on the fresh empty stack.
    fn drain_remote(&self, heap: &TmHeap, slot: &ArenaSlot, bins: &mut ArenaBins) -> bool {
        let mut head = slot.remote_head.swap(0, Ordering::Acquire);
        let any = head != 0;
        while head != 0 {
            let (base, size) = unpack_remote(head);
            head = heap.words[base].load(Ordering::Acquire);
            bins.by_size[size - 1].push(base);
        }
        any
    }

    /// Carves a batch of `REFILL_BLOCKS` blocks of `words` words from the
    /// global allocator (degrading to a single block near exhaustion),
    /// tags them for `th`, keeps one for the caller and bins the rest.
    fn refill(
        &self,
        heap: &TmHeap,
        th: &ThreadCtx,
        slot: &ArenaSlot,
        bins: &mut ArenaBins,
        words: usize,
    ) -> Option<Addr> {
        let (base, blocks) = {
            let mut global = heap.alloc.lock();
            if let Some(a) = global.alloc(REFILL_BLOCKS * words) {
                (a.0, REFILL_BLOCKS)
            } else if let Some(a) = global.alloc(words) {
                (a.0, 1)
            } else {
                return None;
            }
        };
        TxStats::bump(&th.stats.heap_global_refills);
        let tag = th.id as u16 + 1;
        for i in 0..blocks {
            let block = base + i * words;
            self.owner[block].store(tag, Ordering::Release);
            if i > 0 {
                bins.by_size[words - 1].push(block);
            }
        }
        if blocks > 1 {
            slot.cached_words
                .fetch_add((blocks - 1) * words, Ordering::Relaxed);
        }
        Some(Addr(base))
    }

    /// The owner's O(1) free: push onto the exact-size bin, spilling half
    /// the bin back to the global allocator if it overflows.  Returns
    /// `false` if the slot was busy (context misuse; the caller routes the
    /// block through the remote stack instead).
    fn free_local(&self, heap: &TmHeap, tid: usize, addr: Addr, words: usize) -> bool {
        let slot = self.slot(tid);
        let Some(mut guard) = slot.try_enter() else {
            return false;
        };
        let bins = guard.bins();
        bins.by_size[words - 1].push(addr.0);
        slot.cached_words.fetch_add(words, Ordering::Relaxed);
        if bins.by_size[words - 1].len() > BIN_CAP {
            let spill: Vec<usize> = bins.by_size[words - 1].drain(..BIN_CAP / 2).collect();
            let total = spill.len() * words;
            let mut global = heap.alloc.lock();
            for base in spill {
                self.owner[base].store(0, Ordering::Release);
                global.dealloc(Addr(base), words);
            }
            drop(global);
            slot.cached_words.fetch_sub(total, Ordering::Relaxed);
        }
        true
    }

    /// Lock-free push of a block onto its owner's remote-free stack.  The
    /// link lives in the free block's own first heap word.  Push-only CAS:
    /// success means the observed head is still the top, and since pops
    /// happen only via whole-list detachment, a recycled head value always
    /// carries a valid link — the packed entry fully identifies the block.
    fn push_remote(&self, heap: &TmHeap, owner: usize, addr: Addr, words: usize) {
        let slot = self.slot(owner);
        // Count the block as cached *before* it becomes poppable, so the
        // owner's matching decrement can never race this below zero.
        slot.cached_words.fetch_add(words, Ordering::Relaxed);
        let entry = pack_remote(addr, words);
        let mut head = slot.remote_head.load(Ordering::Acquire);
        loop {
            heap.words[addr.0].store(head, Ordering::Release);
            match slot.remote_head.compare_exchange_weak(
                head,
                entry,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }
}

/// Largest allocation size (in words) served by an exact-size bin.
const BIN_SIZES: usize = 64;

/// A segregated free-list allocator over the heap's word space.
///
/// Two tiers:
///
/// * `bins[s-1]` holds blocks of exactly `s` words (`s <= BIN_SIZES`) as a
///   LIFO stack, so the common alloc/free cycle of small transactional nodes
///   is a push or pop — O(1) instead of the old first-fit scan over every
///   free region.
/// * `free` holds address-ordered coalesced regions: large blocks, the
///   untouched tail of the heap, and whatever the bins spill back.
///
/// Binned blocks are not coalesced eagerly (that is what makes the fast path
/// O(1)); instead, when carving from `free` fails, every binned block is
/// flushed back into `free` and coalesced, then the carve is retried.  An
/// allocation therefore fails only when the fully-coalesced heap genuinely
/// cannot satisfy it — the same answer the old first-fit allocator gave.
#[derive(Debug)]
struct Allocator {
    /// Free regions as (start, length), kept sorted by start address.
    free: Vec<(usize, usize)>,
    /// Exact-size free lists for 1..=BIN_SIZES words.
    bins: Vec<Vec<usize>>,
    allocated: usize,
}

impl Allocator {
    fn new(total_words: usize) -> Self {
        // Word 0 is reserved for the null address.
        Allocator {
            free: vec![(1, total_words - 1)],
            bins: (0..BIN_SIZES).map(|_| Vec::new()).collect(),
            allocated: 0,
        }
    }

    fn alloc(&mut self, words: usize) -> Option<Addr> {
        // Fast path: pop an exact-size block off the bin.
        if words <= BIN_SIZES {
            if let Some(start) = self.bins[words - 1].pop() {
                self.allocated += words;
                return Some(Addr(start));
            }
        }
        let start = self.carve(words).or_else(|| {
            // Spill the binned blocks back, coalesce, and retry before
            // declaring the heap exhausted.
            self.flush_bins();
            self.carve(words)
        })?;
        self.allocated += words;
        Some(Addr(start))
    }

    /// First-fit carve from the coalesced region list.
    fn carve(&mut self, words: usize) -> Option<usize> {
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            if len >= words {
                if len == words {
                    self.free.remove(i);
                } else {
                    self.free[i] = (start + words, len - words);
                }
                return Some(start);
            }
        }
        None
    }

    fn dealloc(&mut self, addr: Addr, words: usize) {
        self.allocated = self.allocated.saturating_sub(words);
        // Fast path: cache small blocks at their exact size for reuse.
        if words <= BIN_SIZES {
            self.bins[words - 1].push(addr.0);
            return;
        }
        self.insert_region(addr.0, words);
        self.coalesce();
    }

    fn insert_region(&mut self, start: usize, words: usize) {
        let pos = self
            .free
            .binary_search_by_key(&start, |&(s, _)| s)
            .unwrap_or_else(|p| p);
        self.free.insert(pos, (start, words));
    }

    /// Returns every binned block to the region list and coalesces, so the
    /// next carve sees the fully merged free space.
    fn flush_bins(&mut self) {
        let mut spilled = false;
        for size in 1..=BIN_SIZES {
            let bin = &mut self.bins[size - 1];
            if bin.is_empty() {
                continue;
            }
            spilled = true;
            for start in std::mem::take(bin) {
                self.insert_region(start, size);
            }
        }
        if spilled {
            self.coalesce();
        }
    }

    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.free.len() {
            let (s0, l0) = self.free[i];
            let (s1, l1) = self.free[i + 1];
            if s0 + l0 >= s1 {
                let end = (s0 + l0).max(s1 + l1);
                self.free[i] = (s0, end - s0);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let h = TmHeap::new(64, 1);
        h.store(Addr(3), 0xdead_beef);
        assert_eq!(h.load(Addr(3)), 0xdead_beef);
        assert_eq!(h.load(Addr(4)), 0);
    }

    #[test]
    fn cas_succeeds_only_with_expected_value() {
        let h = TmHeap::new(16, 1);
        h.store(Addr(1), 10);
        assert!(h.cas(Addr(1), 10, 20));
        assert!(!h.cas(Addr(1), 10, 30));
        assert_eq!(h.load(Addr(1)), 20);
    }

    #[test]
    fn alloc_never_returns_null_word() {
        let h = TmHeap::new(128, 1);
        for _ in 0..10 {
            let a = h.alloc(4).unwrap();
            assert!(!a.is_null());
        }
    }

    #[test]
    fn alloc_zero_words_is_null() {
        let h = TmHeap::new(16, 1);
        assert_eq!(h.alloc(0), Some(Addr::NULL));
    }

    #[test]
    fn alloc_returns_zeroed_memory() {
        let h = TmHeap::new(64, 1);
        let a = h.alloc(8).unwrap();
        for i in 0..8 {
            h.store(a.offset(i), 7);
        }
        h.dealloc(a, 8);
        let b = h.alloc(8).unwrap();
        for i in 0..8 {
            assert_eq!(h.load(b.offset(i)), 0, "reallocated memory must be zeroed");
        }
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let h = TmHeap::new(16, 1);
        assert!(h.alloc(32).is_none());
        assert!(h.alloc(15).is_some());
        assert!(h.alloc(1).is_none());
    }

    #[test]
    fn dealloc_coalesces_and_allows_reuse() {
        let h = TmHeap::new(64, 1);
        let a = h.alloc(16).unwrap();
        let b = h.alloc(16).unwrap();
        let c = h.alloc(16).unwrap();
        h.dealloc(a, 16);
        h.dealloc(c, 16);
        h.dealloc(b, 16);
        // After freeing everything the full region is available again.
        let big = h.alloc(60).unwrap();
        assert!(!big.is_null());
    }

    #[test]
    fn small_blocks_are_reused_from_the_bin() {
        let h = TmHeap::new(256, 1);
        let a = h.alloc(4).unwrap();
        h.dealloc(a, 4);
        // The very next same-size allocation must come from the bin (the
        // freed block), not carve fresh space.
        let b = h.alloc(4).unwrap();
        assert_eq!(a, b, "bin reuse is LIFO on the freed block");
        // A different size must not be served from that bin.
        h.dealloc(b, 4);
        let c = h.alloc(5).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn binned_blocks_coalesce_when_a_large_alloc_needs_them() {
        let h = TmHeap::new(64, 1);
        // Carve the whole heap into small binned-size pieces and free them.
        let blocks: Vec<_> = (0..7).map(|_| h.alloc(9).unwrap()).collect();
        for &b in &blocks {
            h.dealloc(b, 9);
        }
        assert_eq!(h.allocated_words(), 0);
        // 63 contiguous words exist only after the bins are flushed and
        // coalesced; a first-fit over the (empty) region list alone fails.
        let big = h.alloc(63).unwrap();
        assert!(!big.is_null());
        h.dealloc(big, 63);
    }

    #[test]
    fn mixed_bin_and_large_blocks_coalesce_together() {
        // Heap tail (39 words) cannot satisfy the final allocation, so it
        // must come from coalescing binned blocks with the large region.
        let h = TmHeap::new(256, 1);
        let small = h.alloc(8).unwrap();
        let large = h.alloc(200).unwrap();
        let small2 = h.alloc(8).unwrap();
        h.dealloc(small, 8);
        h.dealloc(large, 200);
        h.dealloc(small2, 8);
        // small + large + small2 are adjacent; the full span is available
        // again once the bins spill into the region list.
        let all = h.alloc(216).unwrap();
        assert_eq!(all, small, "coalesced span starts at the first block");
    }

    #[test]
    fn allocated_words_tracks_outstanding_allocations() {
        let h = TmHeap::new(128, 1);
        assert_eq!(h.allocated_words(), 0);
        let a = h.alloc(10).unwrap();
        assert_eq!(h.allocated_words(), 10);
        h.dealloc(a, 10);
        assert_eq!(h.allocated_words(), 0);
    }

    #[test]
    fn arena_alloc_refills_then_reuses_own_blocks() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(4096, 64);
        let a = h.alloc_for(&th, 4).unwrap();
        h.dealloc_for(&th, a, 4);
        let b = h.alloc_for(&th, 4).unwrap();
        assert_eq!(a, b, "an owner's free-then-alloc is a LIFO bin pop");
        let snap = th.stats.snapshot();
        assert_eq!(snap.heap_global_refills, 1, "one batch carve serves both");
        assert_eq!(snap.heap_arena_allocs, 1, "the second alloc was mutex-free");
        assert_eq!(snap.heap_remote_frees, 0);
        h.dealloc_for(&th, b, 4);
        assert_eq!(h.allocated_words(), 0, "cached blocks are free memory");
    }

    #[test]
    fn arena_blocks_are_zeroed_on_reuse() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(1024, 64);
        let a = h.alloc_for(&th, 8).unwrap();
        for i in 0..8 {
            h.store(a.offset(i), 7);
        }
        h.dealloc_for(&th, a, 8);
        let b = h.alloc_for(&th, 8).unwrap();
        for i in 0..8 {
            assert_eq!(h.load(b.offset(i)), 0, "reallocated memory must be zeroed");
        }
    }

    #[test]
    fn cross_thread_frees_ride_the_remote_stack_home() {
        let reg = crate::thread::ThreadRegistry::new();
        let a = reg.register();
        let b = reg.register();
        let h = TmHeap::new(4096, 64);
        // Empty thread A's first refill batch so its bin is dry.
        let blocks: Vec<Addr> = (0..8).map(|_| h.alloc_for(&a, 8).unwrap()).collect();
        // Thread B frees one of A's blocks: a lock-free push, not a global
        // dealloc and not B's own bin.
        h.dealloc_for(&b, blocks[0], 8);
        assert_eq!(b.stats.snapshot().heap_remote_frees, 1);
        assert_eq!(b.stats.snapshot().heap_global_refills, 0);
        // A's next same-size allocation drains the stack and reuses it.
        let again = h.alloc_for(&a, 8).unwrap();
        assert_eq!(again, blocks[0], "the remote-freed block came home");
        h.dealloc_for(&a, again, 8);
        for &blk in &blocks[1..] {
            h.dealloc_for(&a, blk, 8);
        }
        assert_eq!(h.allocated_words(), 0);
    }

    #[test]
    fn identity_less_frees_route_tagged_blocks_to_the_owner() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(1024, 64);
        let a = h.alloc_for(&th, 4).unwrap();
        // A plain `dealloc` (no thread identity) of an arena block must not
        // hand it to the global allocator: the owner tag routes it onto the
        // owner's remote stack, and conservation still balances.
        h.dealloc(a, 4);
        assert_eq!(h.allocated_words(), 0);
        let again = h.alloc_for(&th, 4).unwrap();
        assert!(!again.is_null());
        h.dealloc_for(&th, again, 4);
        assert_eq!(h.allocated_words(), 0);
    }

    #[test]
    fn exhaustion_spills_arenas_and_retries() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(128, 64);
        // One refill carves 64 words; freeing parks them all in the arena.
        let a = h.alloc_for(&th, 8).unwrap();
        h.dealloc_for(&th, a, 8);
        // 100 contiguous words exist only if the arena-cached blocks are
        // spilled back and coalesced with the untouched tail.
        let big = h.alloc(100).unwrap();
        assert!(!big.is_null());
        h.dealloc(big, 100);
        assert_eq!(h.allocated_words(), 0);
        // Genuine exhaustion still reports as before.
        assert!(h.alloc(500).is_none());
        assert!(h.alloc_for(&th, 32).is_some());
    }

    #[test]
    fn large_allocations_bypass_the_arena() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(4096, 64);
        let big = h.alloc_for(&th, ARENA_MAX_WORDS + 1).unwrap();
        let snap = th.stats.snapshot();
        assert_eq!(snap.heap_arena_allocs, 0);
        assert_eq!(snap.heap_global_refills, 0);
        h.dealloc_for(&th, big, ARENA_MAX_WORDS + 1);
        assert_eq!(h.allocated_words(), 0);
    }

    #[test]
    fn overflowing_bins_spill_back_to_the_global_allocator() {
        let reg = crate::thread::ThreadRegistry::new();
        let th = reg.register();
        let h = TmHeap::new(4096, 64);
        // Drive one bin past its cap; the spill keeps conservation exact
        // and the blocks stay allocatable.
        let blocks: Vec<Addr> = (0..(BIN_CAP + 8))
            .map(|_| h.alloc_for(&th, 1).unwrap())
            .collect();
        for &b in &blocks {
            h.dealloc_for(&th, b, 1);
        }
        assert_eq!(h.allocated_words(), 0);
        let big = h.alloc(2048).unwrap();
        h.dealloc(big, 2048);
        assert_eq!(h.allocated_words(), 0);
    }

    #[test]
    fn concurrent_allocations_do_not_overlap() {
        use std::sync::Arc;
        let h = Arc::new(TmHeap::new(4096, 1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| h.alloc(8).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|x| x.join().unwrap())
            .map(|a| a.0)
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 8, "allocations overlap: {} {}", w[0], w[1]);
        }
    }
}
