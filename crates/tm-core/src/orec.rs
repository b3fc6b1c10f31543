//! Ownership records ("orecs"): the per-stripe lock/version words used by the
//! software runtimes.
//!
//! Every heap address hashes to one entry in a fixed-size table of ownership
//! records, as in TinySTM and the paper's Appendix A.  An orec is a single
//! 64-bit word packing:
//!
//! ```text
//!   bit 0        : locked flag
//!   bits 1..16   : owner thread id + 1 (meaningful only while locked)
//!   bits 16..64  : version (the global-clock value of the last unlock)
//! ```
//!
//! The paper's `Lock` object has fields `locked`, `owner` and `version`
//! (Algorithm 8); packing them into one word lets us read all fields
//! atomically and update them with a single compare-and-swap, which the
//! pseudocode assumes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::{Addr, LineId, LINE_WORDS};
use crate::pad::{zeroed_slice, CachePadded};
use crate::thread::ThreadId;

const LOCK_BIT: u64 = 1;
const OWNER_SHIFT: u32 = 1;
const OWNER_BITS: u32 = 15;
const OWNER_MASK: u64 = ((1u64 << OWNER_BITS) - 1) << OWNER_SHIFT;
const VERSION_SHIFT: u32 = 16;

/// Maximum number of threads an orec can name as owner.
pub const MAX_THREADS: usize = (1 << OWNER_BITS) - 2;

/// A decoded ownership-record value (the paper's `Lock` object).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OrecValue(u64);

impl OrecValue {
    /// An unlocked orec with the given version (time of last unlock).
    #[inline]
    pub fn unlocked(version: u64) -> Self {
        OrecValue(version << VERSION_SHIFT)
    }

    /// A locked orec owned by `owner`, preserving `version` from before the
    /// acquisition so it can be restored (incremented) on abort.
    #[inline]
    pub fn locked(version: u64, owner: ThreadId) -> Self {
        debug_assert!(owner < MAX_THREADS);
        OrecValue(
            (version << VERSION_SHIFT)
                | (((owner as u64 + 1) << OWNER_SHIFT) & OWNER_MASK)
                | LOCK_BIT,
        )
    }

    /// Returns the raw packed form.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True if some transaction currently holds this orec.
    #[inline]
    pub fn is_locked(self) -> bool {
        self.0 & LOCK_BIT != 0
    }

    /// The version (global-clock value at last unlock).
    #[inline]
    pub fn version(self) -> u64 {
        self.0 >> VERSION_SHIFT
    }

    /// The owning thread, if locked.
    #[inline]
    pub fn owner(self) -> Option<ThreadId> {
        if self.is_locked() {
            Some((((self.0 & OWNER_MASK) >> OWNER_SHIFT) - 1) as ThreadId)
        } else {
            None
        }
    }

    /// True if this orec is locked by `tid`.
    #[inline]
    pub fn is_locked_by(self, tid: ThreadId) -> bool {
        self.owner() == Some(tid)
    }
}

/// One shard of the ownership-record plane: an independently allocated slice
/// of lock words plus its own CAS-failure counter.
///
/// The slice is one zeroed allocation ([`zeroed_slice`]), so building a
/// system touches none of it: each page is faulted in, and on a NUMA machine
/// placed, by the first thread that uses a stripe on it.  Separate shards
/// give each a private contention counter that does not bounce between
/// shards.
#[derive(Debug)]
struct OrecShard {
    slots: Box<[AtomicU64]>,
    /// Failed `cas` attempts on this shard's stripes — the direct measure of
    /// lock-word contention the memory-plane report surfaces.
    cas_failures: CachePadded<AtomicU64>,
}

impl OrecShard {
    fn new(slots: usize) -> Self {
        OrecShard {
            slots: zeroed_slice(slots),
            cas_failures: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// The global table of ownership records, indexed by a hash of the address.
///
/// Entries are plain 8-byte words, eight to a 64-byte cache line, so the
/// default table is 512 KiB.  Padding each one to a line would buy nothing:
/// under the Fibonacci hash of [`OrecTable::index_for`] the eight words of
/// any heap line land on eight different orec lines, so two cores writing
/// neighbouring words never share one.  What is left is two unrelated words
/// whose stripes fall in one group of eight, the same aliasing a stripe
/// collision already causes, at eight times its rate.
///
/// The table is split into power-of-two `OrecShard`s, each its own heap
/// allocation.  A global stripe index `idx` maps to shard `idx & shard_mask`
/// and slot `idx >> shard_bits`; every public operation still speaks global
/// indices, so read/write covers, waitlist shard targeting and `line_cover`
/// coupling are byte-for-byte what they were with the flat table.
#[derive(Debug)]
pub struct OrecTable {
    shards: Box<[OrecShard]>,
    /// `shard_count - 1`; low bits of a global index select the shard, so
    /// hash-adjacent stripes land on different shards.
    shard_mask: usize,
    /// `log2(shard_count)`; high bits of a global index select the slot.
    shard_bits: u32,
    mask: usize,
}

impl OrecTable {
    /// Creates a table with `size` entries and the default shard count;
    /// `size` is rounded up to a power of two so indexing can use a mask.
    pub fn new(size: usize) -> Self {
        Self::new_sharded(size, crate::config::default_orec_shards())
    }

    /// Creates a table with `size` entries split into `shards` shards.  Both
    /// are rounded up to powers of two, and the shard count is clamped so
    /// every shard holds at least one slot.
    pub fn new_sharded(size: usize, shards: usize) -> Self {
        let size = size.next_power_of_two().max(2);
        let shards = shards.next_power_of_two().clamp(1, size);
        let shard_bits = shards.trailing_zeros();
        let slots_per_shard = size / shards;
        let shards = (0..shards)
            .map(|_| OrecShard::new(slots_per_shard))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        OrecTable {
            shard_mask: shards.len() - 1,
            shard_bits,
            shards,
            mask: size - 1,
        }
    }

    /// The slot holding the orec at global index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> &AtomicU64 {
        &self.shards[idx & self.shard_mask].slots[idx >> self.shard_bits]
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        (self.shard_mask + 1) * self.shards[0].slots.len()
    }

    /// True if the table has no entries (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards the table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Failed `cas` attempts summed over every shard.
    pub fn cas_failure_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cas_failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Maps an address to its orec index (`hash(addr)` in the paper).
    ///
    /// Uses a Fibonacci multiplicative hash so that adjacent words spread
    /// across the table, reducing false conflicts between unrelated objects.
    #[inline]
    pub fn index_for(&self, addr: Addr) -> usize {
        // 2^64 / golden ratio, the usual Fibonacci hashing constant.
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        ((addr.0 as u64).wrapping_mul(K) >> 32) as usize & self.mask
    }

    /// The orec indices covering every word of a cache line, in word order
    /// (not deduplicated).
    ///
    /// This is the stripe cover a line-granular writer (a hardware commit)
    /// may have touched: a superset of the written words' stripes, so wake
    /// targeting built on it can never miss a sleeper.  The single source of
    /// truth for that mapping — the HTM simulator, the wake-path tests and
    /// the ledger's `tx_bystander` placement all derive from it.
    ///
    /// Returned as an iterator: this sits on the HTM simulator's commit
    /// path, which used to pay a fresh `Vec` allocation per call.
    pub fn line_indices(&self, line: LineId) -> impl Iterator<Item = usize> + '_ {
        let base = line.first_word();
        (0..LINE_WORDS).map(move |i| self.index_for(base.offset(i)))
    }

    /// Selects up to `want` addresses from `candidates` whose orec stripes
    /// are pairwise distinct, preserving candidate order.
    ///
    /// Orec-cover helper for containers that co-design their layout with
    /// this table: hot per-container metadata words (e.g. a striped map's
    /// occupancy counters) are picked from an over-allocated block so that
    /// no two of them share a stripe, and therefore no two independent
    /// writers ever CAS the same ownership record.  Returns fewer than
    /// `want` addresses when the candidate set cannot cover that many
    /// distinct stripes (callers top up from the unused candidates).
    pub fn select_distinct_stripes<I>(&self, candidates: I, want: usize) -> Vec<Addr>
    where
        I: IntoIterator<Item = Addr>,
    {
        let mut picked = Vec::with_capacity(want);
        let mut stripes = Vec::with_capacity(want);
        for addr in candidates {
            if picked.len() == want {
                break;
            }
            let stripe = self.index_for(addr);
            if !stripes.contains(&stripe) {
                stripes.push(stripe);
                picked.push(addr);
            }
        }
        picked
    }

    /// Atomically reads the orec for `addr`.
    #[inline]
    pub fn load_for(&self, addr: Addr) -> OrecValue {
        self.load(self.index_for(addr))
    }

    /// Atomically reads the orec at table index `idx`.
    #[inline]
    pub fn load(&self, idx: usize) -> OrecValue {
        OrecValue(self.slot(idx).load(Ordering::Acquire))
    }

    /// Attempts to atomically transition the orec at `idx` from `old` to
    /// `new`; returns `true` on success.  A failed attempt bumps the shard's
    /// contention counter.
    #[inline]
    pub fn cas(&self, idx: usize, old: OrecValue, new: OrecValue) -> bool {
        let shard = &self.shards[idx & self.shard_mask];
        let ok = shard.slots[idx >> self.shard_bits]
            .compare_exchange(old.0, new.0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if !ok {
            shard.cas_failures.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Unconditionally stores a new orec value at `idx`.
    ///
    /// Only the lock owner may do this (release on commit/abort).
    #[inline]
    pub fn store(&self, idx: usize, val: OrecValue) {
        self.slot(idx).store(val.0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_unlocked() {
        let v = OrecValue::unlocked(12345);
        assert!(!v.is_locked());
        assert_eq!(v.version(), 12345);
        assert_eq!(v.owner(), None);
    }

    #[test]
    fn pack_unpack_locked() {
        let v = OrecValue::locked(777, 9);
        assert!(v.is_locked());
        assert_eq!(v.version(), 777);
        assert_eq!(v.owner(), Some(9));
        assert!(v.is_locked_by(9));
        assert!(!v.is_locked_by(8));
    }

    #[test]
    fn owner_zero_is_distinguishable_from_unlocked() {
        let v = OrecValue::locked(0, 0);
        assert!(v.is_locked());
        assert_eq!(v.owner(), Some(0));
        let u = OrecValue::unlocked(0);
        assert_ne!(v, u);
    }

    #[test]
    fn table_size_rounds_to_power_of_two() {
        assert_eq!(OrecTable::new(1000).len(), 1024);
        assert_eq!(OrecTable::new(1024).len(), 1024);
        assert_eq!(OrecTable::new(1).len(), 2);
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let t = OrecTable::new(4096);
        for i in 0..10_000 {
            let a = Addr(i);
            let idx = t.index_for(a);
            assert!(idx < t.len());
            assert_eq!(idx, t.index_for(a), "hash must be deterministic");
        }
    }

    #[test]
    fn adjacent_words_usually_map_to_distinct_orecs() {
        let t = OrecTable::new(4096);
        let mut distinct = 0;
        for i in 0..1000 {
            if t.index_for(Addr(i)) != t.index_for(Addr(i + 1)) {
                distinct += 1;
            }
        }
        assert!(distinct > 900, "hashing should spread adjacent words");
    }

    #[test]
    fn cas_acquire_release_cycle() {
        let t = OrecTable::new(16);
        let idx = t.index_for(Addr(5));
        let before = t.load(idx);
        assert!(!before.is_locked());
        let locked = OrecValue::locked(before.version(), 3);
        assert!(t.cas(idx, before, locked));
        assert!(t.load(idx).is_locked_by(3));
        // A second acquisition attempt with the stale snapshot fails.
        assert!(!t.cas(idx, before, OrecValue::locked(before.version(), 4)));
        // Release at a new version.
        t.store(idx, OrecValue::unlocked(42));
        assert_eq!(t.load(idx).version(), 42);
        assert!(!t.load(idx).is_locked());
    }

    #[test]
    fn heap_line_words_sit_on_distinct_orec_lines() {
        // What padding each orec would buy: two cores writing neighbouring
        // words never CAS one orec cache line.  A line holds `per_line`
        // unpadded orecs, so the stripes of one heap line's words must fall
        // in distinct groups of `per_line` slots.  Asked as "at least
        // `per_line` slots apart within a shard", which holds whatever
        // offset the allocator gives the shard's base, for the flat table
        // and for the default shard count alike.
        use crate::config::TmConfig;
        use crate::pad::CACHE_LINE_BYTES;
        let config = TmConfig::default();
        let per_line = CACHE_LINE_BYTES / std::mem::size_of::<AtomicU64>();
        for shards in [1, config.orec_shards] {
            let t = OrecTable::new_sharded(config.orec_count, shards);
            for line in 0..config.heap_words / LINE_WORDS {
                let slots: Vec<(usize, usize)> = t
                    .line_indices(LineId(line))
                    .map(|idx| (idx & t.shard_mask, idx >> t.shard_bits))
                    .collect();
                for (i, &(shard, slot)) in slots.iter().enumerate() {
                    for &(other_shard, other) in &slots[i + 1..] {
                        assert!(
                            shard != other_shard || slot.abs_diff(other) >= per_line,
                            "{shards} shards: heap line {line} shares an orec line: {slots:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shards_are_separate_allocations_and_partition_the_table() {
        let t = OrecTable::new_sharded(64, 4);
        assert_eq!(t.shard_count(), 4);
        assert_eq!(t.len(), 64);
        // Distinct boxes: shard base pointers differ (separate allocations,
        // so a NUMA first-touch policy can place them independently).
        let bases: Vec<usize> = t.shards.iter().map(|s| s.slots.as_ptr() as usize).collect();
        for (i, a) in bases.iter().enumerate() {
            for b in &bases[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Every global index maps to exactly one (shard, slot) pair.
        let mut seen = std::collections::HashSet::new();
        for idx in 0..t.len() {
            let pair = (idx & t.shard_mask, idx >> t.shard_bits);
            assert!(pair.0 < 4 && pair.1 < 16);
            assert!(seen.insert(pair), "index {idx} collided");
        }
    }

    #[test]
    fn shard_count_is_clamped_and_rounded() {
        assert_eq!(OrecTable::new_sharded(16, 1).shard_count(), 1);
        assert_eq!(OrecTable::new_sharded(16, 3).shard_count(), 4);
        // More shards than slots: clamp so every shard holds >= 1 slot.
        assert_eq!(OrecTable::new_sharded(4, 64).shard_count(), 4);
        assert_eq!(OrecTable::new_sharded(4, 64).len(), 4);
    }

    #[test]
    fn global_indices_are_stable_across_shard_counts() {
        // The public stripe id of an address must not depend on how the
        // plane is sharded: waitlist targeting and line covers are keyed by
        // these ids, and a resharded system must agree with itself.
        let flat = OrecTable::new_sharded(4096, 1);
        let split = OrecTable::new_sharded(4096, 8);
        for i in 0..10_000 {
            assert_eq!(flat.index_for(Addr(i)), split.index_for(Addr(i)));
        }
        let line = Addr(128).line();
        assert!(flat.line_indices(line).eq(split.line_indices(line)));
    }

    #[test]
    fn values_survive_the_shard_slot_mapping() {
        // Store through one index, read it back, and make sure no other
        // index aliases onto the same slot.
        let t = OrecTable::new_sharded(32, 4);
        for idx in 0..t.len() {
            t.store(idx, OrecValue::unlocked(idx as u64 + 1));
        }
        for idx in 0..t.len() {
            assert_eq!(t.load(idx).version(), idx as u64 + 1);
        }
    }

    #[test]
    fn failed_cas_bumps_the_shard_contention_counter() {
        let t = OrecTable::new_sharded(16, 2);
        let idx = 3;
        let before = t.load(idx);
        assert_eq!(t.cas_failure_total(), 0);
        // A successful CAS is not contention.
        assert!(t.cas(idx, before, OrecValue::locked(before.version(), 1)));
        assert_eq!(t.cas_failure_total(), 0);
        // A stale-snapshot CAS is.
        assert!(!t.cas(idx, before, OrecValue::locked(before.version(), 2)));
        assert_eq!(t.cas_failure_total(), 1);
        let shard = &t.shards[idx & t.shard_mask];
        assert_eq!(shard.cas_failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn version_survives_large_clock_values() {
        let v = OrecValue::unlocked(1 << 40);
        assert_eq!(v.version(), 1 << 40);
        let l = OrecValue::locked(1 << 40, 100);
        assert_eq!(l.version(), 1 << 40);
        assert_eq!(l.owner(), Some(100));
    }

    #[test]
    fn select_distinct_stripes_never_reuses_a_stripe() {
        let t = OrecTable::new_sharded(64, 4);
        let candidates: Vec<Addr> = (0..256).map(Addr).collect();
        let picked = t.select_distinct_stripes(candidates.iter().copied(), 8);
        assert_eq!(picked.len(), 8, "plenty of candidates for 8 stripes");
        let stripes: Vec<usize> = picked.iter().map(|&a| t.index_for(a)).collect();
        for (i, s) in stripes.iter().enumerate() {
            assert!(
                !stripes[i + 1..].contains(s),
                "stripe {s} selected twice in {stripes:?}"
            );
        }
        // Asking for more stripes than the table has comes up short instead
        // of looping forever.
        let tiny = OrecTable::new_sharded(2, 1);
        let picked = tiny.select_distinct_stripes(candidates.iter().copied(), 8);
        assert!(picked.len() <= 2);
    }
}
