//! A fixed-capacity transactional hash map.
//!
//! `TmHashMap` is an open-addressing (linear probing) hash table whose slots
//! live in the transactional heap, so lookups and updates compose with any
//! other transactional state, and a reader can *wait* for a key to appear
//! using the paper's mechanisms ([`TmHashMap::get_waiting`]).  The table is
//! the kind of shared index the PARSEC applications keep under a lock
//! (dedup's chunk index, ferret's result table) and the primary store of the
//! benchmark's session-store workload; it is deliberately simple — no
//! resizing, no tombstone compaction beyond what linear probing needs —
//! because its job is to exercise multi-word transactions, not to be a
//! general-purpose collection.
//!
//! # Layout
//!
//! Each bucket is one contiguous two-word cell `[tag|key, value]`, so probing
//! an absent key reads exactly one word (one orec validation) and a hit reads
//! two adjacent words whose stripes the Fibonacci address hash of
//! [`tm_core::OrecTable::index_for`] scatters independently of neighbouring
//! buckets.  Keys are limited to 62 bits because the cell tag rides in the
//! key word.  Instead of one global entry counter (a built-in hot stripe:
//! every size-changing write would CAS the same orec) the map keeps a small
//! set of occupancy counters whose heap words are *chosen with
//! [`tm_core::OrecTable::select_distinct_stripes`]* so no two counters share
//! an ownership record: independent writers bump independent stripes.

use std::marker::PhantomData;
use std::sync::Arc;

use condsync::Mechanism;
use tm_core::{Addr, TmArray, TmSystem, TmValue, TmVar, Tx, TxResult};

/// A never-used cell's key word.
const EMPTY: u64 = 0;

/// Tag bits live in the top two bits of the key word.
const TAG_SHIFT: u32 = 62;
const TAG_OCCUPIED: u64 = 1 << TAG_SHIFT;
const TAG_TOMBSTONE: u64 = 2 << TAG_SHIFT;
const KEY_MASK: u64 = TAG_OCCUPIED - 1;

/// Number of striped occupancy counters (power of two).
const COUNTER_SHARDS: usize = 8;

/// Over-allocation factor when hunting for counter words on distinct orec
/// stripes.
const COUNTER_CANDIDATES_PER_SHARD: usize = 8;

/// 2^64 / golden ratio — Fibonacci hashing constant (same one the orec
/// table uses for addresses).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-capacity transactional hash map from `K` to `V` (both one-word
/// [`TmValue`] types; `u64` by default).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_core::{TmConfig, TmRuntime, TmSystem};
/// use tm_sync::TmHashMap;
///
/// let system = TmSystem::new(TmConfig::small());
/// let rt = tm_core::software::EagerStm::new(Arc::clone(&system));
/// let map: TmHashMap<u64, u64> = TmHashMap::new(&system, 16);
///
/// let th = system.register_thread();
/// let old = rt.atomically(&th, |tx| map.insert(tx, 7, 700));
/// assert_eq!(old, None);
///
/// // Lookups are read-only transactions: declared as such they commit
/// // through the zero-footprint snapshot fast path.
/// let got = rt.atomically_read(&th, |tx| map.get(tx, 7));
/// assert_eq!(got, Some(700));
/// ```
#[derive(Debug, Clone)]
pub struct TmHashMap<K: TmValue = u64, V: TmValue = u64> {
    /// `2 * capacity` words; cell `i` is `[tag|key, value]` at words
    /// `2i, 2i+1`.
    cells: TmArray<u64>,
    /// Occupancy counters on pairwise-distinct orec stripes; a key's
    /// counter is chosen by hash, so the mapping is deterministic.
    counters: Vec<TmVar<u64>>,
    capacity: usize,
    _marker: PhantomData<(K, V)>,
}

/// `WaitPred` predicate: the counter word identified by `args = [addr, old]`
/// has changed.  The map's waiters watch one occupancy counter: a plain
/// threshold would miss an insert that follows a remove (the count returns
/// to its old value), but every size-changing commit *changes* the word at
/// its wake check, so change-detection never strands a waiter whose key
/// arrived.
pub fn pred_map_counter_changed(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != args[1])
}

fn fib_high(word: u64) -> usize {
    (word.wrapping_mul(FIB) >> 32) as usize
}

impl<K: TmValue, V: TmValue> TmHashMap<K, V> {
    /// Allocates a map with room for `capacity` entries in `system`'s heap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(system: &Arc<TmSystem>, capacity: usize) -> Self {
        assert!(capacity > 0, "map capacity must be positive");
        let capacity = capacity.next_power_of_two();
        let cells = TmArray::alloc(system, 2 * capacity, 0);
        // Hunt for counter words on pairwise-distinct orec stripes:
        // over-allocate candidates and let the orec plane pick.  The
        // unused candidate words are a tiny, one-time setup cost.
        let candidates =
            TmArray::<u64>::alloc(system, COUNTER_SHARDS * COUNTER_CANDIDATES_PER_SHARD, 0);
        let addrs = (0..candidates.len()).map(|i| candidates.addr_of(i));
        let mut picked = system.orecs.select_distinct_stripes(addrs, COUNTER_SHARDS);
        // A tiny orec table may not have enough stripes; top up with
        // remaining candidates (correctness never depends on
        // distinctness, only the contention claim does).
        for i in 0..candidates.len() {
            if picked.len() == COUNTER_SHARDS {
                break;
            }
            let addr = candidates.addr_of(i);
            if !picked.contains(&addr) {
                picked.push(addr);
            }
        }
        TmHashMap {
            cells,
            counters: picked.into_iter().map(TmVar::from_addr).collect(),
            capacity,
            _marker: PhantomData,
        }
    }

    /// The slot capacity (rounded up to a power of two at construction).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap address a waiter for `key` should watch: the key's striped
    /// occupancy counter.  Every insert of `key` bumps the returned word's
    /// stripe, so an `Await` on it can never miss the insert.
    pub fn wait_addr(&self, key: K) -> Addr {
        self.counter_for(key.into_word()).addr()
    }

    fn counter_for(&self, key_word: u64) -> &TmVar<u64> {
        &self.counters[fib_high(key_word) & (COUNTER_SHARDS - 1)]
    }

    /// Non-transactional entry count (setup / verification only).
    pub fn len_direct(&self, system: &TmSystem) -> u64 {
        self.counters.iter().map(|c| c.load_direct(system)).sum()
    }

    fn slot_for(&self, key_word: u64, probe: usize) -> usize {
        // Fibonacci hashing spreads sequential keys well enough for a test
        // substrate; linear probing resolves collisions.
        (fib_high(key_word) + probe) & (self.capacity - 1)
    }

    fn tagged(key_word: u64) -> u64 {
        assert!(
            key_word & !KEY_MASK == 0,
            "TmHashMap keys must fit in 62 bits (got {key_word:#x})"
        );
        TAG_OCCUPIED | key_word
    }

    /// Inserts or updates `key`, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if the table is full and `key` is not already present, or if
    /// the key's word encoding exceeds 62 bits.  The transaction is rolled
    /// back first, as the panic unwinds through its attempt: nothing it did
    /// stays visible, and the map and every thread keep working.
    pub fn insert(&self, tx: &mut dyn Tx, key: K, value: V) -> TxResult<Option<V>> {
        let key_word = key.into_word();
        let cells = &self.cells;
        let tagged = Self::tagged(key_word);
        let mut first_tombstone: Option<usize> = None;
        for probe in 0..self.capacity {
            let slot = self.slot_for(key_word, probe);
            let word = cells.get(tx, 2 * slot)?;
            if word == EMPTY {
                let target = first_tombstone.unwrap_or(slot);
                cells.set(tx, 2 * target, tagged)?;
                cells.set(tx, 2 * target + 1, value.into_word())?;
                self.counter_for(key_word).update(tx, |n| n + 1)?;
                return Ok(None);
            }
            if word == tagged {
                let old = cells.get(tx, 2 * slot + 1)?;
                cells.set(tx, 2 * slot + 1, value.into_word())?;
                return Ok(Some(V::from_word(old)));
            }
            if word & !KEY_MASK == TAG_TOMBSTONE && first_tombstone.is_none() {
                first_tombstone = Some(slot);
            }
        }
        if let Some(slot) = first_tombstone {
            cells.set(tx, 2 * slot, tagged)?;
            cells.set(tx, 2 * slot + 1, value.into_word())?;
            self.counter_for(key_word).update(tx, |n| n + 1)?;
            return Ok(None);
        }
        panic!("TmHashMap is full (capacity {})", self.capacity);
    }

    /// Looks `key` up.
    ///
    /// An absent key costs one heap read (one orec validation) per probe and
    /// a hit costs two; run it under a declared read-only transaction
    /// (`atomically_read`) to take the snapshot fast path.
    pub fn get(&self, tx: &mut dyn Tx, key: K) -> TxResult<Option<V>> {
        let key_word = key.into_word();
        let tagged = Self::tagged(key_word);
        for probe in 0..self.capacity {
            let slot = self.slot_for(key_word, probe);
            let word = self.cells.get(tx, 2 * slot)?;
            if word == EMPTY {
                return Ok(None);
            }
            if word == tagged {
                return Ok(Some(V::from_word(self.cells.get(tx, 2 * slot + 1)?)));
            }
        }
        Ok(None)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&self, tx: &mut dyn Tx, key: K) -> TxResult<Option<V>> {
        let key_word = key.into_word();
        let tagged = Self::tagged(key_word);
        for probe in 0..self.capacity {
            let slot = self.slot_for(key_word, probe);
            let word = self.cells.get(tx, 2 * slot)?;
            if word == EMPTY {
                return Ok(None);
            }
            if word == tagged {
                let old = self.cells.get(tx, 2 * slot + 1)?;
                self.cells.set(tx, 2 * slot, TAG_TOMBSTONE)?;
                self.counter_for(key_word).update(tx, |n| n - 1)?;
                return Ok(Some(V::from_word(old)));
            }
        }
        Ok(None)
    }

    /// Non-transactional insert for benchmark/test setup **before** worker
    /// threads start (bypasses the runtimes, so concurrent use is a data
    /// race by construction).  Keeps a 100%-read measurement honest: the
    /// measured phase never has to pay the population writes, and
    /// `read_set_max` stays a property of the lookups alone.
    ///
    /// # Panics
    ///
    /// Panics if the table is full and `key` is not already present.
    pub fn insert_direct(&self, system: &TmSystem, key: K, value: V) -> Option<V> {
        let key_word = key.into_word();
        let cells = &self.cells;
        let tagged = Self::tagged(key_word);
        let mut first_tombstone: Option<usize> = None;
        for probe in 0..self.capacity {
            let slot = self.slot_for(key_word, probe);
            let word = cells.load_direct(system, 2 * slot);
            if word == EMPTY {
                let target = first_tombstone.unwrap_or(slot);
                cells.store_direct(system, 2 * target, tagged);
                cells.store_direct(system, 2 * target + 1, value.into_word());
                let c = self.counter_for(key_word);
                c.store_direct(system, c.load_direct(system) + 1);
                return None;
            }
            if word == tagged {
                let old = cells.load_direct(system, 2 * slot + 1);
                cells.store_direct(system, 2 * slot + 1, value.into_word());
                return Some(V::from_word(old));
            }
            if word & !KEY_MASK == TAG_TOMBSTONE && first_tombstone.is_none() {
                first_tombstone = Some(slot);
            }
        }
        if let Some(slot) = first_tombstone {
            cells.store_direct(system, 2 * slot, tagged);
            cells.store_direct(system, 2 * slot + 1, value.into_word());
            let c = self.counter_for(key_word);
            c.store_direct(system, c.load_direct(system) + 1);
            return None;
        }
        panic!("TmHashMap is full (capacity {})", self.capacity);
    }

    /// Non-transactional dump of every occupied entry as `(key_word,
    /// value_word)`, sorted by key word (verification only; call when no
    /// transactions are running).
    pub fn dump_direct(&self, system: &TmSystem) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for slot in 0..self.capacity {
            let word = self.cells.load_direct(system, 2 * slot);
            if word & !KEY_MASK == TAG_OCCUPIED {
                out.push((
                    word & KEY_MASK,
                    self.cells.load_direct(system, 2 * slot + 1),
                ));
            }
        }
        out.sort_unstable();
        out
    }

    /// Looks `key` up, waiting with `mechanism` until some writer inserts it.
    ///
    /// For `Await` the waiter watches [`TmHashMap::wait_addr`], the key's
    /// striped occupancy counter — a word every insertion of the key writes,
    /// so the wake can never be missed (the paper's §2.3 discussion of
    /// choosing what to track applies directly here).
    ///
    /// # Panics
    ///
    /// Panics for the lock-based mechanisms, which wait outside transactions.
    pub fn get_waiting(&self, mechanism: Mechanism, tx: &mut dyn Tx, key: K) -> TxResult<V> {
        if let Some(v) = self.get(tx, key)? {
            return Ok(v);
        }
        let counter = self.counter_for(key.into_word());
        // WaitPred wakes when the key's occupancy counter *changes* (a
        // threshold would strand the waiter after a remove-then-insert
        // returned the count to its old value), so it alone reads the
        // counter's current value.
        let current = match mechanism {
            Mechanism::WaitPred => counter.get(tx)?,
            _ => 0,
        };
        let addr = counter.addr();
        mechanism.wait(
            tx,
            addr,
            pred_map_counter_changed,
            &[addr.0 as u64, current],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tm_core::{DirectTx, TmConfig, TxCtl, WaitSpec};

    fn small_map(cap: usize) -> (Arc<TmSystem>, TmHashMap) {
        let system = TmSystem::new(TmConfig::small());
        let map = TmHashMap::new(&system, cap);
        (system, map)
    }

    #[test]
    fn insert_get_update_remove_round_trip() {
        let (system, map) = small_map(8);
        let mut tx = DirectTx::new(&system);
        assert_eq!(map.insert(&mut tx, 10, 100).unwrap(), None);
        assert_eq!(map.insert(&mut tx, 20, 200).unwrap(), None);
        assert_eq!(map.get(&mut tx, 10).unwrap(), Some(100));
        assert_eq!(map.get(&mut tx, 30).unwrap(), None);
        assert_eq!(map.insert(&mut tx, 10, 111).unwrap(), Some(100));
        assert_eq!(map.get(&mut tx, 10).unwrap(), Some(111));
        assert_eq!(map.remove(&mut tx, 10).unwrap(), Some(111));
        assert_eq!(map.get(&mut tx, 10).unwrap(), None);
        assert_eq!(map.remove(&mut tx, 10).unwrap(), None);
        assert_eq!(map.len_direct(&system), 1);
        assert_eq!(map.dump_direct(&system), vec![(20, 200)]);
    }

    #[test]
    fn colliding_keys_probe_to_distinct_slots() {
        // Many keys in a tiny table force probing and tombstone reuse.
        let (system, map) = small_map(16);
        let mut tx = DirectTx::new(&system);
        for k in 0..12u64 {
            assert_eq!(map.insert(&mut tx, k * 16, k).unwrap(), None);
        }
        for k in 0..12u64 {
            assert_eq!(map.get(&mut tx, k * 16).unwrap(), Some(k), "key {k}");
        }
        assert_eq!(map.len_direct(&system), 12);
    }

    #[test]
    fn tombstones_are_reused_and_lookups_skip_them() {
        let (system, map) = small_map(8);
        let mut tx = DirectTx::new(&system);
        map.insert(&mut tx, 1, 10).unwrap();
        map.insert(&mut tx, 9, 90).unwrap(); // likely probes past key 1's chain
        map.remove(&mut tx, 1).unwrap();
        // Key 9 must remain reachable even if key 1's slot is now a
        // tombstone on its probe path.
        assert_eq!(map.get(&mut tx, 9).unwrap(), Some(90));
        // Re-inserting key 1 reuses the tombstone rather than growing.
        map.insert(&mut tx, 1, 11).unwrap();
        assert_eq!(map.get(&mut tx, 1).unwrap(), Some(11));
        assert_eq!(map.len_direct(&system), 2);
    }

    #[test]
    fn matches_std_hashmap_model() {
        let (system, map) = small_map(64);
        let mut tx = DirectTx::new(&system);
        let mut model: HashMap<u64, u64> = HashMap::new();
        // A deterministic mixed workload.
        let mut seed = 42u64;
        for i in 0..300u64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let key = seed % 48;
            match i % 3 {
                0 | 1 => {
                    let expected = model.insert(key, i);
                    assert_eq!(map.insert(&mut tx, key, i).unwrap(), expected);
                }
                _ => {
                    let expected = model.remove(&key);
                    assert_eq!(map.remove(&mut tx, key).unwrap(), expected);
                }
            }
            assert_eq!(map.len_direct(&system), model.len() as u64);
        }
        let mut expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        expected.sort_unstable();
        assert_eq!(map.dump_direct(&system), expected);
        for (&k, &v) in &model {
            assert_eq!(map.get(&mut tx, k).unwrap(), Some(v));
        }
    }

    #[test]
    fn direct_insert_matches_transactional_insert() {
        let (sys_a, map_a) = small_map(32);
        let (sys_b, map_b) = small_map(32);
        let mut tx = DirectTx::new(&sys_a);
        for k in 0..20u64 {
            map_a.insert(&mut tx, k * 3, k).unwrap();
            map_b.insert_direct(&sys_b, k * 3, k);
        }
        assert_eq!(map_b.insert_direct(&sys_b, 0, 99), Some(0));
        map_a.insert(&mut tx, 0, 99).unwrap();
        assert_eq!(map_a.dump_direct(&sys_a), map_b.dump_direct(&sys_b));
        assert_eq!(map_a.len_direct(&sys_a), map_b.len_direct(&sys_b));
    }

    #[test]
    fn get_waiting_requests_the_right_deschedule() {
        let (system, map) = small_map(8);
        let mut tx = DirectTx::new(&system);
        assert!(matches!(
            map.get_waiting(Mechanism::Retry, &mut tx, 5),
            Err(TxCtl::Deschedule(WaitSpec::ReadSetValues))
        ));
        // Await watches the key's striped counter, not a global length word.
        match map.get_waiting(Mechanism::Await, &mut tx, 5) {
            Err(TxCtl::Deschedule(WaitSpec::Addrs(a))) => assert_eq!(a, vec![map.wait_addr(5)]),
            other => panic!("unexpected {other:?}"),
        }
        // WaitPred wakes on counter *change*, parameterised by the current
        // count, so remove-then-insert cannot strand the waiter.
        match map.get_waiting(Mechanism::WaitPred, &mut tx, 5) {
            Err(TxCtl::Deschedule(WaitSpec::Pred { args, .. })) => {
                assert_eq!(args, vec![map.wait_addr(5).0 as u64, 0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        map.insert(&mut tx, 5, 55).unwrap();
        assert_eq!(map.get_waiting(Mechanism::Retry, &mut tx, 5).unwrap(), 55);
    }

    #[test]
    fn counters_sit_on_distinct_orec_stripes() {
        let (system, map) = small_map(64);
        // Every key's wait address must map to its own ownership record, or
        // the layout's whole contention argument is void.
        let stripes: Vec<usize> = (0..1000u64)
            .map(|k| system.orecs.index_for(map.wait_addr(k)))
            .collect();
        let mut distinct: Vec<usize> = stripes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            COUNTER_SHARDS,
            "counters collapsed onto shared stripes"
        );
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overfilling_panics() {
        let (system, map) = small_map(4);
        let mut tx = DirectTx::new(&system);
        for k in 0..5u64 {
            map.insert(&mut tx, k, k).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "62 bits")]
    fn keys_in_the_tag_range_are_rejected() {
        let (system, map) = small_map(4);
        let mut tx = DirectTx::new(&system);
        let _ = map.insert(&mut tx, u64::MAX, 1);
    }
}
