//! A transactional ordered map (skiplist index).
//!
//! `TmOrderedMap` is a deterministic skiplist whose nodes live in the
//! transactional heap: every node is one contiguous block `[key, value,
//! level, next_0 .. next_{level-1}]` allocated through the transaction's
//! heap view (`tx.alloc`), so node allocation rides the per-thread heap
//! arenas and a node's hot words — the key that every traversal compares
//! and the level-0 link that every scan follows — share one cache line and
//! therefore one orec validation per visited node.  Tower height is a pure
//! function of the key (a splitmix64 hash's trailing ones), which keeps the
//! structure *identical across runtimes and interleavings* for a given key
//! set — the property the cross-runtime golden-parity tests lean on.
//!
//! Keys are ordered by their **encoded word** ([`TmValue::into_word`]),
//! which is the natural order for the unsigned integer key types; `range`
//! walks level 0 between two encoded bounds.  `get`/`contains`/`range`
//! only read, so run them under a declared read-only transaction
//! (`atomically_read`) to take the snapshot fast path.

use std::marker::PhantomData;
use std::sync::Arc;

use tm_core::backoff::splitmix64;
use tm_core::{Addr, TmArray, TmSystem, TmValue, Tx, TxResult};

/// Maximum tower height; supports key sets far beyond what the fixed-size
/// heaps hold (expected search cost ~ log2(n) up to n ≈ 2^12 and degrades
/// only gently beyond).
const MAX_LEVEL: usize = 12;

/// Link-word sentinel for "no next node" (`Addr(0)` can be a live block).
const NIL: u64 = u64::MAX;

/// Node block header words before the link tower.
const HDR: usize = 3; // key, value, level

/// Deterministic tower height for a key: geometric(1/2) via the trailing
/// ones of a hash, clamped to [`MAX_LEVEL`].  Identical on every runtime
/// and thread, so the final structure depends only on the key set.
fn level_for(key_word: u64) -> usize {
    let h = splitmix64(key_word ^ 0xA5A5_5A5A_C3C3_3C3C);
    1 + (h.trailing_ones() as usize).min(MAX_LEVEL - 1)
}

/// A fixed-order transactional skiplist from `K` to `V` (both one-word
/// [`TmValue`] types; `u64` by default), ordered by encoded key word.
#[derive(Debug)]
pub struct TmOrderedMap<K: TmValue = u64, V: TmValue = u64> {
    /// The head tower: `MAX_LEVEL` link words, each `NIL` or a node base
    /// address.
    head: TmArray<u64>,
    _marker: PhantomData<(K, V)>,
}

impl<K: TmValue, V: TmValue> Clone for TmOrderedMap<K, V> {
    fn clone(&self) -> Self {
        TmOrderedMap {
            head: self.head.clone(),
            _marker: PhantomData,
        }
    }
}

impl<K: TmValue, V: TmValue> TmOrderedMap<K, V> {
    /// Allocates an empty index in `system`'s heap.
    pub fn new(system: &Arc<TmSystem>) -> Self {
        TmOrderedMap {
            head: TmArray::alloc(system, MAX_LEVEL, NIL),
            _marker: PhantomData,
        }
    }

    /// The address of the head's level-`lvl` link word.
    fn head_link(&self, lvl: usize) -> Addr {
        self.head.addr_of(lvl)
    }

    /// The address of `node`'s level-`lvl` link word.
    fn node_link(node: u64, lvl: usize) -> Addr {
        Addr(node as usize + HDR + lvl)
    }

    /// Walks the tower and returns, per level, the address of the link word
    /// whose target is the first node with `key >= key_word` (the word an
    /// insert or unlink at that level must rewrite), plus that first node's
    /// base if its key equals `key_word`.
    fn find_preds(
        &self,
        tx: &mut dyn Tx,
        key_word: u64,
    ) -> TxResult<([Addr; MAX_LEVEL], Option<u64>)> {
        let mut preds = [Addr(0); MAX_LEVEL];
        // `None` while the pred is the head tower, `Some(base)` afterwards.
        let mut pred_node: Option<u64> = None;
        let mut link = self.head_link(MAX_LEVEL - 1);
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                let next = tx.read(link)?;
                if next == NIL {
                    break;
                }
                let next_key = tx.read(Addr(next as usize))?;
                if next_key >= key_word {
                    break;
                }
                pred_node = Some(next);
                link = Self::node_link(next, lvl);
            }
            preds[lvl] = link;
            if lvl > 0 {
                link = match pred_node {
                    None => self.head_link(lvl - 1),
                    Some(base) => Self::node_link(base, lvl - 1),
                };
            }
        }
        let candidate = tx.read(preds[0])?;
        let found = if candidate != NIL && tx.read(Addr(candidate as usize))? == key_word {
            Some(candidate)
        } else {
            None
        };
        Ok((preds, found))
    }

    /// Looks `key` up.
    pub fn get(&self, tx: &mut dyn Tx, key: K) -> TxResult<Option<V>> {
        let (_, found) = self.find_preds(tx, key.into_word())?;
        match found {
            Some(node) => Ok(Some(V::from_word(tx.read(Addr(node as usize + 1))?))),
            None => Ok(None),
        }
    }

    /// Inserts or updates `key`, returning the previous value if any.
    ///
    /// A new node's block is allocated inside the transaction (`tx.alloc`),
    /// so an aborted insert leaves no trace.
    pub fn insert(&self, tx: &mut dyn Tx, key: K, value: V) -> TxResult<Option<V>> {
        let key_word = key.into_word();
        let (preds, found) = self.find_preds(tx, key_word)?;
        if let Some(node) = found {
            let value_addr = Addr(node as usize + 1);
            let old = tx.read(value_addr)?;
            tx.write(value_addr, value.into_word())?;
            return Ok(Some(V::from_word(old)));
        }
        let level = level_for(key_word);
        let base = tx.alloc(HDR + level)?;
        tx.write(base, key_word)?;
        tx.write(base.offset(1), value.into_word())?;
        tx.write(base.offset(2), level as u64)?;
        for (lvl, pred) in preds.iter().enumerate().take(level) {
            let next = tx.read(*pred)?;
            tx.write(Self::node_link(base.0 as u64, lvl), next)?;
            tx.write(*pred, base.0 as u64)?;
        }
        Ok(None)
    }

    /// Removes `key`, returning its value if it was present.  The node's
    /// block is freed inside the transaction.
    pub fn remove(&self, tx: &mut dyn Tx, key: K) -> TxResult<Option<V>> {
        let key_word = key.into_word();
        let (preds, found) = self.find_preds(tx, key_word)?;
        let Some(node) = found else {
            return Ok(None);
        };
        let old = tx.read(Addr(node as usize + 1))?;
        let level = tx.read(Addr(node as usize + 2))? as usize;
        for (lvl, pred) in preds.iter().enumerate().take(level) {
            // The node is linked at every level below its tower height, so
            // each of these preds' link words targets it.
            debug_assert_eq!(tx.read(*pred)?, node);
            let next = tx.read(Self::node_link(node, lvl))?;
            tx.write(*pred, next)?;
        }
        tx.free(Addr(node as usize), HDR + level)?;
        Ok(Some(V::from_word(old)))
    }

    /// Collects every entry with `lo <= key <= hi` (encoded-word order),
    /// ascending.  Read-only: runs on the snapshot fast path under
    /// `atomically_read`.
    pub fn range(&self, tx: &mut dyn Tx, lo: K, hi: K) -> TxResult<Vec<(K, V)>> {
        let lo_word = lo.into_word();
        let hi_word = hi.into_word();
        let mut out = Vec::new();
        let (preds, _) = self.find_preds(tx, lo_word)?;
        let mut node = tx.read(preds[0])?;
        while node != NIL {
            let key_word = tx.read(Addr(node as usize))?;
            if key_word > hi_word {
                break;
            }
            let value = tx.read(Addr(node as usize + 1))?;
            out.push((K::from_word(key_word), V::from_word(value)));
            node = tx.read(Self::node_link(node, 0))?;
        }
        Ok(out)
    }

    /// Non-transactional insert for benchmark/test setup **before** worker
    /// threads start (bypasses the runtimes entirely).
    pub fn insert_direct(&self, system: &TmSystem, key: K, value: V) -> Option<V> {
        let key_word = key.into_word();
        let mut preds = [Addr(0); MAX_LEVEL];
        let mut pred_node: Option<u64> = None;
        let mut link = self.head_link(MAX_LEVEL - 1);
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                let next = system.heap.load(link);
                if next == NIL || system.heap.load(Addr(next as usize)) >= key_word {
                    break;
                }
                pred_node = Some(next);
                link = Self::node_link(next, lvl);
            }
            preds[lvl] = link;
            if lvl > 0 {
                link = match pred_node {
                    None => self.head_link(lvl - 1),
                    Some(base) => Self::node_link(base, lvl - 1),
                };
            }
        }
        let candidate = system.heap.load(preds[0]);
        if candidate != NIL && system.heap.load(Addr(candidate as usize)) == key_word {
            let value_addr = Addr(candidate as usize + 1);
            let old = system.heap.load(value_addr);
            system.heap.store(value_addr, value.into_word());
            return Some(V::from_word(old));
        }
        let level = level_for(key_word);
        let base = system
            .heap
            .alloc(HDR + level)
            .expect("transactional heap exhausted");
        system.heap.store(base, key_word);
        system.heap.store(base.offset(1), value.into_word());
        system.heap.store(base.offset(2), level as u64);
        for (lvl, pred) in preds.iter().enumerate().take(level) {
            let next = system.heap.load(*pred);
            system.heap.store(Self::node_link(base.0 as u64, lvl), next);
            system.heap.store(*pred, base.0 as u64);
        }
        None
    }

    /// Non-transactional dump of every entry as `(key_word, value_word)` in
    /// key order (verification only; call when no transactions are running).
    pub fn dump_direct(&self, system: &TmSystem) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut node = system.heap.load(self.head_link(0));
        while node != NIL {
            out.push((
                system.heap.load(Addr(node as usize)),
                system.heap.load(Addr(node as usize + 1)),
            ));
            node = system.heap.load(Self::node_link(node, 0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tm_core::{DirectTx, TmConfig};

    fn setup() -> (Arc<TmSystem>, TmOrderedMap, DirectTx) {
        let system = TmSystem::new(TmConfig::small());
        let index = TmOrderedMap::new(&system);
        let tx = DirectTx::new(&system);
        (system, index, tx)
    }

    #[test]
    fn insert_get_update_remove_round_trip() {
        let (system, index, mut tx) = setup();
        assert_eq!(index.insert(&mut tx, 5, 50).unwrap(), None);
        assert_eq!(index.insert(&mut tx, 1, 10).unwrap(), None);
        assert_eq!(index.insert(&mut tx, 9, 90).unwrap(), None);
        assert_eq!(index.get(&mut tx, 5).unwrap(), Some(50));
        assert_eq!(index.get(&mut tx, 4).unwrap(), None);
        assert_eq!(index.insert(&mut tx, 5, 55).unwrap(), Some(50));
        assert_eq!(index.remove(&mut tx, 5).unwrap(), Some(55));
        assert_eq!(index.remove(&mut tx, 5).unwrap(), None);
        assert_eq!(index.dump_direct(&system), vec![(1, 10), (9, 90)]);
    }

    #[test]
    fn range_is_sorted_and_inclusive() {
        let (_system, index, mut tx) = setup();
        for k in [7u64, 3, 11, 1, 9, 5] {
            index.insert(&mut tx, k, k * 10).unwrap();
        }
        assert_eq!(
            index.range(&mut tx, 3, 9).unwrap(),
            vec![(3, 30), (5, 50), (7, 70), (9, 90)]
        );
        assert_eq!(index.range(&mut tx, 0, 100).unwrap().len(), 6);
        assert_eq!(index.range(&mut tx, 4, 4).unwrap(), vec![]);
        assert_eq!(index.range(&mut tx, 12, 3).unwrap(), vec![]);
    }

    #[test]
    fn matches_btreemap_model() {
        let (system, index, mut tx) = setup();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seed = 7u64;
        for i in 0..400u64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let key = seed % 64;
            match i % 4 {
                0 | 1 => {
                    assert_eq!(index.insert(&mut tx, key, i).unwrap(), model.insert(key, i));
                }
                2 => {
                    assert_eq!(index.remove(&mut tx, key).unwrap(), model.remove(&key));
                }
                _ => {
                    assert_eq!(index.get(&mut tx, key).unwrap(), model.get(&key).copied());
                }
            }
        }
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(index.dump_direct(&system), expected);
        let ranged = index.range(&mut tx, 0, u64::MAX - 1).unwrap();
        assert_eq!(ranged, expected);
    }

    #[test]
    fn direct_insert_matches_transactional_insert() {
        let (sys_a, index_a, mut tx) = setup();
        let sys_b = TmSystem::new(TmConfig::small());
        let index_b = TmOrderedMap::<u64, u64>::new(&sys_b);
        for k in [12u64, 4, 8, 2, 6, 10] {
            index_a.insert(&mut tx, k, k + 100).unwrap();
            index_b.insert_direct(&sys_b, k, k + 100);
        }
        assert_eq!(index_b.insert_direct(&sys_b, 4, 999), Some(104));
        index_a.insert(&mut tx, 4, 999).unwrap();
        assert_eq!(index_a.dump_direct(&sys_a), index_b.dump_direct(&sys_b));
    }

    #[test]
    fn removing_and_reinserting_keeps_tower_integrity() {
        // Deterministic towers mean a key reuses the same height every time;
        // remove/reinsert cycles must keep every level's chain sorted.
        let (system, index, mut tx) = setup();
        for k in 0..64u64 {
            index.insert(&mut tx, k, k).unwrap();
        }
        for k in (0..64u64).step_by(2) {
            assert_eq!(index.remove(&mut tx, k).unwrap(), Some(k));
        }
        for k in (0..64u64).step_by(2) {
            index.insert(&mut tx, k, k + 1000).unwrap();
        }
        let dump = index.dump_direct(&system);
        assert_eq!(dump.len(), 64);
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0), "sorted level 0");
        assert_eq!(index.get(&mut tx, 6).unwrap(), Some(1006));
        assert_eq!(index.get(&mut tx, 7).unwrap(), Some(7));
    }

    #[test]
    fn tower_heights_are_deterministic_and_plausibly_geometric() {
        let mut ones = 0usize;
        for k in 0..4096u64 {
            let l = level_for(k);
            assert_eq!(l, level_for(k), "height is a pure function of the key");
            assert!((1..=MAX_LEVEL).contains(&l));
            if l == 1 {
                ones += 1;
            }
        }
        // Geometric(1/2): about half of all keys stay at level 1.
        assert!(
            (1500..=2600).contains(&ones),
            "level-1 fraction {ones}/4096"
        );
    }
}
