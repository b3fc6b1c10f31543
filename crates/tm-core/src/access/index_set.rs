//! Insertion-ordered sets of small indices (lock sets, line-slot sets).

use super::index::PosMap;

/// A deduplicating set of `usize` indices that remembers insertion order.
///
/// Used for the eager STM's lock set (orec indices held by the attempt) and
/// the HTM simulator's speculative read/write line-slot sets, whose
/// per-access `Vec::contains` membership test was O(set size).
#[derive(Debug, Default)]
pub struct IndexSet {
    entries: Vec<usize>,
    index: PosMap,
}

impl IndexSet {
    /// An empty set (no allocation until the first insert).
    pub fn new() -> Self {
        IndexSet::default()
    }

    /// Number of distinct indices held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts `idx`; returns `true` if it was not already present.
    pub fn insert(&mut self, idx: usize) -> bool {
        let entries = &self.entries;
        if self
            .index
            .insert_or_find(entries.len(), idx as u64, |pos| {
                entries[pos as usize] as u64
            })
            .is_some()
        {
            return false;
        }
        self.entries.push(idx);
        true
    }

    /// True if `idx` is in the set — O(1).
    pub fn contains(&self, idx: usize) -> bool {
        let entries = &self.entries;
        self.index
            .lookup(idx as u64, |pos| entries[pos as usize] == idx)
            .is_some()
    }

    /// The indices in insertion order.
    pub fn as_slice(&self) -> &[usize] {
        &self.entries
    }

    /// Iterates the indices in insertion order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.entries.iter().copied()
    }

    /// Allocated capacity (entry vector or hash slab).
    pub fn capacity(&self) -> usize {
        self.entries.capacity().max(self.index.capacity())
    }

    /// Empties the set, keeping allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates_and_keeps_order() {
        let mut s = IndexSet::new();
        assert!(s.insert(9));
        assert!(s.insert(2));
        assert!(!s.insert(9));
        assert!(s.insert(5));
        assert_eq!(s.as_slice(), &[9, 2, 5]);
        assert!(s.contains(2));
        assert!(!s.contains(3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = IndexSet::new();
        for i in 0..300 {
            s.insert(i);
        }
        let cap = s.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap);
    }
}
