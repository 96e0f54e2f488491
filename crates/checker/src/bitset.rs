//! Fixed-size bit sets used by the set-based model checker.
//!
//! NuSMV represents state sets with BDDs; for the model sizes Soteria produces (tens
//! to a few thousand states) packed bit vectors give the same fixpoint algorithms with
//! exact semantics and predictable performance.

/// A fixed-capacity set of state indices backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` states.
    pub fn empty(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The full set over a universe of `len` states.
    pub fn full(len: usize) -> Self {
        let mut set = BitSet { words: vec![u64::MAX; len.div_ceil(64)], len };
        let extra = set.words.len() * 64 - len;
        if extra > 0 {
            if let Some(last) = set.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
        set
    }

    /// The universe size.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts a state index.
    pub fn insert(&mut self, index: usize) {
        debug_assert!(index < self.len);
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Removes a state index.
    pub fn remove(&mut self, index: usize) {
        debug_assert!(index < self.len);
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Membership test.
    pub fn contains(&self, index: usize) -> bool {
        index < self.len && (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Set union (in place).
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set intersection (in place).
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Set difference (in place): removes every member of `other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Set complement (in place), restricted to the universe.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        // Clear bits beyond the universe.
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            let mask = u64::MAX >> extra;
            if let Some(last) = self.words.last_mut() {
                *last &= mask;
            }
        }
    }

    /// True if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over member indices in increasing order.
    ///
    /// The iterator walks the set words and peels bits with `trailing_zeros`, so a
    /// sparse set over a large universe is traversed in O(words + members) rather
    /// than O(universe) membership tests — this is what lets the checker's pre-image
    /// iterate "set words of the target bitset rather than bit-by-bit".
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| WordBits { word, base: i * 64 })
    }
}

/// Iterator over the set bits of one 64-bit word.
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::empty(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        assert!(!s.contains(100));
        assert_eq!(s.count(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn set_operations() {
        let mut a = BitSet::empty(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::empty(10);
        b.insert(2);
        b.insert(3);
        let mut union = a.clone();
        union.union_with(&b);
        assert_eq!(union.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![2]);
        assert!(inter.is_subset_of(&a));
        assert!(inter.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(diff.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn complement_respects_universe() {
        let mut s = BitSet::empty(70);
        s.insert(0);
        s.insert(69);
        s.complement();
        assert!(!s.contains(0));
        assert!(!s.contains(69));
        assert!(s.contains(1));
        assert_eq!(s.count(), 68);
        // Double complement restores the original.
        s.complement();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    fn iter_skips_empty_words() {
        let mut s = BitSet::empty(400);
        for i in [0, 63, 64, 127, 320, 399] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 320, 399]);
        assert_eq!(BitSet::empty(400).iter().count(), 0);
        assert_eq!(BitSet::full(130).iter().collect::<Vec<_>>(), (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn full_set() {
        let s = BitSet::full(65);
        assert_eq!(s.count(), 65);
        assert!(s.contains(64));
        assert_eq!(s.capacity(), 65);
    }
}
