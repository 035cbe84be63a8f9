//! A set of small dense indices, kept as a bitset.
//!
//! The scheduler's ready and round sets and the device fabric's touched-GPU
//! set hold indices into dense tables (engine slots, GPUs) and are drained
//! in ascending order. [`SlotSet`] stores them one bit each in `u64` words
//! and keeps a low-word cursor, so `insert` is a bit-or and `pop_first`
//! skips the drained prefix instead of rescanning it: draining a set that
//! spans `w` words costs O(w + popped), and nothing is allocated once the
//! words have grown to the largest index seen.

/// An ordered set of `usize` indices, popped smallest first.
#[derive(Clone, Debug, Default)]
pub struct SlotSet {
    words: Vec<u64>,
    /// No word below this one has a bit set.
    low: usize,
    len: usize,
}

impl SlotSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `i`; returns whether it was absent. Grows the words to cover
    /// `i`, so the set's memory is set by its largest index.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        self.low = self.low.min(w);
        true
    }

    /// Remove and return the smallest index.
    pub fn pop_first(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.words[self.low] == 0 {
            self.low += 1;
        }
        let word = self.words[self.low];
        self.words[self.low] = word & (word - 1);
        self.len -= 1;
        Some(self.low * 64 + word.trailing_zeros() as usize)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn pops_in_ascending_order_across_words() {
        let mut s = SlotSet::new();
        for i in [130, 3, 64, 63, 0, 3] {
            s.insert(i);
        }
        assert!(!s.insert(3), "already present");
        let popped: Vec<_> = std::iter::from_fn(|| s.pop_first()).collect();
        assert_eq!(popped, vec![0, 3, 63, 64, 130]);
        assert!(s.is_empty());
    }

    proptest! {
        /// Random inserts and pops, including inserts below the low
        /// cursor after pops have moved it and inserts past the last
        /// word, agree with a `BTreeSet<usize>` at every step.
        #[test]
        fn set_matches_a_btreeset(
            ops in proptest::collection::vec((0u8..3, 0usize..400), 1..300)
        ) {
            let mut s = SlotSet::new();
            let mut model = BTreeSet::new();
            for &(op, i) in &ops {
                if op == 0 {
                    prop_assert_eq!(s.pop_first(), model.pop_first());
                } else {
                    prop_assert_eq!(s.insert(i), model.insert(i));
                }
                prop_assert_eq!(s.is_empty(), model.is_empty());
            }
            while let Some(i) = model.pop_first() {
                prop_assert_eq!(s.pop_first(), Some(i));
            }
            prop_assert_eq!(s.pop_first(), None);
        }
    }
}
