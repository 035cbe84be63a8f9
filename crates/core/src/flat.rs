//! Dense tables for small, hot maps: a sorted-vector map, and a window
//! over monotone ids.
//!
//! The per-NIC transport tables hold a handful to a few dozen live flows
//! each, but a 10k-GPU world carries ten thousand of these tables and the
//! engine loop sweeps them every poll. A `BTreeMap` pays pointer-chasing
//! and node overhead per probe; [`FlatMap`] stores `(key, value)` pairs in
//! one sorted `Vec` — binary-search lookups, cache-line-friendly ordered
//! sweeps, and `O(n)` shifts on insert/remove that are cheap at these
//! sizes. Iteration order is ascending key order, exactly like the
//! `BTreeMap` it replaces, so digest-visible event ordering is unchanged.
//!
//! `IdWindow` is for keys handed out by a counter (flow ids, task
//! tokens, request and sequence numbers): the live keys sit in a narrow
//! band just behind the counter, so a deque of slots over that band is
//! indexed by `key - base` with no hashing and no search.

use std::collections::VecDeque;

/// A map backed by a single sorted vector. API mirrors the subset of
/// `BTreeMap` the engines use, so it is a drop-in replacement at the type
/// level.
#[derive(Debug, Clone)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    fn pos(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.pos(key).is_ok()
    }

    /// Insert, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.pos(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove and return `key`'s value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.pos(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Shared access.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.pos(key).ok().map(|i| &self.entries[i].1)
    }

    /// Exclusive access.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.pos(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Mutable `(key, value)` pairs in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Exclusive access to `key`'s value, inserting `default` first if
    /// absent (`BTreeMap::entry(..).or_insert(..)` for the common case).
    pub fn get_or_insert(&mut self, key: K, default: V) -> &mut V {
        let i = match self.pos(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Keep only entries for which `pred` returns true, in ascending
    /// key order.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| pred(k, v));
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A map over `u64` keys stored as a window of slots from the oldest
/// live key (`base`) to the newest. Removing the oldest entries reclaims
/// the slots in front, so memory follows the live-key *span*, not the
/// number of keys ever inserted; a key below `base` grows the window at
/// the front. A key that is never removed pins the window's front, so
/// this suits tables whose entries all retire.
#[derive(Debug)]
pub(crate) struct IdWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> IdWindow<T> {
    /// Insert, returning the previous value for `id` if any.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Remove and return `id`'s value.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let out = self.slots.get_mut(idx)?.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        out
    }

    /// Shared access (the model tests' probe).
    #[cfg(test)]
    pub fn get(&self, id: u64) -> Option<&T> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get(idx)?.as_ref()
    }

    /// Number of entries (O(window)).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn mirrors_btreemap_under_churn() {
        let mut flat: FlatMap<u64, u64> = FlatMap::new();
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        // Deterministic keyed churn; xorshift-style mixing for spread.
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 64;
            if step % 3 == 0 {
                assert_eq!(flat.remove(&k), map.remove(&k));
            } else {
                assert_eq!(flat.insert(k, step), map.insert(k, step));
            }
            assert_eq!(flat.len(), map.len());
            assert_eq!(flat.get(&k), map.get(&k));
        }
        assert!(flat.keys().eq(map.keys()), "identical ascending order");
        assert!(flat.iter().eq(map.iter()));
    }

    #[test]
    fn get_or_insert_retain_clear() {
        let mut m: FlatMap<u32, u32> = FlatMap::new();
        *m.get_or_insert(5, 0) += 1;
        *m.get_or_insert(5, 0) += 1;
        *m.get_or_insert(2, 10) += 1;
        assert_eq!(m.get(&5), Some(&2));
        assert_eq!(m.get(&2), Some(&11));
        m.retain(|k, _| *k > 2);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&5));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut m = FlatMap::new();
        m.insert(3u32, "c");
        m.insert(1, "a");
        assert!(!m.is_empty());
        *m.get_mut(&1).unwrap() = "z";
        assert_eq!(m.get(&1), Some(&"z"));
        assert!(m.contains_key(&3));
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec!["z", "c"]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random inserts, overwrites and removes over a drifting key
            /// band — keys below the current base included — agree with
            /// a `BTreeMap`, and the window never spans more than the
            /// live keys do.
            #[test]
            fn window_matches_a_keyed_map(
                ops in proptest::collection::vec((0u8..3, 0u64..48), 1..200)
            ) {
                let mut w: IdWindow<usize> = IdWindow::default();
                let mut model = BTreeMap::new();
                for (step, &(op, k)) in ops.iter().enumerate() {
                    // The band drifts upward like a counter's live keys.
                    let id = k + step as u64 / 4;
                    if op == 0 {
                        prop_assert_eq!(w.remove(id), model.remove(&id));
                    } else {
                        prop_assert_eq!(w.insert(id, step), model.insert(id, step));
                    }
                    prop_assert_eq!(w.get(id), model.get(&id));
                    prop_assert_eq!(w.len(), model.len());
                    if let Some((&lo, _)) = model.first_key_value() {
                        prop_assert_eq!(w.base, lo, "front trimmed to the oldest live key");
                    }
                }
                for (&id, v) in &model {
                    prop_assert_eq!(w.get(id), Some(v));
                }
            }
        }
    }
}
