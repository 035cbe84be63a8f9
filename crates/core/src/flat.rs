//! Dense tables for small, hot maps: a sorted-vector map.
//!
//! The per-NIC transport tables hold a handful to a few dozen live flows
//! each, but a 10k-GPU world carries ten thousand of these tables and the
//! engine loop sweeps them every poll. A `BTreeMap` pays pointer-chasing
//! and node overhead per probe; [`FlatMap`] stores `(key, value)` pairs in
//! one sorted `Vec` — binary-search lookups, cache-line-friendly ordered
//! sweeps, and `O(n)` shifts on insert/remove that are cheap at these
//! sizes. Iteration order is ascending key order, exactly like the
//! `BTreeMap` it replaces, so digest-visible event ordering is unchanged.
//! Keys handed out by a counter go in [`mccs_sim::IdWindow`] instead.

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
}
